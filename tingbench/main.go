// Command tingbench is the repository's benchmark. It runs one seeded
// workload against the program's Go API in-process, checks the
// workload's outputs, and prints its metrics: every end-to-end metric
// untraced (-trace 0), or every per-layer metric from a traced run set
// beside an untraced one (-trace 1). The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage, from the repository root (run.sh builds and runs it):
//
//	bash tingbench/run.sh --workload stack-scan --seed 1 --seconds 20 --trace 0
//
// Workloads: stack-scan, campaign-model, serve-epochs. METRICS.md defines
// every metric per workload and says why each workload exists.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// watchdog bounds a whole run: a hung workload must fail the run, not
// stall whoever is waiting for it.
const watchdog = 150 * time.Second

// A run builds its workload several times to report the median set-up
// time, and measures the last build: at least setupMinRounds builds, more
// until they have taken setupBudget, at most setupMaxRounds. A build of a
// few milliseconds is one scheduling hiccup away from twice its time, so
// the cheap builds repeat most.
const (
	setupMinRounds = 5
	setupMaxRounds = 25
	setupBudget    = 2 * time.Second
)

// env is what a workload is built from: the seed its inputs come from, a
// scratch directory inside the checkout for its files, and whether the
// traced instrumentation is switched on.
type env struct {
	seed   int64
	dir    string
	traced bool
	// burn, when positive, makes the stack-scan prober decorator spin this
	// fraction of each series' own duration on top of it: the planted
	// slowdown the sensitivity test uses. Zero in every benchmark run.
	burn float64
	// campDelay, when positive, holds every CAMP connection this long before
	// the coordinator sees it: the planted slowdown of the campaign-model
	// sensitivity test. Zero in every benchmark run.
	campDelay time.Duration
	tr        *tracer
}

// outcome is one measured phase of a workload: its operation counts, the
// checks it failed, and its metric values by name.
type outcome struct {
	attempted, failed int64
	violations        []string
	values            map[string]float64
	notes             []string
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// check records a failed output check; it counts as one failed operation.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
		o.failed++
	}
}

// failN records that n operations failed one check.
func (o *outcome) failN(n int64, format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
	o.failed += n
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// setTail stores a latency distribution as name_p50 / name_p99 and notes
// which percentile the tail was read at and over how many samples.
func (o *outcome) setTail(prefix string, t tail) {
	o.values[prefix+"_p50"] = t.P50
	o.values[prefix+"_p99"] = t.Hi
	o.note("%s: p50 %.4g, p%.4g %.4g over %d samples", prefix, t.P50, t.Pct, t.Hi, t.N)
}

// instance is a built workload, ready to measure.
type instance interface {
	// warm runs the workload once untimed, so caches fill and lazy set-up
	// finishes before measuring.
	warm(ctx context.Context) error
	// measure runs the workload for about d and reports what it saw.
	measure(ctx context.Context, d time.Duration) (*outcome, error)
	close()
}

type workload struct {
	name  string
	why   string
	build func(e *env) (instance, error)
}

var workloads = []workload{
	{"stack-scan", "full-stack all-pairs scan over an in-process onion overlay: cell, link, onion crypto, relay, client, echo, Eq. 4", newStackScan},
	{"campaign-model", "journaled coordinator and two checkpointing workers over the CAMP transport, then merge, encode and publish", newCampaign},
	{"serve-epochs", "binary and HTTP lookups against a 2048-relay matrix republished every 250 ms", newServeEpochs},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload to run: stack-scan, campaign-model or serve-epochs")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: tingbench --workload stack-scan|campaign-model|serve-epochs --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "tingbench:", err)
		os.Exit(1)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "tingbench: %s: no result after %s\n", w.name, watchdog)
		os.RemoveAll(dir)
		os.Exit(1)
	})
	d := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 0 {
		res, err = runUntraced(w, *seed, dir, d)
	} else {
		res, err = runTraced(w, *seed, dir, d)
	}
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tingbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tingbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildMedian builds the workload as the set-up constants say, closes all
// but the last build, and returns it with the build times in seconds, each
// scaled to the reference host speed by the probes either side of it.
func buildMedian(w workload, e *env) (instance, []float64, error) {
	var (
		times []float64
		inst  instance
		track speedTrack
	)
	track.pause()
	var spent time.Duration
	for i := 0; i < setupMaxRounds && (i < setupMinRounds || spent < setupBudget); i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		inst, err = w.build(e)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start)
		spent += took
		t := took.Seconds()
		track.pause()
		times = append(times, t*track.wallScale(i))
	}
	return inst, times, nil
}

// runPhase builds (once, or as buildMedian does), warms and measures one
// instance of the workload, and returns the set-up times in seconds.
func runPhase(w workload, e *env, d time.Duration, rounds bool) (*outcome, []float64, error) {
	var (
		inst  instance
		setup []float64
		err   error
	)
	if rounds {
		inst, setup, err = buildMedian(w, e)
	} else {
		started := time.Now()
		inst, err = w.build(e)
		setup = []float64{time.Since(started).Seconds()}
	}
	if err != nil {
		return nil, nil, err
	}
	defer inst.close()
	ctx := context.Background()
	if err := inst.warm(ctx); err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	mark := markRuntime()
	out, err := inst.measure(ctx, d)
	if err != nil {
		return nil, nil, err
	}
	rt := mark.until(markRuntime())
	out.values["runtime.gc_cpu_ratio"] = rt.GCCPURatio
	gc := reduce(rt.PauseUs)
	out.values["runtime.gc_pause_us_p99"] = gc.Hi
	out.note("runtime: %d GC cycles, pause p%.4g %.4g us, GC CPU share %.3f", gc.N, gc.Pct, gc.Hi, rt.GCCPURatio)
	return out, setup, nil
}

func runUntraced(w workload, seed int64, dir string, d time.Duration) (*result, error) {
	e := &env{seed: seed, dir: dir}
	out, setup, err := runPhase(w, e, d, true)
	if err != nil {
		return nil, err
	}
	out.values["setup_s"] = median(setup)
	out.note("set-up builds (s, scaled): %.4g", setup)
	return report(w, out, endToEnd)
}

// runTraced measures the workload untraced for half the time and traced
// for the other half. The per-layer metrics come from the traced half; the
// untraced half is the baseline its tracing overhead is reported against.
func runTraced(w workload, seed int64, dir string, d time.Duration) (*result, error) {
	base, _, err := runPhase(w, &env{seed: seed, dir: dir}, d/2, false)
	if err != nil {
		return nil, err
	}
	e := &env{seed: seed, dir: dir, traced: true, tr: newTracer()}
	out, _, err := runPhase(w, e, d/2, false)
	if err != nil {
		return nil, err
	}
	out.values["latency_us_p99"] = base.values["latency_us_p99"]
	out.values["runtime.peak_rss_mb"] = peakRSSMB()
	untracedTP, tracedTP := base.values["throughput_per_s"], out.values["throughput_per_s"]
	if tracedTP > 0 {
		out.values["trace.overhead_pct"] = 100 * (untracedTP/tracedTP - 1)
	}
	out.note("tracing overhead: throughput %.4g/s untraced, %.4g/s traced", untracedTP, tracedTP)
	out.notes = append(out.notes, e.tr.summary()...)
	path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, seed))
	if err := e.tr.write(path); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	out.note("spans written to %s", path)
	for _, def := range perLayer {
		if _, ok := out.values[def.Name]; !ok && !def.measuredOn(w.name) {
			out.values[def.Name] = 0
		}
	}
	out.attempted += base.attempted
	out.failed += base.failed
	out.violations = append(base.violations, out.violations...)
	return report(w, out, perLayer)
}

// report prints the human-readable lines and builds the JSON result over
// exactly the metrics in defs. A metric a phase did not set is an error:
// it would otherwise be reported as a silent zero.
func report(w workload, out *outcome, defs []metricDef) (*result, error) {
	fmt.Printf("workload %s: %s\n", w.name, w.why)
	for _, n := range out.notes {
		fmt.Println(" ", n)
	}
	res := &result{
		Correct:   len(out.violations) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	var missing []string
	for _, def := range defs {
		v, ok := out.values[def.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, def.Name)
			continue
		}
		res.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
		fmt.Printf("  %-36s %14.6g %s\n", def.Name, v, def.Unit)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	for _, v := range out.violations {
		fmt.Println("  CHECK FAILED:", v)
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	return res, nil
}
