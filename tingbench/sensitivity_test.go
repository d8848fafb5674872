package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the tests read.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesBenchmark pins BENCHMARK.json to what the benchmark
// actually runs and prints.
func TestSpecMatchesBenchmark(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(s.EndToEnd) != len(endToEnd) || len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the benchmark %d and %d",
			len(s.EndToEnd), len(s.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range s.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for i, m := range s.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
}

// bound returns the end-to-end metric's bound and whether higher is better.
func bound(t *testing.T, metric string) (float64, bool) {
	t.Helper()
	for _, m := range readSpec(t).EndToEnd {
		if m.Name == metric {
			return m.Bound, m.Better == "higher"
		}
	}
	t.Fatalf("no end-to-end metric %q in BENCHMARK.json", metric)
	return 0, false
}

// worsening is how much worse head's median is than base's, as a share of
// base's median: the quantity the benchmark's bound caps.
func worsening(base, head []float64, higherBetter bool) float64 {
	b, h := median(base), median(head)
	if higherBetter {
		return (b - h) / b
	}
	return (h - b) / b
}

// sensitivity runs the workload untraced, alternating the unmodified
// benchmark, the planted slowdown and the wrapper with its slowdown
// removed, and checks that the bound catches the slowdown and only it.
func sensitivity(t *testing.T, w workload, metric string, d time.Duration, plant func(e *env)) {
	if testing.Short() {
		t.Skip("runs the workload nine times")
	}
	limit, higher := bound(t, metric)
	var base, slow, removed, baseCPU, slowCPU []float64
	for round := 0; round < 3; round++ {
		for _, v := range []struct {
			into  *[]float64
			plant bool
		}{{&base, false}, {&slow, true}, {&removed, false}} {
			e := &env{seed: 5, dir: t.TempDir()}
			if v.plant {
				plant(e)
			}
			out, _, err := runPhase(w, e, d, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.violations) > 0 {
				t.Fatalf("output checks failed: %v", out.violations)
			}
			*v.into = append(*v.into, out.values[metric])
			if v.into == &base {
				baseCPU = append(baseCPU, out.values["cpu_us_per_op"])
			} else if v.into == &slow {
				slowCPU = append(slowCPU, out.values["cpu_us_per_op"])
			}
		}
	}
	t.Logf("%s %s: base %v, planted %v, removed %v", w.name, metric, base, slow, removed)
	t.Logf("%s cpu_us_per_op: base median %.4g, planted median %.4g", w.name, median(baseCPU), median(slowCPU))
	if got := worsening(base, slow, higher); got <= limit {
		t.Errorf("planted slowdown worsened %s by %.3f, within its bound %.3f: the benchmark would not catch it", metric, got, limit)
	}
	if got := worsening(base, removed, higher); got > limit {
		t.Errorf("with the slowdown removed %s still worsened by %.3f, past its bound %.3f", metric, got, limit)
	}
}

// A prober wrapper that spins for 60% of each circuit series' own wall
// time must cost stack-scan more throughput than the bound allows.
func TestSensitivityStackScanProberBurn(t *testing.T) {
	w, _ := findWorkload("stack-scan")
	sensitivity(t, w, "throughput_per_s", 2*time.Second, func(e *env) { e.burn = 0.6 })
}

// A listener wrapper that holds every CAMP operation 10 ms must delay
// campaign-model's first served epoch past the bound.
func TestSensitivityCampaignDelayedCAMP(t *testing.T) {
	w, _ := findWorkload("campaign-model")
	sensitivity(t, w, "first_epoch_s", 3*time.Second, func(e *env) { e.campDelay = 10 * time.Millisecond })
}
