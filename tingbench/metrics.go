package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's whole vocabulary: every untraced run prints every
// end-to-end metric and every traced run every per-layer metric, on every
// workload, so each name is defined for each workload (METRICS.md).
type metricDef struct {
	Name, Unit string
	// On lists the workloads whose traced run exercises the layer; on the
	// others a per-layer metric reads 0, "this layer did no work". Unset for
	// end-to-end metrics, which every workload defines.
	On []string
}

var (
	onStack    = []string{"stack-scan"}
	onCampaign = []string{"campaign-model"}
	onServe    = []string{"serve-epochs"}
	onScans    = []string{"stack-scan", "campaign-model"}
	onAll      = []string{"stack-scan", "campaign-model", "serve-epochs"}
)

// measuredOn reports whether workload exercises the metric's layer.
func (d metricDef) measuredOn(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "throughput_per_s", Unit: "1/s"},
	{Name: "cpu_us_per_op", Unit: "us"},
	{Name: "first_epoch_s", Unit: "s"},
	{Name: "latency_us_p50", Unit: "us"},
	{Name: "heap_live_mb", Unit: "MB"},
}

var perLayer = []metricDef{
	// The untraced tail of latency_us_p50's distribution: on a shared 2-core
	// VM it did not repeat within a tenth between runs, so it has no bound.
	{"latency_us_p99", "us", onAll},
	// ting: the measurement layer (Measurer, HalfCache, Scanner).
	{"ting.pair_ms_p50", "ms", onScans},
	{"ting.pair_ms_p99", "ms", onScans},
	{"ting.circuit_ms_p50", "ms", onScans},
	{"ting.circuit_ms_p99", "ms", onScans},
	{"ting.worker_busy_ratio", "ratio", onScans},
	{"ting.series_per_pair", "ratio", onScans},
	{"ting.halfcache_hit_ratio", "ratio", onScans},
	{"ting.halfcache_waits", "count", onScans},
	// client/relay: the onion stack assembled by tornet.
	{"client.circuits_built_per_pair", "ratio", onStack},
	{"client.handshakes_per_pair", "ratio", onStack},
	{"client.extends_per_pair", "ratio", onStack},
	{"client.streams_per_pair", "ratio", onStack},
	{"relay.cells_per_pair", "ratio", onStack},
	// campaign: coordinator, journal, CAMP transport, workers.
	{"campaign.acquire_ms_p50", "ms", onCampaign},
	{"campaign.acquire_ms_p99", "ms", onCampaign},
	{"campaign.complete_ms_p50", "ms", onCampaign},
	{"campaign.complete_ms_p99", "ms", onCampaign},
	{"campaign.journal_bytes_per_pair", "B", onCampaign},
	{"campaign.journal_records_per_shard", "ratio", onCampaign},
	{"ting.checkpoint_bytes_per_pair", "B", onCampaign},
	{"campaign.worker_idle_ratio", "ratio", onCampaign},
	{"ting.scanpairs_ms_p50", "ms", onCampaign},
	{"ting.scanpairs_ms_p99", "ms", onCampaign},
	// ting matrix merge/codec and serve publish on the campaign path.
	{"ting.merge_ms", "ms", onCampaign},
	{"ting.encode_ms", "ms", onCampaign},
	{"ting.encode_bytes", "B", onCampaign},
	{"serve.publish_ms", "ms", onCampaign},
	// serve: epoch writer and the binary/HTTP read paths.
	{"serve.publish_ms_p50", "ms", onServe},
	{"serve.publish_ms_p99", "ms", onServe},
	{"ting.clone_ms", "ms", onServe},
	{"serve.cpu_us_per_lookup", "us", onServe},
	{"runtime.alloc_bytes_per_lookup", "B", onServe},
	{"serve.bin_batch_us_p50", "us", onServe},
	{"serve.bin_batch_us_p99", "us", onServe},
	{"serve.http_rtt_us_p50", "us", onServe},
	{"serve.http_rtt_us_p99", "us", onServe},
	{"serve.paths_us_p50", "us", onServe},
	{"serve.paths_us_p99", "us", onServe},
	{"serve.generator_lag_us_p99", "us", onServe},
	// The reference kernel's probes: how fast the host ran (calib.go).
	{"host.probe_wall_ms", "ms", onAll},
	{"host.probe_cpu_ms", "ms", onAll},
	// Go runtime.
	{"runtime.peak_rss_mb", "MB", onAll},
	{"runtime.alloc_bytes_per_pair", "B", onScans},
	{"runtime.gc_cpu_ratio", "ratio", onAll},
	{"runtime.gc_pause_us_p99", "us", onAll},
	// The traced run against the untraced one.
	{"trace.overhead_pct", "%", onAll},
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (ru_maxrss, KiB on
// Linux) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runtimeMark is a point-in-time reading of the Go runtime's allocation
// and GC accounting; two marks bracket a measured phase.
type runtimeMark struct {
	totalAlloc uint64
	numGC      uint32
	gcCPU      float64
	allCPU     float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func markRuntime() runtimeMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	m := runtimeMark{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		m.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		m.allCPU = s[1].Value.Float64()
	}
	return m
}

// runtimeDelta is the runtime's accounting between two marks.
type runtimeDelta struct {
	AllocBytes float64
	GCCPURatio float64
	// PauseUs holds the stop-the-world pauses of the GC cycles that ran
	// between the marks (at most the runtime's last 256).
	PauseUs []float64
}

func (a runtimeMark) until(b runtimeMark) runtimeDelta {
	d := runtimeDelta{AllocBytes: float64(b.totalAlloc - a.totalAlloc)}
	if cpu := b.allCPU - a.allCPU; cpu > 0 {
		d.GCCPURatio = (b.gcCPU - a.gcCPU) / cpu
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cycles := int(b.numGC - a.numGC)
	if cycles > len(ms.PauseNs) {
		cycles = len(ms.PauseNs)
	}
	for k := 0; k < cycles; k++ {
		// PauseNs is a ring indexed by (NumGC+255)%256 for the latest cycle.
		i := (int(b.numGC) - 1 - k + len(ms.PauseNs)) % len(ms.PauseNs)
		d.PauseUs = append(d.PauseUs, float64(ms.PauseNs[i])/1e3)
	}
	return d
}
