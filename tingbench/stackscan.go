package main

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"ting/internal/geo"
	"ting/internal/inet"
	"ting/internal/serve"
	"ting/internal/telemetry"
	"ting/internal/ting"
	"ting/internal/tornet"
)

// stack-scan sizing. A 32-relay scan is 496 pairs and 528 circuit series;
// stackSamples keeps one scan near a second on a 2-core host, so a run
// measures many whole scans.
const (
	stackRelays  = 32
	stackSamples = 20
	stackWorkers = 2
	// stackTimeScale maps the topology's virtual milliseconds to picoseconds
	// of wall time: tiny but positive (TimeScale <= 0 means real time), so
	// link delays vanish and a scan's wall time is the stack's own CPU.
	stackTimeScale = 1e-9
)

type stackScan struct {
	e     *env
	net   *tornet.Net
	reg   *telemetry.Registry
	names []string
	pub   *serve.Publisher

	series  atomic.Int64
	scanID  atomic.Uint64 // current scan span, for child spans
	obs     *scanObserver
	latency *pairLatency
	sc      *ting.Scanner
}

func newStackScan(e *env) (instance, error) {
	topo, err := inet.Generate(inet.Config{N: stackRelays, Seed: e.seed, FlatRegions: true})
	if err != nil {
		return nil, err
	}
	host := topo.AddHost("ting-host", geo.Coord{Lat: 38.99, Lon: -76.94}, e.seed+7)
	s := &stackScan{e: e, pub: serve.NewPublisher(nil)}
	if e.traced {
		s.reg = telemetry.New()
	}
	s.net, err = tornet.Build(tornet.Config{
		Topology:  topo,
		Host:      host,
		TimeScale: stackTimeScale,
		Seed:      e.seed,
		Telemetry: s.reg,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < stackRelays; i++ {
		name, ok := s.net.NodeName(inet.NodeID(i))
		if !ok {
			s.net.Close()
			return nil, fmt.Errorf("no relay at node %d", i)
		}
		s.names = append(s.names, name)
	}

	var measObs *ting.Observer
	if e.traced {
		s.obs = &scanObserver{tr: e.tr, parent: s.scanID.Load}
		measObs = s.obs.observer()
	} else {
		s.latency = &pairLatency{}
		measObs = s.latency.observer()
	}
	s.sc = &ting.Scanner{
		NewMeasurer: func(int) (*ting.Measurer, error) {
			p := wrapProber(&probe{
				inner: &ting.StackProber{
					Client:   s.net.Client,
					Registry: s.net.Registry,
					Target:   tornet.EchoTarget,
					ToMs:     s.net.VirtualMs,
				},
				series: &s.series,
				tr:     e.tr,
				parent: s.scanID.Load,
				burn:   e.burn,
			})
			return ting.NewMeasurer(ting.Config{
				Prober:   p,
				W:        tornet.WName,
				Z:        tornet.ZName,
				Samples:  stackSamples,
				Observer: measObs,
			})
		},
		Workers: stackWorkers,
	}
	if e.traced {
		s.sc.Observer = measObs
	}
	return s, nil
}

func (s *stackScan) close() { s.net.Close() }

func (s *stackScan) warm(ctx context.Context) error {
	_, _, err := s.sc.Scan(ctx, s.names)
	return err
}

// scanOnce runs one timed all-pairs scan, publishes its matrix and reads a
// cell back through the publisher, checking the scan's output.
func (s *stackScan) scanOnce(ctx context.Context, out *outcome) (time.Duration, error) {
	n := len(s.names)
	pairs := n * (n - 1) / 2
	series0 := s.series.Load()
	start := time.Now()
	id := s.e.tr.id()
	s.scanID.Store(id)
	m, fails, err := s.sc.Scan(ctx, s.names)
	if err != nil {
		return 0, fmt.Errorf("scan: %w", err)
	}
	pubStart := time.Now()
	snap, err := s.pub.Publish(m)
	if err != nil {
		return 0, fmt.Errorf("publish: %w", err)
	}
	cur := s.pub.Current()
	got, err := cur.View().RTT(s.names[0], s.names[n-1])
	end := time.Now()
	s.e.tr.add(0, id, "", "publish", pubStart, end)
	s.e.tr.add(id, 0, fmt.Sprintf("scan-%d", id), "scan", start, end)

	out.attempted += int64(pairs)
	out.check(err == nil && cur.Epoch() == snap.Epoch() && got == m.At(0, n-1),
		"lookup after publish: epoch %d want %d, rtt %v, err %v", cur.Epoch(), snap.Epoch(), got, err)
	out.check(len(fails) == 0, "%d pairs failed", len(fails))
	bad := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := m.At(i, j)
			if m.ProvAt(i, j) != ting.ProvFresh || math.IsNaN(v) || math.IsInf(v, 0) {
				bad++
			}
		}
	}
	out.check(bad == 0, "%d of %d pairs not measured fresh with a finite estimate", bad, pairs)
	series := s.series.Load() - series0
	out.check(series == int64(pairs+n), "%d circuit series sampled, want pairs+N = %d", series, pairs+n)
	return end.Sub(start), nil
}

func (s *stackScan) measure(ctx context.Context, d time.Duration) (*outcome, error) {
	out := newOutcome()
	var (
		scanTimes, cpuPerPair []float64
		rawTimes, rawCPU      []float64
		wall, cpu             time.Duration
		scans, latencies      int
		track                 speedTrack
	)
	if s.e.traced {
		s.obs.reset()
	} else {
		s.latency.reset()
	}
	before := s.counters()
	mark := markRuntime()
	n := len(s.names)
	perScan := float64(n * (n - 1) / 2)
	track.pause()
	for wall < d {
		cpu0 := cpuTime()
		t, err := s.scanOnce(ctx, out)
		if err != nil {
			return nil, err
		}
		c := cpuTime() - cpu0
		track.pause()
		wall += t
		cpu += c
		rawTimes = append(rawTimes, t.Seconds())
		rawCPU = append(rawCPU, us(c)/perScan)
		scanTimes = append(scanTimes, t.Seconds()*track.wallScale(scans))
		cpuPerPair = append(cpuPerPair, us(c)/perScan*track.cpuScale(scans))
		if !s.e.traced {
			latencies = s.latency.scaleFrom(latencies, track.wallScale(scans))
		}
		scans++
	}
	rt := mark.until(markRuntime())
	pairs := float64(out.attempted)
	// Per-scan medians of figures scaled to the reference host speed: a
	// scan slowed by a burst of host noise moves the run's figures by one
	// rank, not by its whole delay.
	out.values["first_epoch_s"] = median(scanTimes)
	out.values["throughput_per_s"] = perScan / median(scanTimes)
	out.values["cpu_us_per_op"] = median(cpuPerPair)
	out.values["runtime.alloc_bytes_per_pair"] = rt.AllocBytes / pairs
	out.note("%d scans of %d relays (%d samples per circuit), %.0f pairs in %.3f s, %.3f CPU-s",
		scans, len(s.names), stackSamples, pairs, wall.Seconds(), cpu.Seconds())
	out.note("unscaled: %.4g pairs/s, %.4g CPU-us per pair", perScan/median(rawTimes), median(rawCPU))
	track.report(out)
	if s.e.traced {
		s.obs.report(out, out.attempted, stackWorkers, wall)
		after := s.counters()
		for _, c := range []struct{ metric, counter string }{
			{"client.circuits_built_per_pair", "client.circuits_built"},
			{"client.handshakes_per_pair", "client.handshakes"},
			{"client.extends_per_pair", "client.extends"},
			{"client.streams_per_pair", "client.streams_opened"},
			{"relay.cells_per_pair", "relay.cells_relayed"},
		} {
			out.values[c.metric] = float64(after[c.counter]-before[c.counter]) / pairs
		}
	} else {
		out.setTail("latency_us", reduce(s.latency.us))
	}
	return out, nil
}

// counters reads the overlay's telemetry counters (empty untraced).
func (s *stackScan) counters() map[string]int64 {
	if s.reg == nil {
		return nil
	}
	return s.reg.Snapshot().Counters
}
