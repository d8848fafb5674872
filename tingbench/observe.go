package main

import (
	"sync"
	"time"

	"ting/internal/ting"
)

// scanObserver collects what the traced scan workloads read from
// ting.Observer: pair and circuit durations, half-cache outcomes and
// worker occupancy. One value is shared by the Scanner and every
// Measurer, as the Observer contract recommends.
type scanObserver struct {
	tr     *tracer
	parent func() uint64

	mu                 sync.Mutex
	pairMs, circuitMs  []float64
	halfHit, halfMiss  int64
	halfWait           int64
	active             int
	lastChange         time.Time
	busy               time.Duration // worker-time spent inside attempts
	circuits, circFail int64
}

func (s *scanObserver) observer() *ting.Observer {
	return &ting.Observer{
		CircuitDone: func(_ []string, _ int, elapsed time.Duration, err error) {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.circuits++
			if err != nil {
				s.circFail++
				return
			}
			s.circuitMs = append(s.circuitMs, ms(elapsed))
		},
		PairDone: func(x, y string, m *ting.Measurement, err error) {
			if m == nil {
				return
			}
			end := time.Now()
			s.tr.add(0, s.parent(), x+"-"+y, "pair", end.Add(-m.Elapsed), end)
			s.mu.Lock()
			s.pairMs = append(s.pairMs, ms(m.Elapsed))
			s.mu.Unlock()
		},
		HalfCircuit: func(_ []string, ev ting.HalfCircuitEvent) {
			s.mu.Lock()
			defer s.mu.Unlock()
			switch ev {
			case ting.HalfCircuitHit:
				s.halfHit++
			case ting.HalfCircuitMiss:
				s.halfMiss++
			case ting.HalfCircuitWait:
				s.halfWait++
			}
		},
		WorkerActive: func(delta int) {
			now := time.Now()
			s.mu.Lock()
			defer s.mu.Unlock()
			if !s.lastChange.IsZero() {
				s.busy += time.Duration(s.active) * now.Sub(s.lastChange)
			}
			s.active += delta
			s.lastChange = now
		},
	}
}

// reset forgets what warm-up recorded.
func (s *scanObserver) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pairMs, s.circuitMs = nil, nil
	s.halfHit, s.halfMiss, s.halfWait = 0, 0, 0
	s.busy, s.circuits, s.circFail = 0, 0, 0
}

// pairLatency is the one Observer hook the untraced scan workloads set:
// it collects each pair's wall time (Measurement.Elapsed), the per-pair
// latency end-to-end metric. Setting PairDone costs the Measurer one
// small allocation per pair.
type pairLatency struct {
	mu sync.Mutex
	us []float64
}

func (p *pairLatency) observer() *ting.Observer {
	return &ting.Observer{PairDone: func(_, _ string, m *ting.Measurement, _ error) {
		if m == nil {
			return
		}
		p.mu.Lock()
		p.us = append(p.us, us(m.Elapsed))
		p.mu.Unlock()
	}}
}

// scaleFrom multiplies the latencies from index from on by f and returns
// how many latencies there are: the next call's from.
func (p *pairLatency) scaleFrom(from int, f float64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := from; i < len(p.us); i++ {
		p.us[i] *= f
	}
	return len(p.us)
}

func (p *pairLatency) reset() {
	p.mu.Lock()
	p.us = nil
	p.mu.Unlock()
}

// report stores the observer's per-layer metrics, per measured pair.
func (s *scanObserver) report(out *outcome, pairs int64, workers int, wall time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pm := reduce(s.pairMs)
	out.setTail("ting.pair_ms", pm)
	cm := reduce(s.circuitMs)
	out.setTail("ting.circuit_ms", cm)
	if wall > 0 && workers > 0 {
		out.values["ting.worker_busy_ratio"] = float64(s.busy) / float64(time.Duration(workers)*wall)
	}
	if pairs > 0 {
		out.values["ting.series_per_pair"] = float64(s.circuits) / float64(pairs)
	}
	if n := s.halfHit + s.halfMiss + s.halfWait; n > 0 {
		out.values["ting.halfcache_hit_ratio"] = float64(s.halfHit) / float64(n)
	}
	out.values["ting.halfcache_waits"] = float64(s.halfWait)
	out.note("ting: %d circuit series (%d failed), half-cache %d hit / %d miss / %d wait",
		s.circuits, s.circFail, s.halfHit, s.halfMiss, s.halfWait)
}
