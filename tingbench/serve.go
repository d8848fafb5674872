package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ting/internal/serve"
	"ting/internal/ting"
)

// serve-epochs sizing. A 2048-relay matrix is 42 MB of cells, well past
// the CPU caches, so lookups of random pairs miss them as a large
// deployment's would. The writer republishes every serveEpochEvery; the
// closed loop runs serveConns binary connections of serveBatch lookups;
// the open loop sends one binary batch every serveBinEvery and one HTTP
// request every serveHTTPEvery, every servePathsEvery-th of them to
// /v1/paths.
const (
	serveRelays     = 2048
	serveBatch      = 512
	serveConns      = 2
	serveEpochEvery = 250 * time.Millisecond
	servePerturb    = 4096 // cells rewritten per epoch
	serveBinEvery   = 500 * time.Microsecond
	serveHTTPEvery  = 2 * time.Millisecond
	servePathsEvery = 20
	servePathBudget = 150.0 // ms, for /v1/paths length-3 circuits
	// serveKeep is how many recent epochs the checker keeps: a reply can
	// only name the current epoch or one just replaced.
	serveKeep = 4
	// serveBatches is the size of the seeded pool of lookup batches.
	serveBatches = 64
	// serveWindow is the closed loop's window: the clients run for it, then
	// stop while the host is probed.
	serveWindow = 500 * time.Millisecond
)

type serveEpochs struct {
	e     *env
	names []string
	pub   *serve.Publisher
	rng   *rand.Rand

	binAddr, httpAddr string
	stop              context.CancelFunc
	done              sync.WaitGroup
	httpSrv           *http.Server

	// batches is the seeded pool of pair-index batches readers cycle
	// through.
	batches [][]uint32

	mu sync.Mutex
	// expect holds, for each recent epoch, every batch's cells as that
	// epoch's matrix has them: replies are checked against it without the
	// checker making the random reads it is timing.
	expect  map[uint64][][]serve.BatchCell
	cloneAt map[uint64]time.Time // epoch -> when its writer began
	seenAt  map[uint64]time.Time // epoch -> first reply naming it
	latest  *ting.Matrix
}

func newServeEpochs(e *env) (instance, error) {
	s := &serveEpochs{
		e:       e,
		pub:     serve.NewPublisher(nil),
		rng:     rand.New(rand.NewSource(e.seed)),
		expect:  make(map[uint64][][]serve.BatchCell),
		cloneAt: make(map[uint64]time.Time),
		seenAt:  make(map[uint64]time.Time),
	}
	for i := 0; i < serveRelays; i++ {
		s.names = append(s.names, fmt.Sprintf("relay%04d", i))
	}
	m, err := ting.NewMatrix(s.names)
	if err != nil {
		return nil, err
	}
	for i := 0; i < serveRelays; i++ {
		for j := i + 1; j < serveRelays; j++ {
			if err := s.setCell(m, i, j); err != nil {
				return nil, err
			}
		}
	}
	for b := 0; b < serveBatches; b++ {
		pairs := make([]uint32, 0, 2*serveBatch)
		for k := 0; k < serveBatch; k++ {
			i := s.rng.Intn(serveRelays)
			j := (i + 1 + s.rng.Intn(serveRelays-1)) % serveRelays
			pairs = append(pairs, uint32(i), uint32(j))
		}
		s.batches = append(s.batches, pairs)
	}
	if err := s.publish(m, time.Now(), s.expected(m)); err != nil {
		return nil, err
	}

	binLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		binLn.Close()
		return nil, err
	}
	s.binAddr, s.httpAddr = binLn.Addr().String(), httpLn.Addr().String()
	ctx, stop := context.WithCancel(context.Background())
	s.stop = stop
	s.httpSrv = &http.Server{Handler: serve.NewServer(s.pub, nil).Handler()}
	s.done.Add(2)
	go func() {
		defer s.done.Done()
		serve.NewBinaryServer(s.pub, nil).Serve(ctx, binLn)
	}()
	go func() {
		defer s.done.Done()
		s.httpSrv.Serve(httpLn)
	}()
	return s, nil
}

func (s *serveEpochs) close() {
	s.stop()
	s.httpSrv.Close()
	s.done.Wait()
}

// setCell writes a seeded RTT into pair (i, j), measured provenance.
func (s *serveEpochs) setCell(m *ting.Matrix, i, j int) error {
	x, y := s.names[i], s.names[j]
	if err := m.Set(x, y, 5+295*s.rng.Float64()); err != nil {
		return err
	}
	return m.SetProv(x, y, ting.ProvFresh)
}

// expected reads every pooled batch's cells from m.
func (s *serveEpochs) expected(m *ting.Matrix) [][]serve.BatchCell {
	exp := make([][]serve.BatchCell, len(s.batches))
	for b, pairs := range s.batches {
		exp[b] = make([]serve.BatchCell, serveBatch)
		for k := range exp[b] {
			i, j := int(pairs[2*k]), int(pairs[2*k+1])
			exp[b][k] = serve.BatchCell{RTTms: m.At(i, j), Prov: m.ProvAt(i, j)}
		}
	}
	return exp
}

// publish swaps m in as the next epoch and records what replies naming
// it must carry.
func (s *serveEpochs) publish(m *ting.Matrix, began time.Time, exp [][]serve.BatchCell) error {
	snap, err := s.pub.Publish(m)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := snap.Epoch()
	s.expect[e] = exp
	s.cloneAt[e] = began
	delete(s.expect, e-serveKeep)
	s.latest = m
	return nil
}

// writer republishes a perturbed clone every serveEpochEvery until ctx
// ends, timing each clone and publish.
func (s *serveEpochs) writer(ctx context.Context, rng *rand.Rand, cloneMs, publishMs *[]float64) error {
	t := time.NewTicker(serveEpochEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-t.C:
		}
		began := time.Now()
		s.mu.Lock()
		prev := s.latest
		s.mu.Unlock()
		next := prev.Clone()
		cloned := time.Now()
		for k := 0; k < servePerturb; k++ {
			i := rng.Intn(serveRelays)
			j := (i + 1 + rng.Intn(serveRelays-1)) % serveRelays
			if err := next.Set(s.names[i], s.names[j], 5+295*rng.Float64()); err != nil {
				return err
			}
		}
		perturbed := time.Now()
		// Reading the expected cells is the checker's work, not the
		// writer's: it is taken out of the epoch's turnaround.
		exp := s.expected(next)
		pubAt := time.Now()
		if err := s.publish(next, began.Add(pubAt.Sub(perturbed)), exp); err != nil {
			return err
		}
		end := time.Now()
		*cloneMs = append(*cloneMs, ms(cloned.Sub(began)))
		*publishMs = append(*publishMs, ms(end.Sub(pubAt)))
		id := s.e.tr.add(0, 0, "", "epoch", began, end)
		s.e.tr.add(0, id, "", "clone", began, cloned)
		s.e.tr.add(0, id, "", "publish", pubAt, end)
	}
}

// seen records that a reply named epoch e, and returns the expected
// cells of epoch e (nil if it is not one of the recent epochs kept).
func (s *serveEpochs) seen(e uint64, at time.Time) [][]serve.BatchCell {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.seenAt[e]; !ok {
		s.seenAt[e] = at
	}
	return s.expect[e]
}

// checkBatch compares the reply to pooled batch b with the cells of the
// epoch the reply names.
func (s *serveEpochs) checkBatch(epoch uint64, b int, cells []serve.BatchCell) error {
	exp := s.seen(epoch, time.Now())
	if exp == nil {
		return fmt.Errorf("reply names epoch %d, not a recent one", epoch)
	}
	if len(cells) != len(exp[b]) {
		return fmt.Errorf("epoch %d batch %d: %d cells, want %d", epoch, b, len(cells), len(exp[b]))
	}
	for k, c := range cells {
		if c != exp[b][k] {
			return fmt.Errorf("epoch %d batch %d cell %d: got %+v want %+v", epoch, b, k, c, exp[b][k])
		}
	}
	return nil
}

func (s *serveEpochs) warm(ctx context.Context) error {
	c, err := serve.DialBinary(s.binAddr)
	if err != nil {
		return err
	}
	defer c.Close()
	var out []serve.BatchCell
	for b, pairs := range s.batches {
		var epoch uint64
		if epoch, out, err = c.RTTBatch(pairs, out); err != nil {
			return err
		}
		if err := s.checkBatch(epoch, b, out); err != nil {
			return err
		}
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	for k := 0; k < 2*servePathsEvery; k++ {
		if err := s.httpRequest(hc, k); err != nil {
			return err
		}
	}
	return nil
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// httpRequest sends HTTP request k of the open loop: /v1/paths every
// servePathsEvery-th, /v1/rtt otherwise, and checks the reply.
func (s *serveEpochs) httpRequest(hc *http.Client, k int) error {
	b, c := k%len(s.batches), k%serveBatch
	i, j := s.batches[b][2*c], s.batches[b][2*c+1]
	if k%servePathsEvery == servePathsEvery-1 {
		var r struct {
			Epoch uint64 `json:"epoch"`
			Paths []struct {
				Hops  []string `json:"hops"`
				RTTMs float64  `json:"rtt_ms"`
			} `json:"paths"`
		}
		if err := getJSON(hc, fmt.Sprintf("http://%s/v1/paths?length=3&k=3&budget_ms=%g", s.httpAddr, servePathBudget), &r); err != nil {
			return err
		}
		if s.seen(r.Epoch, time.Now()) == nil {
			return fmt.Errorf("paths reply names epoch %d, not a recent one", r.Epoch)
		}
		if len(r.Paths) == 0 {
			return errors.New("paths reply recommends no circuit")
		}
		for _, p := range r.Paths {
			if len(p.Hops) != 3 || p.RTTMs > servePathBudget {
				return fmt.Errorf("paths reply: circuit %v of %v ms breaks the request", p.Hops, p.RTTMs)
			}
		}
		return nil
	}
	var r struct {
		Epoch uint64  `json:"epoch"`
		RTTMs float64 `json:"rtt_ms"`
	}
	if err := getJSON(hc, fmt.Sprintf("http://%s/v1/rtt?x=%s&y=%s", s.httpAddr, s.names[i], s.names[j]), &r); err != nil {
		return err
	}
	exp := s.seen(r.Epoch, time.Now())
	if exp == nil {
		return fmt.Errorf("rtt reply names epoch %d, not a recent one", r.Epoch)
	}
	if want := exp[b][c].RTTms; r.RTTMs != want {
		return fmt.Errorf("epoch %d rtt (%d,%d): got %v want %v", r.Epoch, i, j, r.RTTMs, want)
	}
	return nil
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, body)
	}
	return json.Unmarshal(body, v)
}

func (s *serveEpochs) measure(ctx context.Context, d time.Duration) (*outcome, error) {
	out := newOutcome()
	s.mu.Lock()
	s.seenAt = make(map[uint64]time.Time)
	first := s.pub.Current().Epoch() + 1
	s.mu.Unlock()

	wctx, stopWriter := context.WithCancel(ctx)
	var (
		cloneMs, publishMs []float64
		writerErr          error
		writerDone         = make(chan struct{})
	)
	go func() {
		defer close(writerDone)
		writerErr = s.writer(wctx, rand.New(rand.NewSource(s.e.seed+1)), &cloneMs, &publishMs)
	}()
	start := time.Now()
	closed, err := s.closedLoop(ctx, d/2, out)
	if err != nil {
		stopWriter()
		<-writerDone
		return nil, err
	}
	open, err := s.openLoop(ctx, d/2, out)
	stopWriter()
	<-writerDone
	if err != nil {
		return nil, err
	}
	if writerErr != nil {
		return nil, fmt.Errorf("epoch writer: %w", writerErr)
	}
	elapsed := time.Since(start)

	// Epoch turnaround: from the writer starting an epoch to the first
	// reply that names it, for the epochs begun and first seen inside one
	// closed-loop window, scaled by that window's host speed. An epoch
	// that straddles a window's end waited for the probe, not for serving.
	s.mu.Lock()
	var turn []float64
	last := s.pub.Current().Epoch()
	for e := first; e <= last; e++ {
		at, ok := s.seenAt[e]
		if !ok {
			continue
		}
		began := s.cloneAt[e]
		for _, w := range closed.windows {
			if !began.Before(w.start) && !at.After(w.end) {
				turn = append(turn, at.Sub(began).Seconds()*w.scale)
				break
			}
		}
	}
	seen := len(s.seenAt)
	s.mu.Unlock()
	want := int(elapsed/serveEpochEvery) - 2
	out.check(seen >= want, "readers saw %d epochs, want at least %d", seen, want)
	out.check(len(turn) > 0, "no epoch published during the run was seen by a reader")

	out.values["throughput_per_s"] = closed.lookupsPerS
	out.values["cpu_us_per_op"] = closed.cpuUsPerLookup
	out.values["first_epoch_s"] = median(turn)
	out.setTail("latency_us", reduce(closed.latencyUs))
	out.setTail("serve.bin_batch_us", reduce(open.bin.LatencyUs))
	out.note("closed loop: %d conns x %d-lookup batches in %d windows, %.4g lookups/s; %d epochs published, %d seen, %d turnarounds timed",
		serveConns, serveBatch, len(closed.windows), closed.lookupsPerS, last-first+1, seen, len(turn))
	out.note("unscaled: %.4g lookups/s, %.4g CPU-us per lookup", closed.rawLookupsPerS, closed.rawCPUUsPerLookup)
	closed.track.report(out)
	if s.e.traced {
		out.values["serve.cpu_us_per_lookup"] = closed.cpuUsPerLookup
		out.values["runtime.alloc_bytes_per_lookup"] = closed.allocPerLookup
		out.setTail("serve.http_rtt_us", reduce(open.rtt.LatencyUs))
		out.setTail("serve.paths_us", reduce(open.paths))
		lag := reduce(append(append([]float64(nil), open.bin.LagUs...), open.rtt.LagUs...))
		out.values["serve.generator_lag_us_p99"] = lag.Hi
		out.note("open-loop generator lag: p50 %.4g us, p%.4g %.4g us over %d requests", lag.P50, lag.Pct, lag.Hi, lag.N)
		pub := reduce(publishMs)
		out.setTail("serve.publish_ms", pub)
		out.values["ting.clone_ms"] = median(cloneMs)
	}
	return out, nil
}

type closedResult struct {
	lookupsPerS, cpuUsPerLookup, allocPerLookup float64
	rawLookupsPerS, rawCPUUsPerLookup           float64
	latencyUs                                   []float64 // per batch round trip, CPU-scaled
	windows                                     []window
	track                                       speedTrack
}

// window is one closed-loop window: the clients ran from start to end and
// its wall times are scaled by scale.
type window struct {
	start, end time.Time
	scale      float64
}

// closedLoop runs serveConns binary connections, each sending its next
// batch as soon as the last reply is checked, for d. The loop runs in
// windows of serveWindow; between windows the clients stop while the
// reference kernel probes the host, and each window's figures are scaled
// by the probes either side of it.
func (s *serveEpochs) closedLoop(ctx context.Context, d time.Duration, out *outcome) (closedResult, error) {
	var (
		res                       closedResult
		requests, failed, lookups int64
		rates, cpuPer             []float64
		rawRates, rawCPU          []float64
		errMu                     sync.Mutex
		firstErr                  error
	)
	clients := make([]*serve.BinClient, serveConns)
	cells := make([][]serve.BatchCell, serveConns)
	next := make([]int, serveConns) // each client's next request number
	for c := range clients {
		next[c] = c
		bc, err := serve.DialBinary(s.binAddr)
		if err != nil {
			return closedResult{}, err
		}
		defer bc.Close()
		clients[c] = bc
	}
	mark := markRuntime()
	deadline := time.Now().Add(d)
	res.track.pause()
	for time.Now().Before(deadline) && ctx.Err() == nil {
		var (
			wg        sync.WaitGroup
			n, req, f atomic.Int64
			lat       = make([][]float64, serveConns)
		)
		cpu0 := cpuTime()
		start := time.Now()
		end := start.Add(serveWindow)
		for c, bc := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ; time.Now().Before(end) && ctx.Err() == nil; next[c] += serveConns {
					k := next[c]
					b := k % len(s.batches)
					t := time.Now()
					epoch, got, err := bc.RTTBatch(s.batches[b], cells[c])
					done := time.Now()
					cells[c] = got
					if err == nil {
						err = s.checkBatch(epoch, b, got)
					}
					lat[c] = append(lat[c], us(done.Sub(t)))
					s.e.tr.add(0, 0, fmt.Sprintf("c%d-%d", c, k), "bin_batch", t, done)
					req.Add(1)
					if err != nil {
						f.Add(1)
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						continue
					}
					n.Add(int64(len(got)))
				}
			}()
		}
		wg.Wait()
		stop := time.Now()
		c := cpuTime() - cpu0
		res.track.pause()
		i := len(res.windows)
		ws, cs := res.track.wallScale(i), res.track.cpuScale(i)
		res.windows = append(res.windows, window{start: start, end: stop, scale: ws})
		requests += req.Load()
		failed += f.Load()
		lookups += n.Load()
		if dn := n.Load(); dn > 0 {
			rate := float64(dn) / stop.Sub(start).Seconds()
			rawRates = append(rawRates, rate)
			rawCPU = append(rawCPU, us(c)/float64(dn))
			rates = append(rates, rate/ws)
			cpuPer = append(cpuPer, us(c)/float64(dn)*cs)
		}
		// A batch round trip is far shorter than a scheduler time slice:
		// a host that grants the VM less time delays few of them, while a
		// slower instruction slows them all. So latencies take the CPU
		// factor, and the rate, which loses every slice the host takes,
		// the wall factor.
		for _, l := range lat {
			for _, v := range l {
				res.latencyUs = append(res.latencyUs, v*cs)
			}
		}
	}
	rt := mark.until(markRuntime())
	out.attempted += requests
	if failed > 0 {
		out.failN(failed, "closed loop: %d of %d batches failed, first: %v", failed, requests, firstErr)
	}
	if len(rates) == 0 {
		return closedResult{}, errors.New("closed loop completed no lookup")
	}
	res.lookupsPerS, res.cpuUsPerLookup = median(rates), median(cpuPer)
	res.rawLookupsPerS, res.rawCPUUsPerLookup = median(rawRates), median(rawCPU)
	res.allocPerLookup = rt.AllocBytes / float64(lookups)
	return res, nil
}

type openResult struct {
	bin, rtt openLoopStats
	paths    []float64 // /v1/paths latency from due time, us
}

// openLoop runs one binary connection and one HTTP connection, each on
// its own fixed schedule, for d.
func (s *serveEpochs) openLoop(ctx context.Context, d time.Duration, out *outcome) (openResult, error) {
	bc, err := serve.DialBinary(s.binAddr)
	if err != nil {
		return openResult{}, err
	}
	defer bc.Close()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	var (
		res      openResult
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		httpFail int
		isPaths  []bool
	)
	record := func(err error) {
		if err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
		}
	}
	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(d)
	wg.Add(2)
	go func() {
		defer wg.Done()
		var cells []serve.BatchCell
		res.bin = openLoop(ctx, wallClock, start, end, serveBinEvery, func(k int) error {
			b := k % len(s.batches)
			t := time.Now()
			epoch, got, err := bc.RTTBatch(s.batches[b], cells)
			cells = got
			if err == nil {
				err = s.checkBatch(epoch, b, cells)
			}
			s.e.tr.add(0, 0, fmt.Sprintf("o-%d", k), "bin_batch", t, time.Now())
			record(err)
			return err
		})
	}()
	go func() {
		defer wg.Done()
		all := openLoop(ctx, wallClock, start, end, serveHTTPEvery, func(k int) error {
			t := time.Now()
			err := s.httpRequest(hc, k)
			name := "http_rtt"
			if k%servePathsEvery == servePathsEvery-1 {
				name = "http_paths"
			}
			s.e.tr.add(0, 0, fmt.Sprintf("h-%d", k), name, t, time.Now())
			isPaths = append(isPaths, name == "http_paths")
			record(err)
			return err
		})
		// Split the HTTP schedule's samples into /v1/rtt and /v1/paths.
		for k, p := range isPaths {
			if p {
				res.paths = append(res.paths, all.LatencyUs[k])
				continue
			}
			res.rtt.LatencyUs = append(res.rtt.LatencyUs, all.LatencyUs[k])
			res.rtt.LagUs = append(res.rtt.LagUs, all.LagUs[k])
		}
		httpFail = all.Failed
	}()
	wg.Wait()
	out.attempted += int64(len(res.bin.LatencyUs) + len(isPaths))
	if n := res.bin.Failed + httpFail; n > 0 {
		out.failN(int64(n), "open loop: %d requests failed, first: %v", n, firstErr)
	}
	if len(res.bin.LatencyUs) == 0 || len(res.rtt.LatencyUs) == 0 || len(res.paths) == 0 {
		return res, errors.New("open loop completed no request of some kind")
	}
	return res, nil
}
