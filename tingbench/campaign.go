package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ting/internal/campaign"
	"ting/internal/directory"
	"ting/internal/experiments"
	"ting/internal/serve"
	"ting/internal/telemetry"
	"ting/internal/ting"
)

// campaign-model sizing: campRelays relays is campRelays·(campRelays−1)/2
// pairs per campaign, cut into about campShards shard leases. Two
// campaign workers of one scan worker each keep the load at the host's
// two cores, the floor measurer takes campSamples samples per circuit as
// tingcamp does by default, and campPoll is the workers' wait when every
// shard is leased out. Worker checkpoints get every record by write(2),
// which a killed worker does not lose, but fsync only when they close,
// after the timed region: with FileCheckpoint's default of an fsync every
// 8 records (or even every 4096), waiting on those flushes dominated a
// campaign and moved with the host's disk (METRICS.md). The coordinator
// journal keeps its fsync per grant and per completion.
const (
	campCheckpointSync = 1 << 30
	campRelays         = 768
	campShards         = 32
	campWorkers        = 2
	campSamples        = 3
	campTTL            = 5 * time.Second
	campPoll           = 20 * time.Millisecond
)

type campaignModel struct {
	e      *env
	world  *experiments.World
	shards []campaign.Shard
	obs    *scanObserver // traced only

	ds      *directory.Server
	dsLn    net.Listener
	dsAddr  string
	dsDone  chan struct{}
	pub     *serve.Publisher
	binStop context.CancelFunc
	binDone chan struct{}
	bin     *serve.BinClient

	// want is the SHA-256 of the single-process scan's encoding, the
	// bytewise reference every merged campaign must reproduce.
	want [32]byte
	runs int

	campID atomic.Uint64 // current campaign span, for child spans

	// Transport timing, fed by the coordinator's listener.
	opMu      sync.Mutex
	acquireAt map[string]time.Time // worker -> start of its last acquire
	leaseUs   []float64            // per shard: acquire start -> complete end
	opMs      map[string][]float64 // per verb: connection durations
}

func newCampaign(e *env) (instance, error) {
	world, err := experiments.NewTestbedWorld(campRelays, e.seed)
	if err != nil {
		return nil, err
	}
	c := &campaignModel{
		e:         e,
		world:     world,
		shards:    campaign.Partition(campRelays, campShards),
		ds:        directory.NewServer(directory.NewRegistry()),
		dsDone:    make(chan struct{}),
		pub:       serve.NewPublisher(nil),
		binDone:   make(chan struct{}),
		acquireAt: make(map[string]time.Time),
		opMs:      make(map[string][]float64),
	}
	if e.traced {
		c.obs = &scanObserver{tr: e.tr, parent: c.campID.Load}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.dsLn, c.dsAddr = ln, ln.Addr().String()
	go func() {
		defer close(c.dsDone)
		c.ds.Serve(&campListener{Listener: ln, delay: e.campDelay, op: c.op})
	}()
	binLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.dsLn.Close()
		<-c.dsDone
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	c.binStop = stop
	go func() {
		defer close(c.binDone)
		serve.NewBinaryServer(c.pub, nil).Serve(ctx, binLn)
	}()
	if c.bin, err = serve.DialBinary(binLn.Addr().String()); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *campaignModel) close() {
	if c.bin != nil {
		c.bin.Close()
	}
	c.binStop()
	<-c.binDone
	// Close the listener itself: directory.Server.Close does nothing when
	// it runs before Serve has registered the listener.
	c.dsLn.Close()
	<-c.dsDone
}

// op receives every CAMP operation the coordinator's listener saw. A
// worker holds one lease at a time, so its last acquire before a complete
// is the grant that lease came from.
func (c *campaignModel) op(verb, worker, shard string, start, end time.Time) {
	group := shard
	if group == "" {
		group = worker
	}
	c.e.tr.add(0, c.campID.Load(), group, "camp."+verb, start, end)
	c.opMu.Lock()
	defer c.opMu.Unlock()
	c.opMs[verb] = append(c.opMs[verb], ms(end.Sub(start)))
	switch verb {
	case "acquire":
		c.acquireAt[worker] = start
	case "complete":
		if at, ok := c.acquireAt[worker]; ok {
			c.leaseUs = append(c.leaseUs, us(end.Sub(at)))
		}
	}
}

func (c *campaignModel) warm(ctx context.Context) error {
	// The single-process reference scan runs here, outside every timed
	// region, and doubles as warm-up for the measurer and matrix code.
	sc := &ting.Scanner{
		NewMeasurer: func(int) (*ting.Measurer, error) { return c.world.ExactMeasurer(campSamples) },
		Workers:     campWorkers,
	}
	m, fails, err := sc.Scan(ctx, c.world.Names)
	if err != nil {
		return fmt.Errorf("reference scan: %w", err)
	}
	if len(fails) > 0 {
		return fmt.Errorf("reference scan: %d pairs failed", len(fails))
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		return err
	}
	c.want = sha256.Sum256(buf.Bytes())
	out := newOutcome()
	if _, err := c.campaignOnce(ctx, out); err != nil {
		return err
	}
	if len(out.violations) > 0 {
		return fmt.Errorf("warm-up campaign: %v", out.violations)
	}
	return nil
}

// campaignRun is what one timed campaign produced.
type campaignRun struct {
	firstEpoch      time.Duration
	cpu             time.Duration
	mergeMs         float64
	encodeMs        float64
	publishMs       float64
	encodeBytes     int
	journalBytes    int
	journalRecords  int
	checkpointBytes int64
	scanMs          []float64
	idleRatio       float64 // worker time outside ScanPairs, until the last shard completed
}

// campaignOnce runs one whole journaled campaign: coordinator, two
// checkpointing workers over the CAMP transport, merge, encode, publish,
// and a first binary lookup of the new epoch. It is timed from creating
// the coordinator to that lookup's reply; the output checks run after.
func (c *campaignModel) campaignOnce(ctx context.Context, out *outcome) (*campaignRun, error) {
	c.runs++
	dir := filepath.Join(c.e.dir, fmt.Sprintf("campaign-%d", c.runs))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "coordinator.journal")
	ckpts := make([]*ting.FileCheckpoint, campWorkers)
	for w := range ckpts {
		cp, err := ting.OpenFileCheckpoint(filepath.Join(dir, fmt.Sprintf("w%d.ckpt", w+1)))
		if err != nil {
			return nil, err
		}
		defer cp.Close()
		cp.SyncEvery = campCheckpointSync
		ckpts[w] = cp
	}

	treg := telemetry.New() // the fenced-lease check reads its counter
	run := &campaignRun{}
	var scanMu sync.Mutex
	var scanBusy time.Duration
	id := c.e.tr.id()
	c.campID.Store(id)

	cpu0 := cpuTime()
	start := time.Now()
	coord, err := campaign.NewJournaledCoordinator(c.world.Names, c.shards, campTTL, journal, treg)
	if err != nil {
		return nil, err
	}
	campaign.NewServer(coord).Register(c.ds)
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
		werrs []error
	)
	for w, cp := range ckpts {
		name := fmt.Sprintf("w%d", w+1)
		worker := &campaign.Worker{
			Name: name,
			Addr: c.dsAddr,
			Scanner: c.scanner(cp, func(began, ended time.Time) {
				c.e.tr.add(0, id, name, "scanpairs", began, ended)
				scanMu.Lock()
				run.scanMs = append(run.scanMs, ms(ended.Sub(began)))
				scanBusy += ended.Sub(began)
				scanMu.Unlock()
			}),
			Checkpoint: cp,
			Poll:       campPoll,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := worker.Run(wctx); err != nil {
				errMu.Lock()
				werrs = append(werrs, fmt.Errorf("worker %s: %w", name, err))
				errMu.Unlock()
			}
		}()
	}

	var doneAt time.Time
	select {
	case <-coord.Done():
		doneAt = time.Now()
	case <-time.After(time.Minute):
		cancel()
		wg.Wait()
		return nil, errors.New("campaign did not finish within a minute")
	}
	t := time.Now()
	merged, err := coord.Merged()
	if err != nil {
		return nil, err
	}
	run.mergeMs = ms(time.Since(t))
	c.e.tr.add(0, id, "", "merge", t, time.Now())
	var enc bytes.Buffer
	t = time.Now()
	if err := merged.Encode(&enc); err != nil {
		return nil, err
	}
	run.encodeMs = ms(time.Since(t))
	c.e.tr.add(0, id, "", "encode", t, time.Now())
	x, y := c.world.Names[0], c.world.Names[len(c.world.Names)-1]
	want, err := merged.RTT(x, y)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	snap, err := c.pub.Publish(merged)
	if err != nil {
		return nil, err
	}
	run.publishMs = ms(time.Since(t))
	c.e.tr.add(0, id, "", "publish", t, time.Now())
	t = time.Now()
	epoch, got, _, lookupErr := c.bin.RTT(x, y)
	end := time.Now()
	run.cpu = cpuTime() - cpu0
	run.firstEpoch = end.Sub(start)
	c.e.tr.add(0, id, "", "first_lookup", t, end)
	c.e.tr.add(id, 0, fmt.Sprintf("campaign-%d", c.runs), "campaign", start, end)

	// Outside the timed region: let the workers see the campaign done,
	// then check what the campaign produced.
	wg.Wait()
	run.encodeBytes = enc.Len()
	if window := doneAt.Sub(start); window > 0 {
		run.idleRatio = 1 - float64(scanBusy)/float64(campWorkers*window)
	}
	pairs := campRelays * (campRelays - 1) / 2
	out.attempted += int64(pairs + len(c.shards))
	out.check(lookupErr == nil && epoch == snap.Epoch() && got == want,
		"first lookup: epoch %d want %d, rtt %v want %v, err %v", epoch, snap.Epoch(), got, want, lookupErr)
	for _, werr := range werrs {
		out.check(false, "%v", werr)
	}
	st := coord.Snapshot()
	out.check(st.Done == len(c.shards), "%d of %d shards done", st.Done, len(c.shards))
	out.check(st.LostPairs == 0, "%d pairs lost", st.LostPairs)
	fenced := treg.Snapshot().Counters["campaign.lease.fenced"]
	out.check(fenced == 0, "%d leases fenced", fenced)
	out.check(sha256.Sum256(enc.Bytes()) == c.want, "merged matrix differs from the single-process scan")

	if err := coord.Journal().Close(); err != nil {
		return nil, fmt.Errorf("journal close: %w", err)
	}
	raw, err := os.ReadFile(journal)
	if err != nil {
		return nil, err
	}
	run.journalBytes = len(raw)
	run.journalRecords = bytes.Count(raw, []byte{'\n'})
	for _, cp := range ckpts {
		fi, err := os.Stat(cp.Path())
		if err != nil {
			return nil, err
		}
		run.checkpointBytes += fi.Size()
	}
	return run, nil
}

// scanner builds one campaign worker's Scanner as tingcamp -worker does:
// the exact floor measurer, one scan worker, and the worker's checkpoint.
// Traced, the measurer is assembled by hand around a decorated floor
// prober (which keeps SamplerInto) so ting.Observer callbacks reach the
// collector and each ScanPairs call is timed, from its first measurer
// being built to its last being closed.
func (c *campaignModel) scanner(cp ting.Checkpoint, scanned func(began, ended time.Time)) *ting.Scanner {
	sc := &ting.Scanner{Workers: 1, Checkpoint: cp}
	if !c.e.traced {
		sc.NewMeasurer = func(int) (*ting.Measurer, error) { return c.world.ExactMeasurer(campSamples) }
		return sc
	}
	var (
		mu    sync.Mutex
		open  int
		began time.Time
	)
	obs := c.obs.observer()
	sc.Observer = obs
	sc.NewMeasurer = func(int) (*ting.Measurer, error) {
		mu.Lock()
		if open == 0 {
			began = time.Now()
		}
		open++
		mu.Unlock()
		p := c.world.Prober(0)
		p.Exact = true
		return ting.NewMeasurer(ting.Config{
			Prober: wrapProber(&probe{
				inner:  p,
				parent: c.campID.Load,
				closed: func() {
					mu.Lock()
					open--
					last, at := open == 0, began
					mu.Unlock()
					if last {
						scanned(at, time.Now())
					}
				},
			}),
			W:        c.world.W,
			Z:        c.world.Z,
			Samples:  campSamples,
			Observer: obs,
		})
	}
	return sc
}

func (c *campaignModel) measure(ctx context.Context, d time.Duration) (*outcome, error) {
	out := newOutcome()
	if c.obs != nil {
		c.obs.reset()
	}
	c.opMu.Lock()
	c.leaseUs = nil
	c.opMs = make(map[string][]float64)
	c.opMu.Unlock()

	var (
		runs                               []*campaignRun
		wall, cpu                          time.Duration
		first, merge, encode, publish, idl []float64
		scanMs, cpuPerPair                 []float64
		rawFirst, rawCPU                   []float64
		journalBytes, journalRecords       int
		ckptBytes                          int64
		leases                             int
		track                              speedTrack
	)
	mark := markRuntime()
	perCampaign := float64(campRelays * (campRelays - 1) / 2)
	track.pause()
	for wall < d {
		r, err := c.campaignOnce(ctx, out)
		if err != nil {
			return nil, err
		}
		track.pause()
		i := len(runs)
		runs = append(runs, r)
		wall += r.firstEpoch
		cpu += r.cpu
		rawFirst = append(rawFirst, r.firstEpoch.Seconds())
		rawCPU = append(rawCPU, us(r.cpu)/perCampaign)
		first = append(first, r.firstEpoch.Seconds()*track.wallScale(i))
		cpuPerPair = append(cpuPerPair, us(r.cpu)/perCampaign*track.cpuScale(i))
		c.opMu.Lock()
		for ; leases < len(c.leaseUs); leases++ {
			c.leaseUs[leases] *= track.wallScale(i)
		}
		c.opMu.Unlock()
		merge = append(merge, r.mergeMs)
		encode = append(encode, r.encodeMs)
		publish = append(publish, r.publishMs)
		idl = append(idl, r.idleRatio)
		scanMs = append(scanMs, r.scanMs...)
		journalBytes += r.journalBytes
		journalRecords += r.journalRecords
		ckptBytes += r.checkpointBytes
	}
	rt := mark.until(markRuntime())
	pairs := float64(len(runs)) * perCampaign
	// Per-campaign medians of figures scaled to the reference host speed,
	// as for stack-scan's scans.
	out.values["first_epoch_s"] = median(first)
	out.values["throughput_per_s"] = perCampaign / median(first)
	out.values["cpu_us_per_op"] = median(cpuPerPair)
	c.opMu.Lock()
	out.setTail("latency_us", reduce(c.leaseUs))
	acquire, complete := reduce(c.opMs["acquire"]), reduce(c.opMs["complete"])
	c.opMu.Unlock()
	out.note("%d campaigns of %d relays in %d shards, %.0f pairs in %.3f s, %.3f CPU-s",
		len(runs), campRelays, len(c.shards), pairs, wall.Seconds(), cpu.Seconds())
	out.note("campaign times (s, scaled): %.3f", first)
	out.note("unscaled: %.4g pairs/s, %.4g CPU-us per pair", perCampaign/median(rawFirst), median(rawCPU))
	track.report(out)
	if !c.e.traced {
		return out, nil
	}
	shards := float64(len(runs) * len(c.shards))
	out.setTail("campaign.acquire_ms", acquire)
	out.setTail("campaign.complete_ms", complete)
	out.setTail("ting.scanpairs_ms", reduce(scanMs))
	out.values["campaign.journal_bytes_per_pair"] = float64(journalBytes) / pairs
	out.values["campaign.journal_records_per_shard"] = float64(journalRecords) / shards
	out.values["ting.checkpoint_bytes_per_pair"] = float64(ckptBytes) / pairs
	out.values["campaign.worker_idle_ratio"] = median(idl)
	out.values["ting.merge_ms"] = median(merge)
	out.values["ting.encode_ms"] = median(encode)
	out.values["ting.encode_bytes"] = float64(runs[0].encodeBytes)
	out.values["serve.publish_ms"] = median(publish)
	out.values["runtime.alloc_bytes_per_pair"] = rt.AllocBytes / pairs
	c.obs.report(out, int64(pairs), campWorkers, wall)
	return out, nil
}
