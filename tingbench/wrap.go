package main

import (
	"context"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ting/internal/ting"
)

// probe decorates a CircuitProber: it counts circuit series, records a
// span per series when traced, and, when burn is set, spins the CPU for
// that fraction of each series' own duration (the sensitivity test's
// planted slowdown). wrapProber returns a probeInto when the inner prober
// implements ting.SamplerInto, so the Measurer keeps its allocation-free
// path: a decorator that hid it would measure a different program.
type probe struct {
	inner  ting.CircuitProber
	series *atomic.Int64 // may be nil
	tr     *tracer
	parent func() uint64 // span the series belong to
	burn   float64
	closed func() // called after the inner prober is closed
}

type probeInto struct {
	*probe
	into ting.SamplerInto
}

func wrapProber(p *probe) ting.CircuitProber {
	if si, ok := p.inner.(ting.SamplerInto); ok {
		return probeInto{probe: p, into: si}
	}
	return p
}

func (p *probe) SampleCircuit(ctx context.Context, path []string, n int) ([]float64, error) {
	start := time.Now()
	out, err := p.inner.SampleCircuit(ctx, path, n)
	p.done(path, start)
	return out, err
}

func (p probeInto) SampleCircuitInto(ctx context.Context, path []string, out []float64) error {
	start := time.Now()
	err := p.into.SampleCircuitInto(ctx, path, out)
	p.done(path, start)
	return err
}

func (p *probe) done(path []string, start time.Time) {
	if p.series != nil {
		p.series.Add(1)
	}
	end := time.Now()
	if p.burn > 0 {
		spin(time.Duration(p.burn * float64(end.Sub(start))))
		end = time.Now()
	}
	if p.tr != nil {
		p.tr.add(0, p.parent(), seriesGroup(path), "series", start, end)
	}
}

// Close closes the inner prober (the Measurer closes probers that have a
// Close method when its scan ends).
func (p *probe) Close() {
	if c, ok := p.inner.(interface{ Close() }); ok {
		c.Close()
	}
	if p.closed != nil {
		p.closed()
	}
}

// seriesGroup names the pair a series belongs to: the full circuit
// (w, x, y, z) is pair "x-y"; a half circuit (w, x) is shared by every
// pair of x and is grouped as "half:x".
func seriesGroup(path []string) string {
	if len(path) == 4 {
		return path[1] + "-" + path[2]
	}
	if len(path) == 2 {
		return "half:" + path[1]
	}
	return strings.Join(path, ",")
}

// spin burns the CPU for d of wall time.
func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

// campListener wraps the coordinator's listener to time every CAMP
// operation at the transport boundary. Each operation is one connection,
// so an operation's span runs from Accept to the server closing the
// connection after its reply. With delay set, each connection's first read
// waits that long: the campaign-model sensitivity test's planted slowdown.
type campListener struct {
	net.Listener
	delay time.Duration
	// op receives each finished operation: its verb ("acquire",
	// "complete", ...), the worker and shard its request line names, and
	// its interval.
	op func(verb, worker, shard string, start, end time.Time)
}

func (l *campListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &campConn{Conn: c, l: l, start: time.Now()}, nil
}

type campConn struct {
	net.Conn
	l     *campListener
	start time.Time

	mu                  sync.Mutex
	read                bool
	verb, worker, shard string
	closedOnce          bool
}

func (c *campConn) Read(b []byte) (int, error) {
	c.mu.Lock()
	first := !c.read
	c.read = true
	c.mu.Unlock()
	if first && c.l.delay > 0 {
		time.Sleep(c.l.delay)
	}
	n, err := c.Conn.Read(b)
	if first && n > 0 {
		line, _, _ := strings.Cut(string(b[:n]), "\n")
		c.mu.Lock()
		c.verb, c.worker, c.shard = campOp(line)
		c.mu.Unlock()
	}
	return n, err
}

func (c *campConn) Close() error {
	err := c.Conn.Close()
	c.mu.Lock()
	report := !c.closedOnce && c.l.op != nil
	c.closedOnce = true
	verb, worker, shard := c.verb, c.worker, c.shard
	c.mu.Unlock()
	if report {
		c.l.op(verb, worker, shard, c.start, time.Now())
	}
	return err
}

// campOp parses a CAMP request line ("CAMP acquire <worker>", "CAMP
// complete <worker> <shard> <epoch>", ...) into its verb, worker and
// shard; fields a line lacks come back empty.
func campOp(line string) (verb, worker, shard string) {
	f := strings.Fields(line)
	if len(f) < 2 || f[0] != "CAMP" {
		return "other", "", ""
	}
	verb = f[1]
	if len(f) >= 3 {
		worker = f[2]
	}
	if len(f) >= 4 {
		shard = f[3]
	}
	return verb, worker, shard
}
