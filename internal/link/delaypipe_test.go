package link

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"ting/internal/cell"
)

// delayedPipe dials a delayed in-process link and returns both ends: the
// dialer's and the listener's.
func delayedPipe(tb testing.TB, sendDelay, recvDelay time.Duration) (dialer, listener Link) {
	tb.Helper()
	pn := NewPipeNet()
	ln, err := pn.Listen("relay")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ln.Close() })
	dialer, err = pn.DialDelayed("relay", sendDelay, recvDelay)
	if err != nil {
		tb.Fatal(err)
	}
	listener, err = ln.Accept()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { dialer.Close(); listener.Close() })
	return dialer, listener
}

// echoLoop sends back every cell lk receives until lk fails.
func echoLoop(lk Link) {
	var c cell.Cell
	for lk.Recv(&c) == nil {
		if lk.Send(&c) != nil {
			return
		}
	}
}

func TestDelayedPipeRTT(t *testing.T) {
	const oneWay = 20 * time.Millisecond
	d, l := delayedPipe(t, oneWay, oneWay)
	for _, dir := range []struct {
		name         string
		prober, echo Link
	}{{"dialer", d, l}, {"listener", l, d}} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			var c cell.Cell
			if dir.echo.Recv(&c) == nil {
				dir.echo.Send(&c)
			}
		}()
		start := time.Now()
		if err := sendCell(dir.prober, testCell(1, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := recvCell(dir.prober); err != nil {
			t.Fatal(err)
		}
		rtt := time.Since(start)
		<-done
		if rtt < 2*oneWay {
			t.Errorf("%s RTT %v below injected 2×%v", dir.name, rtt, oneWay)
		}
		if rtt > 2*oneWay+150*time.Millisecond {
			t.Errorf("%s RTT %v far above injected latency", dir.name, rtt)
		}
	}
}

func TestDelayedPipePreservesOrder(t *testing.T) {
	d, l := delayedPipe(t, 2*time.Millisecond, 3*time.Millisecond)
	const n = 200
	for _, dir := range []struct{ from, to Link }{{d, l}, {l, d}} {
		go func() {
			for i := 0; i < n; i++ {
				if err := sendCell(dir.from, testCell(uint32(i), byte(i))); err != nil {
					t.Errorf("send %d: %v", i, err)
					return
				}
				if i%16 == 0 {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}()
		buf := make([]cell.Cell, 7)
		br := dir.to.(BatchRecver)
		for i := 0; i < n; {
			k, err := br.RecvBatch(buf)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range buf[:k] {
				if c.Circ != cell.CircID(i) || c.Payload[0] != byte(i) {
					t.Fatalf("reordered: got %d at %d", c.Circ, i)
				}
				i++
			}
		}
	}
}

func TestDelayedPipeRecvBatchWaitsForDue(t *testing.T) {
	const delay = 30 * time.Millisecond
	d, l := delayedPipe(t, delay, delay)
	const n = 6
	sentAt := make([]time.Time, n)
	var mu sync.Mutex
	go func() {
		for i := 0; i < n; i++ {
			mu.Lock()
			sentAt[i] = time.Now()
			mu.Unlock()
			if err := sendCell(d, testCell(uint32(i), 0)); err != nil {
				t.Errorf("send: %v", err)
				return
			}
			time.Sleep(delay / 3)
		}
	}()
	buf := make([]cell.Cell, n)
	br := l.(BatchRecver)
	for got := 0; got < n; {
		k, err := br.RecvBatch(buf)
		if err != nil {
			t.Fatal(err)
		}
		now := time.Now()
		mu.Lock()
		for _, c := range buf[:k] {
			if age := now.Sub(sentAt[c.Circ]); age < delay {
				t.Errorf("cell %d surfaced %v after send, before its %v delay", c.Circ, age, delay)
			}
		}
		mu.Unlock()
		got += k
	}
}

func TestDelayedPipeSendBlocksAtBound(t *testing.T) {
	d, l := delayedPipe(t, time.Millisecond, time.Millisecond)
	for _, dir := range []struct{ from, to Link }{{d, l}, {l, d}} {
		for i := 0; i < 1280; i++ {
			if err := sendCell(dir.from, testCell(uint32(i), 0)); err != nil {
				t.Fatal(err)
			}
		}
		sent := make(chan error, 1)
		go func() { sent <- sendCell(dir.from, testCell(1280, 0)) }()
		select {
		case err := <-sent:
			t.Fatalf("send past the 1280-cell bound returned (%v) without a Recv", err)
		case <-time.After(50 * time.Millisecond):
		}
		if _, err := recvCell(dir.to); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-sent:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("blocked send did not resume after one Recv")
		}
		for i := 1; i <= 1280; i++ {
			c, err := recvCell(dir.to)
			if err != nil || c.Circ != cell.CircID(i) {
				t.Fatalf("drain %d: circ %d, %v", i, c.Circ, err)
			}
		}
	}
}

func TestDelayedPipeDrainsAfterPeerClose(t *testing.T) {
	const delay = 20 * time.Millisecond
	d, l := delayedPipe(t, delay, delay)
	start := time.Now()
	for i := 0; i < 3; i++ {
		if err := sendCell(d, testCell(uint32(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	for i := 0; i < 3; i++ {
		c, err := recvCell(l)
		if err != nil {
			t.Fatalf("cell %d lost on peer close: %v", i, err)
		}
		if c.Circ != cell.CircID(i) {
			t.Errorf("got circ %d, want %d", c.Circ, i)
		}
	}
	if el := time.Since(start); el < delay {
		t.Errorf("drained cells surfaced after %v, before their %v delay", el, delay)
	}
	if _, err := recvCell(l); err == nil {
		t.Error("Recv after drain should fail")
	}
	if err := sendCell(l, testCell(9, 9)); err == nil {
		t.Error("Send to a closed peer should fail")
	}
}

func TestDelayedPipeCloseUnblocksSleepingRecv(t *testing.T) {
	d, l := delayedPipe(t, time.Hour, time.Hour)
	if err := sendCell(d, testCell(1, 1)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := recvCell(l)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let Recv go to sleep toward the due time
	l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Recv on closed link = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock a Recv sleeping toward its due time")
	}
}

// TestPipeNetDialDelayedIsCheap guards the cost of a delayed dial: the
// delay lives in the pipe, so dialing starts no goroutines and allocates
// no queue storage until cells flow.
func TestPipeNetDialDelayedIsCheap(t *testing.T) {
	pn := NewPipeNet()
	ln, err := pn.Listen("relay")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// dialClose returns the goroutine count while the link is open.
	dialClose := func() int {
		d, err := pn.DialDelayed("relay", time.Millisecond, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		l, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := d.(BatchRecver); !ok {
			t.Fatal("delayed pipe hides BatchRecver")
		}
		if _, ok := d.(BatchSender); !ok {
			t.Fatal("delayed pipe hides BatchSender")
		}
		g := runtime.NumGoroutine()
		d.Close()
		l.Close()
		return g
	}
	dialClose() // warm the listener map and runtime caches

	const dials = 200
	goroutines := runtime.NumGoroutine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < dials; i++ {
		if g := dialClose(); g > goroutines {
			t.Fatalf("an open delayed link runs %d goroutines beyond the %d before dialing", g-goroutines, goroutines)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / dials; per >= 64<<10 {
		t.Errorf("delayed dial + Close allocates %d B, want < 64 KiB", per)
	}
}

func BenchmarkPipeNetDialDelayed(b *testing.B) {
	pn := NewPipeNet()
	ln, err := pn.Listen("relay")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := pn.DialDelayed("relay", time.Millisecond, time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		l, err := ln.Accept()
		if err != nil {
			b.Fatal(err)
		}
		d.Close()
		l.Close()
	}
}

// BenchmarkDelayedPipeRoundTrip times one cell out and back over a delayed
// pipe. The 1 ns delay makes every cell take the stamped path — a clock
// read on send and a due check on receive — without timing a sleep.
func BenchmarkDelayedPipeRoundTrip(b *testing.B) {
	d, l := delayedPipe(b, time.Nanosecond, time.Nanosecond)
	go echoLoop(l)
	c := testCell(1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Send(&c); err != nil {
			b.Fatal(err)
		}
		if err := d.Recv(&c); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPipeConcurrentSendersAtBound runs several senders into a short,
// delayed direction, so they park at the bound and hand wakeups on while a
// batching receiver drains; every sender's cells must arrive, in order.
func TestPipeConcurrentSendersAtBound(t *testing.T) {
	a, b := newPipe(4, 50*time.Microsecond, 0, "a", "b")
	defer a.Close()
	defer b.Close()
	const senders, each = 4, 300
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c := testCell(uint32(s), byte(i))
				if err := a.Send(&c); err != nil {
					t.Errorf("sender %d cell %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	next := make([]int, senders)
	buf := make([]cell.Cell, 3)
	for got := 0; got < senders*each; {
		k, err := b.RecvBatch(buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range buf[:k] {
			s := int(c.Circ)
			if c.Payload[0] != byte(next[s]) {
				t.Fatalf("sender %d: got cell %d, want %d", s, c.Payload[0], byte(next[s]))
			}
			next[s]++
		}
		got += k
	}
	wg.Wait()
}
