package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fakeClock is a clock that only moves when the loop sleeps or a request
// takes time.
type fakeClock struct{ t time.Time }

func (f *fakeClock) clock() clock {
	return clock{
		now:   func() time.Time { return f.t },
		sleep: func(d time.Duration) { f.t = f.t.Add(d) },
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	f := &fakeClock{t: time.Unix(1000, 0)}
	start := f.t
	const every = time.Millisecond
	// Every request takes 100 µs, except request 2, which stalls 3.5 ms:
	// requests 3, 4 and 5 come due while it is outstanding.
	st := openLoop(context.Background(), f.clock(), start, start.Add(8*every), every, func(k int) error {
		if k == 2 {
			f.t = f.t.Add(3500 * time.Microsecond)
			return nil
		}
		f.t = f.t.Add(100 * time.Microsecond)
		return nil
	})
	if len(st.LatencyUs) != 8 {
		t.Fatalf("sent %d requests, want 8 on an 8 ms schedule", len(st.LatencyUs))
	}
	// Request 2 was due at 2 ms and done at 5.5 ms. Request 3 (due 3 ms)
	// is sent at 5.5 ms and done at 5.6 ms: 2.6 ms from its due time,
	// though it only took 100 µs. Requests 4 and 5 catch up the same way;
	// request 6 is on schedule again.
	want := []float64{100, 100, 3500, 2600, 1700, 800, 100, 100}
	wantLag := []float64{0, 0, 0, 2500, 1600, 700, 0, 0}
	for k := range want {
		if st.LatencyUs[k] != want[k] || st.LagUs[k] != wantLag[k] {
			t.Errorf("request %d: latency %v us, lag %v us; want %v, %v", k, st.LatencyUs[k], st.LagUs[k], want[k], wantLag[k])
		}
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	f := &fakeClock{t: time.Unix(0, 0)}
	st := openLoop(context.Background(), f.clock(), f.t, f.t.Add(10*time.Millisecond), time.Millisecond, func(k int) error {
		if k%3 == 0 {
			return errors.New("refused")
		}
		return nil
	})
	if st.Failed != 4 || len(st.LatencyUs) != 10 {
		t.Errorf("failed %d of %d, want 4 of 10", st.Failed, len(st.LatencyUs))
	}
}

func TestOpenLoopStopsWithContext(t *testing.T) {
	f := &fakeClock{t: time.Unix(0, 0)}
	ctx, cancel := context.WithCancel(context.Background())
	st := openLoop(ctx, f.clock(), f.t, f.t.Add(time.Hour), time.Millisecond, func(k int) error {
		if k == 4 {
			cancel()
		}
		return nil
	})
	if len(st.LatencyUs) != 5 {
		t.Errorf("sent %d requests after cancelling at the fifth", len(st.LatencyUs))
	}
}

func TestWallClockSleepsAtLeastTheWait(t *testing.T) {
	for _, d := range []time.Duration{20 * time.Microsecond, 300 * time.Microsecond} {
		start := time.Now()
		wallClock.sleep(d)
		if got := time.Since(start); got < d {
			t.Errorf("sleep(%v) returned after %v", d, got)
		}
	}
}
