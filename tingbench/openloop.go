package main

import (
	"context"
	"runtime"
	"syscall"
	"time"
)

// clock is the time source of an open loop; tests substitute a fake one.
type clock struct {
	now   func() time.Time
	sleep func(d time.Duration)
}

// wallClock sleeps with nanosleep(2) and yields through the last
// sleepSlack: the runtime's own timers wake up to a millisecond late on
// small hosts, which would make the generator, not the server, set the
// latency of a sub-millisecond schedule.
var wallClock = clock{
	now: time.Now,
	sleep: func(d time.Duration) {
		end := time.Now().Add(d)
		if d > sleepSlack {
			ts := syscall.NsecToTimespec(int64(d - sleepSlack))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up is caught below
		}
		for time.Now().Before(end) {
			runtime.Gosched()
		}
	},
}

// sleepSlack is how much longer than asked nanosleep(2) typically
// sleeps: the kernel's default 50 µs timer slack plus wake-up.
const sleepSlack = 80 * time.Microsecond

// openLoopStats is what one open-loop generator measured. Latency is
// taken from each request's due time, so a stall also charges the
// requests that queued behind it; Lag is how late the generator itself
// sent each request, the loop's own validity figure.
type openLoopStats struct {
	LatencyUs []float64
	LagUs     []float64
	Failed    int
}

// openLoop sends request k at start + k·interval until the schedule passes
// end or ctx ends, never waiting for a slow reply to decide when the next
// request is due: a request that comes due while an earlier one is still
// outstanding is sent as soon as that one returns, and its latency still
// counts from its due time. do performs request k; a non-nil error counts
// the request as failed.
func openLoop(ctx context.Context, clk clock, start, end time.Time, interval time.Duration, do func(k int) error) openLoopStats {
	var st openLoopStats
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(end) || ctx.Err() != nil {
			return st
		}
		if wait := due.Sub(clk.now()); wait > 0 {
			clk.sleep(wait)
		}
		sent := clk.now()
		err := do(k)
		done := clk.now()
		st.LagUs = append(st.LagUs, us(sent.Sub(due)))
		st.LatencyUs = append(st.LatencyUs, us(done.Sub(due)))
		if err != nil {
			st.Failed++
		}
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
