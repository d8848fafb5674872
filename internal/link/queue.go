package link

import (
	"errors"
	"sync"
	"time"
)

// Per-direction bounds. A plain pipe buffers pipeCap cells. A delayed
// pipe may hold delayedPipeCap cells in flight: the pipe buffer plus the
// delayQueueCap-cell queue the delay used to live in when it was a wrapper,
// so backpressure at real time scales is unchanged. The bounds are limits,
// not preallocations: rings grow on demand.
const (
	pipeCap        = 256
	delayQueueCap  = 1024
	delayedPipeCap = pipeCap + delayQueueCap
)

// errGone is what a queue reports once its producer's side is gone and
// every queued entry has been handed out; callers turn it into their own
// peer-closed error.
var errGone = errors.New("link: peer gone")

// monoBase anchors monoNow; time.Since reads the monotonic clock.
var monoBase = time.Now()

// monoNow is the monotonic clock in nanoseconds since process start.
func monoNow() int64 { return int64(time.Since(monoBase)) }

// stamped is one queue entry. For cells it is pointer-free, so a ring of
// them is noscan memory the GC never walks.
type stamped[T any] struct {
	v T
	// due is the monoNow reading at which v becomes visible; 0 means at
	// once and spares the clock read on zero-delay queues.
	due int64
}

// queue is one direction of a delayed path: a bounded FIFO whose producer
// stamps each entry with now+delay and whose consumer sees an entry only
// once it is due. The delay is constant, so due times never decrease and
// the head is always the first entry to become due.
//
// Any number of producers may put concurrently, as a link's Send may be;
// one consumer gets at a time, as a link's Recv does, and owns the sleep
// timer. Waiting is on channels so every wait also watches the caller's
// close signals: done is the caller's own side closing (ErrClosed at
// once), gone is the other side closing (put fails at once, get drains
// what is queued, waiting for each entry to come due, and then reports
// errGone). gone may be nil.
type queue[T any] struct {
	delay int64
	limit int

	mu      sync.Mutex
	ring    []stamped[T]
	head, n int
	// getters and putters count goroutines parked on ready and room, so
	// the other side signals only when someone is waiting. A woken
	// producer that leaves room passes the signal on to the next.
	getters, putters int
	ready, room      chan struct{} // capacity 1

	timer *time.Timer // the consumer's, reused across sleeps
}

func newQueue[T any](limit int, delay time.Duration) *queue[T] {
	return &queue[T]{
		delay: int64(delay),
		limit: limit,
		ready: make(chan struct{}, 1),
		room:  make(chan struct{}, 1),
	}
}

// put appends v, blocking while the queue holds limit entries.
func (q *queue[T]) put(v *T, done, gone <-chan struct{}) error {
	parked := false
	for {
		q.mu.Lock()
		if parked {
			q.putters--
			parked = false
		}
		if isClosed(done) {
			q.mu.Unlock()
			return ErrClosed
		}
		if isClosed(gone) {
			q.mu.Unlock()
			return errGone
		}
		if q.n < q.limit {
			if q.n == len(q.ring) {
				q.grow()
			}
			e := &q.ring[q.slot(q.n)]
			e.v = *v
			e.due = 0
			if q.delay > 0 {
				e.due = monoNow() + q.delay
			}
			q.n++
			wakeGetter := q.getters > 0
			passRoom := q.putters > 0 && q.n < q.limit
			q.mu.Unlock()
			if wakeGetter {
				signal(q.ready)
			}
			if passRoom {
				signal(q.room)
			}
			return nil
		}
		q.putters++
		parked = true
		q.mu.Unlock()
		select {
		case <-done:
		case <-gone:
		case <-q.room:
		}
	}
}

// get moves the head entry into *v once it is due, blocking until then.
func (q *queue[T]) get(v *T, done, gone <-chan struct{}) error {
	parked := false
	for {
		q.mu.Lock()
		if parked {
			q.getters--
			parked = false
		}
		if isClosed(done) {
			q.mu.Unlock()
			return ErrClosed
		}
		// Read gone before the count: everything the producer put before
		// it closed gone is then visible below.
		producerGone := isClosed(gone)
		if q.n > 0 {
			if due := q.ring[q.head].due; due != 0 {
				if wait := due - monoNow(); wait > 0 {
					q.mu.Unlock()
					if !q.sleep(time.Duration(wait), done) {
						return ErrClosed
					}
					continue
				}
			}
			q.take(v)
			q.popped()
			return nil
		}
		if producerGone {
			q.mu.Unlock()
			return errGone
		}
		q.getters++
		parked = true
		q.mu.Unlock()
		select {
		case <-done:
		case <-gone:
		case <-q.ready:
		}
	}
}

// getBatch blocks like get for vs[0], then fills further entries of vs
// only with entries that are already due, so batching never surfaces an
// entry early. It returns how many entries it filled (≥ 1 on nil error).
func (q *queue[T]) getBatch(vs []T, done, gone <-chan struct{}) (int, error) {
	if len(vs) == 0 {
		return 0, nil
	}
	if err := q.get(&vs[0], done, gone); err != nil {
		return 0, err
	}
	q.mu.Lock()
	var now int64
	n := 1
	for n < len(vs) && q.n > 0 {
		if due := q.ring[q.head].due; due != 0 {
			if now == 0 {
				now = monoNow()
			}
			if due > now {
				break
			}
		}
		q.take(&vs[n])
		n++
	}
	q.popped()
	return n, nil
}

// take moves the head entry into *v. q.mu is held and q.n > 0.
func (q *queue[T]) take(v *T) {
	e := &q.ring[q.head]
	*v = e.v
	var zero T
	e.v = zero // drop references a T may hold
	q.head++
	if q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
}

// popped releases q.mu after entries were taken and wakes a parked
// producer, which now has room.
func (q *queue[T]) popped() {
	wakePutter := q.putters > 0
	q.mu.Unlock()
	if wakePutter {
		signal(q.room)
	}
}

// slot maps the i-th queued entry to its ring index.
func (q *queue[T]) slot(i int) int {
	s := q.head + i
	if s >= len(q.ring) {
		s -= len(q.ring)
	}
	return s
}

// grow doubles the ring, capped at limit, unwrapping it to start at 0. It
// starts from one entry: most links rarely hold more than a cell or two.
func (q *queue[T]) grow() {
	size := min(max(2*len(q.ring), 1), q.limit)
	ring := make([]stamped[T], size)
	for i := 0; i < q.n; i++ {
		ring[i] = q.ring[q.slot(i)]
	}
	q.ring, q.head = ring, 0
}

// sleep waits d on the consumer's timer, reporting false if done closes
// first. The timer is stopped and drained before every return, so Reset
// is safe under both the pre-1.23 and the current timer semantics.
func (q *queue[T]) sleep(d time.Duration, done <-chan struct{}) bool {
	if q.timer == nil {
		q.timer = time.NewTimer(d)
	} else {
		q.timer.Reset(d)
	}
	select {
	case <-q.timer.C:
		return true
	case <-done:
		if !q.timer.Stop() {
			select {
			case <-q.timer.C:
			default:
			}
		}
		return false
	}
}

// isClosed reports whether ch is closed; a nil ch never is.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// signal leaves a wakeup token on a capacity-1 channel unless one is
// already waiting there.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}
