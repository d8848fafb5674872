package link

import (
	"errors"
	"sync"
	"time"

	"ting/internal/cell"
)

// Delayed wraps a Link so that cells experience the given one-way delays:
// outbound cells arrive at the peer sendDelay later, and inbound cells are
// surfaced recvDelay after the peer sent them. Ordering is preserved in
// both directions. This is how a TCP overlay acquires the synthetic
// Internet's ground-truth latencies: a socket cannot carry due stamps, so
// two pump goroutines hold cells in stamped queues on this side of it.
// In-process overlays use PipeNet.DialDelayed, which needs neither.
//
// The returned Link owns the inner link: closing it closes the inner link.
func Delayed(inner Link, sendDelay, recvDelay time.Duration) Link {
	d := &delayedLink{
		inner:    inner,
		sendQ:    newQueue[cell.Cell](delayQueueCap, sendDelay),
		recvQ:    newQueue[cell.Cell](delayQueueCap, recvDelay),
		closed:   make(chan struct{}),
		recvDone: make(chan struct{}),
	}
	go d.sendPump()
	go d.recvPump()
	return d
}

type delayedLink struct {
	inner Link
	sendQ *queue[cell.Cell]
	recvQ *queue[cell.Cell]

	// recvErr is the inner link's receive error, set before recvDone
	// closes; Recv reports it once the cells before it have drained.
	recvErr  error
	recvDone chan struct{}

	closeOnce sync.Once
	closed    chan struct{}
}

func (d *delayedLink) Send(c *cell.Cell) error {
	return d.sendQ.put(c, d.closed, nil)
}

func (d *delayedLink) sendPump() {
	var c cell.Cell
	for {
		if d.sendQ.get(&c, d.closed, nil) != nil {
			return
		}
		if err := d.inner.Send(&c); err != nil {
			// The peer is gone; nothing useful to do with the error
			// here — the caller will learn via Recv or the next Send
			// after close.
			return
		}
	}
}

func (d *delayedLink) recvPump() {
	var c cell.Cell
	for {
		if err := d.inner.Recv(&c); err != nil {
			d.recvErr = err
			close(d.recvDone)
			return
		}
		if d.recvQ.put(&c, d.closed, nil) != nil {
			return
		}
	}
}

// Recv surfaces the next cell once due; after the inner link fails, the
// cells received before the failure drain first, then its error.
func (d *delayedLink) Recv(c *cell.Cell) error {
	err := d.recvQ.get(c, d.closed, d.recvDone)
	if errors.Is(err, errGone) {
		return d.recvErr
	}
	return err
}

func (d *delayedLink) Close() error {
	var err error
	d.closeOnce.Do(func() {
		close(d.closed)
		err = d.inner.Close()
	})
	return err
}

func (d *delayedLink) RemoteAddr() string { return d.inner.RemoteAddr() }
