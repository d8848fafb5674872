package link

import (
	"errors"
	"io"
	"sync"
	"time"
)

// DelayedRW wraps a byte stream so writes arrive sendDelay later and reads
// surface recvDelay after the peer wrote them — the byte-stream counterpart
// of Delayed, used for exit-relay connections to destinations.
func DelayedRW(inner io.ReadWriteCloser, sendDelay, recvDelay time.Duration) io.ReadWriteCloser {
	d := &delayedRW{
		inner:    inner,
		sendQ:    newQueue[[]byte](delayQueueCap, sendDelay),
		recvQ:    newQueue[[]byte](delayQueueCap, recvDelay),
		closed:   make(chan struct{}),
		recvDone: make(chan struct{}),
	}
	go d.sendPump()
	go d.recvPump()
	return d
}

type delayedRW struct {
	inner io.ReadWriteCloser
	sendQ *queue[[]byte]
	recvQ *queue[[]byte]

	// recvErr is the inner stream's read error, set before recvDone
	// closes; Read reports it once the chunks before it have drained.
	recvErr  error
	recvDone chan struct{}

	mu       sync.Mutex
	leftover []byte

	closeOnce sync.Once
	closed    chan struct{}
}

func (d *delayedRW) Write(p []byte) (int, error) {
	cp := append([]byte(nil), p...)
	if err := d.sendQ.put(&cp, d.closed, nil); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (d *delayedRW) sendPump() {
	var b []byte
	for {
		if d.sendQ.get(&b, d.closed, nil) != nil {
			return
		}
		if _, err := d.inner.Write(b); err != nil {
			return
		}
	}
}

func (d *delayedRW) recvPump() {
	buf := make([]byte, 32*1024)
	for {
		n, err := d.inner.Read(buf)
		if n > 0 {
			cp := append([]byte(nil), buf[:n]...)
			if d.recvQ.put(&cp, d.closed, nil) != nil {
				return
			}
		}
		if err != nil {
			d.recvErr = err
			close(d.recvDone)
			return
		}
	}
}

func (d *delayedRW) Read(p []byte) (int, error) {
	d.mu.Lock()
	if len(d.leftover) > 0 {
		n := copy(p, d.leftover)
		d.leftover = d.leftover[n:]
		d.mu.Unlock()
		return n, nil
	}
	d.mu.Unlock()

	var b []byte
	if err := d.recvQ.get(&b, d.closed, d.recvDone); err != nil {
		if errors.Is(err, errGone) {
			return 0, d.recvErr
		}
		return 0, err
	}
	n := copy(p, b)
	if n < len(b) {
		d.mu.Lock()
		d.leftover = b[n:]
		d.mu.Unlock()
	}
	return n, nil
}

func (d *delayedRW) Close() error {
	var err error
	d.closeOnce.Do(func() {
		close(d.closed)
		err = d.inner.Close()
	})
	return err
}
