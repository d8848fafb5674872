package link

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ting/internal/cell"
)

// pipeHalf is one end of an in-process Link pair.
type pipeHalf struct {
	peerAddr string
	in       *queue[cell.Cell]
	out      *queue[cell.Cell]

	closeOnce sync.Once
	closed    chan struct{}
	// peerClosed is the other half's closed channel; Recv fails once the
	// peer is gone and the buffer drains.
	peerClosed chan struct{}
}

// Pipe returns a connected pair of in-process Links with the given buffer
// capacity per direction. It is the zero-latency building block the
// in-process network uses; PipeNet.DialDelayed gives long-haul paths.
func Pipe(capacity int, addrA, addrB string) (Link, Link) {
	if capacity <= 0 {
		capacity = pipeCap
	}
	return newPipe(capacity, 0, 0, addrA, addrB)
}

// newPipe connects two halves whose directions hold up to limit cells
// each; cells from a reach b abDelay after Send, and cells from b reach a
// baDelay after Send.
func newPipe(limit int, abDelay, baDelay time.Duration, addrA, addrB string) (*pipeHalf, *pipeHalf) {
	ab := newQueue[cell.Cell](limit, abDelay)
	ba := newQueue[cell.Cell](limit, baDelay)
	a := &pipeHalf{peerAddr: addrB, in: ba, out: ab, closed: make(chan struct{})}
	b := &pipeHalf{peerAddr: addrA, in: ab, out: ba, closed: make(chan struct{})}
	a.peerClosed = b.closed
	b.peerClosed = a.closed
	return a, b
}

func (p *pipeHalf) Send(c *cell.Cell) error {
	return p.err(p.out.put(c, p.closed, p.peerClosed))
}

// SendBatch implements BatchSender over the in-process transport.
func (p *pipeHalf) SendBatch(cs []cell.Cell) error {
	for i := range cs {
		if err := p.Send(&cs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Recv blocks until the next cell is due. Cells already sent drain after
// the peer closes, each at its due time.
func (p *pipeHalf) Recv(c *cell.Cell) error {
	return p.err(p.in.get(c, p.closed, p.peerClosed))
}

// RecvBatch implements BatchRecver: one blocking receive, then whatever
// the peer has queued that is already due.
func (p *pipeHalf) RecvBatch(cs []cell.Cell) (int, error) {
	n, err := p.in.getBatch(cs, p.closed, p.peerClosed)
	return n, p.err(err)
}

// err names the peer in a queue's peer-gone error.
func (p *pipeHalf) err(err error) error {
	if errors.Is(err, errGone) {
		return fmt.Errorf("link: peer %s closed", p.peerAddr)
	}
	return err
}

func (p *pipeHalf) Close() error {
	p.closeOnce.Do(func() { close(p.closed) })
	return nil
}

func (p *pipeHalf) RemoteAddr() string { return p.peerAddr }
