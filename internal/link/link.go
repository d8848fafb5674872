// Package link provides cell-oriented transport between mintor nodes: a
// Link abstraction, a TCP implementation, and an in-process pipe
// implementation. In-process pipes carry one-way delay themselves
// (PipeNet.DialDelayed); a latency-injecting wrapper (Delayed) turns a TCP
// link into a long-haul path.
//
// The Ting reproduction runs its overlay on loopback (there is no real
// Internet offline), so inter-node latency is injected here, at the link
// layer, from the ground-truth model in package inet. Everything above —
// relays, clients, Ting itself — is transport-agnostic.
package link

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"ting/internal/cell"
)

// ErrClosed is returned by operations on a closed link.
var ErrClosed = errors.New("link: closed")

// Link is an ordered, reliable, cell-oriented connection between two nodes.
// Send and Recv may be used concurrently with each other; neither may be
// called concurrently with itself.
//
// Both directions pass cells by pointer: a cell is 512 bytes, and the relay
// forward path moves every cell through several wrapper layers (faults,
// delay, transport), so by-value signatures would copy each cell four or
// five times per hop. Send does not retain c past the call; Recv overwrites
// *c in place.
type Link interface {
	// Send transmits one cell. The callee does not retain c.
	Send(c *cell.Cell) error
	// Recv blocks for the next cell and decodes it into *c.
	Recv(c *cell.Cell) error
	// Close tears the link down; pending Recv calls fail.
	Close() error
	// RemoteAddr names the peer, for logs and circuit bookkeeping.
	RemoteAddr() string
}

// BatchRecver is an optional Link extension: RecvBatch blocks for the first
// cell, then fills as many further entries of cs as are available without
// blocking, returning how many were filled (≥ 1 on nil error). Receive
// loops use it to drain a burst in one wakeup and hand the run to batched
// onion crypto.
type BatchRecver interface {
	RecvBatch(cs []cell.Cell) (int, error)
}

// BatchSender is an optional Link extension: SendBatch transmits cs
// back-to-back with at most one flush, preserving order. The callee does
// not retain cs.
type BatchSender interface {
	SendBatch(cs []cell.Cell) error
}

// Dialer opens Links to named peers.
type Dialer interface {
	Dial(addr string) (Link, error)
}

// DialerFunc adapts a function to the Dialer interface, the way
// http.HandlerFunc does for handlers. Composed dialers — latency injection,
// fault injection — are function wrappers, so the adapter lives here.
type DialerFunc func(addr string) (Link, error)

// Dial implements Dialer.
func (f DialerFunc) Dial(addr string) (Link, error) { return f(addr) }

// Listener accepts inbound Links.
type Listener interface {
	Accept() (Link, error)
	Close() error
	Addr() string
}

// --- TCP implementation ---

// writeBatch is how many cells the send buffer holds before it backs up
// into the socket anyway. Relay pairs multiplex every circuit between them
// over one link, so bursts of concurrent sends are common; batching them
// turns one syscall per cell per hop into one per burst.
const writeBatch = 8

// netLink frames cells over a stream connection: each cell is exactly
// cell.Size bytes, so framing is trivial and constant-rate.
//
// Writes are coalesced with a last-writer-flushes scheme: every Send
// buffers its cell and only the Send that observes no other in-flight
// sender flushes. A lone Send therefore still costs exactly one syscall
// with no added latency — crucial for an RTT instrument — while
// concurrent senders ride the same flush.
//
// Reads go through a bufio.Reader so RecvBatch can see whole cells already
// buffered from a burst and return them without extra syscalls.
type netLink struct {
	conn net.Conn
	br   *bufio.Reader
	wmu  sync.Mutex
	bw   *bufio.Writer
	// pending counts Sends that have announced themselves but not yet
	// decided whether to flush; the one that decrements it to zero flushes.
	pending atomic.Int32
	rbuf    [cell.Size]byte
	wbuf    [cell.Size]byte
}

// NewNetLink wraps a stream connection as a Link.
func NewNetLink(conn net.Conn) Link {
	return &netLink{
		conn: conn,
		br:   bufio.NewReaderSize(conn, writeBatch*cell.Size),
		bw:   bufio.NewWriterSize(conn, writeBatch*cell.Size),
	}
}

func (l *netLink) Send(c *cell.Cell) error {
	l.pending.Add(1)
	l.wmu.Lock()
	defer l.wmu.Unlock()
	c.MarshalInto(l.wbuf[:])
	_, err := l.bw.Write(l.wbuf[:])
	// Decrement unconditionally so failures cannot strand the counter.
	// If another Send is already pending it holds the flush obligation:
	// it increments before we decrement, so a nonzero result here proves
	// a later flush check is still coming while the buffer is nonempty.
	if l.pending.Add(-1) == 0 && err == nil {
		err = l.bw.Flush()
	}
	if err != nil {
		return fmt.Errorf("link: send: %w", err)
	}
	return nil
}

// SendBatch implements BatchSender: all cells share one buffered write run
// and the flush obligation is claimed once for the whole batch.
func (l *netLink) SendBatch(cs []cell.Cell) error {
	if len(cs) == 0 {
		return nil
	}
	l.pending.Add(1)
	l.wmu.Lock()
	defer l.wmu.Unlock()
	var err error
	for i := range cs {
		cs[i].MarshalInto(l.wbuf[:])
		if _, err = l.bw.Write(l.wbuf[:]); err != nil {
			break
		}
	}
	if l.pending.Add(-1) == 0 && err == nil {
		err = l.bw.Flush()
	}
	if err != nil {
		return fmt.Errorf("link: send: %w", err)
	}
	return nil
}

func (l *netLink) Recv(c *cell.Cell) error {
	if err := l.readCell(c); err != nil {
		return err
	}
	return nil
}

// RecvBatch implements BatchRecver: one blocking read for the first cell,
// then whole cells already sitting in the read buffer are decoded without
// touching the socket again.
func (l *netLink) RecvBatch(cs []cell.Cell) (int, error) {
	if len(cs) == 0 {
		return 0, nil
	}
	if err := l.readCell(&cs[0]); err != nil {
		return 0, err
	}
	n := 1
	for n < len(cs) && l.br.Buffered() >= cell.Size {
		if err := l.readCell(&cs[n]); err != nil {
			// The first n cells are valid; surface the error on the next call.
			return n, nil
		}
		n++
	}
	return n, nil
}

func (l *netLink) readCell(c *cell.Cell) error {
	if _, err := io.ReadFull(l.br, l.rbuf[:]); err != nil {
		return fmt.Errorf("link: recv: %w", err)
	}
	return cell.UnmarshalInto(c, l.rbuf[:])
}

func (l *netLink) Close() error       { return l.conn.Close() }
func (l *netLink) RemoteAddr() string { return l.conn.RemoteAddr().String() }

// tcpListener adapts net.Listener to Listener.
type tcpListener struct {
	ln net.Listener
}

// ListenTCP starts a cell listener on a TCP address ("127.0.0.1:0" picks a
// free port; read the actual one back from Addr).
func ListenTCP(addr string) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("link: listen %s: %w", addr, err)
	}
	return &tcpListener{ln: ln}, nil
}

func (t *tcpListener) Accept() (Link, error) {
	conn, err := t.ln.Accept()
	if err != nil {
		return nil, err
	}
	return NewNetLink(conn), nil
}

func (t *tcpListener) Close() error { return t.ln.Close() }
func (t *tcpListener) Addr() string { return t.ln.Addr().String() }

// TCPDialer dials cell links over TCP.
type TCPDialer struct{}

// Dial connects to addr.
func (TCPDialer) Dial(addr string) (Link, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("link: dial %s: %w", addr, err)
	}
	return NewNetLink(conn), nil
}
