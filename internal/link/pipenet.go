package link

import (
	"fmt"
	"sync"
	"time"
)

// PipeNet is an in-process network: a registry of named listeners connected
// by Pipe links. It lets an entire mintor overlay — dozens of relays, a
// directory, clients, echo servers — run inside one test process without
// sockets.
type PipeNet struct {
	mu        sync.Mutex
	listeners map[string]*pipeListener
}

// NewPipeNet creates an empty in-process network.
func NewPipeNet() *PipeNet {
	return &PipeNet{listeners: make(map[string]*pipeListener)}
}

// Listen registers addr and returns its listener. Addresses are arbitrary
// unique strings (we use relay nicknames).
func (n *PipeNet) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.listeners[addr]; dup {
		return nil, fmt.Errorf("link: address %s already in use", addr)
	}
	l := &pipeListener{
		net:    n,
		addr:   addr,
		accept: make(chan Link, 16),
		closed: make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects to the listener registered at addr. PipeNet implements
// Dialer.
func (n *PipeNet) Dial(addr string) (Link, error) {
	return n.dial(addr, pipeCap, 0, 0)
}

// DialDelayed connects to addr over a pipe that carries one-way delays:
// cells the returned Link sends reach the listener's side sendDelay later,
// and cells sent back reach it recvDelay later. The delay lives in the
// pipe's own queues, so the link starts no goroutines and keeps
// BatchRecver and BatchSender. Each direction holds up to 1280 cells in
// flight before Send blocks.
func (n *PipeNet) DialDelayed(addr string, sendDelay, recvDelay time.Duration) (Link, error) {
	return n.dial(addr, delayedPipeCap, sendDelay, recvDelay)
}

func (n *PipeNet) dial(addr string, limit int, sendDelay, recvDelay time.Duration) (Link, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("link: no listener at %s", addr)
	}
	clientHalf, serverHalf := newPipe(limit, sendDelay, recvDelay, "dialer", addr)
	select {
	case <-l.closed:
		return nil, fmt.Errorf("link: listener %s closed", addr)
	case l.accept <- serverHalf:
		return clientHalf, nil
	}
}

type pipeListener struct {
	net    *PipeNet
	addr   string
	accept chan Link

	closeOnce sync.Once
	closed    chan struct{}
}

func (l *pipeListener) Accept() (Link, error) {
	select {
	case <-l.closed:
		return nil, ErrClosed
	case lk := <-l.accept:
		return lk, nil
	}
}

func (l *pipeListener) Close() error {
	l.closeOnce.Do(func() {
		close(l.closed)
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr)
		l.net.mu.Unlock()
	})
	return nil
}

func (l *pipeListener) Addr() string { return l.addr }
