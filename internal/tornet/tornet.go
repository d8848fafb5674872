// Package tornet assembles a complete mintor overlay from a synthetic
// Internet topology: one relay per chosen node, link latencies injected
// from the ground-truth matrix, stochastic forwarding delays from each
// node's model, an echo destination, and a measurement host running the
// onion proxy plus Ting's two local relays w and z (§3.3).
//
// The overlay runs in-process over link.PipeNet by default, or over real
// loopback TCP sockets (Config.TCP); either way every latency a probe
// experiences is the one the topology prescribes, so full-stack Ting
// measurements can be validated against exact ground truth.
package tornet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"ting/internal/client"
	"ting/internal/directory"
	"ting/internal/echo"
	"ting/internal/faults"
	"ting/internal/inet"
	"ting/internal/link"
	"ting/internal/onion"
	"ting/internal/relay"
	"ting/internal/telemetry"
)

// EchoTarget is the destination name exit relays may connect to — the only
// target the restrictive exit policy allows, mirroring the paper's testbed
// policy (§4.1).
const EchoTarget = "echo"

// Local relay nicknames.
const (
	WName = "ting-w"
	ZName = "ting-z"
)

// Config configures an overlay build.
type Config struct {
	// Topology supplies nodes, ground-truth RTTs, and forwarding models.
	// Required.
	Topology *inet.Topology
	// RelayNodes selects which topology nodes run relays; nil means all.
	RelayNodes []inet.NodeID
	// Host is the measurement-host node (usually added with
	// Topology.AddHost). It runs the onion proxy, the echo pair, and the
	// local relays w and z. Required.
	Host inet.NodeID
	// TimeScale maps virtual milliseconds to wall-clock time; 1.0 (the
	// default) means 1 virtual ms = 1 real ms, 0.1 compresses time 10×.
	TimeScale float64
	// ForwardDelays enables per-cell stochastic forwarding delays at
	// relays. Off, relays forward at loopback speed (useful for protocol
	// tests).
	ForwardDelays bool
	// Seed drives forwarding-delay sampling.
	Seed int64
	// Timeout is the client protocol timeout. Default 30s.
	Timeout time.Duration
	// TCP switches relay links from in-process pipes to real loopback TCP
	// sockets. Latency injection is identical; this mode proves the stack
	// runs over a real network and backs cmd/tingnet.
	TCP bool
	// Faults, if non-nil, injects the plan's failures into the overlay:
	// every inter-node link is wrapped with the plan's drop/stall/reset
	// rules (a reset tears down the whole delayed path, as a mid-route
	// failure would), dials to Down relays are refused, and relays with a
	// CrashAfter schedule are killed for real — their listeners close and
	// DESTROY propagation runs through the live circuit machinery. The
	// plan's clock starts when Build returns.
	Faults *faults.Plan
	// Telemetry, if non-nil, is handed to every relay, the onion proxy,
	// and the fault plan, so one registry observes the whole overlay.
	Telemetry *telemetry.Registry
}

// Net is a running overlay.
type Net struct {
	cfg      Config
	pn       *link.PipeNet
	Registry *directory.Registry
	Client   *client.Client

	// mu guards the relay maps below: the overlay mutates at runtime now
	// (AddRelay/DrainRelay/RemoveRelay), and dial paths read the maps
	// concurrently with churn.
	mu          sync.RWMutex
	relays      []*relay.Relay
	relayByName map[string]*relay.Relay
	names       map[inet.NodeID]string // node → nickname of its public relay (or first local)
	nodeByAddr  map[string]inet.NodeID // relay address → node
	nameByAddr  map[string]string      // relay address → nickname, for fault-rule lookup

	timers    []*time.Timer // crash/join/drain schedules from the fault plan
	closeOnce sync.Once
}

// Build constructs and starts the overlay.
func Build(cfg Config) (*Net, error) {
	if cfg.Topology == nil {
		return nil, errors.New("tornet: config missing Topology")
	}
	if cfg.Topology.Node(cfg.Host) == nil {
		return nil, fmt.Errorf("tornet: host node %d not in topology", cfg.Host)
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1.0
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	nodes := cfg.RelayNodes
	if nodes == nil {
		for i := 0; i < cfg.Topology.N(); i++ {
			if inet.NodeID(i) != cfg.Host {
				nodes = append(nodes, inet.NodeID(i))
			}
		}
	}

	n := &Net{
		cfg:         cfg,
		pn:          link.NewPipeNet(),
		Registry:    directory.NewRegistry(),
		relayByName: make(map[string]*relay.Relay),
		names:       make(map[inet.NodeID]string),
		nodeByAddr:  make(map[string]inet.NodeID),
		nameByAddr:  make(map[string]string),
	}

	// Relays with a scheduled JoinAfter stay out of the initial overlay
	// and consensus; a timer brings them in later.
	var schedules map[string]faults.RelaySchedule
	if cfg.Faults != nil {
		schedules = cfg.Faults.Relays()
	}
	pendingJoins := make(map[string]inet.NodeID)

	// Public relays at their topology nodes.
	for _, id := range nodes {
		node := cfg.Topology.Node(id)
		if node == nil {
			n.Close()
			return nil, fmt.Errorf("tornet: relay node %d not in topology", id)
		}
		if id == cfg.Host {
			n.Close()
			return nil, errors.New("tornet: host node cannot also be a public relay")
		}
		if rs, ok := schedules[node.Name]; ok && rs.JoinAfter > 0 {
			pendingJoins[node.Name] = id
			continue
		}
		if err := n.addRelay(node.Name, id, node.Fwd, true); err != nil {
			n.Close()
			return nil, err
		}
	}
	// Ting's local relays w and z live on the host and stay unpublished,
	// like "PublishDescriptors 0" in the paper.
	local := inet.LocalForwardingModel()
	if err := n.addRelay(WName, cfg.Host, local, false); err != nil {
		n.Close()
		return nil, err
	}
	if err := n.addRelay(ZName, cfg.Host, local, false); err != nil {
		n.Close()
		return nil, err
	}

	cl, err := client.New(client.Config{
		Dialer:    n.dialerFrom(cfg.Host, cfg.Topology.Node(cfg.Host).Name),
		Timeout:   cfg.Timeout,
		Telemetry: cfg.Telemetry,
	})
	if err != nil {
		n.Close()
		return nil, err
	}
	n.Client = cl

	if cfg.Faults != nil {
		cfg.Faults.SetTelemetry(cfg.Telemetry)
		cfg.Faults.Begin()
		// Validate and collect first, then arm: no timer may fire while
		// Build still reads the relay maps unlocked.
		type event struct {
			after time.Duration
			fire  func()
		}
		var events []event
		for name, rs := range schedules {
			name := name
			_, running := n.relayByName[name]
			joinID, joining := pendingJoins[name]
			if (rs.CrashAfter > 0 || rs.DrainAfter > 0 || rs.JoinAfter > 0) && !running && !joining {
				n.Close()
				return nil, fmt.Errorf("tornet: fault plan schedules unknown relay %q", name)
			}
			if rs.JoinAfter > 0 {
				events = append(events, event{rs.JoinAfter, func() { _ = n.AddRelay(name, joinID) }})
			}
			if rs.CrashAfter > 0 {
				events = append(events, event{rs.CrashAfter, func() { n.CrashRelay(name) }})
			}
			if rs.DrainAfter > 0 {
				events = append(events, event{rs.DrainAfter, func() { n.DrainRelay(name) }})
			}
		}
		for _, ev := range events {
			n.timers = append(n.timers, time.AfterFunc(ev.after, ev.fire))
		}
	}
	return n, nil
}

// CrashRelay abruptly kills the named relay, as a machine failure would:
// its listener closes, every link it holds drops, and peers tear down the
// affected circuits with DESTROY propagation. If a fault plan is installed
// the relay is also marked Down there, so future dials are refused at the
// fault layer. Returns false for an unknown relay.
func (n *Net) CrashRelay(name string) bool {
	n.mu.RLock()
	r := n.relayByName[name]
	n.mu.RUnlock()
	if r == nil {
		return false
	}
	if n.cfg.Faults != nil {
		n.cfg.Faults.Crash(name)
	}
	n.cfg.Telemetry.Counter("tornet.relay_crashes").Inc()
	r.Close()
	return true
}

// AddRelay starts a relay at topology node id and publishes it, growing
// the consensus at runtime — the join half of churn. The node must exist
// in the topology; the nickname must not collide with a running relay.
func (n *Net) AddRelay(name string, id inet.NodeID) error {
	node := n.cfg.Topology.Node(id)
	if node == nil {
		return fmt.Errorf("tornet: join node %d not in topology", id)
	}
	if id == n.cfg.Host {
		return errors.New("tornet: host node cannot join as a public relay")
	}
	n.mu.RLock()
	_, running := n.relayByName[name]
	n.mu.RUnlock()
	if running {
		return fmt.Errorf("tornet: relay %q already running", name)
	}
	if err := n.addRelay(name, id, node.Fwd, true); err != nil {
		return err
	}
	n.cfg.Telemetry.Counter("tornet.relay_joins").Inc()
	return nil
}

// DrainRelay gracefully removes the named relay: it stops accepting
// CREATE/EXTEND and DESTROYs its live circuits (relay.Drain), leaves the
// consensus, then closes. Peers and mid-scan measurements observe an
// orderly departure instead of a crash. Returns false for an unknown
// relay.
func (n *Net) DrainRelay(name string) bool {
	r := n.takeRelay(name)
	if r == nil {
		return false
	}
	r.Drain()
	n.Registry.Remove(name)
	n.cfg.Telemetry.Counter("tornet.relay_drains").Inc()
	r.Close()
	return true
}

// RemoveRelay abruptly unpublishes and closes the named relay — a
// departure without the courtesy DESTROYs of DrainRelay. Returns false
// for an unknown relay.
func (n *Net) RemoveRelay(name string) bool {
	r := n.takeRelay(name)
	if r == nil {
		return false
	}
	n.Registry.Remove(name)
	n.cfg.Telemetry.Counter("tornet.relay_removes").Inc()
	r.Close()
	return true
}

// takeRelay detaches a relay from the by-name map so the nickname can be
// reused by a later join. The address maps keep their entries: dials to a
// gone relay fail at the link layer, as they would for a vanished host.
func (n *Net) takeRelay(name string) *relay.Relay {
	n.mu.Lock()
	defer n.mu.Unlock()
	r := n.relayByName[name]
	if r != nil {
		delete(n.relayByName, name)
	}
	return r
}

// addRelay starts one relay whose network position is node id.
func (n *Net) addRelay(name string, id inet.NodeID, fwd inet.ForwardingModel, publish bool) error {
	identity, err := onion.NewIdentity(nil)
	if err != nil {
		return err
	}
	var ln link.Listener
	if n.cfg.TCP {
		ln, err = link.ListenTCP("127.0.0.1:0")
	} else {
		ln, err = n.pn.Listen(name)
	}
	if err != nil {
		return err
	}
	dialAddr := ln.Addr()
	var fwdFn func() time.Duration
	if n.cfg.ForwardDelays {
		rng := rand.New(rand.NewSource(n.cfg.Seed ^ int64(id)<<16 ^ int64(len(name))))
		var mu sync.Mutex
		fwdFn = func() time.Duration {
			mu.Lock()
			ms := fwd.Sample(rng)
			mu.Unlock()
			return n.scale(ms)
		}
	}
	cfg := relay.Config{
		Nickname:     name,
		Addr:         dialAddr,
		Identity:     identity,
		Listener:     ln,
		RelayDialer:  n.dialerFrom(id, name),
		ExitDialer:   &exitDialer{n: n, from: id},
		ExitPolicy:   func(target string) bool { return target == EchoTarget },
		ForwardDelay: fwdFn,
		Telemetry:    n.cfg.Telemetry,
	}
	r, err := relay.New(cfg)
	if err != nil {
		return err
	}
	r.Start()
	n.mu.Lock()
	n.relays = append(n.relays, r)
	n.relayByName[name] = r
	n.nodeByAddr[dialAddr] = id
	n.nameByAddr[dialAddr] = name
	if _, taken := n.names[id]; !taken {
		n.names[id] = name
	}
	n.mu.Unlock()

	bw := 1000.0
	if node := n.cfg.Topology.Node(id); node != nil {
		bw = node.BandwidthKBps
	}
	desc := &directory.Descriptor{
		Nickname: name, Addr: dialAddr, OnionKey: identity.Public(),
		BandwidthKBps: bw, Exit: true,
	}
	if publish {
		return n.Registry.Publish(desc)
	}
	return n.Registry.AddUnpublished(desc)
}

// scale converts virtual milliseconds to wall-clock duration.
func (n *Net) scale(ms float64) time.Duration {
	return time.Duration(ms * n.cfg.TimeScale * float64(time.Millisecond))
}

// VirtualMs converts a measured wall-clock duration back to virtual
// milliseconds.
func (n *Net) VirtualMs(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond) / n.cfg.TimeScale
}

// nodeOf maps a relay address back to its topology node.
func (n *Net) nodeOf(addr string) (inet.NodeID, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	id, ok := n.nodeByAddr[addr]
	return id, ok
}

// RelayByName returns the running relay with the given nickname, or nil.
// Tests and operational tooling use it to read relay statistics.
func (n *Net) RelayByName(name string) *relay.Relay {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.relayByName[name]
}

// NodeName returns the nickname of the relay at a node.
func (n *Net) NodeName(id inet.NodeID) (string, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	name, ok := n.names[id]
	return name, ok
}

// dialerFrom builds a link dialer whose connections carry the one-way
// latency between the caller's node and the target relay's node. In-process
// links carry it in the pipe itself; TCP links are wrapped in link.Delayed.
// fromName identifies the dialing endpoint in fault-plan rules. With a
// fault plan installed, dials to Down relays are refused and every link is
// wrapped with the plan's per-link faults outside the latency.
func (n *Net) dialerFrom(from inet.NodeID, fromName string) link.Dialer {
	var inner link.Dialer = link.DialerFunc(func(addr string) (link.Link, error) {
		to, ok := n.nodeOf(addr)
		if !ok {
			return nil, fmt.Errorf("tornet: no relay at %q", addr)
		}
		oneWay := n.scale(n.cfg.Topology.RTT(from, to) / 2)
		if !n.cfg.TCP {
			return n.pn.DialDelayed(addr, oneWay, oneWay)
		}
		raw, err := link.TCPDialer{}.Dial(addr)
		if err != nil {
			return nil, err
		}
		return link.Delayed(raw, oneWay, oneWay), nil
	})
	if n.cfg.Faults != nil {
		// The fault wrapper sits outside the delay: a reset or drop decided
		// at send time closes the whole delayed link, exactly like a path
		// failing under traffic.
		inner = n.cfg.Faults.WrapDialer(inner, fromName, func(addr string) string {
			n.mu.RLock()
			name, ok := n.nameByAddr[addr]
			n.mu.RUnlock()
			if ok {
				return name
			}
			return addr
		})
	}
	return inner
}

// exitDialer opens the exit-side connection to the echo destination, which
// lives at the measurement host; the connection carries the exit↔host
// latency.
type exitDialer struct {
	n    *Net
	from inet.NodeID
}

func (e *exitDialer) DialStream(target string) (io.ReadWriteCloser, error) {
	if target != EchoTarget {
		return nil, fmt.Errorf("tornet: unknown stream target %q", target)
	}
	a, b := net.Pipe()
	go echo.Handle(b)
	oneWay := e.n.scale(e.n.cfg.Topology.RTT(e.from, e.n.cfg.Host) / 2)
	return link.DelayedRW(a, oneWay, oneWay), nil
}

// Close stops every relay and cancels pending fault-plan timers.
func (n *Net) Close() {
	n.closeOnce.Do(func() {
		for _, t := range n.timers {
			t.Stop()
		}
		n.mu.RLock()
		relays := append([]*relay.Relay(nil), n.relays...)
		n.mu.RUnlock()
		for _, r := range relays {
			r.Close()
		}
	})
}
