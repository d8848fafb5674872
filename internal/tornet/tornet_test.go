package tornet

import (
	"math"
	"runtime"
	"testing"
	"time"

	"ting/internal/directory"
	"ting/internal/echo"
	"ting/internal/geo"
	"ting/internal/inet"
	"ting/internal/link"
)

// smallWorld builds a topology with deterministic, overridden RTTs so the
// overlay's timing can be checked exactly.
func smallWorld(t *testing.T, nRelays int) (*inet.Topology, inet.NodeID) {
	t.Helper()
	topo, err := inet.Generate(inet.Config{N: nRelays, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	host := topo.AddHost("host", geo.Coord{Lat: 39, Lon: -77}, 12)
	return topo, host
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	topo, host := smallWorld(t, 3)
	if _, err := Build(Config{Topology: topo, Host: inet.NodeID(999)}); err == nil {
		t.Error("bogus host accepted")
	}
	if _, err := Build(Config{Topology: topo, Host: host, RelayNodes: []inet.NodeID{host}}); err == nil {
		t.Error("host doubling as public relay accepted")
	}
	if _, err := Build(Config{Topology: topo, Host: host, RelayNodes: []inet.NodeID{999}}); err == nil {
		t.Error("bogus relay node accepted")
	}
}

func TestRegistryContents(t *testing.T) {
	topo, host := smallWorld(t, 4)
	n, err := Build(Config{Topology: topo, Host: host, TimeScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.Registry.Len() != 4 {
		t.Errorf("published relays = %d, want 4", n.Registry.Len())
	}
	// w and z resolvable but unpublished.
	for _, name := range []string{WName, ZName} {
		if _, ok := n.Registry.Lookup(name); !ok {
			t.Errorf("%s not resolvable", name)
		}
	}
	for _, d := range n.Registry.Consensus() {
		if d.Nickname == WName || d.Nickname == ZName {
			t.Errorf("local relay %s leaked into consensus", d.Nickname)
		}
	}
	if _, ok := n.NodeName(host); !ok {
		t.Error("host node has no relay name")
	}
}

// circuitPath builds a descriptor path by nickname.
func circuitPath(t *testing.T, n *Net, names ...string) []*directory.Descriptor {
	t.Helper()
	out := make([]*directory.Descriptor, 0, len(names))
	for _, name := range names {
		d, ok := n.Registry.Lookup(name)
		if !ok {
			t.Fatalf("relay %s unknown", name)
		}
		out = append(out, d)
	}
	return out
}

func TestFullCircuitEchoLatency(t *testing.T) {
	topo, host := smallWorld(t, 3)
	// Exact RTTs for the path host→w(host)→x→y→z(host)→echo(host):
	x, y := inet.NodeID(0), inet.NodeID(1)
	topo.OverrideRTT(host, x, 40)
	topo.OverrideRTT(x, y, 60)
	topo.OverrideRTT(y, host, 50)

	n, err := Build(Config{Topology: topo, Host: host, TimeScale: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	xName, _ := n.NodeName(x)
	yName, _ := n.NodeName(y)
	circ, err := n.Client.BuildCircuit(circuitPath(t, n, WName, xName, yName, ZName))
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	st, err := circ.OpenStream(EchoTarget)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	min, err := echo.NewClient(st).MinRTT(5)
	if err != nil {
		t.Fatal(err)
	}
	got := n.VirtualMs(min)
	want := 0.05 + 40 + 60 + 50 + 0.05 + 0.05 // the RTT sum along the circuit
	// Scheduling overhead only adds; allow a generous window.
	if got < want-1 || got > want+25 {
		t.Errorf("circuit RTT = %.1f virtual ms, want ≈ %.1f", got, want)
	}
}

func TestTimeScaleCompression(t *testing.T) {
	topo, host := smallWorld(t, 2)
	x := inet.NodeID(0)
	topo.OverrideRTT(host, x, 200)

	n, err := Build(Config{Topology: topo, Host: host, TimeScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	xName, _ := n.NodeName(x)
	start := time.Now()
	circ, err := n.Client.BuildCircuit(circuitPath(t, n, WName, xName))
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	elapsed := time.Since(start)
	// Build needs 2 round trips over a 200ms-RTT path; compressed 20×
	// that's ~20ms. If the scale were ignored it would take ≥400ms.
	if elapsed > 300*time.Millisecond {
		t.Errorf("compressed build took %v", elapsed)
	}
	if n.VirtualMs(10*time.Millisecond) != 200 {
		t.Errorf("VirtualMs(10ms at 0.05) = %v, want 200", n.VirtualMs(10*time.Millisecond))
	}
}

func TestForwardDelaysIncreaseRTT(t *testing.T) {
	topo, host := smallWorld(t, 2)
	x := inet.NodeID(0)
	topo.OverrideRTT(host, x, 5)
	// A relay with a large deterministic floor.
	topo.Node(x).Fwd = inet.ForwardingModel{BaseMs: 30, QueueMeanMs: 0.001}

	n, err := Build(Config{Topology: topo, Host: host, TimeScale: 1.0, ForwardDelays: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	xName, _ := n.NodeName(x)
	circ, err := n.Client.BuildCircuit(circuitPath(t, n, WName, xName))
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	st, err := circ.OpenStream(EchoTarget)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rtt, err := echo.NewClient(st).Probe()
	if err != nil {
		t.Fatal(err)
	}
	got := n.VirtualMs(rtt)
	// Path RTT is 5+5+ε ms; x contributes 2×30ms of forwarding delay.
	if got < 65 {
		t.Errorf("RTT with forwarding delays = %.1f ms, want ≥ 65", got)
	}
}

func TestEchoLatencyFromExit(t *testing.T) {
	// The exit→echo leg must carry the exit↔host RTT, not be free.
	topo, host := smallWorld(t, 2)
	x := inet.NodeID(0)
	topo.OverrideRTT(host, x, 30)

	n, err := Build(Config{Topology: topo, Host: host, TimeScale: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	xName, _ := n.NodeName(x)
	// Circuit (w, x): x is the exit, so echo traffic crosses host↔x twice
	// per round trip (once inside the circuit, once on the exit stream).
	circ, err := n.Client.BuildCircuit(circuitPath(t, n, WName, xName))
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	st, err := circ.OpenStream(EchoTarget)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	min, err := echo.NewClient(st).MinRTT(3)
	if err != nil {
		t.Fatal(err)
	}
	got := n.VirtualMs(min)
	want := 30.0 + 30.0 // w→x→(echo at host) and back
	if math.Abs(got-want) > 15 {
		t.Errorf("exit echo RTT = %.1f, want ≈ %.1f", got, want)
	}
}

func TestExitPolicyOnlyEcho(t *testing.T) {
	topo, host := smallWorld(t, 2)
	n, err := Build(Config{Topology: topo, Host: host, TimeScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	xName, _ := n.NodeName(inet.NodeID(0))
	circ, err := n.Client.BuildCircuit(circuitPath(t, n, WName, xName))
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	if _, err := circ.OpenStream("evil.example:80"); err == nil {
		t.Error("exit policy allowed a non-echo target")
	}
}

func TestTCPTransportEcho(t *testing.T) {
	topo, host := smallWorld(t, 2)
	x := inet.NodeID(0)
	topo.OverrideRTT(host, x, 20)
	n, err := Build(Config{Topology: topo, Host: host, TimeScale: 1.0, TCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	xName, _ := n.NodeName(x)
	circ, err := n.Client.BuildCircuit(circuitPath(t, n, WName, xName))
	if err != nil {
		t.Fatal(err)
	}
	defer circ.Close()
	st, err := circ.OpenStream(EchoTarget)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	min, err := echo.NewClient(st).MinRTT(3)
	if err != nil {
		t.Fatal(err)
	}
	got := n.VirtualMs(min)
	// Over TCP the circuit (w, x) still pays host↔x twice per round trip.
	if got < 38 || got > 70 {
		t.Errorf("TCP-mode RTT = %.1f ms, want ≈ 40", got)
	}
}

// TestPipeLinksCarryDelayWithoutPumps checks that in-process links carry
// their latency in the pipe: a dialed link keeps the batch interfaces, and
// dialing starts no goroutines beyond the relay's one reader per link.
func TestPipeLinksCarryDelayWithoutPumps(t *testing.T) {
	topo, host := smallWorld(t, 3)
	n, err := Build(Config{Topology: topo, Host: host, TimeScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	x := inet.NodeID(0)
	xName, _ := n.NodeName(x)
	d := n.dialerFrom(host, WName)

	const dials = 16
	before := runtime.NumGoroutine()
	links := make([]link.Link, 0, dials)
	for i := 0; i < dials; i++ {
		lk, err := d.Dial(xName)
		if err != nil {
			t.Fatal(err)
		}
		links = append(links, lk)
	}
	if g := runtime.NumGoroutine() - before; g > dials {
		t.Errorf("%d dials started %d goroutines, want at most one relay reader each", dials, g)
	}
	for _, lk := range links {
		if _, ok := lk.(link.BatchSender); !ok {
			t.Fatalf("pipe-mode link %T hides BatchSender", lk)
		}
		if _, ok := lk.(link.BatchRecver); !ok {
			t.Fatalf("pipe-mode link %T hides BatchRecver", lk)
		}
		lk.Close()
	}
}
