package hetsim

import (
	"math"
	"testing"
)

// topoCfg is a 2-node, 4-GPU platform with easily distinguishable tiers:
// PCIe at 10 GB/s + 10 µs, inter-node at 1 GB/s + 100 µs.
func topoCfg() Config {
	cfg := DefaultConfig(4)
	cfg.Nodes = 2
	cfg.PCIeGBps = 10
	cfg.PCIeLatencyUS = 10
	cfg.InterGBps = 1
	cfg.InterLatencyUS = 100
	return cfg
}

func TestTopologyNodeAssignment(t *testing.T) {
	s := New(topoCfg())
	if s.Nodes() != 2 {
		t.Fatalf("Nodes() = %d, want 2", s.Nodes())
	}
	// Round-robin: GPU g lives on node g % Nodes.
	for g := 0; g < 4; g++ {
		if got := s.GPU(g).Node(); got != g%2 {
			t.Errorf("GPU%d on node %d, want %d", g, got, g%2)
		}
		if got := s.NodeOf(g); got != g%2 {
			t.Errorf("NodeOf(%d) = %d, want %d", g, got, g%2)
		}
	}
	if s.CPU().Node() != 0 {
		t.Fatalf("CPU node = %d, want 0", s.CPU().Node())
	}
	// Node-qualified names on a multi-node system; flat systems keep the
	// unqualified names (the single-node bit-identity pin includes display
	// strings the service sorts on).
	if got := s.GPU(2).Name(); got != "N0/GPU2" {
		t.Fatalf("GPU2 name = %q, want N0/GPU2", got)
	}
	if got := New(DefaultConfig(2)).GPU(1).Name(); got != "GPU1" {
		t.Fatalf("flat GPU1 name = %q", got)
	}
}

func TestTopologyValidation(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Nodes = 2
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for NumGPUs not a multiple of Nodes")
		}
	}()
	New(cfg)
}

// expectSecs asserts the PCIe clock advanced by exactly want since base.
func expectSecs(t *testing.T, s *System, base, want float64, what string) float64 {
	t.Helper()
	got := s.PCIeSimTime() - base
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("%s billed %.9gs, want %.9gs", what, got, want)
	}
	return s.PCIeSimTime()
}

func TestCrossTierTransferAccounting(t *testing.T) {
	cfg := topoCfg()
	s := New(cfg)
	const bytes = 8 * 16 * 16
	mk := func(d *Device) *Buffer { return d.Alloc(16, 16) }
	cpuBuf := mk(s.CPU())

	// Intra-node: CPU (node 0) -> GPU0 (node 0) bills the PCIe tier.
	base := expectSecs(t, s, 0, 0, "start")
	s.Transfer(cpuBuf, mk(s.GPU(0)))
	base = expectSecs(t, s, base, bytes/(cfg.PCIeGBps*1e9)+cfg.PCIeLatencyUS/1e6, "intra-node CPU->GPU0")
	if s.InternodeBytes() != 0 {
		t.Fatalf("intra-node transfer counted %d inter-node bytes", s.InternodeBytes())
	}

	// Cross-node: CPU (node 0) -> GPU1 (node 1) bills the inter tier.
	s.Transfer(cpuBuf, mk(s.GPU(1)))
	base = expectSecs(t, s, base, bytes/(cfg.InterGBps*1e9)+cfg.InterLatencyUS/1e6, "cross-node CPU->GPU1")
	if s.InternodeBytes() != bytes {
		t.Fatalf("inter-node bytes = %d, want %d", s.InternodeBytes(), bytes)
	}

	// GPU peer transfers classify by endpoint nodes too: GPU0->GPU2 share
	// node 0 (PCIe tier), GPU0->GPU3 cross (inter tier).
	g0 := mk(s.GPU(0))
	s.Transfer(cpuBuf, g0)
	base = s.PCIeSimTime()
	s.Transfer(g0, mk(s.GPU(2)))
	base = expectSecs(t, s, base, bytes/(cfg.PCIeGBps*1e9)+cfg.PCIeLatencyUS/1e6, "intra-node GPU0->GPU2")
	s.Transfer(g0, mk(s.GPU(3)))
	expectSecs(t, s, base, bytes/(cfg.InterGBps*1e9)+cfg.InterLatencyUS/1e6, "cross-node GPU0->GPU3")
	if s.InternodeBytes() != 2*bytes {
		t.Fatalf("inter-node bytes = %d, want %d", s.InternodeBytes(), 2*bytes)
	}
	if s.BytesTransferred() != 5*bytes {
		t.Fatalf("total bytes = %d, want %d", s.BytesTransferred(), 5*bytes)
	}
}

func TestCrossTierCoalescedLatency(t *testing.T) {
	cfg := topoCfg()
	s := New(cfg)
	mk := func(d *Device) *Buffer { return d.Alloc(16, 16) }
	const bytes = 8 * 16 * 16
	cpuBuf := mk(s.CPU())
	d0a, d0b := mk(s.GPU(0)), mk(s.GPU(0))
	d1a, d1b := mk(s.GPU(1)), mk(s.GPU(1))
	s.CoalesceTransfers(func() {
		s.Transfer(cpuBuf, d0a) // intra: pays PCIe latency
		s.Transfer(cpuBuf, d0b) // same link: bandwidth only
		s.Transfer(cpuBuf, d1a) // cross: pays inter latency
		s.Transfer(cpuBuf, d1b) // same link: bandwidth only
	})
	want := 2*bytes/(cfg.PCIeGBps*1e9) + cfg.PCIeLatencyUS/1e6 +
		2*bytes/(cfg.InterGBps*1e9) + cfg.InterLatencyUS/1e6
	expectSecs(t, s, 0, want, "coalesced two-tier window")
}

func TestCrossTierLinkFaultComposition(t *testing.T) {
	cfg := topoCfg()
	s := New(cfg)
	const bytes = 8 * 16 * 16
	cpuBuf := s.CPU().Alloc(16, 16)

	// A degraded link multiplies the bandwidth term of whatever tier the
	// transfer crosses; the latency term is unaffected.
	s.ArmLinkFault(1, LinkFaultPlan{Mode: LinkDegrade, Factor: 3})
	s.Transfer(cpuBuf, s.GPU(1).Alloc(16, 16)) // cross-node over the degraded link
	base := expectSecs(t, s, 0, 3*bytes/(cfg.InterGBps*1e9)+cfg.InterLatencyUS/1e6, "degraded cross-node")

	s.ArmLinkFault(2, LinkFaultPlan{Mode: LinkDegrade, Factor: 3})
	s.Transfer(cpuBuf, s.GPU(2).Alloc(16, 16)) // intra-node over a degraded link
	base = expectSecs(t, s, base, 3*bytes/(cfg.PCIeGBps*1e9)+cfg.PCIeLatencyUS/1e6, "degraded intra-node")

	// A dropped cross-node transfer still pays for the wire it wasted, at
	// the inter tier, and counts its bytes on the inter-node counter.
	before := s.InternodeBytes()
	s.ArmLinkFault(3, LinkFaultPlan{Mode: LinkDrop})
	err := catch(func() { s.Transfer(cpuBuf, s.GPU(3).Alloc(16, 16)) })
	if _, ok := err.(*LinkError); !ok {
		t.Fatalf("dropped transfer returned %v, want *LinkError", err)
	}
	expectSecs(t, s, base, bytes/(cfg.InterGBps*1e9)+cfg.InterLatencyUS/1e6, "dropped cross-node")
	if got := s.InternodeBytes() - before; got != bytes {
		t.Fatalf("dropped cross-node transfer counted %d inter-node bytes, want %d", got, bytes)
	}
}

// lostGPUs counts the GPUs of s that a node loss has taken down.
func lostGPUs(s *System) int {
	n := 0
	for g := 0; g < s.NumGPUs(); g++ {
		if s.GPU(g).Lost() {
			n++
		}
	}
	return n
}

func TestNodeFaultFiresAtEpoch(t *testing.T) {
	s := New(topoCfg())
	s.ArmNodeFault(1, NodeFaultPlan{AfterEpochs: 2})
	if got := s.NodeEpoch(); len(got) != 0 {
		t.Fatalf("epoch 1 fired nodes %v", got)
	}
	if got := s.NodeEpoch(); len(got) != 0 {
		t.Fatalf("epoch 2 fired nodes %v", got)
	}
	if got := s.NodeEpoch(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("epoch 3 fired nodes %v, want [1]", got)
	}
	// Only node 1's GPUs are dead; the coordinator and node 0 survive.
	for g := 0; g < 4; g++ {
		if want := g%2 == 1; s.GPU(g).Lost() != want {
			t.Errorf("GPU%d lost = %v, want %v", g, s.GPU(g).Lost(), want)
		}
	}
	if s.CPU().Lost() {
		t.Fatal("CPU must survive a node loss")
	}
	// An operation on a dead GPU reports the structured identity.
	err := catch(func() { s.GPU(1).Run("gemm", 1, func(int) {}) })
	lost, ok := err.(*DeviceLostError)
	if !ok || lost.GPU != 1 || lost.Node != 1 {
		t.Fatalf("lost error = %#v, want GPU 1 node 1", err)
	}
	// Reset revives the node and disarms pending plans.
	s.Reset()
	if n := lostGPUs(s); n != 0 {
		t.Fatalf("Reset must revive lost nodes: %d GPUs still lost", n)
	}
	if got := s.NodeEpoch(); len(got) != 0 {
		t.Fatalf("epoch after Reset fired nodes %v", got)
	}
}

// TestNodeFaultBurstFiresTogether pins the simultaneous-loss semantics: two
// plans armed for the same epoch fire as ONE two-node burst at that
// boundary, not one per call — the correlated-failure case an r ≥ 2 erasure
// code absorbs in a single reconstruction.
func TestNodeFaultBurstFiresTogether(t *testing.T) {
	s := New(topoCfg())
	s.ArmNodeFault(0, NodeFaultPlan{})
	s.ArmNodeFault(1, NodeFaultPlan{})
	got := s.NodeEpoch()
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("first epoch fired nodes %v, want [0 1]", got)
	}
	for g := 0; g < 4; g++ {
		if !s.GPU(g).Lost() {
			t.Errorf("GPU%d survived a full burst", g)
		}
	}
	if got := s.NodeEpoch(); len(got) != 0 {
		t.Fatalf("second epoch re-fired nodes %v", got)
	}
}

// TestNodeFaultStaggeredPlans: plans due at different epochs still fire
// separately.
func TestNodeFaultStaggeredPlans(t *testing.T) {
	s := New(topoCfg())
	s.ArmNodeFault(0, NodeFaultPlan{})
	s.ArmNodeFault(1, NodeFaultPlan{AfterEpochs: 1})
	if got := s.NodeEpoch(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("first epoch fired nodes %v, want [0]", got)
	}
	if got := s.NodeEpoch(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("second epoch fired nodes %v, want [1]", got)
	}
	if n := lostGPUs(s); n != 4 {
		t.Fatalf("%d GPUs lost, want all 4 on both nodes", n)
	}
}
