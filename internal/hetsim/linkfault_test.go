package hetsim

import (
	"errors"
	"testing"
	"time"

	"ftla/internal/matrix"
)

// TestReliableBitIdenticalWithoutFaults pins the zero-fault contract:
// TransferReliable moves exactly the bytes Transfer moves and never
// rewrites the payload.
func TestReliableBitIdenticalWithoutFaults(t *testing.T) {
	s := failSys(t, 2)
	src := s.CPU().AllocFrom(matrix.Random(16, 12, matrix.NewRNG(7)))
	raw := s.GPU(0).Alloc(16, 12)
	rel := s.GPU(1).Alloc(16, 12)

	s.Transfer(src, raw)
	s.TransferReliable(src, rel)

	if !raw.UnsafeData().Equal(rel.UnsafeData()) {
		t.Fatal("TransferReliable payload differs from Transfer payload with no faults armed")
	}
	if !rel.UnsafeData().Equal(src.UnsafeData()) {
		t.Fatal("payload differs from source")
	}
}

// TestReliableChargesChecksumTime pins the honest-cost contract: both
// checksum passes land on the simulated clocks of the devices that
// compute them.
func TestReliableChargesChecksumTime(t *testing.T) {
	s := failSys(t, 1)
	src := s.CPU().AllocFrom(matrix.Random(32, 32, matrix.NewRNG(1)))
	dst := s.GPU(0).Alloc(32, 32)

	cpu0, gpu0 := s.CPU().SimTime(), s.GPU(0).SimTime()
	s.TransferReliable(src, dst)
	if s.CPU().SimTime() <= cpu0 {
		t.Fatal("source checksum pass was free on the CPU clock")
	}
	if s.GPU(0).SimTime() <= gpu0 {
		t.Fatal("arrival checksum pass was free on the GPU clock")
	}
	if s.PCIeSimTime() <= 0 {
		t.Fatal("transfer billed no PCIe time")
	}
}

// TestReliableRunsHookOnceAfterVerify pins where each transfer entry runs
// the fault-injection hook: TransferReliable once per transfer, on the
// verified payload and never on a failed wire attempt; raw Transfer only
// after a delivered attempt, so a dropped one runs it zero times.
func TestReliableRunsHookOnceAfterVerify(t *testing.T) {
	s := failSys(t, 1)
	src := s.CPU().AllocFrom(matrix.Random(8, 8, matrix.NewRNG(12)))
	dst := s.GPU(0).Alloc(8, 8)
	calls := 0
	s.SetTransferHook(func(from, to *Device, payload *matrix.Dense) {
		calls++
		if !payload.Equal(src.UnsafeData()) {
			t.Error("hook observed an unverified payload")
		}
	})

	s.ArmLinkFault(0, LinkFaultPlan{Mode: LinkFlap, Count: 2})
	var le *LinkError
	if err := catch(func() { s.Transfer(src, dst) }); !errors.As(err, &le) {
		t.Fatalf("raw transfer over a flapping link: err = %v, want *LinkError", err)
	}
	if calls != 0 {
		t.Fatalf("dropped raw Transfer ran the hook %d times, want 0", calls)
	}
	before := transferRetransmits.Value()
	s.TransferReliable(src, dst) // absorbs the flap's second failure
	if transferRetransmits.Value() == before || calls != 1 {
		t.Fatalf("retransmitting TransferReliable over a flap ran the hook %d times, want 1", calls)
	}

	s.ArmLinkFault(0, LinkFaultPlan{Mode: LinkCorrupt})
	before = transferRetransmits.Value()
	s.TransferReliable(src, dst) // detects the flipped bit and retransmits
	if transferRetransmits.Value() == before || calls != 2 {
		t.Fatalf("retransmitting TransferReliable over corruption ran the hook %d more times, want 1", calls-1)
	}
}

// TestCorruptRawTransferDeliversDamage pins the raw path: a corrupt plan
// silently flips a bit and Transfer hands the damage to the receiver.
func TestCorruptRawTransferDeliversDamage(t *testing.T) {
	s := failSys(t, 1)
	s.ArmLinkFault(0, LinkFaultPlan{Mode: LinkCorrupt})
	src := s.CPU().AllocFrom(matrix.Random(8, 8, matrix.NewRNG(3)))
	dst := s.GPU(0).Alloc(8, 8)

	before := linkFaults.With("corrupt").Value()
	s.Transfer(src, dst)
	if dst.UnsafeData().Equal(src.UnsafeData()) {
		t.Fatal("armed corrupt fault delivered a clean payload")
	}
	if linkFaults.With("corrupt").Value() != before+1 {
		t.Fatal("corrupt firing did not tick the link-fault metric")
	}
}

// TestCorruptAbsorbedByReliable pins the protocol: the checksum detects
// the flipped bit, the retransmission lands between firings, and the
// caller sees a clean payload plus a ticked retransmit counter.
func TestCorruptAbsorbedByReliable(t *testing.T) {
	s := failSys(t, 1)
	s.ArmLinkFault(0, LinkFaultPlan{Mode: LinkCorrupt})
	src := s.CPU().AllocFrom(matrix.Random(8, 8, matrix.NewRNG(3)))
	dst := s.GPU(0).Alloc(8, 8)

	before := transferRetransmits.Value()
	s.TransferReliable(src, dst)
	if !dst.UnsafeData().Equal(src.UnsafeData()) {
		t.Fatal("TransferReliable delivered a corrupted payload")
	}
	if transferRetransmits.Value() <= before {
		t.Fatal("absorbing the corruption issued no retransmission")
	}
}

// TestAfterTransfersGate pins the deterministic trigger: the fault waits
// out exactly AfterTransfers clean transfers, like FaultPlan.AfterOps.
func TestAfterTransfersGate(t *testing.T) {
	s := failSys(t, 1)
	s.ArmLinkFault(0, LinkFaultPlan{Mode: LinkCorrupt, AfterTransfers: 2})
	src := s.CPU().AllocFrom(matrix.Random(4, 4, matrix.NewRNG(5)))
	dst := s.GPU(0).Alloc(4, 4)

	for i := 0; i < 2; i++ {
		s.Transfer(src, dst)
		if !dst.UnsafeData().Equal(src.UnsafeData()) {
			t.Fatalf("transfer %d corrupted before the gate", i)
		}
	}
	s.Transfer(src, dst)
	if dst.UnsafeData().Equal(src.UnsafeData()) {
		t.Fatal("third transfer passed clean through an AfterTransfers=2 corrupt plan")
	}
}

// TestEveryRefiresAtFixedRate pins the Every semantics: one firing at the
// gate, then one per Every transfers, with clean transfers in between.
func TestEveryRefiresAtFixedRate(t *testing.T) {
	s := failSys(t, 1)
	s.ArmLinkFault(0, LinkFaultPlan{Mode: LinkCorrupt, Every: 3})
	src := s.CPU().AllocFrom(matrix.Random(4, 4, matrix.NewRNG(9)))
	dst := s.GPU(0).Alloc(4, 4)

	dirty := 0
	for i := 0; i < 7; i++ {
		s.Transfer(src, dst)
		if !dst.UnsafeData().Equal(src.UnsafeData()) {
			dirty++
		}
	}
	// Firings at transfers 1, 4, 7 of 7.
	if dirty != 3 {
		t.Fatalf("dirty transfers = %d, want 3 (gate + every 3rd)", dirty)
	}
}

// TestDropReturnsTypedErrorAndBillsWire pins the drop mode on the raw
// path: a typed *LinkError with the link's GPU index, and the wasted wire
// time still billed.
func TestDropReturnsTypedErrorAndBillsWire(t *testing.T) {
	s := failSys(t, 2)
	s.ArmLinkFault(1, LinkFaultPlan{Mode: LinkDrop})
	src := s.CPU().AllocFrom(matrix.Random(8, 8, matrix.NewRNG(2)))
	dst := s.GPU(1).Alloc(8, 8)

	err := catch(func() { s.Transfer(src, dst) })
	var le *LinkError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LinkError", err)
	}
	if le.Link != 1 || le.Mode != LinkDrop || le.Retries != 0 {
		t.Fatalf("LinkError = %+v", le)
	}
	if s.PCIeSimTime() <= 0 {
		t.Fatal("dropped transfer billed no wire time")
	}
	var z float64
	for i := 0; i < 8; i++ {
		for _, v := range dst.UnsafeData().Row(i) {
			z += v
		}
	}
	if z != 0 {
		t.Fatal("dropped transfer still delivered payload bytes")
	}
}

// TestDropAbsorbedByReliable pins retransmission after a one-shot drop.
func TestDropAbsorbedByReliable(t *testing.T) {
	s := failSys(t, 1)
	s.ArmLinkFault(0, LinkFaultPlan{Mode: LinkDrop})
	src := s.CPU().AllocFrom(matrix.Random(8, 8, matrix.NewRNG(4)))
	dst := s.GPU(0).Alloc(8, 8)

	s.TransferReliable(src, dst)
	if !dst.UnsafeData().Equal(src.UnsafeData()) {
		t.Fatal("payload wrong after retransmitted drop")
	}
}

// TestFlapHealsWithinBudget pins the flap lifecycle: Count consecutive
// failures, then the plan clears itself and the link carries traffic
// again without re-arming.
func TestFlapHealsWithinBudget(t *testing.T) {
	s := failSys(t, 1)
	s.ArmLinkFault(0, LinkFaultPlan{Mode: LinkFlap, Count: 2})
	src := s.CPU().AllocFrom(matrix.Random(8, 8, matrix.NewRNG(6)))
	dst := s.GPU(0).Alloc(8, 8)

	s.TransferReliable(src, dst) // absorbs both failures within the budget of 3
	if !dst.UnsafeData().Equal(src.UnsafeData()) {
		t.Fatal("payload wrong after flap healed")
	}
	s.mu.Lock()
	healed := s.links[0].plan == nil
	s.mu.Unlock()
	if !healed {
		t.Fatal("flap plan did not clear itself after Count failures")
	}
	// The healed link is clean for raw transfers too.
	dst2 := s.GPU(0).Alloc(8, 8)
	if err := catch(func() { s.Transfer(src, dst2) }); err != nil {
		t.Fatalf("healed link errored: %v", err)
	}
}

// TestFlapExhaustsRetransmitBudget pins the exhaustion path: a flap
// longer than the budget surfaces a typed *LinkError carrying the budget
// in Retries, through the RecoverAbort plumbing.
func TestFlapExhaustsRetransmitBudget(t *testing.T) {
	s := failSys(t, 2)
	s.ArmLinkFault(1, LinkFaultPlan{Mode: LinkFlap, Count: 20})
	src := s.CPU().AllocFrom(matrix.Random(8, 8, matrix.NewRNG(8)))
	dst := s.GPU(1).Alloc(8, 8)

	err := catch(func() { s.TransferReliable(src, dst) })
	var le *LinkError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LinkError", err)
	}
	if le.Link != 1 || le.Retries != DefaultMaxRetransmits {
		t.Fatalf("LinkError = %+v, want Link=1 Retries=%d", le, DefaultMaxRetransmits)
	}
}

// TestDegradeInflatesBandwidthCost pins the degrade mode: same bytes,
// more simulated seconds, sticky until Reset.
func TestDegradeInflatesBandwidthCost(t *testing.T) {
	base := failSys(t, 1)
	src := base.CPU().AllocFrom(matrix.Random(64, 64, matrix.NewRNG(1)))
	dst := base.GPU(0).Alloc(64, 64)
	base.Transfer(src, dst)
	clean := base.PCIeSimTime()

	s := failSys(t, 1)
	s.ArmLinkFault(0, LinkFaultPlan{Mode: LinkDegrade, Factor: 4})
	src2 := s.CPU().AllocFrom(matrix.Random(64, 64, matrix.NewRNG(1)))
	dst2 := s.GPU(0).Alloc(64, 64)
	s.Transfer(src2, dst2)
	if slow := s.PCIeSimTime(); slow <= clean {
		t.Fatalf("degraded transfer cost %v, clean cost %v; want slower", slow, clean)
	}
	if !dst2.UnsafeData().Equal(src2.UnsafeData()) {
		t.Fatal("degrade damaged the payload; it should only cost time")
	}
	// Stickiness: a second transfer is still degraded.
	t0 := s.PCIeSimTime()
	s.Transfer(src2, dst2)
	if d := s.PCIeSimTime() - t0; d <= clean {
		t.Fatalf("second transfer on degraded link cost %v, want > clean %v", d, clean)
	}
}

// TestResetDisarmsLinkFaults pins Reset: armed plans and sticky degrade
// state are gone, like device fault plans.
func TestResetDisarmsLinkFaults(t *testing.T) {
	s := failSys(t, 2)
	s.ArmLinkFault(0, LinkFaultPlan{Mode: LinkDrop})
	s.ArmLinkFault(1, LinkFaultPlan{Mode: LinkDegrade, Factor: 8})
	src := s.CPU().AllocFrom(matrix.Random(4, 4, matrix.NewRNG(1)))
	dst := s.GPU(1).Alloc(4, 4)
	s.Transfer(src, dst) // trigger the degrade so it sticks

	s.Reset()
	src = s.CPU().AllocFrom(matrix.Random(4, 4, matrix.NewRNG(1)))
	dst = s.GPU(0).Alloc(4, 4)
	if err := catch(func() { s.Transfer(src, dst) }); err != nil {
		t.Fatalf("link 0 still dropping after Reset: %v", err)
	}
	s.mu.Lock()
	deg := s.links[1].degrade
	s.mu.Unlock()
	if deg != 0 {
		t.Fatalf("link 1 degrade = %v after Reset, want 0", deg)
	}
}

// TestReliableComposesWithCoalesce pins composability: the protocol works
// inside a CoalesceTransfers window and still absorbs corruption.
func TestReliableComposesWithCoalesce(t *testing.T) {
	s := failSys(t, 1)
	s.ArmLinkFault(0, LinkFaultPlan{Mode: LinkCorrupt})
	src := s.CPU().AllocFrom(matrix.Random(8, 8, matrix.NewRNG(11)))
	dst := s.GPU(0).Alloc(8, 8)

	s.CoalesceTransfers(func() {
		s.TransferReliable(src, dst)
	})
	if !dst.UnsafeData().Equal(src.UnsafeData()) {
		t.Fatal("corruption leaked through a coalesced reliable transfer")
	}
}

// TestGPUToGPUTransferCrossesBothLinks pins the path model: a plan armed
// on either endpoint's link faults a GPU<->GPU transfer.
func TestGPUToGPUTransferCrossesBothLinks(t *testing.T) {
	s := failSys(t, 2)
	staged := s.CPU().AllocFrom(matrix.Random(4, 4, matrix.NewRNG(2)))
	src := s.GPU(1).Alloc(4, 4)
	s.Transfer(staged, src)
	s.ArmLinkFault(0, LinkFaultPlan{Mode: LinkDrop})
	dst := s.GPU(0).Alloc(4, 4)

	err := catch(func() { s.Transfer(src, dst) })
	var le *LinkError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LinkError via the source-side link", err)
	}
	if le.Link != 0 {
		t.Fatalf("Link = %d, want 0", le.Link)
	}
}

// TestArmLinkFaultValidation pins range checking and zero-plan disarm.
func TestArmLinkFaultValidation(t *testing.T) {
	s := failSys(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("ArmLinkFault out of range did not panic")
		}
	}()
	s.ArmLinkFault(0, LinkFaultPlan{Mode: LinkDrop})
	s.ArmLinkFault(0, LinkFaultPlan{}) // zero plan disarms
	src := s.CPU().AllocFrom(matrix.Random(2, 2, matrix.NewRNG(1)))
	dst := s.GPU(0).Alloc(2, 2)
	if err := catch(func() { s.Transfer(src, dst) }); err != nil {
		t.Fatalf("disarmed link still faulting: %v", err)
	}
	s.ArmLinkFault(1, LinkFaultPlan{Mode: LinkDrop}) // out of range: panics
}

// TestLinkFaultPlanString pins the human-readable plan descriptions used
// in logs and chaos summaries.
func TestLinkFaultPlanString(t *testing.T) {
	cases := []struct {
		p    LinkFaultPlan
		want string
	}{
		{LinkFaultPlan{}, "none"},
		{LinkFaultPlan{Mode: LinkCorrupt, AfterTransfers: 12, Every: 8}, "corrupt after 12 transfers (every 8)"},
		{LinkFaultPlan{Mode: LinkDrop, AfterTransfers: 5}, "drop after 5 transfers"},
		{LinkFaultPlan{Mode: LinkFlap, Count: 3}, "flap x3 after 0 transfers"},
		{LinkFaultPlan{Mode: LinkFlap}, "flap x1 after 0 transfers"},
		{LinkFaultPlan{Mode: LinkDegrade, Factor: 2, AfterTransfers: 7}, "degrade x2.0 after 7 transfers"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.p, got, c.want)
		}
	}
}

// TestFaultPlanStringOmitsZeroStall pins the FaultPlan fix: a pure
// straggler with no per-op stall no longer prints a noisy "+0s/op".
func TestFaultPlanStringOmitsZeroStall(t *testing.T) {
	p := FaultPlan{Mode: FaultStraggler, Slowdown: 3, AfterOps: 4}
	if got := p.String(); got != "straggler x3.0 after 4 ops" {
		t.Errorf("String() = %q, want %q", got, "straggler x3.0 after 4 ops")
	}
	p.Stall = 5 * time.Millisecond // still prints the stall when present
	if got := p.String(); got == "straggler x3.0 after 4 ops" {
		t.Error("String() dropped a nonzero stall")
	}
}
