package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"ftla/internal/checksum"
	"ftla/internal/fault"
	"ftla/internal/hetsim"
)

// fuzzN is the matrix order of every FuzzFaultPromise run.
const fuzzN = 128

// fuzzTopologies are the (GPUs, nodes) platforms a fuzz input selects.
var fuzzTopologies = [][2]int{{1, 1}, {2, 1}, {3, 1}, {2, 2}, {3, 3}, {4, 2}, {4, 4}}

// faultCase is one decoded FuzzFaultPromise input: a protected
// configuration at n=128 plus at most one soft error, one transient link
// plan and one node burst.
type faultCase struct {
	decomp      string
	gpus, nodes int
	opts        Options // no faults armed
	soft        *fault.Spec
	injSeed     uint64
	link        map[int]hetsim.LinkFaultPlan
	burst       map[int]hetsim.NodeFaultPlan
}

// decodeFaultCase maps any byte string onto a valid faultCase. Byte i
// selects one field, reduced modulo its range; missing bytes read as 0:
//
//	0 decomposition, 1 nb (16, 32), 2 topology, 3 redundancy r,
//	4 flags (bit 0 Lookahead, bit 1 CheckpointEvery=2, bit 2 Rebalance.Every=1),
//	5 soft-error kind (0 none), 6 op, 7 part (bit 0) and RefIndex (bit 1),
//	8 iteration, 9 row and 10 column (value−1; −1 picks at random),
//	11 injector seed, 12 communication target GPU,
//	13 link mode (0 none), 14 link GPU, 15 AfterTransfers, 16 mode parameter,
//	17 burst node mask (0 none), 18 burst epoch,
//	19 parity refresh interval c (parityInterval, 1, 2, nbr).
func decodeFaultCase(b []byte) faultCase {
	at := func(i, m int) int {
		if i < len(b) {
			return int(b[i]) % m
		}
		return 0
	}
	topo := fuzzTopologies[at(2, len(fuzzTopologies))]
	c := faultCase{decomp: []string{"cholesky", "lu", "qr"}[at(0, 3)], gpus: topo[0], nodes: topo[1]}
	nb := []int{16, 32}[at(1, 2)]
	nbr := fuzzN / nb
	flags := at(4, 8)
	c.opts = Options{NB: nb, Mode: Full, Scheme: NewScheme, Kernel: checksum.OptKernel,
		Lookahead: flags & 1, CheckpointEvery: 2 * (flags >> 1 & 1), Rebalance: Rebalance{Every: flags >> 2 & 1}}
	if c.nodes > 1 {
		c.opts.Redundancy = 1 + at(3, c.nodes-1)
	}
	c.opts.parityEvery = []int{parityInterval, 1, 2, nbr}[at(19, 4)]
	if kind := at(5, 5); kind > 0 {
		s := fault.Spec{
			Kind:      fault.Kind(kind - 1),
			Op:        []fault.Op{fault.PD, fault.PU, fault.TMU}[at(6, 3)],
			Part:      []fault.Part{fault.ReferencePart, fault.UpdatePart}[at(7, 2)],
			RefIndex:  at(7, 4) >> 1,
			Iteration: at(8, nbr),
			Row:       at(9, 17) - 1,
			Col:       at(10, 17) - 1,
			GPUTarget: at(12, c.gpus),
		}
		// The placements §X.A defines (as in stormFault).
		if c.decomp == "qr" && s.Op == fault.PU {
			s.Op = fault.TMU
		}
		if s.Kind == fault.Communication && !(s.Op == fault.PU && c.decomp == "cholesky") {
			s.Op = fault.PD
		}
		if s.Kind == fault.OnChipMemory {
			s.Part = fault.ReferencePart
			if s.Op == fault.PD {
				s.Part = fault.UpdatePart
			}
		}
		c.soft = &s
		c.injSeed = uint64(at(11, 256))
	}
	p := at(16, 256)
	var plan hetsim.LinkFaultPlan
	switch at(13, 5) {
	case 1:
		plan = hetsim.LinkFaultPlan{Mode: hetsim.LinkCorrupt, Every: []int{0, 2, 3, 5}[p%4]}
	case 2:
		plan = hetsim.LinkFaultPlan{Mode: hetsim.LinkDrop, Every: []int{0, 2, 3, 5}[p%4]}
	case 3:
		plan = hetsim.LinkFaultPlan{Mode: hetsim.LinkFlap, Count: 1 + p%hetsim.DefaultMaxRetransmits}
	case 4:
		plan = hetsim.LinkFaultPlan{Mode: hetsim.LinkDegrade, Factor: float64(2 + p%4)}
	}
	if plan.Mode != hetsim.LinkNone {
		plan.AfterTransfers = at(15, 256)
		c.link = map[int]hetsim.LinkFaultPlan{at(14, c.gpus): plan}
	}
	if mask := at(17, 1<<c.nodes); mask != 0 {
		c.burst = make(map[int]hetsim.NodeFaultPlan)
		for node := 0; node < c.nodes; node++ {
			if mask>>node&1 == 1 {
				c.burst[node] = hetsim.NodeFaultPlan{AfterEpochs: at(18, nbr)}
			}
		}
	}
	return c
}

// String describes the case for failure messages.
func (c faultCase) String() string {
	s := fmt.Sprintf("%s nb=%d g=%d nodes=%d r=%d la=%d ck=%d reb=%d c=%d",
		c.decomp, c.opts.NB, c.gpus, c.nodes, c.opts.Redundancy, c.opts.Lookahead,
		c.opts.CheckpointEvery, c.opts.Rebalance.Every, c.opts.parityEvery)
	if c.soft != nil {
		s += fmt.Sprintf(" soft=[%v seed=%d]", c.soft, c.injSeed)
	}
	for g, p := range c.link {
		s += fmt.Sprintf(" link%d=[%v]", g, p)
	}
	for node := 0; node < c.nodes; node++ {
		if p, ok := c.burst[node]; ok {
			s += fmt.Sprintf(" lose%d@%d", node, p.AfterEpochs)
		}
	}
	return s
}

// beyondBudget reports whether the burst removes more nodes than the
// erasure code can absorb: any loss on a flat system, more than r nodes on
// a cluster.
func (c faultCase) beyondBudget() bool {
	return len(c.burst) > 0 && (c.nodes == 1 || len(c.burst) > c.opts.Redundancy)
}

// faultRun is what one run of a faultCase produced.
type faultRun struct {
	bits  uint64
	resid func() float64 // the residual, computed on demand
	res   *Result
	err   error
}

// run factorizes the case's input on a fresh system, with its faults armed
// when faulty is set.
func (c faultCase) run(faulty bool) faultRun {
	opts := c.opts
	if faulty {
		if c.soft != nil {
			opts.Injector = fault.NewInjector(c.injSeed)
			opts.Injector.Schedule(*c.soft)
		}
		opts.LinkFault, opts.NodeFault = c.link, c.burst
	}
	a := pipelineInput(c.decomp, fuzzN)
	out, piv, tau, res, err := runDecomp(c.decomp, clusterSystem(c.gpus, c.nodes), a, opts)
	if err != nil {
		return faultRun{err: err}
	}
	resid := func() float64 { return decompResidual(c.decomp, a, out, piv, tau) }
	return faultRun{bits: factorBits(out, piv, tau), resid: resid, res: res}
}

// FuzzFaultPromise checks the system's one promise across the
// configuration × fault space: a completed job is correct or carries a
// typed error. Each input decodes to a faultCase (decodeFaultCase) and
// must satisfy four rules:
//
//	(a) with only link and node faults within the budget, the factor is
//	    bit-identical to the clean run;
//	(b) no soft-error run ends CorruptedResult: its residual stays within
//	    1e-9, or it reports Detected or Unrecoverable;
//	(c) a burst beyond the budget ends in *hetsim.NodeLostError;
//	(d) two runs of the same input give the same bits, SimMakespan and
//	    Counter.
//
// Fail-stop device plans are left out (their AfterOps trigger is not yet
// schedule-invariant), and so is QR's documented on-chip TMU gap.
func FuzzFaultPromise(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		t.Parallel()
		c := decodeFaultCase(in)
		if c.soft != nil && isDocumentedQRGap(c.decomp, *c.soft) {
			t.Skip("documented QR on-chip TMU gap")
		}
		first, second := c.run(true), c.run(true)
		if fmt.Sprint(first.err) != fmt.Sprint(second.err) {
			t.Fatalf("%v: (d) errors differ between runs: %v vs %v", c, first.err, second.err)
		}
		if first.err == nil && (first.bits != second.bits ||
			math.Float64bits(first.res.SimMakespan) != math.Float64bits(second.res.SimMakespan) ||
			first.res.Counter != second.res.Counter) {
			t.Fatalf("%v: (d) runs differ: bits %016x/%016x sim %v/%v counters %+v/%+v", c,
				first.bits, second.bits, first.res.SimMakespan, second.res.SimMakespan,
				first.res.Counter, second.res.Counter)
		}
		var lost *hetsim.NodeLostError
		switch {
		case c.beyondBudget():
			if !errors.As(first.err, &lost) {
				t.Fatalf("%v: (c) burst of %d beyond the budget ended in %v, want *hetsim.NodeLostError",
					c, len(c.burst), first.err)
			}
		case first.err != nil:
			t.Fatalf("%v: run failed: %v", c, first.err)
		case c.soft != nil:
			if resid := first.resid(); first.res.OutcomeOf(resid <= 1e-9) == CorruptedResult {
				t.Fatalf("%v: (b) soft error laundered: residual %g, Detected=false, counters %+v",
					c, resid, first.res.Counter)
			}
		default:
			if clean := c.run(false); clean.err != nil || clean.bits != first.bits {
				t.Fatalf("%v: (a) factor %016x differs from the clean run's %016x (clean err %v)",
					c, first.bits, clean.bits, clean.err)
			}
		}
	})
}
