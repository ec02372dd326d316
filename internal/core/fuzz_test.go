package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"ftla/internal/checksum"
	"ftla/internal/fault"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
)

// fuzzN is the matrix order of every FuzzFaultPromise run.
const fuzzN = 128

// fuzzTopologies are the (GPUs, nodes) platforms a fuzz input selects.
var fuzzTopologies = [][2]int{{1, 1}, {2, 1}, {3, 1}, {2, 2}, {3, 3}, {4, 2}, {4, 4}}

// faultCase is one decoded FuzzFaultPromise input: a protected
// configuration at n=128 plus at most one soft error, one transient link
// plan and one node burst, run solo and as item 0 of a batch.
type faultCase struct {
	decomp      string
	gpus, nodes int
	pivot       bool    // LU on a matrix.Random input, which swaps rows
	batch       int     // batch size: 1 is the one-item batch of the solo run
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
//	4 flags (bit 0 Lookahead, bit 1 CheckpointEvery=2, bit 2 RebalanceEvery=1),
//	5 soft-error kind (0 none), 6 op, 7 part (bit 0) and RefIndex (bit 1),
//	8 iteration, 9 row and 10 column (value−1; −1 picks at random),
//	11 injector seed, 12 communication target GPU,
//	13 link mode (0 none), 14 link GPU, 15 AfterTransfers, 16 mode parameter,
//	17 burst node mask (0 none), 18 burst epoch,
//	19 parity refresh interval c (parityInterval, 1, 2, nbr),
//	20 LU input (0 diagonally dominant, 1 matrix.Random), 21 batch size − 1.
func decodeFaultCase(b []byte) faultCase {
	at := func(i, m int) int {
		if i < len(b) {
			return int(b[i]) % m
		}
		return 0
	}
	topo := fuzzTopologies[at(2, len(fuzzTopologies))]
	c := faultCase{decomp: []string{"cholesky", "lu", "qr"}[at(0, 3)], gpus: topo[0], nodes: topo[1],
		batch: 1 + at(21, 3)}
	c.pivot = c.decomp == "lu" && at(20, 2) == 1
	nb := []int{16, 32}[at(1, 2)]
	nbr := fuzzN / nb
	flags := at(4, 8)
	c.opts = Options{NB: nb, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel,
		Lookahead: flags & 1, CheckpointEvery: 2 * (flags >> 1 & 1), RebalanceEvery: flags >> 2 & 1}
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
	s := fmt.Sprintf("%s nb=%d g=%d nodes=%d r=%d la=%d ck=%d reb=%d c=%d pivot=%t batch=%d",
		c.decomp, c.opts.NB, c.gpus, c.nodes, c.opts.Redundancy, c.opts.Lookahead,
		c.opts.CheckpointEvery, c.opts.RebalanceEvery, c.opts.parityEvery, c.pivot, c.batch)
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

// verdict is the run's outcome under the 1e-9 residual bound.
func (r faultRun) verdict() Outcome { return r.res.OutcomeOf(r.resid() <= 1e-9) }

// input returns batch item i's matrix: item 0 is the case's input
// (pipelineInput's for all but a pivoting LU case), the others distinct
// inputs of the same family.
func (c faultCase) input(i int) *matrix.Dense {
	rng := matrix.NewRNG(uint64(fuzzN) + 7 + 1000*uint64(i))
	switch {
	case c.decomp == "cholesky":
		return matrix.RandomSPD(fuzzN, rng)
	case c.decomp == "lu" && !c.pivot:
		return matrix.RandomDiagDominant(fuzzN, rng)
	default:
		return matrix.Random(fuzzN, fuzzN, rng)
	}
}

// injector returns a fresh injector armed with the case's soft error, or
// nil when it has none.
func (c faultCase) injector() *fault.Injector {
	if c.soft == nil {
		return nil
	}
	inj := fault.NewInjector(c.injSeed)
	inj.Schedule(*c.soft)
	return inj
}

// faulty returns the case's options with its link and node plans armed.
func (c faultCase) faulty() Options {
	opts := c.opts
	opts.LinkFault, opts.NodeFault = c.link, c.burst
	return opts
}

// finished wraps one completed factorization of input a.
func (c faultCase) finished(a, out *matrix.Dense, piv []int, tau []float64, res *Result) faultRun {
	resid := func() float64 { return decompResidual(c.decomp, a, out, piv, tau) }
	return faultRun{bits: factorBits(out, piv, tau), resid: resid, res: res}
}

// run factorizes batch item i's input solo on a fresh system. Item 0 runs
// with the case's faults armed when faulty is set; the other items never
// carry faults.
func (c faultCase) run(i int, faulty bool) faultRun {
	opts := c.opts
	if faulty && i == 0 {
		opts = c.faulty()
		opts.Injector = c.injector()
	}
	a := c.input(i)
	out, piv, tau, res, err := runDecomp(c.decomp, clusterSystem(c.gpus, c.nodes), a, opts)
	if err != nil {
		return faultRun{err: err}
	}
	return c.finished(a, out, piv, tau, res)
}

// runBatch factorizes the case's batch in one batched dispatch on a fresh
// system, under the case's faulty options with item 0 carrying its soft
// error: in the options' Injector for a batch of one, in its per-item
// injector otherwise. It returns one faultRun per item, or the batch-level
// error.
func (c faultCase) runBatch() ([]faultRun, error) {
	as := make([]*matrix.Dense, c.batch)
	for i := range as {
		as[i] = c.input(i)
	}
	opts := c.faulty()
	var injs []*fault.Injector
	if c.batch == 1 {
		opts.Injector = c.injector()
	} else {
		injs = make([]*fault.Injector, c.batch)
		injs[0] = c.injector()
	}
	sys := clusterSystem(c.gpus, c.nodes)
	var (
		outs []*matrix.Dense
		pivs [][]int
		taus [][]float64
		ress []*Result
		errs []error
		err  error
	)
	switch c.decomp {
	case "cholesky":
		outs, ress, errs, err = CholeskyBatch(sys, as, opts, injs)
	case "lu":
		outs, pivs, ress, errs, err = LUBatch(sys, as, opts, injs)
	default:
		outs, taus, ress, errs, err = QRBatch(sys, as, opts, injs)
	}
	if err != nil {
		return nil, err
	}
	runs := make([]faultRun, c.batch)
	for i := range runs {
		if errs[i] != nil {
			runs[i] = faultRun{err: errs[i]}
			continue
		}
		var piv []int
		var tau []float64
		if pivs != nil {
			piv = pivs[i]
		}
		if taus != nil {
			tau = taus[i]
		}
		runs[i] = c.finished(as[i], outs[i], piv, tau, ress[i])
	}
	return runs, nil
}

// checkBatch is rule (e): each batch item's bits, Counter and verdict, or
// its error, equal the same item run solo (first is item 0's faulty solo
// run) — under every option for a batch of one, under batchable options
// for a larger batch, which options a batch cannot carry refuse with the
// batch-level validation error.
func (c faultCase) checkBatch(t *testing.T, first faultRun) {
	opts := c.faulty()
	want := opts.ValidateBatch()
	runs, err := c.runBatch()
	switch {
	case c.batch > 1 && want != nil:
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("%v: (e) batch of unbatchable options ended in %v, want %v", c, err, want)
		}
		return
	case c.batch == 1 && err != nil:
		// A one-item run's run-level error is its item's.
		runs = []faultRun{{err: err}}
	case err != nil:
		t.Fatalf("%v: (e) batch failed: %v", c, err)
	}
	for i, br := range runs {
		solo := first
		if i > 0 {
			solo = c.run(i, false)
		}
		if fmt.Sprint(br.err) != fmt.Sprint(solo.err) {
			t.Fatalf("%v: (e) item %d error %v, solo %v", c, i, br.err, solo.err)
		}
		if br.err != nil {
			continue
		}
		if br.bits != solo.bits || br.res.Counter != solo.res.Counter || br.verdict() != solo.verdict() {
			t.Fatalf("%v: (e) item %d differs from solo: bits %016x/%016x counters %+v/%+v verdict %v/%v",
				c, i, br.bits, solo.bits, br.res.Counter, solo.res.Counter, br.verdict(), solo.verdict())
		}
	}
}

// FuzzFaultPromise checks the system's one promise across the
// configuration × fault space: a completed job is correct or carries a
// typed error. Each input decodes to a faultCase (decodeFaultCase) and
// must satisfy five rules:
//
//	(a) with only link and node faults within the budget, the factor is
//	    bit-identical to the clean run;
//	(b) no soft-error run ends CorruptedResult: its residual stays within
//	    1e-9, or it reports Detected or Unrecoverable;
//	(c) a burst beyond the budget ends in *hetsim.NodeLostError;
//	(d) two runs of the same input give the same bits, SimMakespan and
//	    Counter;
//	(e) each batch item's bits, Counter and verdict, or its error, equal
//	    the same item run solo: in a batch of one under the case's full
//	    options, in a larger batch under batchable options; with options
//	    a batch of two or more cannot carry, that batch is refused with
//	    the batch-level validation error.
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
		first, second := c.run(0, true), c.run(0, true)
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
			if first.verdict() == CorruptedResult {
				t.Fatalf("%v: (b) soft error laundered: residual %g, Detected=false, counters %+v",
					c, first.resid(), first.res.Counter)
			}
		default:
			if clean := c.run(0, false); clean.err != nil || clean.bits != first.bits {
				t.Fatalf("%v: (a) factor %016x differs from the clean run's %016x (clean err %v)",
					c, first.bits, clean.bits, clean.err)
			}
		}
		c.checkBatch(t, first)
	})
}
