package core

import (
	"fmt"
	"testing"

	"ftla/internal/checksum"
	"ftla/internal/fault"
	"ftla/internal/hetsim"
	"ftla/internal/lapack"
	"ftla/internal/matrix"
)

// newRebalProtected is newTestProtected with rebalancing armed, so the
// slabs are allocated at full capacity and migrateColumn has room to
// receive columns on any GPU.
func newRebalProtected(t *testing.T, n, nb, gpus int) (*protected, *matrix.Dense) {
	t.Helper()
	sys := testSystem(gpus)
	rng := matrix.NewRNG(uint64(n + nb + gpus))
	a := matrix.RandomDiagDominant(n, rng)
	opts := Options{NB: nb, Protection: Full, Scheme: NewScheme, RebalanceEvery: 1}
	if err := opts.Validate(n); err != nil {
		t.Fatal(err)
	}
	es := newEngine("test", sys, opts, &Result{})
	p := newProtected(es, a)
	p.settle()
	return p, a
}

// TestMigrateColumnPreservesLayout: after an arbitrary sequence of
// migrations the ownership tables stay mutually consistent, each GPU's
// block list stays sorted (the suffix invariant every range helper relies
// on), and gather reproduces the original matrix bit-for-bit.
func TestMigrateColumnPreservesLayout(t *testing.T) {
	p, a := newRebalProtected(t, 96, 16, 3)
	moves := []struct{ bj, dst int }{
		{0, 2}, {5, 0}, {3, 0}, {3, 1}, {4, 1}, {0, 0}, {2, 2},
	}
	for _, m := range moves {
		p.migrateColumn(m.bj, m.dst)
	}
	total := 0
	for g := 0; g < 3; g++ {
		total += p.nloc[g]
		if len(p.blocks[g]) != p.nloc[g] {
			t.Fatalf("GPU%d: len(blocks)=%d != nloc=%d", g, len(p.blocks[g]), p.nloc[g])
		}
		for i, bj := range p.blocks[g] {
			if i > 0 && p.blocks[g][i-1] >= bj {
				t.Fatalf("GPU%d block list not sorted: %v", g, p.blocks[g])
			}
			if p.own[bj] != g || p.loc[bj] != i {
				t.Fatalf("tables disagree for block %d: own=%d loc=%d, want %d/%d",
					bj, p.own[bj], p.loc[bj], g, i)
			}
		}
	}
	if total != p.nbr {
		t.Fatalf("nloc sums to %d, want %d", total, p.nbr)
	}
	if !p.gather().Equal(a) {
		t.Fatal("gather does not reproduce the matrix after migrations")
	}
}

// TestMigrationPreservesABFT is the protection-survives-migration contract:
// a just-migrated column's checksum strips still verify on the destination,
// and a fault injected into the migrated data is detected and corrected
// there — the strips rode along with the data, bit-exact.
func TestMigrationPreservesABFT(t *testing.T) {
	p, _ := newRebalProtected(t, 96, 16, 2)
	// Move block column 4 from GPU0 to GPU1 (and another for slab churn).
	p.migrateColumn(4, 1)
	p.migrateColumn(1, 0)
	if worst, _ := p.verifyTrailingCol(0, -1, tmuAll); worst != repairClean {
		t.Fatal("checksums inconsistent right after migration")
	}
	g1 := p.es.sys.GPU(1)
	data := p.local[1].Access(g1)
	want := data.Clone()
	// Corrupt one element inside the migrated column (block 4 lives at
	// local offset loc[4]*nb on GPU1 now).
	col := p.localOff(4) + 7
	data.Set(11, col, data.At(11, col)+3.5)
	worst, _ := p.verifyTrailingCol(0, -1, tmuAll)
	if worst != repairCorrected {
		t.Fatalf("corruption in migrated column: outcome %v, want corrected", worst)
	}
	if !p.es.res.Detected {
		t.Fatal("corruption not recorded as detected")
	}
	if !data.EqualWithin(want, 1e-10) {
		d, r, c := data.MaxAbsDiff(want)
		t.Fatalf("repair off by %g at (%d,%d)", d, r, c)
	}
	// The row checksums moved too: every row of the migrated pair verifies.
	for _, r := range []int{0, 11, 95} {
		if !p.verifyRowQuick(1, r, 0) {
			t.Fatalf("rowChk row %d inconsistent on destination after migration", r)
		}
	}
}

// TestRebalanceBitIdentityUniform is the correctness half of the dynamic
// partitioning contract: with rebalancing forced to churn (GPU 0 straggles
// from the start and sheds columns, then a heavier straggler on GPU 1
// sends columns back onto GPU 0 — migrations in both directions), every
// decomposition under both schedules produces factors, pivots, and
// reflectors bit-identical to the static-layout run on the same devices.
// Stragglers only stretch the simulated clock, never the arithmetic.
func TestRebalanceBitIdentityUniform(t *testing.T) {
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		for _, lookahead := range []int{0, 1} {
			for gpus := 1; gpus <= 3; gpus++ {
				t.Run(fmt.Sprintf("%s/lookahead=%d/gpus=%d", decomp, lookahead, gpus), func(t *testing.T) {
					a := pipelineInput(decomp, 128)
					base := Options{NB: 16, Protection: Full, Scheme: NewScheme,
						Kernel: checksum.OptKernel, Lookahead: lookahead}
					bout, bpiv, btau, _, err := runDecomp(decomp, testSystem(gpus), a, base)
					if err != nil {
						t.Fatalf("static run: %v", err)
					}
					dyn := base
					dyn.FailStop = map[int]hetsim.FaultPlan{
						0: {Mode: hetsim.FaultStraggler, Slowdown: 4},
						1: {Mode: hetsim.FaultStraggler, Slowdown: 16, AfterOps: 40},
					}
					dyn.RebalanceEvery = 2
					// Follow each column's owner from the cyclic start to see
					// which way the moves went.
					own := make([]int, a.Cols/base.NB)
					for bj := range own {
						own[bj] = bj % gpus
					}
					off0, onto0 := false, false
					dyn.onRebalance = func(step int, moves []rebMove) {
						for _, m := range moves {
							off0 = off0 || own[m.bj] == 0
							onto0 = onto0 || m.dst == 0
							own[m.bj] = m.dst
						}
					}
					dout, dpiv, dtau, dres, err := runDecomp(decomp, testSystem(gpus), a, dyn)
					if err != nil {
						t.Fatalf("rebalancing run: %v", err)
					}
					if gpus >= 2 && !(off0 && onto0) {
						t.Fatalf("columns moved off GPU 0: %v, onto GPU 0: %v; want both", off0, onto0)
					}
					if gpus < 2 && dres.Rebalances != 0 {
						t.Fatal("rebalancer ran on a single-GPU system")
					}
					if d, r, c := bout.MaxAbsDiff(dout); d != 0 {
						t.Fatalf("factor differs from static: |Δ|=%g at (%d,%d)", d, r, c)
					}
					for i := range bpiv {
						if dpiv[i] != bpiv[i] {
							t.Fatalf("pivot %d differs: %d vs %d", i, dpiv[i], bpiv[i])
						}
					}
					for i := range btau {
						if dtau[i] != btau[i] {
							t.Fatalf("tau %d differs: %v vs %v", i, dtau[i], btau[i])
						}
					}
				})
			}
		}
	}
}

// TestRebalanceCheckpointResume: rebalancing composes with mid-run
// checkpoints — a checkpoint taken while the layout is skewed resumes on a
// fresh system (rebalancing still on) to the same bits as an uninterrupted
// static run, because checkpoints store per-block-column host state,
// independent of which GPU held each column.
func TestRebalanceCheckpointResume(t *testing.T) {
	a := pipelineInput("lu", 128)
	base := Options{NB: 16, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel}
	bout, bpiv, _, err := LU(testSystem(2), a, base)
	if err != nil {
		t.Fatalf("static run: %v", err)
	}

	var last *Checkpoint
	dyn := base
	dyn.FailStop = map[int]hetsim.FaultPlan{1: {Mode: hetsim.FaultStraggler, Slowdown: 4}}
	dyn.RebalanceEvery = 1
	dyn.CheckpointEvery = 2
	dyn.OnCheckpoint = func(cp *Checkpoint) { last = cp }
	if _, _, res, err := LU(testSystem(2), a, dyn); err != nil {
		t.Fatalf("rebalancing+checkpointing run: %v", err)
	} else if res.MovedColumns == 0 || res.Checkpoints == 0 {
		t.Fatalf("run moved %d columns, took %d checkpoints; want both > 0",
			res.MovedColumns, res.Checkpoints)
	}
	if last == nil {
		t.Fatal("no checkpoint captured")
	}

	resOpts := base
	resOpts.Resume = last
	resOpts.RebalanceEvery = 1
	rout, rpiv, _, err := LU(testSystem(2), a, resOpts)
	if err != nil {
		t.Fatalf("resume from step %d: %v", last.NextStep, err)
	}
	if d, r, c := bout.MaxAbsDiff(rout); d != 0 {
		t.Fatalf("resumed factor differs from static: |Δ|=%g at (%d,%d)", d, r, c)
	}
	for i := range bpiv {
		if rpiv[i] != bpiv[i] {
			t.Fatalf("pivot %d differs after resume", i)
		}
	}
}

// TestRebalanceShedsStragglerLoad: the policy half — under a 4x straggler
// the rebalancer strips the slow GPU down to the floor share and the run's
// journal records rebalance stages; the straggler ends the run owning
// fewer trailing columns than it started with.
func TestRebalanceShedsStragglerLoad(t *testing.T) {
	a := pipelineInput("cholesky", 192)
	slow := map[int]hetsim.FaultPlan{1: {Mode: hetsim.FaultStraggler, Slowdown: 4}}
	opts := Options{NB: 16, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel,
		Lookahead: 1, FailStop: slow, RebalanceEvery: 2}
	moved := 0
	opts.onRebalance = func(step int, moves []rebMove) { moved += len(moves) }
	_, res, err := Cholesky(testSystem(3), a, opts)
	if err != nil {
		t.Fatalf("straggler run: %v", err)
	}
	if res.Rebalances == 0 || res.MovedColumns == 0 {
		t.Fatalf("rebalances=%d moved=%d; straggler provoked nothing", res.Rebalances, res.MovedColumns)
	}
	if moved != res.MovedColumns {
		t.Fatalf("onRebalance saw %d columns, Result says %d", moved, res.MovedColumns)
	}
}

// TestRebalanceIgnoresOutsideBusyTime: a rebalance decision depends only
// on the work inside each sample's bracket. Busy time the GPUs carry from
// before the run (here a different dummy kernel on each) must not change
// which columns move when, on a flat system and on a cluster; the
// straggler leaves the healthy GPUs' samples tied, so a tie broken by the
// rounding of a running total would show.
func TestRebalanceIgnoresOutsideBusyTime(t *testing.T) {
	slow := map[int]hetsim.FaultPlan{1: {Mode: hetsim.FaultStraggler, Slowdown: 4}}
	for _, tc := range []struct {
		name string
		sys  func() *hetsim.System
		opts Options
	}{
		{"flat g=3", func() *hetsim.System { return testSystem(3) }, Options{}},
		{"g=6 nodes=3", func() *hetsim.System { return clusterSystem(6, 3) },
			Options{NodeFault: map[int]hetsim.NodeFaultPlan{2: {AfterEpochs: 4}}}},
	} {
		for _, decomp := range []string{"cholesky", "lu", "qr"} {
			t.Run(tc.name+"/"+decomp, func(t *testing.T) {
				t.Parallel()
				run := func(warm bool) string {
					sys := tc.sys()
					if warm {
						for g := 0; g < sys.NumGPUs(); g++ {
							sys.GPU(g).Run("warm", 1.2345678e7*float64(g+1), func(int) {})
						}
					}
					opts := tc.opts
					opts.NB, opts.Protection, opts.Scheme, opts.Kernel = 16, Full, NewScheme, checksum.OptKernel
					opts.FailStop, opts.RebalanceEvery = slow, 1
					var log string
					opts.onRebalance = func(step int, moves []rebMove) { log += fmt.Sprintf("%d:%v ", step, moves) }
					if _, _, _, _, err := runDecomp(decomp, sys, pipelineInput(decomp, 192), opts); err != nil {
						t.Fatal(err)
					}
					return log
				}
				cold, warm := run(false), run(true)
				if cold == "" {
					t.Fatal("straggler provoked no rebalance")
				}
				if cold != warm {
					t.Fatalf("decisions depend on earlier busy time:\n cold %s\n warm %s", cold, warm)
				}
			})
		}
	}
}

// TestRebalanceOptionValidation: the invalid knob combinations are
// rejected up front, not discovered mid-run.
func TestRebalanceOptionValidation(t *testing.T) {
	base := func() Options { return Options{NB: 16, Protection: Full, Scheme: NewScheme} }
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"negative CheckpointEvery", func(o *Options) { o.CheckpointEvery = -1 }},
		{"OnCheckpoint without interval", func(o *Options) { o.OnCheckpoint = func(*Checkpoint) {} }},
		{"negative Rebalance.Every", func(o *Options) { o.RebalanceEvery = -2 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := base()
			c.mut(&o)
			if err := o.Validate(64); err == nil {
				t.Fatal("Validate accepted the invalid combination")
			}
			a := matrix.RandomSPD(64, matrix.NewRNG(9))
			if _, _, err := Cholesky(testSystem(2), a, o); err == nil {
				t.Fatal("driver ran with the invalid combination")
			}
		})
	}
	// The valid shapes still pass.
	o := base()
	o.RebalanceEvery = 3
	o.CheckpointEvery = 2
	o.OnCheckpoint = func(*Checkpoint) {}
	if err := o.Validate(64); err != nil {
		t.Fatalf("Validate rejected a valid combination: %v", err)
	}
}

// TestRebalanceInjectedSweep: injected runs rebalance like any other.
// Under a 4x straggler on GPU1 of 3, every fault kind striking every
// operation at step 2 must leave RebalanceEvery 1 moving columns and
// reaching the verdict and residual class of the static layout.
func TestRebalanceInjectedSweep(t *testing.T) {
	const n = 128
	slow := map[int]hetsim.FaultPlan{1: {Mode: hetsim.FaultStraggler, Slowdown: 4}}
	kinds := []fault.Kind{fault.Computation, fault.OffChipMemory, fault.OnChipMemory, fault.Communication}
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		ops := []fault.Op{fault.PD, fault.PU, fault.TMU}
		if decomp == "qr" {
			ops = []fault.Op{fault.PD, fault.TMU}
		}
		for _, kind := range kinds {
			for _, op := range ops {
				spec := fault.Spec{Kind: kind, Op: op, Part: fault.UpdatePart, Iteration: 2, Bits: 2, Row: -1, Col: -1, GPUTarget: 1}
				if kind == fault.OnChipMemory {
					spec.Part = fault.ReferencePart
				}
				run := func(every int) (*Result, bool) {
					inj := fault.NewInjector(31)
					inj.Schedule(spec)
					opts := Options{NB: 16, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel,
						FailStop: slow, RebalanceEvery: every, Injector: inj}
					a := pipelineInput(decomp, n)
					out, piv, tau, res, err := runDecomp(decomp, testSystem(3), a, opts)
					if err != nil {
						t.Fatalf("%s %v rebalance=%d: %v", decomp, spec, every, err)
					}
					return res, decompResidual(decomp, a, out, piv, tau) <= 1e-9
				}
				static, staticOK := run(0)
				dyn, dynOK := run(1)
				if dyn.Rebalances == 0 {
					t.Errorf("%s %v: the straggler moved no columns", decomp, spec)
				}
				if dyn.Detected != static.Detected || dyn.Unrecoverable != static.Unrecoverable || dynOK != staticOK {
					t.Errorf("%s %v: rebalanced det=%t unrec=%t residual ok=%t, static det=%t unrec=%t residual ok=%t",
						decomp, spec, dyn.Detected, dyn.Unrecoverable, dynOK, static.Detected, static.Unrecoverable, staticOK)
				}
			}
		}
	}
}

// decompResidual is the relative backward error of a decomposition's
// output against its input.
func decompResidual(decomp string, a, out *matrix.Dense, piv []int, tau []float64) float64 {
	switch decomp {
	case "cholesky":
		return matrix.CholeskyResidual(a, out)
	case "lu":
		return matrix.LUResidual(a, out, piv)
	default:
		return matrix.QRResidual(a, lapack.BuildQ(out, tau), lapack.ExtractR(out))
	}
}
