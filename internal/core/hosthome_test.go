package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ftla/internal/checksum"
	"ftla/internal/fault"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
	"ftla/internal/obs"
)

// The host is the home of the factor: each certified panel stays in the
// output, the final gather pulls only the blocks the GPUs computed, the
// last step commits nothing to the GPUs, and checkpoints take the finished
// columns from the output. These tests pin the traffic that saves, the
// host-side row interchanges LU needs for it, and Cholesky's input above
// the diagonal blocks.

// heldBytes is the traffic a clean Full-mode run of decomp (order n, block
// nb, gpus GPUs block-column-cyclic over nodes nodes, the CPU on node 0,
// r parities per group on a cluster) does not move because the
// host keeps its panels and the GPUs hold only what they read, with its
// inter-node share:
//
//   - the gather skips nbr·(nbr+1)/2 blocks: of block column bj, the
//     nbr−bj blocks from its diagonal down that the host factored (LU, QR),
//     or Cholesky's diagonal block and the bj strictly upper input blocks
//     above it;
//   - the last step (m = nb rows, one checksum strip) drops its owner
//     writeback and broadcast legs, nb² + 2·nb elements to each GPU that
//     gets one (Cholesky: the owner alone; LU and QR: every GPU), and QR
//     also its c(V) (2·nb) and T (nb²) legs to every GPU;
//   - the first step pulls nothing from GPU 0: panel 0 is the input's, the
//     host holds it, and the host encodes its checksums. That drops its
//     rows (nb for Cholesky, n otherwise) times nb of data, two
//     column-checksum elements per row and, for Cholesky and LU, whose
//     check before PD ran on the CPU, the two-column row-checksum pair;
//   - the scatter skips the rows above each diagonal block for Cholesky,
//     bj·nb² elements of block column bj, and block column 0 (n·nb
//     elements to GPU 0) for a flat LU or QR run, whose step-0 commit
//     writes it before any GPU reads it;
//   - Cholesky's parity ships each member only from its top (see
//     parityBytes), every byte of the difference between nodes.
func heldBytes(decomp string, n, nb, gpus, nodes, r int) (pcie, inter int64) {
	nbr := n / nb
	add := func(g int, elems int) {
		pcie += int64(8 * elems)
		if g%nodes != 0 {
			inter += int64(8 * elems)
		}
	}
	for bj := 0; bj < nbr; bj++ {
		blocks := nbr - bj
		if decomp == "cholesky" {
			blocks = bj + 1
		}
		add(bj%gpus, blocks*nb*nb)
	}
	leg := nb*nb + 2*nb
	last := (nbr - 1) % gpus
	for g := 0; g < gpus; g++ {
		switch decomp {
		case "cholesky":
			if g == last {
				add(g, leg)
			}
		case "lu":
			add(g, leg)
		case "qr":
			add(g, 2*leg)
		}
	}
	rows := n
	if decomp == "cholesky" {
		rows = nb
	}
	pull := rows*nb + 2*rows
	if decomp != "qr" {
		pull += 2 * rows
	}
	add(0, pull)
	switch {
	case decomp == "cholesky":
		for bj := 0; bj < nbr; bj++ {
			add(bj%gpus, bj*nb*nb)
		}
		if nodes > 1 {
			d := parityBytes("lu", n, nb, nodes-r, r, parityInterval) - parityBytes(decomp, n, nb, nodes-r, r, parityInterval)
			pcie, inter = pcie+d, inter+d
		}
	case nodes == 1:
		add(0, n*nb)
	}
	return pcie, inter
}

// fullTraffic is the PCIe and inter-node traffic of one clean gather-sweep
// run when the gather pulled every block column and the last step
// committed its panel.
type fullTraffic struct{ pcie, inter int64 }

// gatherSweepFull holds fullTraffic per decomposition and topology
// ("flat": 2 GPUs; "cluster": 4 GPUs on 4 nodes, r = 2) for n=192, nb=16,
// Full/NewScheme; both schedules moved the same bytes.
var gatherSweepFull = map[string]fullTraffic{
	"cholesky/flat":    {800256, 0},
	"lu/flat":          {1148928, 0},
	"qr/flat":          {1218048, 0},
	"cholesky/cluster": {2185728, 2023680},
	"lu/cluster":       {2589696, 2201088},
	"qr/cluster":       {2747904, 2320896},
}

// TestGatherMovesOnlyDeviceBlocks runs clean Full/NewScheme factorizations
// under both schedules on a flat 2-GPU system and on 4 GPUs over 4 nodes
// with r = 2, and requires their PCIe and inter-node bytes to be the full
// gather's traffic minus exactly heldBytes, and the trace to hold no copy
// into a GPU after the last CPU kernel: the last panel is never pushed.
func TestGatherMovesOnlyDeviceBlocks(t *testing.T) {
	const n, nb = 192, 16
	topos := []struct {
		name        string
		gpus, nodes int
		sys         func() *hetsim.System
		redundancy  int
	}{
		{"flat", 2, 1, func() *hetsim.System { return testSystem(2) }, 0},
		{"cluster", 4, 4, func() *hetsim.System { return clusterSystem(4, 4) }, 2},
	}
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		for _, topo := range topos {
			for _, la := range []int{0, 1} {
				label := fmt.Sprintf("%s/%s/la=%d", decomp, topo.name, la)
				sys := topo.sys()
				tr := obs.NewTrace()
				sys.SetTracer(tr)
				opts := Options{NB: nb, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel, Lookahead: la, Redundancy: topo.redundancy}
				_, _, _, res, err := runDecomp(decomp, sys, pipelineInput(decomp, n), opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				full := gatherSweepFull[decomp+"/"+topo.name]
				pcie, inter := heldBytes(decomp, n, nb, topo.gpus, topo.nodes, topo.redundancy)
				if res.PCIeBytes != full.pcie-pcie || res.InternodeBytes != full.inter-inter {
					t.Errorf("%s: moved %d PCIe / %d inter-node bytes, want %d−%d / %d−%d",
						label, res.PCIeBytes, res.InternodeBytes, full.pcie, pcie, full.inter, inter)
				}
				lastCPU := -1
				spans := tr.Spans()
				for i, sp := range spans {
					if sp.Proc == obs.ProcSim && sp.Track == "CPU" && sp.Cat == "kernel" {
						lastCPU = i
					}
				}
				if lastCPU < 0 {
					t.Fatalf("%s: no CPU kernel in the trace", label)
				}
				for _, sp := range spans[lastCPU+1:] {
					_, dst, _ := strings.Cut(sp.Name, "->")
					if sp.Proc == obs.ProcSim && sp.Cat == obs.PhasePCIe && strings.Contains(dst, "GPU") {
						t.Errorf("%s: %s (%v bytes) after the last CPU kernel", label, sp.Name, sp.Args["bytes"])
					}
				}
			}
		}
	}
}

// panelZeroBits are the factor bits of TestPanelZeroFactorsDuringScatter's
// runs (n=192, nb=16, Full/NewScheme) when every run pulled panel 0 from
// its owner GPU after the scatter and the initial encode: the solo run of
// pipelineInput on every topology and schedule, then the three items of a
// batchInputs batch.
var panelZeroBits = map[string][]uint64{
	"cholesky": {0x824d7ec1587f1a8d, 0xc0077ed0597cc796, 0x5fa5de5acd1cdd4a, 0xf7efb8aa12e9dfef},
	"lu":       {0x27db123e33c8c4cf, 0x249a824bf07b78bd, 0x0bbaeebbf8787561, 0xbc3a9202dff0a3c5},
	"qr":       {0xc362d0d10fabf19a, 0xebca6c85767f7f34, 0x4debb03a98000644, 0x9c49c7b8659cac6d},
}

// panelZeroFaultBits are the factor bits of the same solo run with the
// step-0 PD memory fault of TestPanelZeroFactorsDuringScatter, corrected
// when panel 0 was pulled from its owner GPU (QR checked it there). A
// checksum correction restores the element only to round-off, so they
// differ from the clean bits.
var panelZeroFaultBits = map[string]uint64{
	"cholesky": 0x8b9ecab6bbb0ffb5,
	"lu":       0x395fa5f8634024f2,
	"qr":       0x49514db212e9c6a2,
}

// requireHostStart checks the trace of a run from its last layout set-up
// on — the scatter of a fresh run, the restore of a resumed one, or the
// restore of its last rollback: the pass's first CPU kernel starts no
// later than the set-up's first copy, and no copy into the CPU is issued
// before it, so its first panel was taken from the host's copy of the
// input or of the checkpoint while the copies were in flight.
func requireHostStart(t *testing.T, label string, tr *obs.Trace) {
	t.Helper()
	spans := tr.Spans()
	from := 0
	for i, sp := range spans {
		if sp.Proc == obs.ProcWall && strings.Contains(sp.Name, ":"+stageRollback+"[") {
			from = i
		}
	}
	// A stage's span closes after its work: the rollback's restore copies
	// come right before it.
	for from > 0 && spans[from-1].Proc == obs.ProcSim && strings.HasPrefix(spans[from-1].Name, "CPU->") {
		from--
	}
	t0 := -1.0
	for _, sp := range spans[from:] {
		if sp.Proc != obs.ProcSim {
			continue
		}
		if t0 < 0 {
			t0 = sp.StartUS
		}
		if sp.Track == "CPU" && sp.Cat == "kernel" {
			if sp.StartUS > t0 {
				t.Errorf("%s: the pass's first CPU kernel, %s, starts at %g us, after its first copy at %g us", label, sp.Name, sp.StartUS, t0)
			}
			return
		}
		if _, dst, _ := strings.Cut(sp.Name, "->"); sp.Cat == obs.PhasePCIe && dst == "CPU" {
			t.Errorf("%s: %s before the pass's first CPU kernel", label, sp.Name)
			return
		}
	}
	t.Errorf("%s: no CPU kernel in the trace", label)
}

// TestPanelZeroFactorsDuringScatter runs clean Full/NewScheme
// factorizations under both schedules on a flat 2-GPU system and on 4 GPUs
// over 4 nodes with r = 2, and batches of three on the flat system: each
// must start on the CPU at simulated time 0, with no copy into the CPU
// before its first CPU kernel, and keep its factor bits. A step-0
// off-chip memory fault in PD, which now strikes the host's copy of the
// panel, must still be detected and corrected, with the same bits and the
// same count of blocks checked before PD as when the panel was pulled.
func TestPanelZeroFactorsDuringScatter(t *testing.T) {
	const n, nb = 192, 16
	topos := []struct {
		name       string
		sys        func() *hetsim.System
		redundancy int
	}{
		{"flat", func() *hetsim.System { return testSystem(2) }, 0},
		{"cluster", func() *hetsim.System { return clusterSystem(4, 4) }, 2},
	}
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		want := panelZeroBits[decomp]
		// The check before PD covers each panel: Cholesky's diagonal
		// block, or every block from the diagonal down.
		pdBefore := (n / nb) * (n/nb + 1) / 2
		if decomp == "cholesky" {
			pdBefore = n / nb
		}
		for _, la := range []int{0, 1} {
			opts := Options{NB: nb, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel, Lookahead: la}
			for _, topo := range topos {
				label := fmt.Sprintf("%s/%s/la=%d", decomp, topo.name, la)
				sys := topo.sys()
				tr := obs.NewTrace()
				sys.SetTracer(tr)
				topts := opts
				topts.Redundancy = topo.redundancy
				out, piv, tau, res, err := runDecomp(decomp, sys, pipelineInput(decomp, n), topts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.Counter.PDBefore != pdBefore {
					t.Errorf("%s: PDBefore %d, want %d", label, res.Counter.PDBefore, pdBefore)
				}
				if got := factorBits(out, piv, tau); got != want[0] {
					t.Errorf("%s: bits %#016x, want %#016x", label, got, want[0])
				}
				requireHostStart(t, label, tr)
			}

			label := fmt.Sprintf("%s/batch/la=%d", decomp, la)
			sys := testSystem(2)
			tr := obs.NewTrace()
			sys.SetTracer(tr)
			outs, pivs, taus, _ := runBatchedOn(t, decomp, batchInputs(decomp, 3, n), sys, opts, nil)
			for i, out := range outs {
				var piv []int
				var tau []float64
				if pivs != nil {
					piv = pivs[i]
				}
				if taus != nil {
					tau = taus[i]
				}
				if got := factorBits(out, piv, tau); got != want[1+i] {
					t.Errorf("%s: item %d bits %#016x, want %#016x", label, i, got, want[1+i])
				}
			}
			requireHostStart(t, label, tr)

			label = fmt.Sprintf("%s/off-chip-mem@PD it=0/la=%d", decomp, la)
			inj := fault.NewInjector(17)
			inj.Schedule(fault.Spec{Kind: fault.OffChipMemory, Op: fault.PD, Part: fault.UpdatePart, Iteration: 0, Bits: 2, Row: -1, Col: -1})
			fopts := opts
			fopts.Injector = inj
			out, piv, tau, res, err := runDecomp(decomp, testSystem(2), pipelineInput(decomp, n), fopts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if c := res.Counter; c.DetectedErrors != 1 || c.CorrectedElements != 1 || c.LocalRestarts != 0 || res.Unrecoverable {
				t.Errorf("%s: %+v unrecoverable=%t, want one error detected and corrected in place", label, c, res.Unrecoverable)
			}
			if res.Counter.PDBefore != pdBefore {
				t.Errorf("%s: PDBefore %d, want %d", label, res.Counter.PDBefore, pdBefore)
			}
			if got := factorBits(out, piv, tau); got != panelZeroFaultBits[decomp] {
				t.Errorf("%s: bits %#016x, want %#016x", label, got, panelZeroFaultBits[decomp])
			}
		}
	}
}

// TestRestoredPassStartsOnHost restores every decomposition from a
// checkpoint under both schedules, on a flat 2-GPU system and on 4 GPUs
// over 4 nodes with r = 2: a clean Full/NewScheme run resumed from a
// mid-run checkpoint, and a SingleSide run that rolls back to the
// checkpoint taken after step 1 when two corrupted elements in one column
// of panel 2 defeat its repair. Each pass after the restore must take its
// first panel from the checkpoint while the restore is in flight
// (requireHostStart), keep the bits of the uninterrupted run, and count
// the blocks checked before PD that pulling the panel counted: each
// factored panel's, Cholesky's diagonal block or every block from the
// diagonal down.
func TestRestoredPassStartsOnHost(t *testing.T) {
	const n, nb = 128, 16
	const nbr = n / nb
	topos := []struct {
		name       string
		sys        func() *hetsim.System
		redundancy int
	}{
		{"flat", func() *hetsim.System { return testSystem(2) }, 0},
		{"cluster", func() *hetsim.System { return clusterSystem(4, 4) }, 2},
	}
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		// pdBefore counts the blocks checked before PD over steps [lo, hi).
		pdBefore := func(lo, hi int) int {
			c := 0
			for k := lo; k < hi; k++ {
				if decomp == "cholesky" {
					c++
				} else {
					c += nbr - k
				}
			}
			return c
		}
		a := pipelineInput(decomp, n)
		for _, topo := range topos {
			for _, la := range []int{0, 1} {
				label := fmt.Sprintf("%s/%s/la=%d", decomp, topo.name, la)
				full := Options{NB: nb, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel, Lookahead: la, Redundancy: topo.redundancy}
				want, wpiv, wtau, _, err := runDecomp(decomp, topo.sys(), a, full)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				var cps []*Checkpoint
				ck := full
				ck.CheckpointEvery = 3
				ck.OnCheckpoint = func(cp *Checkpoint) { cps = append(cps, cp) }
				if _, _, _, _, err := runDecomp(decomp, topo.sys(), a, ck); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				resumed := full
				resumed.Resume = cps[len(cps)-1]
				sys := topo.sys()
				tr := obs.NewTrace()
				sys.SetTracer(tr)
				out, piv, tau, res, err := runDecomp(decomp, sys, a, resumed)
				if err != nil {
					t.Fatalf("%s: resume: %v", label, err)
				}
				if factorBits(out, piv, tau) != factorBits(want, wpiv, wtau) {
					t.Errorf("%s: the run resumed from step %d differs from the uninterrupted run", label, resumed.Resume.NextStep)
				}
				if want := pdBefore(resumed.Resume.NextStep, nbr); res.Counter.PDBefore != want {
					t.Errorf("%s: resumed PDBefore %d, want %d", label, res.Counter.PDBefore, want)
				}
				requireHostStart(t, label+"/resume", tr)

				single := full
				single.Protection = SingleSide
				want, wpiv, wtau, _, err = runDecomp(decomp, topo.sys(), a, single)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				inj := fault.NewInjector(5)
				for _, row := range []int{1, 2} {
					inj.Schedule(fault.Spec{Kind: fault.OffChipMemory, Op: fault.PD, Part: fault.ReferencePart, Iteration: 2, Row: row, Col: 0})
				}
				rb := single
				rb.CheckpointEvery = 2
				rb.Injector = inj
				sys = topo.sys()
				tr = obs.NewTrace()
				sys.SetTracer(tr)
				out, piv, tau, res, err = runDecomp(decomp, sys, a, rb)
				if err != nil {
					t.Fatalf("%s: rollback: %v", label, err)
				}
				if res.Rollbacks != 1 || res.Unrecoverable {
					t.Fatalf("%s: %d rollbacks, unrecoverable %t; want one rollback that recovers", label, res.Rollbacks, res.Unrecoverable)
				}
				if factorBits(out, piv, tau) != factorBits(want, wpiv, wtau) {
					t.Errorf("%s: the rolled-back run differs from the uninterrupted run", label)
				}
				if want := pdBefore(0, 3) + pdBefore(2, nbr); res.Counter.PDBefore != want {
					t.Errorf("%s: rolled-back PDBefore %d, want %d", label, res.Counter.PDBefore, want)
				}
				requireHostStart(t, label+"/rollback", tr)
			}
		}
	}
}

// TestCholeskyGPUColumnsStartAtDiagonal runs Cholesky clean, rolled back,
// resumed onto fewer GPUs, rebalanced around a straggler (on a cluster
// too, through a node loss) and through a node loss, under both schedules, on an input whose blocks above the
// diagonal blocks hold a sentinel no factor entry takes. The GPUs hold
// each block column from its diagonal block down and never write above
// it, so no transfer may carry the sentinel (a CPU→GPU copy of the input
// above a diagonal block) or an all-zero row (a GPU copy of the rows
// above one: GPU memory starts zero, and every row a factor, checksum or
// parity shipment carries holds a nonzero entry), and at the end of the
// run every GPU slab must hold zeros above the diagonal block of each
// column it holds, in its data and in its checksum strips. The rollback
// is triggered from the transfer hook itself, which an injector would
// replace: two corrupted elements in one column of the second panel
// pulled (panel 2's, the first is the host's) defeat SingleSide's repair.
func TestCholeskyGPUColumnsStartAtDiagonal(t *testing.T) {
	const n, nb = 192, 16
	const sentinel = -0.0123456789
	a := pipelineInput("cholesky", n)
	for bj := 1; bj < n/nb; bj++ {
		a.View(0, bj*nb, bj*nb, nb).Fill(sentinel)
	}
	straggler := map[int]hetsim.FaultPlan{1: {Mode: hetsim.FaultStraggler, Slowdown: 4}}
	full := Options{NB: nb, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel}
	type scenario struct {
		name  string
		sys   func() *hetsim.System
		opts  func(*Options)
		pulls int // the pull to corrupt, counted from 1; 0 for none
		check func(*Result) error
	}
	var cps []*Checkpoint
	scenarios := []scenario{
		{"clean", func() *hetsim.System { return testSystem(2) }, func(*Options) {}, 0, nil},
		{"checkpoints", func() *hetsim.System { return testSystem(3) }, func(o *Options) {
			o.CheckpointEvery = 3
			o.OnCheckpoint = func(cp *Checkpoint) { cps = append(cps, cp) }
		}, 0, nil},
		{"resume", func() *hetsim.System { return testSystem(2) }, func(o *Options) { o.Resume = cps[len(cps)/2] }, 0, nil},
		{"rollback", func() *hetsim.System { return testSystem(2) }, func(o *Options) {
			o.Protection = SingleSide
			o.CheckpointEvery = 2
		}, 2, func(res *Result) error {
			if res.Rollbacks != 1 || res.Unrecoverable {
				return fmt.Errorf("%d rollbacks, unrecoverable %t; want one rollback that recovers", res.Rollbacks, res.Unrecoverable)
			}
			return nil
		}},
		{"rebalance", func() *hetsim.System { return testSystem(3) }, func(o *Options) {
			o.FailStop = straggler
			o.RebalanceEvery = 1
		}, 0, func(res *Result) error {
			if res.MovedColumns == 0 {
				return fmt.Errorf("no column migrated")
			}
			return nil
		}},
		{"rebalance-node-loss", func() *hetsim.System { return clusterSystem(6, 3) }, func(o *Options) {
			o.FailStop = straggler
			o.RebalanceEvery = 1
			o.NodeFault = map[int]hetsim.NodeFaultPlan{2: {AfterEpochs: 4}}
		}, 0, func(res *Result) error {
			if res.MovedColumns == 0 || res.Reconstructions == 0 {
				return fmt.Errorf("%d columns migrated, %d reconstructed; want both", res.MovedColumns, res.Reconstructions)
			}
			return nil
		}},
		{"node-loss", func() *hetsim.System { return clusterSystem(4, 4) }, func(o *Options) {
			o.Redundancy = 2
			o.NodeFault = map[int]hetsim.NodeFaultPlan{1: {AfterEpochs: 2}}
		}, 0, func(res *Result) error {
			if res.Reconstructions == 0 {
				return fmt.Errorf("no reconstruction")
			}
			return nil
		}},
	}
	for _, la := range []int{0, 1} {
		cps = nil
		for _, sc := range scenarios {
			label := fmt.Sprintf("%s/la=%d", sc.name, la)
			opts := full
			opts.Lookahead = la
			sc.opts(&opts)
			sys := sc.sys()
			bad, pulls := 0, 0
			sys.SetTransferHook(func(from, to *hetsim.Device, m *matrix.Dense) {
				if from.Kind() == hetsim.GPU && to.Kind() == hetsim.CPU && m.Rows == nb && m.Cols == nb && m.Stride == n {
					// A panel's diagonal block, pulled into the output.
					if pulls++; pulls == sc.pulls {
						m.Set(1, 0, m.At(1, 0)+1)
						m.Set(2, 0, m.At(2, 0)+1)
					}
				}
				for i := 0; i < m.Rows; i++ {
					zero := true
					for _, v := range m.Row(i) {
						zero = zero && v == 0
						if v == sentinel {
							zero = false
							if bad++; bad <= 3 {
								t.Errorf("%s: %s→%s copy of %d×%d carries the input above a diagonal block", label, from.Name(), to.Name(), m.Rows, m.Cols)
							}
							break
						}
					}
					if zero {
						if bad++; bad <= 3 {
							t.Errorf("%s: %s→%s copy of %d×%d carries an all-zero row %d", label, from.Name(), to.Name(), m.Rows, m.Cols, i)
						}
						break
					}
				}
			})
			_, ps, ress, errs, err := factorize("Cholesky", sys, []*matrix.Dense{a}, opts, nil, newCholLadder)
			if err = one(errs, err); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			p, res := ps[0], ress[0]
			if sc.check != nil {
				if err := sc.check(res); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			for g := range p.blocks {
				if !p.gpuLive(g) {
					continue
				}
				for lb, bj := range p.blocks[g] {
					r := p.top(bj)
					for i, s := range p.slabs(g) {
						per := s.Cols() / p.capb[g]
						above := s.View(0, lb*per, r*s.Rows()/n, per).UnsafeData()
						for row := 0; row < above.Rows; row++ {
							for _, v := range above.Row(row) {
								if v != 0 {
									t.Errorf("%s: GPU %d holds %v above the diagonal block of block column %d (slab %d, row %d)", label, g, v, bj, i, row)
									row = above.Rows
									break
								}
							}
						}
					}
				}
			}
		}
	}
}

// luPivotInput is a general matrix, whose factorization swaps rows at
// every step.
func luPivotInput(n int, seed uint64) *matrix.Dense {
	return matrix.Random(n, n, matrix.NewRNG(seed))
}

// TestLUPivotingOnHost pins the factor bits and pivots of LU runs on general
// inputs, which swap rows at every step, so every later step's interchanges
// must reach the finished columns the host holds: solo runs under both
// schedules, a run that rolls back to a checkpoint after its step's swaps
// reached the host, a resumed run, a batch of three, and a cluster run that
// loses a node. The constants are the bits of the same runs when the
// factor was gathered whole from the GPUs after the last step.
func TestLUPivotingOnHost(t *testing.T) {
	const n, nb = 192, 16
	full := Options{NB: nb, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel}
	bits := func(out *matrix.Dense, piv []int) uint64 { return factorBits(out, piv, nil) }
	solo := func(t *testing.T, sys *hetsim.System, a *matrix.Dense, opts Options) (uint64, *Result) {
		t.Helper()
		out, piv, res, err := LU(sys, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if swaps := countSwaps(piv); swaps < n/2 {
			t.Fatalf("only %d row interchanges; the input must pivot", swaps)
		}
		return bits(out, piv), res
	}
	cases := []struct {
		name string
		want []uint64
		run  func(t *testing.T) []uint64
	}{
		{"solo la=0", []uint64{0x3eba0fb42d21c8c0}, func(t *testing.T) []uint64 {
			b, _ := solo(t, testSystem(2), luPivotInput(n, 11), full)
			return []uint64{b}
		}},
		{"solo la=1", []uint64{0x3eba0fb42d21c8c0}, func(t *testing.T) []uint64 {
			opts := full
			opts.Lookahead = 1
			b, _ := solo(t, testSystem(2), luPivotInput(n, 11), opts)
			return []uint64{b}
		}},
		{"rollback", []uint64{0x3eba0fb42d21c8c0}, func(t *testing.T) []uint64 {
			// Two corrupted elements in one panel column defeat
			// SingleSide's repair at step 2, after its interchanges
			// reached the host; the run rolls back to the checkpoint taken
			// after step 1.
			inj := fault.NewInjector(5)
			for _, row := range []int{1, 2} {
				inj.Schedule(fault.Spec{Kind: fault.OffChipMemory, Op: fault.PD, Part: fault.ReferencePart, Iteration: 2, Row: row, Col: 0})
			}
			opts := Options{NB: nb, Protection: SingleSide, Scheme: NewScheme, Kernel: checksum.OptKernel, CheckpointEvery: 1, Injector: inj}
			b, res := solo(t, testSystem(2), luPivotInput(n, 11), opts)
			if res.Rollbacks == 0 {
				t.Fatalf("no rollback")
			}
			return []uint64{b}
		}},
		{"resume", []uint64{0x3eba0fb42d21c8c0}, func(t *testing.T) []uint64 {
			var cps []*Checkpoint
			first := full
			first.CheckpointEvery = 3
			first.OnCheckpoint = func(cp *Checkpoint) { cps = append(cps, cp) }
			a := luPivotInput(n, 11)
			if _, _, _, err := LU(testSystem(3), a, first); err != nil {
				t.Fatal(err)
			}
			if len(cps) < 2 {
				t.Fatalf("%d checkpoints, want at least 2", len(cps))
			}
			opts := full
			opts.Resume = cps[len(cps)/2]
			b, _ := solo(t, testSystem(2), a, opts)
			return []uint64{b}
		}},
		{"batch", []uint64{0xb0dda2a860eaab3b, 0x00f290de9a60b4b1, 0xc78cf6e67803ee13}, func(t *testing.T) []uint64 {
			opts := full
			opts.Lookahead = 1
			as := []*matrix.Dense{luPivotInput(n, 21), luPivotInput(n, 22), luPivotInput(n, 23)}
			outs, pivs, _, errs, err := LUBatch(testSystem(2), as, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			var bs []uint64
			for i := range outs {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				bs = append(bs, bits(outs[i], pivs[i]))
			}
			return bs
		}},
		{"node-loss", []uint64{0x3eba0fb42d21c8c0}, func(t *testing.T) []uint64 {
			opts := full
			opts.Redundancy = 2
			opts.NodeFault = map[int]hetsim.NodeFaultPlan{1: {AfterEpochs: 2}}
			b, res := solo(t, clusterSystem(4, 4), luPivotInput(n, 11), opts)
			if res.Reconstructions == 0 {
				t.Fatalf("no reconstruction")
			}
			return []uint64{b}
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			got := c.run(t)
			for i := range got {
				if got[i] != c.want[i] {
					t.Errorf("item %d: bits %#016x, want %#016x", i, got[i], c.want[i])
				}
			}
		})
	}
}

// countSwaps counts the row interchanges of a pivot sequence.
func countSwaps(piv []int) int {
	swaps := 0
	for k, p := range piv {
		if p != k {
			swaps++
		}
	}
	return swaps
}

// TestCholeskyUpperBlocksStayInput runs the Cholesky rows of the ladder
// sweep, faults and repairs included, and requires every strictly upper
// block of the output to be the input's, bit for bit: the factor is the
// lower triangle, and a repair that rewrites a GPU copy of the blocks
// above it never reaches the output.
func TestCholeskyUpperBlocksStayInput(t *testing.T) {
	const n, nb = fingerprintN, fingerprintNB
	a := pipelineInput("cholesky", n)
	for i, c := range fingerprintCases() {
		if c.decomp != "cholesky" {
			continue
		}
		out, _, _, _, err := c.run(i)
		if err != nil {
			t.Fatalf("%s: %v", c.label(), err)
		}
	blocks:
		for bj := 1; bj < n/nb; bj++ {
			for bi := 0; bi < bj; bi++ {
				got, want := out.View(bi*nb, bj*nb, nb, nb), a.View(bi*nb, bj*nb, nb, nb)
				for r := 0; r < nb; r++ {
					for j, v := range got.Row(r) {
						if w := want.At(r, j); math.Float64bits(v) != math.Float64bits(w) {
							t.Errorf("%s: upper block (%d,%d) holds %v at (%d,%d), input %v", c.label(), bi, bj, v, r, j, w)
							break blocks
						}
					}
				}
			}
		}
	}
}

// liveStripBytes is the traffic of the strips of block columns [next, n/nb)
// of a Full-mode layout of decomp, block-column-cyclic over gpus GPUs on
// nodes nodes, between the host on node 0 and their owners, with its
// inter-node share: what a checkpoint resuming from step next captures,
// and what restoring it ships. Block column bj's strips hold its rows from
// its top t — the first row of its diagonal block for Cholesky, whose GPUs
// hold nothing above it, else row 0: data (n−t)·nb, column checksums
// 2·(n−t)/nb·nb and the row-checksum pair 2·(n−t) elements.
func liveStripBytes(decomp string, n, nb, gpus, nodes, next int) (pcie, inter int64) {
	for bj := next; bj < n/nb; bj++ {
		m := n
		if decomp == "cholesky" {
			m -= bj * nb
		}
		elems := int64(m*nb + 2*(m/nb)*nb + 2*m)
		pcie += 8 * elems
		if bj%gpus%nodes != 0 {
			inter += 8 * elems
		}
	}
	return pcie, inter
}

// TestCheckpointMovesOnlyLiveState runs clean Full/NewScheme factorizations
// under both schedules on a flat 2-GPU system and on 4 GPUs over 4 nodes
// with r = 2, with and without a checkpoint every 2 steps. Each capture
// must add exactly the strips of the block columns from its NextStep on to
// the traffic (the blocks the GPUs computed of the finished columns move
// either way, at a capture or at the final gather), and carry no checksum
// strips for the finished columns; restoring a checkpoint must ship only
// the strips of the columns from NextStep on; and the run resumed from it
// must reproduce the factor bit for bit.
func TestCheckpointMovesOnlyLiveState(t *testing.T) {
	const n, nb, every = 192, 16, 2
	topos := []struct {
		name        string
		gpus, nodes int
		sys         func() *hetsim.System
		redundancy  int
	}{
		{"flat", 2, 1, func() *hetsim.System { return testSystem(2) }, 0},
		{"cluster", 4, 4, func() *hetsim.System { return clusterSystem(4, 4) }, 2},
	}
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		for _, topo := range topos {
			for _, la := range []int{0, 1} {
				label := fmt.Sprintf("%s/%s/la=%d", decomp, topo.name, la)
				a := pipelineInput(decomp, n)
				opts := Options{NB: nb, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel, Lookahead: la, Redundancy: topo.redundancy}
				want, wpiv, wtau, base, err := runDecomp(decomp, topo.sys(), a, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				var cps []*Checkpoint
				ck := opts
				ck.CheckpointEvery = every
				ck.OnCheckpoint = func(cp *Checkpoint) { cps = append(cps, cp) }
				_, _, _, res, err := runDecomp(decomp, topo.sys(), a, ck)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(cps) != (n/nb-1)/every {
					t.Fatalf("%s: %d checkpoints, want %d", label, len(cps), (n/nb-1)/every)
				}
				pcie, inter := base.PCIeBytes, base.InternodeBytes
				for _, cp := range cps {
					p, i := liveStripBytes(decomp, n, nb, topo.gpus, topo.nodes, cp.NextStep)
					pcie, inter = pcie+p, inter+i
					for bj := range cp.Data {
						if live := bj >= cp.NextStep; (cp.ColChk[bj] != nil) != live || (cp.RowChk[bj] != nil) != live {
							t.Errorf("%s: checkpoint at step %d: block column %d carries checksum strips %t/%t, want %t",
								label, cp.NextStep, bj, cp.ColChk[bj] != nil, cp.RowChk[bj] != nil, live)
							break
						}
					}
				}
				if res.PCIeBytes != pcie || res.InternodeBytes != inter {
					t.Errorf("%s: moved %d PCIe / %d inter-node bytes with checkpoints, want %d / %d",
						label, res.PCIeBytes, res.InternodeBytes, pcie, inter)
				}

				cp := cps[len(cps)/2]
				sys := topo.sys()
				tr := obs.NewTrace()
				sys.SetTracer(tr)
				p := newLayout(newEngine(decomp, sys, opts, newResult(sys, n, opts)), a, cp.Tol)
				p.restoreFrom(cp)
				var shipped int64
				for _, sp := range tr.Spans() {
					if sp.Proc == obs.ProcSim && sp.Cat == obs.PhasePCIe && strings.HasPrefix(sp.Name, "CPU->") {
						shipped += int64(sp.Args["bytes"])
					}
				}
				if live, _ := liveStripBytes(decomp, n, nb, topo.gpus, topo.nodes, cp.NextStep); shipped != live {
					t.Errorf("%s: restoring the checkpoint at step %d shipped %d bytes, want %d", label, cp.NextStep, shipped, live)
				}
				resumed := opts
				resumed.Resume = cp
				got, piv, tau, _, err := runDecomp(decomp, topo.sys(), a, resumed)
				if err != nil {
					t.Fatalf("%s: resume from step %d: %v", label, cp.NextStep, err)
				}
				if factorBits(got, piv, tau) != factorBits(want, wpiv, wtau) {
					d, r, c := want.MaxAbsDiff(got)
					t.Errorf("%s: the run resumed from step %d differs: |Δ|=%g at (%d,%d)", label, cp.NextStep, d, r, c)
				}
			}
		}
	}
}
