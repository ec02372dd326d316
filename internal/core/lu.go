package core

import (
	"fmt"

	"ftla/internal/blas"
	"ftla/internal/checksum"
	"ftla/internal/fault"
	"ftla/internal/hetsim"
	"ftla/internal/lapack"
	"ftla/internal/matrix"
	"ftla/internal/obs"
)

// LU computes the protected blocked LU factorization with partial pivoting
// of a on the simulated heterogeneous system. It returns the gathered
// packed factors (unit-lower L below the diagonal, U on and above), the
// global pivot sequence (piv[k] = row exchanged with row k at step k), and
// the run report. It is the one-item LUBatch.
//
// Per-iteration dataflow (MAGMA hybrid right-looking LU), expressed as
// ladder stages for the step runtime (see runtime.go):
//
//	GPU_owner → CPU   column panel transfer (+ column checksums)
//	CPU               PD: GETF2 with partial pivoting   (panelFactor)
//	GPUs              row interchanges on the trailing block columns, with
//	                  incremental column-checksum maintenance (panelPivot)
//	CPU               the same interchanges on the finished columns, which
//	                  only the host-held factor keeps      (panelPivot)
//	CPU → all GPUs    factored panel broadcast (+ checksums) (panelCommit)
//	all GPUs          PU: U12 = L11⁻¹·A12 (row checksums ride the TRSM)
//	all GPUs          TMU: A22 −= L21·U12 with full checksum maintenance
func LU(sys *hetsim.System, a *matrix.Dense, opts Options) (*matrix.Dense, []int, *Result, error) {
	outs, pivs, ress, errs, err := LUBatch(sys, []*matrix.Dense{a}, opts, nil)
	if err := one(errs, err); err != nil {
		return nil, nil, nil, err
	}
	return outs[0], pivs[0], ress[0], nil
}

// luStep is the staging state an LU ladder step carries between stages:
// the pulled CPU panel, its local pivots and the rows its pre-PD check
// corrected from panelFactor until panelCommit broadcasts it, and the
// received panel stages until tmuFinish retires them.
type luStep struct {
	panelStep
	lpiv    []int
	touched []int
}

// luLadder is the LU instantiation of the step-runtime ladder.
type luLadder struct {
	ladderBase
	step []*luStep
}

func newLULadder(p *protected) ladder {
	p.piv = make([]int, p.n)
	return &luLadder{ladderBase: ladderBase{p: p}, step: make([]*luStep, p.nbr)}
}

// panelFactor pulls the full column panel (and its checksum strips) to the
// CPU, verifies it — noting the corrected rows for panelPivot's §VII.B
// Fig. 4b contamination probes under Full mode — and factors it with GETF2
// under the shared local restart, whose check is the factor-product
// relation. The panel stays staged host-side; panelCommit owns the
// writeback and broadcast.
func (l *luLadder) panelFactor(k int) {
	p, es := l.p, l.p.es
	cpu := es.sys.CPU()
	nb := p.nb
	o := k * nb
	m := p.n - o
	st := &luStep{panelStep: p.pull(k, m, true)}
	l.step[k] = st
	fixed := p.checkPanel(k, &st.panelStep)
	if es.opts.Protection == Full {
		// The rows the check corrected are probed for contamination
		// before panelPivot swaps them (§VII.B Fig. 4b).
		for _, fe := range fixed {
			st.touched = append(st.touched, o+fe.Row)
		}
	}
	st.lpiv = make([]int, nb)
	getf2 := func() (err error) {
		cpu.Run("getf2", float64(m*nb*nb), func(int) {
			err = lapack.Getf2(st.pm, st.lpiv)
		})
		return err
	}
	check := func(snap, _ *matrix.Dense) int { return p.luProductCheck(st.pm, snap, st.lpiv) }
	if err := p.factorPanel(k, &st.panelStep, getf2, check); err != nil {
		l.err = fmt.Errorf("core: LU PD failed after local restart at block %d: %w", k, err)
		return
	}
	for j, lp := range st.lpiv {
		p.piv[o+j] = o + lp
	}
}

// probeRow checks global row r against its row checksums on every GPU's
// trailing columns (block columns > k) and repairs each GPU's copy that
// disagrees (repairContaminatedRow). It returns how many GPUs needed the
// repair.
func (p *protected) probeRow(r, k int) (hits int) {
	for g := range p.nloc {
		if lb0 := p.trailStart(g, k+1); lb0 < p.nloc[g] && !p.verifyRowQuick(g, r, lb0) {
			p.repairContaminatedRow(g, r, k+1)
			hits++
		}
	}
	return hits
}

// panelPivot applies the step's row interchanges to the trailing block
// columns on the GPUs and to the finished columns of the host-held factor,
// probing each touched row against its row checksums first: a row
// contaminated by an undetected on-chip 1-D propagation from an earlier
// TMU (§VII.B Fig. 4b) must be repaired *before* the interchange, because
// the incremental checksum maintenance under a swap reads the stored
// (corrupted) values and would otherwise bake the corruption into the
// checksums.
func (l *luLadder) panelPivot(k int) {
	p, es := l.p, l.p.es
	res := es.res
	nb := p.nb
	n := p.n
	o := k * nb
	full := es.opts.Protection == Full
	st := l.step[k]

	// §VII.B Fig. 4b: corrections the pre-PD check made in the panel may
	// be the visible edge of a 1-D row contamination from an earlier
	// on-chip TMU fault; probe and repair the full rows across the
	// trailing matrix (data and polluted row checksums). The probe runs
	// here, not in panelFactor, because under look-ahead the panel is
	// factored while the previous step's trailing update still writes
	// those rows; both schedules reach this point after it joined.
	seen := map[int]bool{}
	for _, r := range st.touched {
		if !seen[r] {
			seen[r] = true
			p.probeRow(r, k)
		}
	}
	if full {
		probed := map[int]bool{}
		for j, lp := range st.lpiv {
			for _, r := range [2]int{o + j, o + lp} {
				if probed[r] {
					continue
				}
				probed[r] = true
				if hits := p.probeRow(r, k); hits > 0 {
					res.Detected = true
					res.Counter.DetectedErrors += hits
				}
			}
		}
		// Each probe touches one row across the trailing columns;
		// charge the block-equivalent cost (rows·cols / nb²).
		res.Counter.SwapChecks += (len(probed)*(n-o-nb) + nb*nb - 1) / (nb * nb)
	}
	for j, lp := range st.lpiv {
		if lp != j {
			p.swapRows(o+j, o+lp, k+1, p.nbr)
		}
	}
	// The finished columns' rows from o on are the host's (their certified
	// panels), so the interchanges reach the factor there alone, as
	// MAGMA's host-side laswp does: no GPU copy of them is read again.
	if o > 0 {
		lapack.Laswp(p.out.View(o, 0, n-o, o), st.lpiv)
	}
}

// panelCommit writes the certified panel back into the owner's
// authoritative storage and broadcasts it (plus checksums) to every GPU's
// stage, with the §VII.C post-broadcast verification and restart paths.
func (l *luLadder) panelCommit(k int) { l.p.commitPanel(k, &l.step[k].panelStep, nil) }

// panelUpdate runs PU — U12 = L11⁻¹·A12 with the row-checksum TRSM riding
// along — on every GPU, with pre/post verification and per-GPU local
// restart.
func (l *luLadder) panelUpdate(k int) {
	p, es := l.p, l.p.es
	sys := es.sys
	res, pl := es.res, es.pl
	nb := p.nb
	o := k * nb
	G := sys.NumGPUs()
	chk := es.opts.Protection != NoChecksum
	full := es.opts.Protection == Full
	st := l.step[k]

	puRegs := p.luPURegions(k, st.stages)
	es.injectMem(k, fault.PU, puRegs)
	if pl.beforePU && chk {
		// Reference part first: a DRAM fault on the received L11 block
		// after the post-broadcast check would otherwise corrupt the
		// row-panel TRSM consistently with its checksum TRSM.
		for g := 0; g < G; g++ {
			if st.stages[g].data == nil {
				continue
			}
			gdev := sys.GPU(g)
			l11d := st.stages[g].data.View(0, 0, nb, nb).Access(gdev)
			l11c := st.stages[g].chk.View(0, 0, 2, nb).Access(gdev)
			if out, _ := p.verifyRepair(colAxis, gdev.Workers(), l11d, l11c, nil); out == repairFailed {
				res.Unrecoverable = true
			}
			res.Counter.PUBefore++
		}
		p.luVerifyRowPanelPrePU(k, &res.Counter.PUBefore)
	}
	snaps := make([]luPUSnap, G)
	for g := 0; g < G; g++ {
		gdev := sys.GPU(g)
		lb0 := p.trailStart(g, k+1)
		snaps[g].lb0 = lb0
		if lb0 >= p.nloc[g] {
			continue
		}
		cols := p.nloc[g]*nb - lb0*nb
		rowPanel := p.local[g].View(o, lb0*nb, nb, cols)
		snaps[g].data = gdev.Alloc(nb, cols)
		copyWithin(gdev, rowPanel, snaps[g].data)
		if full {
			rslab := p.rowChk[g].View(o, 2*lb0, nb, 2*(p.nloc[g]-lb0))
			snaps[g].rchk = gdev.Alloc(nb, 2*(p.nloc[g]-lb0))
			copyWithin(gdev, rslab, snaps[g].rchk)
		}
	}
	onChip := es.injectOnChip(k, fault.PU, puRegs)
	runPU := func(g int) {
		lb0 := snaps[g].lb0
		if lb0 >= p.nloc[g] {
			return
		}
		// The regions are GPU faultGPU's, and only its first run loads
		// the on-chip corruption.
		var oc fault.OnChip
		if g == faultGPU {
			oc, onChip = onChip, nil
		}
		p.luPUOnGPU(g, k, st.stages[g], lb0, p.nloc[g], oc)
	}
	for g := 0; g < G; g++ {
		runPU(g)
	}
	es.injectComp(k, fault.PU, puRegs, nil)
	if pl.afterPU && full {
		p.luVerifyRowPanelPostPU(k, snaps, runPU, &res.Counter.PUAfter)
	}
}

// luPUOnGPU solves U12 = L11⁻¹·A12 in place over GPU g's local blocks
// [lb0, lb1) with L11 the top block of g's stage st, the row-panel TRSM
// loading the on-chip corruption oc; under Full mode the row checksums
// ride along. Transient on-chip corruption is not visible to the checksum
// TRSM's independent loads. The solve is column-local, so a narrower
// block range leaves each computed element bit-identical.
func (p *protected) luPUOnGPU(g, k int, st stagePair, lb0, lb1 int, oc fault.OnChip) {
	gdev := p.es.sys.GPU(g)
	nb := p.nb
	o := k * nb
	l11 := st.data.View(0, 0, nb, nb)
	oc.Apply()
	gdev.Trsm(blas.Left, true, false, true, 1, l11, p.local[g].View(o, lb0*nb, nb, (lb1-lb0)*nb))
	oc.Undo()
	if p.es.opts.Protection == Full {
		gdev.Trsm(blas.Left, true, false, true, 1, l11, p.rowChk[g].View(o, 2*lb0, nb, 2*(lb1-lb0)))
	}
}

// replay applies step k to block column bj, rebuilt on GPU g (see
// codedState.adopt), from g's stage st and the step's local pivots lpiv:
// the panel column adopts the stage, and a later column takes the step's
// row interchanges, the PU TRSM and the trailing update.
func (l *luLadder) replay(k int, st stagePair, lpiv []int, bj, g int) {
	p := l.p
	o := k * p.nb
	switch {
	case bj == k:
		copyWithin(p.es.sys.GPU(g), st.data, p.local[g].View(o, p.localOff(bj), p.n-o, p.nb))
	case bj > k:
		for j, lp := range lpiv {
			if lp != j {
				p.swapRows(o+j, o+lp, bj, bj+1)
			}
		}
		lb := p.localBlock(bj)
		p.luPUOnGPU(g, k, st, lb, lb+1, nil)
		p.luTMUOnGPU(g, k, st, nil, tmuColumn(bj))
	}
}

// trailing describes step k's trailing update to the shared bracket: the
// whole received panel stage is TMU's column reference, one strip per
// block row from k.
func (l *luLadder) trailing(k int) tmuStep {
	p, st := l.p, l.step[k]
	return tmuStep{
		regs: p.luTMURegions(k, st.stages), step: &st.panelStep,
		strips: p.nbr - k, rlo: (k + 1) * p.nb,
		heuristic: func(sel tmuSel) { p.luHeuristicAfterTMU(k, sel, st.stages) },
	}
}

func (l *luLadder) tmuBegin(k int) { l.p.tmuOpen(k, l.trailing(k)) }

// tmuGPU applies GPU g's slice of the Schur update (kernels only; the
// look-ahead schedule may run the tmuRest slice inside a stream).
func (l *luLadder) tmuGPU(k, g int, sel tmuSel) {
	st := l.step[k]
	l.p.luTMUOnGPU(g, k, st.stages[g], l.p.sliceOnChip(k, g, sel, st.onChip), sel)
}

// tmuFinish closes slice sel of the trailing update and, once the last
// slice closed, retires the step's staging state.
func (l *luLadder) tmuFinish(k int, sel tmuSel) {
	l.p.tmuClose(k, l.trailing(k), sel)
	if sel != tmuLookahead {
		stages, lpiv := l.step[k].stages, l.step[k].lpiv
		l.logReplay(func(bj, g int) { l.replay(k, stages[g], lpiv, bj, g) })
		l.step[k] = nil
	}
}

// luPUSnap holds one GPU's pre-PU row-panel snapshot for local restart.
type luPUSnap struct {
	data, rchk *hetsim.Buffer
	lb0        int
}

// luProductCheck verifies the factor-product checksum relation
// c(P·A_panel) ?= (wᵀ·L̂)·Û per strip (§III.B applied at panel
// granularity). The left side is recomputed from the *snapshot* (clean
// input) with the recorded pivots applied, so it is independent of every
// value the factorization computed; the right side is computed from the
// stored factors. Any corruption of L̂ or Û therefore breaks the equality.
// It returns the mismatch count the PD restart charges: 1 when the
// relation fails, else 0.
func (p *protected) luProductCheck(pm, snapshot *matrix.Dense, lpiv []int) int {
	defer p.es.span(obs.PhaseVerify, "lu-product-check", &p.es.res.VerifyT)()
	nb := p.nb
	m := pm.Rows
	// c(P·A): permute the clean snapshot, re-encode.
	pa := snapshot.Clone()
	lapack.Laswp(pa, lpiv)
	want := matrix.NewDense(checksum.ColDims(m, nb, nb))
	checksum.EncodeCol(checksum.OptKernel, 1, pa, nb, want)
	// (wᵀ·L̂)·Û from the stored factors.
	l := matrix.NewDense(m, nb)
	for i := 0; i < m; i++ {
		for j := 0; j < nb && j <= i; j++ {
			if j == i {
				l.Set(i, j, 1)
			} else {
				l.Set(i, j, pm.At(i, j))
			}
		}
	}
	u := matrix.NewDense(nb, nb)
	for i := 0; i < nb; i++ {
		for j := i; j < nb; j++ {
			u.Set(i, j, pm.At(i, j))
		}
	}
	wl := matrix.NewDense(checksum.ColDims(m, nb, nb))
	checksum.EncodeCol(checksum.OptKernel, 1, l, nb, wl)
	got := matrix.NewDense(wl.Rows, nb)
	blas.Gemm(false, false, 1, wl, u, 0, got)
	if d, _, _ := got.MaxAbsDiff(want); d > p.tol*float64(nb) {
		return 1
	}
	return 0
}

// luPURegions exposes PU fault targets: ref = L11 (top block of GPU0's
// stage), update = GPU0's local row panel.
func (p *protected) luPURegions(k int, stages []stagePair) []fault.Region {
	nb := p.nb
	o := k * nb
	var regs []fault.Region
	if stages[0].data != nil {
		regs = append(regs, fault.Region{Part: fault.ReferencePart, M: stages[0].data.UnsafeData().View(0, 0, nb, nb), Row0: o, Col0: o})
	}
	lb0 := p.trailStart(0, k+1)
	if lb0 < p.nloc[0] {
		cols := p.nloc[0]*nb - lb0*nb
		regs = append(regs, fault.Region{
			Part: fault.UpdatePart,
			M:    p.local[0].View(o, lb0*nb, nb, cols).UnsafeData(),
			Row0: o, Col0: p.globalBlock(0, lb0) * nb,
		})
	}
	return regs
}

// luTMURegions exposes TMU fault targets: reference region 0 is the L21
// part of GPU0's stage, reference region 1 (Spec.RefIndex = 1) is GPU0's
// U12 row panel, and the update part is GPU0's trailing region.
func (p *protected) luTMURegions(k int, stages []stagePair) []fault.Region {
	nb := p.nb
	o := k * nb
	var regs []fault.Region
	if st := stages[0].data; st != nil {
		regs = append(regs, fault.Region{Part: fault.ReferencePart, M: st.UnsafeData().View(nb, 0, st.Rows()-nb, nb), Row0: o + nb, Col0: o})
	}
	lb0 := p.trailStart(0, k+1)
	if lb0 < p.nloc[0] {
		cols := p.nloc[0]*nb - lb0*nb
		regs = append(regs,
			fault.Region{
				Part: fault.ReferencePart,
				M:    p.local[0].View(o, lb0*nb, nb, cols).UnsafeData(),
				Row0: o, Col0: p.globalBlock(0, lb0) * nb,
			},
			fault.Region{
				Part: fault.UpdatePart,
				M:    p.local[0].View(o+nb, lb0*nb, p.n-o-nb, cols).UnsafeData(),
				Row0: o + nb, Col0: p.globalBlock(0, lb0) * nb,
			})
	}
	return regs
}

// luVerifyRowPanelPrePU verifies the not-yet-updated row panel blocks
// (strip k of every trailing block column) against their column checksums,
// with 1-D column repair from the row checksums under Full mode.
func (p *protected) luVerifyRowPanelPrePU(k int, counter *int) {
	nb := p.nb
	o := k * nb
	G := p.es.sys.NumGPUs()
	for g := 0; g < G; g++ {
		gdev := p.es.sys.GPU(g)
		lb0 := p.trailStart(g, k+1)
		if lb0 >= p.nloc[g] {
			continue
		}
		cols := p.nloc[g]*nb - lb0*nb
		data := p.local[g].View(o, lb0*nb, nb, cols).Access(gdev)
		chkv := p.colChk[g].View(2*k, lb0*nb, 2, cols).Access(gdev)
		out, fixed := p.verifyRepair(colAxis, gdev.Workers(), data, chkv, p.fullColumnRepair(g, lb0*nb))
		if out == repairFailed {
			p.es.res.Unrecoverable = true
		}
		*counter += cols / nb
		// Grouped corrections in one row signal a lazy on-chip 1-D case:
		// repair the full row, including its polluted row checksums.
		if p.es.opts.Protection == Full && out == repairCorrected {
			seen := map[int]bool{}
			for _, fe := range fixed {
				r := o + fe.Row
				if !seen[r] {
					seen[r] = true
					if !p.verifyRowQuick(g, r, lb0) {
						p.repairContaminatedRow(g, r, k+1)
					}
				}
			}
		}
	}
}

// luVerifyRowPanelPostPU verifies U12 against its maintained row checksums
// on every GPU and falls back to a per-GPU local restart of PU when the
// damage does not localize.
func (p *protected) luVerifyRowPanelPostPU(k int, ss []luPUSnap, runPU func(g int), counter *int) {
	nb := p.nb
	o := k * nb
	G := p.es.sys.NumGPUs()
	for g := 0; g < G; g++ {
		gdev := p.es.sys.GPU(g)
		lb0 := p.trailStart(g, k+1)
		if lb0 >= p.nloc[g] {
			continue
		}
		cols := p.nloc[g]*nb - lb0*nb
		data := p.local[g].View(o, lb0*nb, nb, cols).Access(gdev)
		rchk := p.rowChk[g].View(o, 2*lb0, nb, 2*(p.nloc[g]-lb0)).Access(gdev)
		out, _ := p.verifyRepair(rowAxis, gdev.Workers(), data, rchk, nil)
		*counter += cols / nb
		if out == repairFailed {
			if ss != nil && ss[g].data != nil {
				copyWithin(gdev, ss[g].data, p.local[g].View(o, lb0*nb, nb, cols))
				if ss[g].rchk != nil {
					copyWithin(gdev, ss[g].rchk, p.rowChk[g].View(o, 2*lb0, nb, 2*(p.nloc[g]-lb0)))
				}
				p.es.res.Counter.LocalRestarts++
				runPU(g)
				if out, _ := p.verifyRepair(rowAxis, gdev.Workers(), data, rchk, nil); out == repairFailed {
					p.es.res.Unrecoverable = true
				}
			} else {
				p.es.res.Unrecoverable = true
			}
		}
	}
}

// luTMUOnGPU applies the Schur update and full checksum maintenance on the
// slice of GPU g's trailing block columns sel selects, the data kernel
// loading the slice's on-chip corruption oc:
//
//	A22        −= L21·U12
//	colChk     −= c(L21)·U12                 (strips k+1..)
//	rowChk     −= L21·r(U12)                 (pairs of the trailing blocks)
//
// The update is column-sliced, so restricting the output columns leaves
// every computed element bit-identical to the full-width call.
func (p *protected) luTMUOnGPU(g, k int, st stagePair, oc fault.OnChip, sel tmuSel) {
	gdev := p.es.sys.GPU(g)
	nb := p.nb
	o := k * nb
	lbLo, lbHi := p.tmuRange(g, k, sel)
	if lbLo >= lbHi {
		return
	}
	jlo := lbLo * nb
	cols := (lbHi - lbLo) * nb
	m2 := p.n - o - nb
	l21 := st.data.View(nb, 0, m2, nb)
	u12 := p.local[g].View(o, jlo, nb, cols)
	c := p.local[g].View(o+nb, jlo, m2, cols)
	oc.Apply()
	gdev.Gemm(false, false, -1, l21, u12, 1, c)
	// Transient on-chip corruption is not visible to the checksum kernels.
	oc.Undo()
	if p.es.opts.Protection != NoChecksum {
		cStage := st.chk.View(2, 0, 2*(p.nbr-k-1), nb) // strips k+1..nbr of L21
		cc := p.colChk[g].View(2*(k+1), jlo, 2*(p.nbr-k-1), cols)
		gdev.Gemm(false, false, -1, cStage, u12, 1, cc)
	}
	if p.es.opts.Protection == Full {
		rU12 := p.rowChk[g].View(o, 2*lbLo, nb, 2*(lbHi-lbLo))
		rc := p.rowChk[g].View(o+nb, 2*lbLo, m2, 2*(lbHi-lbLo))
		gdev.Gemm(false, false, -1, l21, rU12, 1, rc)
	}
}

// luHeuristicAfterTMU re-verifies panel copies instead of the trailing
// matrix (§VII.B), for slice sel: the L21 stage via column checksums on
// each GPU checksStage assigns to the slice, and the U12 row panel of the
// slice's columns via row checksums. A corrupted stage element at global
// row r contaminated trailing row r in that GPU's slice; a corrupted U12
// element at global column c contaminated trailing column c. Both are
// rebuilt from the orthogonal checksum dimension.
func (p *protected) luHeuristicAfterTMU(k int, sel tmuSel, stages []stagePair) {
	nb := p.nb
	o := k * nb
	G := p.es.sys.NumGPUs()
	for g := 0; g < G; g++ {
		if stages[g].data == nil {
			continue
		}
		gdev := p.es.sys.GPU(g)
		if p.checksStage(k, g, sel) {
			// L21 stage copy (full panel stage; only rows >= o+nb feed TMU).
			out, fixed := p.verifyRepair(colAxis, gdev.Workers(), stages[g].data.Access(gdev), stages[g].chk.Access(gdev), nil)
			p.es.res.Counter.TMUAfter += p.nbr - k
			if out == repairFailed {
				p.es.res.Unrecoverable = true
			}
			for _, fe := range fixed {
				if fe.Row < nb {
					continue // L11/U11 part: not referenced by TMU
				}
				p.luRepairTrailingRow(g, k, sel, o+fe.Row)
			}
		}
		// U12 row panel via row checksums.
		lb0, lb1 := p.tmuRange(g, k, sel)
		if lb0 >= lb1 || p.es.opts.Protection != Full {
			continue
		}
		cols := (lb1 - lb0) * nb
		data := p.local[g].View(o, lb0*nb, nb, cols).Access(gdev)
		rchk := p.rowChk[g].View(o, 2*lb0, nb, 2*(lb1-lb0)).Access(gdev)
		stop := p.es.span(obs.PhaseVerify, "verify-row", &p.es.res.VerifyT)
		ms := checksum.VerifyRow(gdev.Workers(), data, nb, rchk, p.tol)
		stop()
		p.es.res.Counter.TMUAfter += cols / nb
		if len(ms) == 0 {
			continue
		}
		p.es.res.Detected = true
		p.es.res.Counter.DetectedErrors += len(ms)
		for _, m2 := range ms {
			if lc, ok := checksum.Locate(m2, nb); ok {
				checksum.CorrectRow(data, nb, m2, lc)
				p.es.res.Counter.CorrectedElements++
				p.luRepairTrailingColumn(g, k, (lb0+m2.Strip)*nb+lc)
			} else {
				p.es.res.Unrecoverable = true
			}
		}
	}
}

// luRepairTrailingRow rebuilds trailing row r across GPU g's slice sel of
// step k's trailing columns from the maintained column checksums.
func (p *protected) luRepairTrailingRow(g, k int, sel tmuSel, r int) {
	defer p.es.span(obs.PhaseRecover, "lu-repair-trailing-row", &p.es.res.RecoverT)()
	nb := p.nb
	gdev := p.es.sys.GPU(g)
	lb0, lb1 := p.tmuRange(g, k, sel)
	if lb0 >= lb1 {
		return
	}
	jlo := lb0 * nb
	cols := lb1*nb - jlo
	data := p.local[g].View(0, jlo, p.n, cols).Access(gdev)
	chkv := p.colChk[g].View(0, jlo, 2*p.nbr, cols).Access(gdev)
	checksum.ReconstructRow(data, nb, chkv, r, 0, cols)
	// The TMU row-checksum update consumed the corrupted L21 operand, so
	// row r's row checksums are polluted; re-encode from the repaired row.
	p.reencodeRowChkRow(g, r, lb0, lb1)
	p.es.res.Counter.ReconstructedLins++
}

// luRepairTrailingColumn rebuilds the part below step k's row panel of GPU
// g's local column localCol from the maintained row checksums.
func (p *protected) luRepairTrailingColumn(g, k, localCol int) {
	defer p.es.span(obs.PhaseRecover, "lu-repair-trailing-col", &p.es.res.RecoverT)()
	nb := p.nb
	o := k * nb
	gdev := p.es.sys.GPU(g)
	lb := localCol / nb
	data := p.local[g].View(o+nb, lb*nb, p.n-o-nb, nb).Access(gdev)
	rchk := p.rowChk[g].View(o+nb, 2*lb, p.n-o-nb, 2).Access(gdev)
	checksum.ReconstructColumn(data, nb, rchk, localCol%nb, 0, data.Rows)
	// The TMU column-checksum update consumed the corrupted U12 operand,
	// so this column's column checksums are polluted; re-encode.
	p.reencodeColChkCol(g, localCol)
	p.es.res.Counter.ReconstructedLins++
}
