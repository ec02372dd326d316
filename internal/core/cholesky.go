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

// Cholesky computes the protected blocked lower Cholesky factorization of
// the symmetric positive definite matrix a on the simulated heterogeneous
// system: panel decomposition on the CPU, panel update and trailing-matrix
// update on the GPUs, panels broadcast over PCIe, checksums maintained and
// verified according to opts. It returns the full gathered matrix (the
// factor L in the lower triangle; the blocks above the diagonal blocks are
// exactly a's) and the run report. It is the one-item CholeskyBatch.
//
// The per-iteration dataflow matches MAGMA's hybrid right-looking Cholesky
// and the paper's Algorithm 2, expressed as ladder stages for the step
// runtime (see runtime.go):
//
//	GPU_owner → CPU   diagonal block transfer     (panelFactor)
//	CPU               PD: POTF2 on A11            (panelFactor)
//	CPU → GPU_owner   factored block writeback    (panelCommit; the host
//	                  keeps the block, and the last step sends none)
//	GPU_owner         PU: L21 = A21·L11⁻ᵀ (column checksums ride the TRSM)
//	GPU_owner → all   L21 panel broadcast         (panelUpdate)
//	all GPUs          TMU: A22 −= L21·L21ᵀ (full checksums maintained via
//	                  the transposed-column-checksum trick of Fig. 2)
func Cholesky(sys *hetsim.System, a *matrix.Dense, opts Options) (*matrix.Dense, *Result, error) {
	outs, ress, errs, err := CholeskyBatch(sys, []*matrix.Dense{a}, opts, nil)
	if err := one(errs, err); err != nil {
		return nil, nil, err
	}
	return outs[0], ress[0], nil
}

// cholLadder is the Cholesky instantiation of the step-runtime ladder. A
// step stages the pulled diagonal block from panelFactor until panelCommit
// writes it back, and the broadcast L21 stages from panelUpdate until
// tmuFinish retires them.
type cholLadder struct {
	ladderBase
	step []*panelStep
}

func newCholLadder(p *protected) ladder {
	return &cholLadder{ladderBase: ladderBase{p: p}, step: make([]*panelStep, p.nbr)}
}

// panelFactor pulls the diagonal block (and its checksum strip) to the
// CPU, verifies it, and factors it with POTF2 under the shared local
// restart, whose check is the factor-product relation. The factored block
// stays staged host-side; panelCommit owns the writeback.
func (l *cholLadder) panelFactor(k int) {
	p, es := l.p, l.p.es
	cpu := es.sys.CPU()
	nb := p.nb
	st := p.pull(k, nb, true)
	l.step[k] = &st
	p.checkPanel(k, &st)
	potf2 := func() (err error) {
		cpu.Run("potf2", float64(nb*nb*nb)/3, func(int) {
			err = lapack.Potf2(st.pm)
		})
		return err
	}
	check := func(_, snapChk *matrix.Dense) int { return p.cholProductCheck(st.pm, snapChk) }
	if err := p.factorPanel(k, &st, potf2, check); err != nil {
		l.err = fmt.Errorf("core: Cholesky PD failed after local restart at block %d: %w", k, err)
	}
}

// panelCommit writes the certified factored block back to its owner GPU
// over PCIe (the §V communication window covers it) and, under schemes
// that verify after broadcast, re-checks the received copy.
func (l *cholLadder) panelCommit(k int) {
	p, es := l.p, l.p.es
	res := es.res
	nb := p.nb
	o := k * nb
	gk := p.owner(k)
	gdevK := es.sys.GPU(gk)
	chk := es.opts.Protection != NoChecksum
	st := l.step[k]
	a11dev := p.local[gk].View(o, p.localOff(k), nb, nb)
	es.withCommContext(k, fault.PD, o, o, func() {
		es.send(st.pm, a11dev)
		if chk {
			es.send(st.cm, p.colChkView(k, k, k+1))
		}
	})
	if es.pl.afterPDBcast && chk {
		gd := a11dev.Access(gdevK)
		gc := p.colChkView(k, k, k+1).Access(gdevK)
		out, _ := p.verifyRepair(colAxis, gdevK.Workers(), gd, gc, nil)
		res.Counter.PDAfter++
		if out == repairFailed {
			// PCIe corrupted the writeback beyond local repair:
			// re-transfer the certified CPU copy.
			es.send(st.pm, a11dev)
			es.send(st.cm, p.colChkView(k, k, k+1))
			res.Counter.Rebroadcasts++
		}
	}
}

// panelUpdate runs PU — L21 = A21·L11⁻ᵀ on the owner GPU with its
// checksum TRSM — and broadcasts the panel (plus checksums) to every GPU,
// including the §VII.C post-broadcast verification and restart paths.
func (l *cholLadder) panelUpdate(k int) {
	p, es := l.p, l.p.es
	sys := es.sys
	res, pl := es.res, es.pl
	nb := p.nb
	nbr := p.nbr
	n := p.n
	o := k * nb
	gk := p.owner(k)
	gdevK := sys.GPU(gk)
	chk := es.opts.Protection != NoChecksum
	st := l.step[k]
	m2 := n - o - nb

	a11dev := p.local[gk].View(o, p.localOff(k), nb, nb)
	pnl := p.local[gk].View(o+nb, p.localOff(k), m2, nb)
	var pnlChk *hetsim.Buffer
	if chk {
		pnlChk = p.colChk[gk].View(2*(k+1), p.localOff(k), 2*(nbr-k-1), nb)
	}
	puRegs := []fault.Region{
		{Part: fault.ReferencePart, M: a11dev.UnsafeData(), Row0: o, Col0: o},
		{Part: fault.UpdatePart, M: pnl.UnsafeData(), Row0: o + nb, Col0: o},
	}
	es.injectMem(k, fault.PU, puRegs)
	if pl.beforePU && chk {
		// Reference part first: a DRAM fault striking the factored L11
		// block between the post-broadcast check and PU would otherwise
		// corrupt the whole TRSM consistently with its checksum TRSM.
		if out, _ := p.verifyRepair(colAxis, gdevK.Workers(), a11dev.Access(gdevK), p.colChkView(k, k, k+1).Access(gdevK), nil); out == repairFailed {
			res.Unrecoverable = true
		}
		res.Counter.PUBefore++
		var rowRepair func(col int) bool
		if es.opts.Protection == Full {
			// View-limited on purpose: the diagonal block above this
			// view was just factored, so its row checksums are stale —
			// and Cholesky contamination of the panel column can only
			// live in the diagonal block (repaired by the beforePD
			// check) or in these rows, so the window is complete.
			rchk := p.rowChkView(k, o+nb, n).Access(gdevK)
			data := pnl.Access(gdevK)
			loff := p.localOff(k)
			rowRepair = func(col int) bool {
				checksum.ReconstructColumn(data, nb, rchk, col, 0, data.Rows)
				p.reencodeColChkCol(gk, loff+col)
				return true
			}
		}
		if out, _ := p.verifyRepair(colAxis, gdevK.Workers(), pnl.Access(gdevK), pnlChk.Access(gdevK), rowRepair); out == repairFailed {
			res.Unrecoverable = true
		}
		res.Counter.PUBefore += nbr - k - 1
	}
	// Snapshot for local restart of PU.
	snapPnl := gdevK.Alloc(m2, nb)
	copyWithin(gdevK, pnl, snapPnl)
	var snapPnlChk *hetsim.Buffer
	if chk {
		snapPnlChk = gdevK.Alloc(2*(nbr-k-1), nb)
		copyWithin(gdevK, pnlChk, snapPnlChk)
	}
	onChip := es.injectOnChip(k, fault.PU, puRegs)
	runPU := func() {
		// An on-chip corruption is a transient read of the first run: the
		// checksum TRSM loads its operands independently and does not see
		// it.
		onChip.Apply()
		gdevK.Trsm(blas.Right, true, true, false, 1, a11dev, pnl)
		onChip.Undo()
		onChip = nil
		if chk {
			gdevK.Trsm(blas.Right, true, true, false, 1, a11dev, pnlChk)
		}
	}
	restartPU := func() {
		copyWithin(gdevK, snapPnl, pnl)
		copyWithin(gdevK, snapPnlChk, pnlChk)
		runPU()
	}
	runPU()
	es.injectComp(k, fault.PU, puRegs, nil)
	if pl.afterPU && chk {
		out, _ := p.verifyRepair(colAxis, gdevK.Workers(), pnl.Access(gdevK), pnlChk.Access(gdevK), nil)
		res.Counter.PUAfter += nbr - k - 1
		if out == repairFailed {
			// 2-D propagation inside PU: local in-memory restart.
			res.Counter.LocalRestarts++
			restartPU()
			if out, _ := p.verifyRepair(colAxis, gdevK.Workers(), pnl.Access(gdevK), pnlChk.Access(gdevK), nil); out == repairFailed {
				res.Unrecoverable = true
			}
		}
	}

	// ------------- PU broadcast: L21 (+checksums) to all GPUs -------
	st.stages = p.allocStages(m2, nbr-k-1, nb)
	doBroadcast := func() {
		es.withCommContext(k, fault.PU, o+nb, o, func() {
			for g := range st.stages {
				if !p.gpuLive(g) {
					continue
				}
				if g == gk {
					copyWithin(gdevK, pnl, st.stages[g].data)
					if chk {
						copyWithin(gdevK, pnlChk, st.stages[g].chk)
					}
					continue
				}
				es.sys.TransferReliable(pnl, st.stages[g].data)
				if chk {
					es.sys.TransferReliable(pnlChk, st.stages[g].chk)
				}
			}
		})
	}
	doBroadcast()
	if pl.afterPUBcast && chk {
		// Corruption on every GPU implicates the sender (PU): restart it
		// from the snapshot and broadcast afresh.
		resend := func(g stagePair) {
			es.sys.TransferReliable(pnl, g.data)
			es.sys.TransferReliable(pnlChk, g.chk)
		}
		p.checkBroadcast(st.stages, &res.Counter.PUAfter, nbr-k-1, resend, func() {
			restartPU()
			doBroadcast()
		})
	}
}

// trailing describes step k's trailing update to the shared bracket: the
// L21 stages are TMU's reference panels, one strip per trailing block row.
func (l *cholLadder) trailing(k int) tmuStep {
	p, st := l.p, l.step[k]
	return tmuStep{
		regs: p.cholTMURegions(k, st.stages), step: st,
		strips: p.nbr - k - 1, rlo: (k + 1) * p.nb,
		heuristic: func(sel tmuSel) { p.cholHeuristicAfterTMU(k, sel, st.stages) },
	}
}

func (l *cholLadder) tmuBegin(k int) { l.p.tmuOpen(k, l.trailing(k)) }

// tmuGPU applies GPU g's slice of the trailing update (kernels only; the
// look-ahead schedule may run the tmuRest slice inside a stream).
func (l *cholLadder) tmuGPU(k, g int, sel tmuSel) {
	st := l.step[k]
	l.p.cholTMUOnGPU(g, k, st.stages[g], l.p.sliceOnChip(k, g, sel, st.onChip), sel)
}

// tmuFinish closes slice sel of the trailing update and, once the last
// slice closed, retires the step's staging state.
func (l *cholLadder) tmuFinish(k int, sel tmuSel) {
	l.p.tmuClose(k, l.trailing(k), sel)
	if sel != tmuLookahead {
		stages, l11 := l.step[k].stages, l.step[k].pm
		l.logReplay(func(bj, g int) { l.replay(k, stages[g], l11, bj, g) })
		l.step[k] = nil
	}
}

// replay applies step k to block column bj, rebuilt on GPU g (see
// codedState.adopt), from g's L21 stage st: the panel column adopts the
// certified diagonal block from its host copy l11 and L21 from the
// stage, and a later column takes its trailing update.
func (l *cholLadder) replay(k int, st stagePair, l11 *matrix.Dense, bj, g int) {
	p := l.p
	nb := p.nb
	o := k * nb
	switch {
	case bj == k:
		col := p.local[g].View(o, p.localOff(bj), p.n-o, nb)
		p.es.send(l11, col.View(0, 0, nb, nb))
		copyWithin(p.es.sys.GPU(g), st.data, col.View(nb, 0, p.n-o-nb, nb))
	case bj > k:
		p.cholTMUOnGPU(g, k, st, nil, tmuColumn(bj))
	}
}

// cholProductCheck verifies the factor-product checksum relation
// c(A11) ?= (wᵀ·L̂)·L̂ᵀ, which holds because A11 = L·Lᵀ. It detects any
// corruption of the stored factor because the right-hand side is computed
// from the stored values while the left-hand side is the maintained (and
// previously verified) checksum of the input. It returns the mismatch
// count the PD restart charges: 1 when the relation fails, else 0.
func (p *protected) cholProductCheck(pm, snapChk *matrix.Dense) int {
	defer p.es.span(obs.PhaseVerify, "chol-product-check", &p.es.res.VerifyT)()
	nb := p.nb
	// Materialize L̂ (lower triangle of the stored block).
	l := matrix.NewDense(nb, nb)
	for i := 0; i < nb; i++ {
		for j := 0; j <= i; j++ {
			l.Set(i, j, pm.At(i, j))
		}
	}
	wl := matrix.NewDense(2, nb)
	checksum.EncodeCol(checksum.OptKernel, 1, l, nb, wl)
	prod := matrix.NewDense(2, nb)
	blas.Gemm(false, true, 1, wl, l, 0, prod)
	if d, _, _ := prod.MaxAbsDiff(snapChk); d > p.tol*float64(nb) {
		return 1
	}
	return 0
}

// cholTMURegions exposes the TMU fault-injection targets: the reference
// part is GPU0's received L21 stage; the update part is the
// diagonal-and-below portion of GPU0's first trailing block column.
func (p *protected) cholTMURegions(k int, stages []stagePair) []fault.Region {
	o := k * p.nb
	var regs []fault.Region
	if stages[0].data != nil {
		regs = append(regs, fault.Region{Part: fault.ReferencePart, M: stages[0].data.UnsafeData(), Row0: o + p.nb, Col0: o})
	}
	lb0 := p.trailStart(0, k+1)
	if lb0 < p.nloc[0] {
		bj := p.globalBlock(0, lb0)
		r0 := bj * p.nb
		regs = append(regs, fault.Region{
			Part: fault.UpdatePart,
			M:    p.local[0].View(r0, lb0*p.nb, p.n-r0, p.nb).UnsafeData(),
			Row0: r0, Col0: bj * p.nb,
		})
	}
	return regs
}

// tmuRange resolves the local block-column range [lb0, lb1) GPU g updates
// for step k under the given TMU slice selector. The look-ahead column —
// block column k+1 — is the owner's first trailing local block (and only
// that), so the split is exact: tmuLookahead ∪ tmuRest = tmuAll, disjoint.
// A tmuColumn selection is its column's local block on its owner.
func (p *protected) tmuRange(g, k int, sel tmuSel) (lb0, lb1 int) {
	lb0, lb1 = p.trailStart(g, k+1), p.nloc[g]
	if sel == tmuAll {
		return lb0, lb1
	}
	if sel > tmuRest {
		bj := int(sel - tmuRest - 1)
		if g != p.owner(bj) || bj <= k {
			return lb0, lb0
		}
		return p.localBlock(bj), p.localBlock(bj) + 1
	}
	if g == p.owner(k+1) {
		la := p.localBlock(k + 1)
		if sel == tmuLookahead {
			return la, la + 1
		}
		return la + 1, lb1
	}
	if sel == tmuLookahead {
		return lb0, lb0 // non-owners hold no piece of the look-ahead column
	}
	return lb0, lb1
}

// cholTMUOnGPU updates GPU g's trailing block columns (restricted to the
// slice sel selects) and their full checksums, the data kernels loading
// the slice's on-chip corruption oc: for each local block column bj > k,
//
//	A[bj·nb:, bj] −= L21[bj·nb:]·L21[bj blk]ᵀ
//	colChk strips  −= c(L21) strips ·L21[bj blk]ᵀ     (column checksums)
//	rowChk pairs   −= L21[bj·nb:]·(c(L21) strip bj)ᵀ  (transposed-checksum
//	                                                   trick of Fig. 2)
func (p *protected) cholTMUOnGPU(g, k int, st stagePair, oc fault.OnChip, sel tmuSel) {
	gdev := p.es.sys.GPU(g)
	nb := p.nb
	o := k * nb
	chk := p.es.opts.Protection != NoChecksum
	full := p.es.opts.Protection == Full
	lb0, lb1 := p.tmuRange(g, k, sel)
	oc.Apply()
	for lb := lb0; lb < lb1; lb++ {
		bj := p.globalBlock(g, lb)
		r0 := bj * nb
		c := p.local[g].View(r0, lb*nb, p.n-r0, nb)
		aStage := st.data.View(r0-(o+nb), 0, p.n-r0, nb)
		bBlk := st.data.View(r0-(o+nb), 0, nb, nb)
		gdev.Gemm(false, true, -1, aStage, bBlk, 1, c)
	}
	// On-chip corruption is transient: the checksum-maintenance kernels
	// load the stage independently and see clean values.
	oc.Undo()
	for lb := lb0; lb < lb1; lb++ {
		bj := p.globalBlock(g, lb)
		r0 := bj * nb
		aStage := st.data.View(r0-(o+nb), 0, p.n-r0, nb)
		bBlk := st.data.View(r0-(o+nb), 0, nb, nb)
		if chk {
			cc := p.colChk[g].View(2*bj, lb*nb, 2*(p.nbr-bj), nb)
			cStage := st.chk.View(2*(bj-k-1), 0, 2*(p.nbr-bj), nb)
			gdev.Gemm(false, true, -1, cStage, bBlk, 1, cc)
		}
		if full {
			rc := p.rowChk[g].View(r0, 2*lb, p.n-r0, 2)
			cStrip := st.chk.View(2*(bj-k-1), 0, 2, nb)
			gdev.Gemm(false, true, -1, aStage, cStrip, 1, rc)
		}
	}
}

// cholHeuristicAfterTMU implements the §VII.B heuristic for slice sel:
// instead of verifying the trailing matrix, re-verify the L21 stage copy
// of each GPU that checksStage assigns to the slice. A corrupted stage
// element at global row r contaminated trailing row r (and column r, since
// Cholesky uses L21 on both sides as A·Aᵀ) in the slice's columns; both
// are rebuilt from the orthogonal checksums, accounting for the
// second-order pollution the corrupted operand left in the
// checksum-maintenance GEMMs.
func (p *protected) cholHeuristicAfterTMU(k int, sel tmuSel, stages []stagePair) {
	G := p.es.sys.NumGPUs()
	nb := p.nb
	o := k * nb
	for g := 0; g < G; g++ {
		if stages[g].data == nil || !p.checksStage(k, g, sel) {
			continue
		}
		gdev := p.es.sys.GPU(g)
		sd := stages[g].data.Access(gdev)
		out, fixed := p.verifyRepair(colAxis, gdev.Workers(), sd, stages[g].chk.Access(gdev), nil)
		p.es.res.Counter.TMUAfter += p.nbr - k - 1
		if out == repairClean {
			continue
		}
		if out == repairFailed {
			p.es.res.Unrecoverable = true
			continue
		}
		for _, fe := range fixed {
			r := o + nb + fe.Row
			clean := sd.At(fe.Row, fe.Col)
			p.repairCholCross(g, k, sel, r, clean, fe.D1)
		}
	}
}

// repairCholCross repairs the trailing damage of one corrupted L21 stage
// element in GPU g's slice sel of step k's trailing columns: the element
// sat at global row r (= column r by the symmetric use of L21), its
// repaired value is clean, and the applied correction was d1 (corrupt =
// clean − d1). Cholesky's TMU consumed the corrupted value on both sides
// of A₂₂ −= L21·L21ᵀ, so:
//
//   - trailing row r is wrong on the slice's columns; the column checksums of
//     those columns are clean (their update used c(L21), the checksum
//     operand) — except column r itself, whose column-checksum update
//     consumed the corrupted element as the B-operand;
//   - trailing column r (if the slice holds it) is wrong, and its
//     row checksums at row r are polluted (their update used the corrupted
//     A-operand);
//   - element (r, r) took the corruption twice (clean² became corrupt²).
//
// The repair therefore reconstructs row r from column checksums (skipping
// column r), reconstructs column r from row checksums (skipping row r),
// fixes (r, r) algebraically from the known corruption magnitude, and
// re-encodes the polluted checksum lines from the repaired data. Row r
// lies above the diagonal block of the slice's columns after block
// column r/nb, which TMU never wrote there and the GPUs do not hold (see
// top): the repair leaves them out.
func (p *protected) repairCholCross(g, k int, sel tmuSel, r int, clean, d1 float64) {
	defer p.es.span(obs.PhaseRecover, "repair-chol-cross", &p.es.res.RecoverT)()
	nb := p.nb
	gdev := p.es.sys.GPU(g)
	lb0, lb1 := p.tmuRange(g, k, sel)
	if lb0 >= lb1 {
		return
	}
	bj := r / nb
	lb1 = min(lb1, p.trailStart(g, bj+1))
	p.es.res.Counter.ReconstructedLins++
	if lb0 >= lb1 {
		return
	}
	jlo := lb0 * nb
	cols := lb1*nb - jlo
	owned := p.owner(bj) == g

	data := p.local[g].View(0, jlo, p.n, cols).Access(gdev)
	chkv := p.colChk[g].View(0, jlo, 2*p.nbr, cols).Access(gdev)
	lcR := -1
	if owned {
		lcR = p.localBlock(bj)*nb + r%nb - jlo // view-relative column r
	}
	if lcR >= 0 && lcR < cols {
		checksum.ReconstructRow(data, nb, chkv, r, 0, lcR)
		checksum.ReconstructRow(data, nb, chkv, r, lcR+1, cols)
	} else {
		checksum.ReconstructRow(data, nb, chkv, r, 0, cols)
	}

	if owned && p.es.opts.Protection == Full && lcR >= 0 && lcR < cols {
		// Column r: rebuilt from row checksums, skipping the polluted row r.
		lb := p.localBlock(bj)
		r0 := bj * nb
		cdat := p.local[g].View(r0, lb*nb, p.n-r0, nb).Access(gdev)
		rchk := p.rowChk[g].View(r0, 2*lb, p.n-r0, 2).Access(gdev)
		checksum.ReconstructColumn(cdat, nb, rchk, r%nb, 0, r-r0)
		checksum.ReconstructColumn(cdat, nb, rchk, r%nb, r-r0+1, cdat.Rows)
		p.es.res.Counter.ReconstructedLins++
		// (r, r): the data GEMM subtracted corrupt² where clean² belonged.
		corrupt := clean - d1
		fix := corrupt*corrupt - clean*clean
		cdat.Set(r-r0, r%nb, cdat.At(r-r0, r%nb)+fix)
		// Re-encode the polluted checksum lines from the repaired data.
		p.reencodeColChkCol(g, lb*nb+r%nb)
	}
	p.reencodeRowChkRow(g, r, lb0, lb1)
}
