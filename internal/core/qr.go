package core

import (
	"math"

	"ftla/internal/blas"
	"ftla/internal/checksum"
	"ftla/internal/fault"
	"ftla/internal/hetsim"
	"ftla/internal/lapack"
	"ftla/internal/matrix"
	"ftla/internal/obs"
)

// QR computes the protected blocked Householder QR factorization of a on
// the simulated heterogeneous system. It returns the gathered packed
// factors (R in the upper triangle, Householder vectors below) along with
// the reflector coefficients tau and the run report. It is the one-item
// QRBatch.
//
// Per-iteration dataflow (MAGMA hybrid right-looking QR, §IV.B),
// expressed as ladder stages for the step runtime (see runtime.go):
//
//	GPU_owner → CPU   column panel transfer (+ column checksums)
//	CPU               PD: checksum-maintaining Householder panel
//	                  factorization (Algorithm 1)        (panelFactor)
//	CPU               CTF: T = LARFT(V), validated by an orthogonality
//	                  probe; recomputed from V on failure (panelFactor)
//	CPU → all GPUs    panel + c(V) + T broadcast          (panelCommit)
//	all GPUs          TMU: A₂ = (I − V·Tᵀ·Vᵀ)·A₂ with full checksums
//	                  maintained from c(V) (Table III, red terms)
func QR(sys *hetsim.System, a *matrix.Dense, opts Options) (*matrix.Dense, []float64, *Result, error) {
	outs, taus, ress, errs, err := QRBatch(sys, []*matrix.Dense{a}, opts, nil)
	if err := one(errs, err); err != nil {
		return nil, nil, nil, err
	}
	return outs[0], taus[0], ress[0], nil
}

// qrStep is the staging state a QR ladder step carries between stages: the
// factored CPU panel, its T factor and reflector checksums from
// panelFactor until panelCommit broadcasts them, and the per-GPU stage
// copies until tmuFinish retires them.
type qrStep struct {
	panelStep
	t, cv           *matrix.Dense
	cvStage, tStage []*hetsim.Buffer
}

// qrLadder is the QR instantiation of the step-runtime ladder.
type qrLadder struct {
	ladderBase
	step []*qrStep
}

func newQRLadder(p *protected) ladder {
	p.tau = make([]float64, p.n)
	return &qrLadder{ladderBase: ladderBase{p: p}, step: make([]*qrStep, p.nbr)}
}

// panelFactor verifies the panel on its owner GPU (or, when the host's
// copy is current, on the CPU after the pull), pulls it to the CPU,
// factors it with the checksum-maintaining Householder kernel of
// Algorithm 1 under the shared local restart, whose check re-verifies the
// stored panel against the maintained checksums, builds and validates the
// T factor (CTF), and encodes c(V). Everything stays staged host-side;
// panelCommit owns the writeback and broadcast.
func (l *qrLadder) panelFactor(k int) {
	p, es := l.p, l.p.es
	cpu := es.sys.CPU()
	res := es.res
	nb := p.nb
	o := k * nb
	m := p.n - o
	chk := es.opts.Protection != NoChecksum

	// A panel the host holds current (a fresh run's panel 0, which no TMU
	// has touched, or a restore's first, verified when it was captured)
	// is checked on the CPU, as LU's and Cholesky's are.
	host := p.hostCurrent(k)
	if !host {
		p.checkPanelOnGPU(k)
	}
	st := &qrStep{panelStep: p.pull(k, m, host)}
	l.step[k] = st
	if host {
		p.checkPanel(k, &st.panelStep)
	}
	ltau := p.tau[o : o+nb]
	geqr2 := func() error {
		cpu.Run("geqr2-chk", 2*float64(m*nb*nb), func(int) {
			p.qrPanelChecked(st.pm, st.cm, ltau)
		})
		return nil
	}
	check := func(_, _ *matrix.Dense) int {
		defer es.span(obs.PhaseVerify, "verify-col", &res.VerifyT)()
		return len(checksum.VerifyCol(cpu.Workers(), st.pm, nb, st.cm, p.tol*float64(nb)))
	}
	if l.err = p.factorPanel(k, &st.panelStep, geqr2, check); l.err != nil {
		return
	}

	// ------------- CTF: T = LARFT(V) on the CPU ---------------------
	var tmat *matrix.Dense
	cpu.Run("larft", float64(m*nb*nb), func(int) {
		tmat = lapack.Larft(st.pm, ltau)
	})
	tRegs := []fault.Region{{Part: fault.UpdatePart, M: tmat, Row0: o, Col0: o}}
	es.injectComp(k, fault.CTF, tRegs, nil)
	if chk && !p.qrOrthoProbe(st.pm, tmat) {
		// Corrupted T: detected by the orthogonality probe, recovered
		// by recomputing T from V (§IV.B).
		res.Detected = true
		res.Counter.DetectedErrors++
		stop := es.span(obs.PhaseRecover, "recompute-t", &res.RecoverT)
		cpu.Run("larft", float64(m*nb*nb), func(int) {
			tmat = lapack.Larft(st.pm, ltau)
		})
		stop()
		if !p.qrOrthoProbe(st.pm, tmat) {
			res.Unrecoverable = true
		}
	}
	st.t = tmat

	// c(V): column checksums of the materialized reflectors, the
	// operand that maintains the trailing column checksums (Table III).
	if chk {
		vmat := lapack.MaterializeV(st.pm)
		st.cv = matrix.NewDense(checksum.ColDims(m, nb, nb))
		p.encodeColInto(cpu.Workers(), vmat, st.cv)
	}
}

// checkPanelOnGPU opens the memory-fault window of PD over panel k on its
// owner GPU and, when the plan checks the panel before PD, verifies it
// there *before* it ships to the CPU: QR's block-reflector TMU can leave
// aliased column corruption that only the orthogonal-checksum
// reconciliation untangles, and the row checksums live on the GPU.
func (p *protected) checkPanelOnGPU(k int) {
	es := p.es
	nb, o := p.nb, k*p.nb
	gk := p.owner(k)
	panelDev := p.local[gk].View(o, p.localOff(k), p.n-o, nb)
	es.injectMem(k, fault.PD, []fault.Region{
		{Part: fault.ReferencePart, M: panelDev.UnsafeData(), Row0: o, Col0: o},
		{Part: fault.UpdatePart, M: panelDev.UnsafeData(), Row0: o, Col0: o},
	})
	if !es.pl.beforePD || es.opts.Protection == NoChecksum {
		return
	}
	gdev := es.sys.GPU(gk)
	gdata := panelDev.Access(gdev)
	gchk := p.colChkView(k, k, p.nbr).Access(gdev)
	if out, _ := p.verifyRepair(colAxis, gdev.Workers(), gdata, gchk, p.fullColumnRepair(gk, p.localOff(k))); out == repairFailed {
		es.res.Unrecoverable = true
	}
	if es.opts.Protection == Full {
		lb := p.localBlock(k)
		p.reconcileOrthogonal(gk, o, p.n, lb, lb+1)
	}
	es.res.Counter.PDBefore += p.nbr - k
}

// panelCommit writes the certified panel back into the owner's
// authoritative storage and broadcasts panel + c(V) + T to every GPU's
// stage, with the §VII.C post-broadcast verification and restart paths,
// then validates T on every GPU with the orthogonality probe.
func (l *qrLadder) panelCommit(k int) {
	p, es := l.p, l.p.es
	sys := es.sys
	res := es.res
	nb := p.nb
	o := k * nb
	G := sys.NumGPUs()
	m := p.n - o
	chk := es.opts.Protection != NoChecksum
	st := l.step[k]
	ltau := p.tau[o : o+nb]

	st.cvStage = make([]*hetsim.Buffer, G)
	st.tStage = make([]*hetsim.Buffer, G)
	p.commitPanel(k, &st.panelStep, func(g int) {
		if st.tStage[g] == nil {
			st.tStage[g] = sys.GPU(g).Alloc(nb, nb)
			if chk {
				st.cvStage[g] = sys.GPU(g).Alloc(st.cv.Rows, nb)
			}
		}
		if chk {
			es.send(st.cv, st.cvStage[g])
		}
		es.send(st.t, st.tStage[g])
	})
	if !es.pl.afterPDBcast || !chk {
		return
	}
	// Validate T on every GPU with the probe; recompute locally from the
	// (verified) stage V on failure.
	for g := range st.stages {
		if st.stages[g].data == nil {
			continue
		}
		gdev := sys.GPU(g)
		sd := st.stages[g].data.Access(gdev)
		td := st.tStage[g].Access(gdev)
		if !p.qrOrthoProbe(sd, td) {
			res.Detected = true
			res.Counter.DetectedErrors++
			stop := es.span(obs.PhaseRecover, "recompute-t", &res.RecoverT)
			gdev.Run("larft", float64(m*nb*nb), func(int) {
				td.CopyFrom(lapack.Larft(sd, ltau))
			})
			stop()
		}
	}
}

// trailing describes step k's trailing update to the shared bracket: the
// reflector stages are TMU's reference panels, one strip per block row
// from k, and the block reflector transforms the rows from k·nb on.
func (l *qrLadder) trailing(k int) tmuStep {
	p, st := l.p, l.step[k]
	return tmuStep{
		regs: p.qrTMURegions(k, st.stages), step: &st.panelStep,
		strips: p.nbr - k, rlo: k * p.nb,
		heuristic: func(sel tmuSel) { p.qrHeuristicAfterTMU(k, sel, st.stages, st.cvStage, st.tStage) },
	}
}

func (l *qrLadder) tmuBegin(k int) { l.p.tmuOpen(k, l.trailing(k)) }

// tmuGPU applies GPU g's slice of the block-reflector trailing update
// (kernels only; the look-ahead schedule may run the tmuRest slice inside
// a stream).
func (l *qrLadder) tmuGPU(k, g int, sel tmuSel) {
	st := l.step[k]
	l.p.qrTMUOnGPU(g, k, st.stages[g], st.cvStage[g], st.tStage[g], l.p.sliceOnChip(k, g, sel, st.onChip), sel)
}

// tmuFinish closes slice sel of the trailing update — the §VII.B heuristic
// carries the Woodbury rollback path — and, once the last slice closed,
// retires the step's staging state.
func (l *qrLadder) tmuFinish(k int, sel tmuSel) {
	l.p.tmuClose(k, l.trailing(k), sel)
	if sel != tmuLookahead {
		st := l.step[k]
		stages, cv, tm := st.stages, st.cvStage, st.tStage
		l.logReplay(func(bj, g int) { l.replay(k, stages[g], cv[g], tm[g], bj, g) })
		l.step[k] = nil
	}
}

// replay applies step k to block column bj, rebuilt on GPU g (see
// codedState.adopt), from g's stage st and its c(V) and T copies cv and
// tm: the panel column adopts the stage, and a later column takes its
// block-reflector update.
func (l *qrLadder) replay(k int, st stagePair, cv, tm *hetsim.Buffer, bj, g int) {
	p := l.p
	o := k * p.nb
	switch {
	case bj == k:
		copyWithin(p.es.sys.GPU(g), st.data, p.local[g].View(o, p.localOff(bj), p.n-o, p.nb))
	case bj > k:
		p.qrTMUOnGPU(g, k, st, cv, tm, nil, tmuColumn(bj))
	}
}

// qrPanelChecked is Geqr2 with Algorithm 1's checksum maintenance woven
// between reflector generation and application. The panel's per-strip
// column checksums cm are maintained through every reflector:
//
//	c_s ← c_s − τ·(w_sᵀ·v_s)·(vᵀ·P)     for the updated columns, and
//	c_s[j] recomputed from the stored column j (which holds β and the
//	reflector tail rather than H·P's mathematical zeros).
//
// The post-PD check recomputes the stored panel's checksums against the
// maintained ones, catching computation faults whose effect diverges from
// the checksum path. Numerics of the factor itself are identical to
// lapack.Geqr2 (same HouseGen/HouseApply kernels).
func (p *protected) qrPanelChecked(pm, cm *matrix.Dense, ltau []float64) {
	m, nb := pm.Rows, pm.Cols
	maintain := cm != nil && p.es.opts.Protection != NoChecksum
	strips := checksum.Strips(m, p.nb)
	v := make([]float64, m)
	w := make([]float64, nb)
	th1 := make([]float64, strips)
	th2 := make([]float64, strips)
	for j := 0; j < nb; j++ {
		ltau[j] = lapack.HouseGen(pm, j, v)
		if maintain {
			// Per-strip weighted sums of the reflector (θ in Algorithm 1's
			// lines 6–8; here per block strip rather than per panel).
			for s := 0; s < strips; s++ {
				th1[s], th2[s] = 0, 0
			}
			for i := j; i < m; i++ {
				s := i / p.nb
				lw := float64(i%p.nb + 1)
				th1[s] += v[i-j]
				th2[s] += lw * v[i-j]
			}
		}
		if ltau[j] != 0 && j+1 < nb {
			lapack.HouseApply(pm, j, v[:m-j], ltau[j], w[:nb-j-1])
			if maintain {
				// c_s[cols j+1..] −= τ·θ_s·u, u = vᵀP from HouseApply.
				for s := 0; s < strips; s++ {
					c1 := cm.Row(2 * s)
					c2 := cm.Row(2*s + 1)
					t1 := ltau[j] * th1[s]
					t2 := ltau[j] * th2[s]
					for c := j + 1; c < nb; c++ {
						u := w[c-j-1]
						c1[c] -= t1 * u
						c2[c] -= t2 * u
					}
				}
			}
		}
		if maintain {
			// Column j's stored content changed shape (β + reflector
			// tail); refresh its checksum entries directly.
			for s := 0; s < strips; s++ {
				lo := s * p.nb
				hi := lo + p.nb
				if hi > m {
					hi = m
				}
				s1, s2 := 0.0, 0.0
				for i := lo; i < hi; i++ {
					val := pm.At(i, j)
					s1 += val
					s2 += float64(i-lo+1) * val
				}
				cm.Set(2*s, j, s1)
				cm.Set(2*s+1, j, s2)
			}
		}
	}
}

// qrOrthoProbe checks T against V by verifying that the block reflector
// preserves the norm of a probe vector: y = (I − V·Tᵀ·Vᵀ)·x must satisfy
// ‖y‖ = ‖x‖ for orthogonal Q. A corrupted T (or V/T mismatch) breaks norm
// preservation generically at O(m·nb) cost — the cheap CTF validation of
// §IV.B.
func (p *protected) qrOrthoProbe(panel, tmat *matrix.Dense) bool {
	defer p.es.span(obs.PhaseVerify, "qr-ortho-probe", &p.es.res.VerifyT)()
	m, nb := panel.Rows, tmat.Rows
	x := make([]float64, m)
	for i := range x {
		x[i] = 1 + float64(i%7)/7
	}
	// w = Vᵀx
	w := make([]float64, nb)
	for i := 0; i < m; i++ {
		xi := x[i]
		for j := 0; j < nb && j <= i; j++ {
			if i == j {
				w[j] += xi
			} else {
				w[j] += panel.At(i, j) * xi
			}
		}
	}
	// w2 = Tᵀw
	w2 := make([]float64, nb)
	for j := 0; j < nb; j++ {
		s := 0.0
		for i := 0; i <= j; i++ {
			s += tmat.At(i, j) * w[i]
		}
		w2[j] = s
	}
	// y = x − V·w2
	ny2 := 0.0
	for i := 0; i < m; i++ {
		yi := x[i]
		for j := 0; j < nb && j <= i; j++ {
			if i == j {
				yi -= w2[j]
			} else {
				yi -= panel.At(i, j) * w2[j]
			}
		}
		ny2 += yi * yi
	}
	nx := matrix.VecNorm2(x)
	return math.Abs(math.Sqrt(ny2)-nx) <= 1e-8*nx
}

// qrTMURegions exposes TMU fault targets: ref = the reflector part of
// GPU0's stage (rows below the R11 block), update = GPU0's trailing
// region.
func (p *protected) qrTMURegions(k int, stages []stagePair) []fault.Region {
	nb := p.nb
	o := k * nb
	var regs []fault.Region
	if st := stages[0].data; st != nil {
		regs = append(regs, fault.Region{Part: fault.ReferencePart, M: st.UnsafeData().View(nb, 0, st.Rows()-nb, nb), Row0: o + nb, Col0: o})
	}
	lb0 := p.trailStart(0, k+1)
	if lb0 < p.nloc[0] {
		cols := p.nloc[0]*nb - lb0*nb
		regs = append(regs, fault.Region{
			Part: fault.UpdatePart,
			M:    p.local[0].View(o, lb0*nb, p.n-o, cols).UnsafeData(),
			Row0: o, Col0: p.globalBlock(0, lb0) * nb,
		})
	}
	return regs
}

// qrTMUOnGPU applies the block reflector to the slice of GPU g's trailing
// columns sel selects (rows o..n — the top nb rows become R12), the data
// kernels loading the slice's on-chip corruption oc, and maintains both
// checksum dimensions:
//
//	C      ← C − V·Tᵀ·Vᵀ·C
//	colChk ← colChk − c(V)·W₂          (W₂ = Tᵀ·Vᵀ·C)
//	rowChk ← rowChk − V·Tᵀ·Vᵀ·rowChk   (row checksums ride as columns)
//
// Every kernel is column-sliced over the trailing columns (and their
// row-checksum pairs), so restricting the slice leaves each computed
// element bit-identical to the full-width call.
func (p *protected) qrTMUOnGPU(g, k int, st stagePair, cv, tm *hetsim.Buffer, oc fault.OnChip, sel tmuSel) {
	gdev := p.es.sys.GPU(g)
	nb := p.nb
	o := k * nb
	lbLo, lbHi := p.tmuRange(g, k, sel)
	if lbLo >= lbHi {
		return
	}
	jlo := lbLo * nb
	cols := (lbHi - lbLo) * nb
	m := p.n - o
	c := p.local[g].View(o, jlo, m, cols)
	oc.Apply()
	// Materialize V on-device.
	vbuf := gdev.Alloc(m, nb)
	gdev.Run("materialize-v", 0, func(int) {
		vbuf.Access(gdev).CopyFrom(lapack.MaterializeV(st.data.Access(gdev)))
	})
	w := gdev.Alloc(nb, cols)
	w2 := gdev.Alloc(nb, cols)
	gdev.Gemm(true, false, 1, vbuf, c, 0, w)
	gdev.Gemm(true, false, 1, tm, w, 0, w2)
	gdev.Gemm(false, false, -1, vbuf, w2, 1, c)
	// The checksum kernels below load V from vbuf and W₂, which keep any
	// on-chip corruption of the stage (DESIGN.md §5 item 9).
	oc.Undo()
	if p.es.opts.Protection != NoChecksum {
		cc := p.colChk[g].View(2*k, jlo, 2*(p.nbr-k), cols)
		gdev.Gemm(false, false, -1, cv, w2, 1, cc)
	}
	if p.es.opts.Protection == Full {
		rc := p.rowChk[g].View(o, 2*lbLo, m, 2*(lbHi-lbLo))
		wr := gdev.Alloc(nb, 2*(lbHi-lbLo))
		wr2 := gdev.Alloc(nb, 2*(lbHi-lbLo))
		gdev.Gemm(true, false, 1, vbuf, rc, 0, wr)
		gdev.Gemm(true, false, 1, tm, wr, 0, wr2)
		gdev.Gemm(false, false, -1, vbuf, wr2, 1, rc)
	}
}

// qrHeuristicAfterTMU is QR's §VII.B heuristic over slice sel of step
// k's trailing update. First the retirement check: the top strip of the
// slice's just-updated columns is the final R12 — it is never referenced
// again, so this is its last chance to be verified (the QR analogue of
// the post-PU panel check). Then it re-verifies the stage panel of each
// GPU checksStage assigns to the slice. A corrupted reflector element
// contaminates the trailing update 2-D (through the T-factor mixing), so
// unlike the GEMM-shaped TMUs the repair is a local in-memory restart of
// the slice: the applied (corrupted but known) linear map
// M̃ = I − Ṽ·Tᵀ·Ṽᵀ is inverted via the Woodbury identity to roll the
// trailing columns (and the row-checksum slab) back, the column checksums
// are rolled back with the recomputed W̃₂, and the TMU is redone with the
// repaired reflectors.
func (p *protected) qrHeuristicAfterTMU(k int, sel tmuSel, stages []stagePair, cvStage, tStage []*hetsim.Buffer) {
	G := p.es.sys.NumGPUs()
	nb := p.nb
	o := k * nb
	for g := 0; g < G; g++ {
		gdev := p.es.sys.GPU(g)
		lb0, lb1 := p.tmuRange(g, k, sel)
		if lb0 >= lb1 {
			continue
		}
		cols := (lb1 - lb0) * nb
		data := p.local[g].View(o, lb0*nb, nb, cols).Access(gdev)
		chkv := p.colChk[g].View(2*k, lb0*nb, 2, cols).Access(gdev)
		if out, _ := p.verifyRepair(colAxis, gdev.Workers(), data, chkv, p.fullColumnRepair(g, lb0*nb)); out == repairFailed {
			p.es.res.Unrecoverable = true
		}
		// Reconcile against the row checksums: QR's transforming TMU can
		// leave corruption that agrees with polluted column checksums;
		// the finalized R12 strip gets its last consistency pass here.
		p.reconcileOrthogonal(g, o, o+nb, lb0, lb1)
		p.es.res.Counter.TMUAfter += cols / nb
	}
	for g := 0; g < G; g++ {
		if stages[g].data == nil || !p.checksStage(k, g, sel) {
			continue
		}
		gdev := p.es.sys.GPU(g)
		sd := stages[g].data.Access(gdev)
		corruptCopy := sd.Clone()
		out, fixed := p.verifyRepair(colAxis, gdev.Workers(), sd, stages[g].chk.Access(gdev), nil)
		p.es.res.Counter.TMUAfter += p.nbr - k
		if out == repairClean {
			continue
		}
		if out == repairFailed {
			p.es.res.Unrecoverable = true
			continue
		}
		relevant := false
		for _, fe := range fixed {
			if fe.Row >= p.nb || fe.Col < fe.Row {
				// Below the R11 block, or within the strict lower triangle
				// of the top block: part of V, referenced by TMU.
				relevant = true
			}
		}
		if !relevant {
			continue
		}
		p.qrRollbackRedo(g, k, sel, corruptCopy, stages[g], cvStage[g], tStage[g])
	}
}

// qrRollbackRedo implements the Woodbury local restart for GPU g's slice
// sel of step k's TMU.
func (p *protected) qrRollbackRedo(g, k int, sel tmuSel, corrupt *matrix.Dense, st stagePair, cv, tm *hetsim.Buffer) {
	defer p.es.span(obs.PhaseRecover, "qr-rollback-redo", &p.es.res.RecoverT)()
	gdev := p.es.sys.GPU(g)
	nb := p.nb
	o := k * nb
	lb0, lb1 := p.tmuRange(g, k, sel)
	if lb0 >= lb1 {
		return
	}
	cols := (lb1 - lb0) * nb
	m := p.n - o
	c := p.local[g].View(o, lb0*nb, m, cols).Access(gdev)
	tmat := tm.Access(gdev)
	vCorrupt := lapack.MaterializeV(corrupt)

	// X = (T⁻ᵀ − ṼᵀṼ)⁻¹ via dense solves.
	kinv := matrix.NewDense(nb, nb) // T⁻ᵀ = solve Tᵀ·K = I
	kinv.Eye()
	for col := 0; col < nb; col++ {
		x := kinv.Col(col)
		// Forward solve with lower-triangular Tᵀ.
		for i := 0; i < nb; i++ {
			s := x[i]
			for j := 0; j < i; j++ {
				s -= tmat.At(j, i) * x[j]
			}
			x[i] = s / tmat.At(i, i)
		}
		kinv.SetCol(col, x)
	}
	vtv := matrix.NewDense(nb, nb)
	blas.Gemm(true, false, 1, vCorrupt, vCorrupt, 0, vtv)
	kinv.Sub(vtv) // S = T⁻ᵀ − ṼᵀṼ
	spiv := make([]int, nb)
	if err := lapack.Getf2(kinv, spiv); err != nil {
		p.es.res.Unrecoverable = true
		return
	}
	solveS := func(b *matrix.Dense) {
		lapack.Laswp(b, spiv)
		// L·y = b, then U·x = y, using the packed factors in kinv.
		for col := 0; col < b.Cols; col++ {
			for i := 0; i < nb; i++ {
				s := b.At(i, col)
				for j := 0; j < i; j++ {
					s -= kinv.At(i, j) * b.At(j, col)
				}
				b.Set(i, col, s)
			}
			for i := nb - 1; i >= 0; i-- {
				s := b.At(i, col)
				for j := i + 1; j < nb; j++ {
					s -= kinv.At(i, j) * b.At(j, col)
				}
				b.Set(i, col, s/kinv.At(i, i))
			}
		}
	}
	rollback := func(mdat *matrix.Dense) {
		// m_prev = m_new + Ṽ·S⁻¹·Ṽᵀ·m_new
		vt := matrix.NewDense(nb, mdat.Cols)
		blas.Gemm(true, false, 1, vCorrupt, mdat, 0, vt)
		solveS(vt)
		blas.Gemm(false, false, 1, vCorrupt, vt, 1, mdat)
	}
	rollback(c)
	if p.es.opts.Protection != NoChecksum {
		// colChk_prev = colChk_new + c(V)·W̃₂, W̃₂ = Tᵀ·Ṽᵀ·C_prev.
		wt := matrix.NewDense(nb, cols)
		blas.Gemm(true, false, 1, vCorrupt, c, 0, wt)
		w2t := matrix.NewDense(nb, cols)
		blas.Gemm(true, false, 1, tmat, wt, 0, w2t)
		cc := p.colChk[g].View(2*k, lb0*nb, 2*(p.nbr-k), cols).Access(gdev)
		blas.Gemm(false, false, 1, cv.Access(gdev), w2t, 1, cc)
	}
	if p.es.opts.Protection == Full {
		rc := p.rowChk[g].View(o, 2*lb0, m, 2*(lb1-lb0)).Access(gdev)
		rollback(rc)
	}
	p.es.res.Counter.LocalRestarts++
	// Redo the TMU with the repaired stage.
	p.qrTMUOnGPU(g, k, st, cv, tm, nil, sel)
}
