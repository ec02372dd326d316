package core

import (
	"strings"
	"time"

	"ftla/internal/checksum"
	"ftla/internal/fault"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
	"ftla/internal/obs"
)

// The protected-ladder skeleton.
//
// Cholesky, LU and QR run the same dataflow — PD on the CPU, panel
// broadcast, PU, then TMU on the GPUs — and Algorithm 2 places the same
// verification points in all three. This file holds the parts that do not
// depend on the decomposition: the run body every driver shares, the PD
// local restart, the certified-panel commit with its §VII.C verify/restart
// path, and the trailing-update bracket. Each driver keeps only its
// kernels and its own checks (panel kernel and product check, TMU kernel
// and fault regions, §VII.B heuristic, LU's pivoting, QR's T and c(V)
// legs), passed in as data or functions; nothing here branches on which
// decomposition it serves.

// factorize is the body every driver shares: a solo run is a batch of
// one. It validates the items and opts first (see validateRun), then,
// inside one transfer-coalescing window, builds each item's engine, under
// injs[i] when set and opts.Injector otherwise, and protected layout,
// whose host-held factor is the item's output: scattered from the item
// or, for the one item of a resumed run, built from opts.Resume. It runs
// the items' ladders, the ones mk builds, through runLadder, and gathers
// into every surviving item's output, in one more window, the blocks its
// GPUs computed. decomp is the driver's display name ("Cholesky", "LU",
// "QR"); its lower case names the engines and the checkpoints. ps[i] is
// item i's layout, for the driver's decomposition-specific outputs;
// outs[i], ps[i] and ress[i] are nil when errs[i] carries the item's
// driver error. A run-level error reports invalid inputs or options, an
// invalid topology or checkpoint, or a fail-stop abort or node loss the
// run could not absorb, which voids the whole run; the system's partial
// state is the caller's to Reset.
func factorize(decomp string, sys *hetsim.System, as []*matrix.Dense, opts Options,
	injs []*fault.Injector, mk func(p *protected) ladder,
) (outs []*matrix.Dense, ps []*protected, ress []*Result, errs []error, err error) {
	defer func() {
		if e := hetsim.RecoverAbort(recover()); e != nil {
			outs, ps, ress, errs, err = nil, nil, nil, nil, e
		}
	}()
	start := time.Now()
	opts = opts.Effective()
	if err := validateRun(as, opts, sys.Nodes(), injs); err != nil {
		return nil, nil, nil, nil, err
	}
	name := strings.ToLower(decomp)
	n, count := as[0].Rows, len(as)
	cp := opts.Resume
	if cp != nil {
		if err := cp.validateFor(name, n, &opts); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	ps = make([]*protected, count)
	ress = make([]*Result, count)
	ls := make([]ladder, count)
	sys.CoalesceTransfers(func() {
		for i, a := range as {
			iopts := opts
			if injs != nil && injs[i] != nil {
				iopts.Injector = injs[i]
			}
			ress[i] = newResult(sys, n, opts)
			es := newEngine(name, sys, iopts, ress[i])
			if cp != nil {
				ps[i] = newLayout(es, a, cp.Tol)
			} else {
				ps[i] = newProtected(es, a)
			}
			ls[i] = mk(ps[i])
		}
	})
	errs = make([]error, count)
	if err := runLadder(ls, errs); err != nil {
		return nil, nil, nil, nil, err
	}
	outs = make([]*matrix.Dense, count)
	sys.CoalesceTransfers(func() {
		for i, p := range ps {
			if errs[i] == nil {
				outs[i] = p.gather()
			}
		}
	})
	for i, p := range ps {
		if errs[i] != nil {
			ps[i], ress[i] = nil, nil
			continue
		}
		p.es.finishResult(start)
	}
	return outs, ps, ress, errs, nil
}

// one unwraps a one-item run's results: the item's driver error, when
// set, is the call's error.
func one(errs []error, err error) error {
	if err == nil {
		err = errs[0]
	}
	return err
}

// newResult starts the report of one order-n run under opts.
func newResult(sys *hetsim.System, n int, opts Options) *Result {
	return &Result{
		N: n, NB: opts.NB, GPUs: sys.NumGPUs(),
		Mode: opts.Protection, Scheme: opts.Scheme, Kernel: opts.Kernel,
	}
}

// ladderBase is the state every decomposition's ladder carries: the
// protected layout it factors (whose engine holds the run's options, plan
// and report) and the driver error that drops the item from the run. It
// supplies the stages a decomposition may leave empty: panelPivot (only
// LU interchanges rows) and panelUpdate (QR has no PU).
type ladderBase struct {
	p   *protected
	err error
}

func (b *ladderBase) failed() error      { return b.err }
func (b *ladderBase) layout() *protected { return b.p }
func (b *ladderBase) panelPivot(int)     {}
func (b *ladderBase) panelUpdate(int)    {}

// logReplay hands the coded layer, if any, the replay of the step that
// just finished (see codedState.adopt).
func (b *ladderBase) logReplay(step func(bj, g int)) {
	if cs := b.p.coded; cs != nil {
		cs.record(step)
	}
}

// panelStep is the staging state of one ladder step: the panel pulled to
// the CPU, in place in the host-held output, and its checksum strips (rm,
// its row-checksum pair, only for a Full-mode check before PD), from
// panelFactor until it is written back, the per-GPU stages of the
// broadcast panel until tmuFinish retires them, and the trailing update's
// fault windows: the on-chip corruption its slices load, and the
// computation faults aimed at trailing columns the look-ahead schedule
// has not updated yet.
type panelStep struct {
	pm, cm, rm *matrix.Dense
	stages     []stagePair
	onChip     fault.OnChip
	comp       []fault.Target
}

// pull stages rows [k·nb, k·nb+rows) of block column k on the CPU, in one
// staging: the data straight into their place in the host-held output,
// where the certified panel stays, and their column checksum strips into a
// host matrix of their own. A driver that checks the panel before PD on
// the CPU sets cpuCheck, and under Full mode, when the plan runs that
// check, the rows' row-checksum pair rides along for its column rebuild
// (see rowRepair). When the host's copy of the panel is current
// (hostCurrent), nothing is staged: a fresh run's panel 0 is the input's,
// in place already, and the CPU encodes the strips from it; a restore's
// first panel and its strips are the checkpoint's.
func (p *protected) pull(k, rows int, cpuCheck bool) panelStep {
	es := p.es
	o := k * p.nb
	st := panelStep{pm: p.out.View(o, o, rows, p.nb)}
	srcs := []*hetsim.Buffer{p.local[p.owner(k)].View(o, p.localOff(k), rows, p.nb)}
	dsts := []*matrix.Dense{st.pm}
	if es.opts.Protection != NoChecksum {
		strips := rows / p.nb
		st.cm = matrix.NewDense(2*strips, p.nb)
		srcs = append(srcs, p.colChkView(k, k, k+strips))
		dsts = append(dsts, st.cm)
	}
	if cpuCheck && es.pl.beforePD && es.opts.Protection == Full {
		st.rm = matrix.NewDense(rows, 2)
		srcs = append(srcs, p.rowChkView(k, o, o+rows))
		dsts = append(dsts, st.rm)
	}
	if p.hostCurrent(k) {
		if cp := p.restored; cp != nil {
			// Each host strip is a full-height column of the checkpoint.
			for i, d := range dsts {
				m := cp.hostStrips()[i][k]
				d.CopyFrom(m.View(m.Rows*o/p.n, 0, d.Rows, d.Cols))
			}
			return st
		}
		defer es.span(obs.PhaseEncode, "encode-panel", &es.res.EncodeT)()
		p.encodeOn(es.sys.CPU(), [3]*matrix.Dense{st.pm, st.cm, st.rm})
		return st
	}
	es.sys.Checkpoint(srcs, dsts)
	return st
}

// checkPanel opens the memory-fault window of PD over the CPU-staged panel
// of step k and, when the plan checks the panel before PD, verifies it
// against its checksum strips on the CPU, repairing what it can (under
// Full mode a column left unlocalizable, e.g. by an on-chip row-panel
// fault an earlier TMU consumed, is rebuilt from the pulled row-checksum
// pair), and counts the panel's blocks. It returns the corrected
// elements.
func (p *protected) checkPanel(k int, st *panelStep) []correctedElem {
	es := p.es
	es.injectMem(k, fault.PD, st.pdRegions(k, p.nb))
	if !es.pl.beforePD || es.opts.Protection == NoChecksum {
		return nil
	}
	out, fixed := p.verifyRepair(colAxis, es.sys.CPU().Workers(), st.pm, st.cm, st.rowRepair(p.nb))
	if out == repairFailed {
		es.res.Unrecoverable = true
	}
	es.res.Counter.PDBefore += st.pm.Rows / p.nb
	return fixed
}

// rowRepair returns the stuck-column callback of the check before PD: a
// column left unlocalizable (e.g. by an on-chip row-panel fault an earlier
// TMU consumed) is rebuilt in place from the pulled row-checksum pair. It
// is nil when pull staged no pair.
func (st *panelStep) rowRepair(nb int) func(col int) bool {
	if st.rm == nil {
		return nil
	}
	return func(col int) bool {
		checksum.ReconstructColumn(st.pm, nb, st.rm, col, 0, st.pm.Rows)
		return true
	}
}

// send ships the host matrix src into the device buffer dst: a staging of
// one copy, reliable and under the fail-stop gates like any other.
func (es *engineSys) send(src *matrix.Dense, dst *hetsim.Buffer) {
	es.sys.Restore([]*matrix.Dense{src}, []*hetsim.Buffer{dst})
}

// pdRegions are the PD fault targets of step k: the CPU-staged panel is
// both the reference and the update part.
func (st *panelStep) pdRegions(k, nb int) []fault.Region {
	o := k * nb
	return []fault.Region{
		{Part: fault.ReferencePart, M: st.pm, Row0: o, Col0: o},
		{Part: fault.UpdatePart, M: st.pm, Row0: o, Col0: o},
	}
}

// factorPanel runs PD on the CPU-staged panel of step k under the one-shot
// local restart: snapshot the panel and its checksums, open the on-chip
// window, run the kernel, open the computation window, and — when the plan
// checks PD on the CPU — count the panel's blocks as verified and call
// check, which returns the mismatches it found (snap and snapChk are the
// clean input). A kernel error or a mismatch restores the snapshot and
// retries once (injected faults fire only once, so the retry is clean); a
// second failure marks the run unrecoverable, or returns the kernel's
// error. A panel that comes through gets its checksums re-encoded: the
// stored factor becomes the certified content, which the host-held output
// keeps to the end of the run (pull staged the panel there).
func (p *protected) factorPanel(k int, st *panelStep, run func() error, check func(snap, snapChk *matrix.Dense) int) error {
	es := p.es
	chk := es.opts.Protection != NoChecksum
	regs := st.pdRegions(k, p.nb)
	snap := st.pm.Clone()
	var snapChk *matrix.Dense
	if chk {
		snapChk = st.cm.Clone()
	}
	onChip := es.injectOnChip(k, fault.PD, regs)
	for attempt := 0; ; attempt++ {
		onChip.Apply()
		err := run()
		onChip.Undo()
		onChip = nil
		es.injectComp(k, fault.PD, regs, nil)
		ok := err == nil
		if ok && es.pl.afterPDCPU && chk {
			es.res.Counter.PDAfter += st.pm.Rows / p.nb
			if bad := check(snap, snapChk); bad > 0 {
				ok = false
				es.res.Detected = true
				es.res.Counter.DetectedErrors += bad
			}
		}
		if ok {
			break
		}
		if attempt >= 1 {
			if err != nil {
				return err
			}
			es.res.Unrecoverable = true
			break
		}
		st.pm.CopyFrom(snap)
		if chk {
			st.cm.CopyFrom(snapChk)
		}
		es.res.Counter.LocalRestarts++
	}
	if chk {
		p.encodeColInto(es.sys.CPU().Workers(), st.pm, st.cm)
	}
	return nil
}

// commitPanel writes the certified CPU panel of step k (rows k·nb.., all
// its strips) back into its owner's storage and broadcasts it, with its
// checksums, to every live GPU's stage inside one communication-fault
// window, for the trailing update and the later steps to read: the host
// keeps the panel for the factor, so the last step commits nothing. leg,
// when set, ships GPU g's extra operands after its panel legs. The owner
// fills its stage from its own storage with device-local copies after
// every leg is issued: a serial GPU kernel waits for every copy into a GPU
// issued before it, so copying between legs would hold the next GPU's
// legs back until the writeback landed. Under the plan's post-broadcast
// check the stages are verified (§VII.C, see checkBroadcast); when only
// some legs were corrupted, the owner's copy may have taken the hit on the
// writeback leg too, and is repaired from the certified source.
func (p *protected) commitPanel(k int, st *panelStep, leg func(g int)) {
	es := p.es
	nb := p.nb
	o := k * nb
	gk := p.owner(k)
	gdev := es.sys.GPU(gk)
	m := p.n - o
	strips := p.nbr - k
	chk := es.opts.Protection != NoChecksum
	panelDev := p.local[gk].View(o, p.localOff(k), m, nb)
	st.stages = p.allocStages(m, strips, nb)
	broadcast := func() {
		es.withCommContext(k, fault.PD, o, o, func() {
			// Writeback into the owner's authoritative storage first.
			es.send(st.pm, panelDev)
			if chk {
				es.send(st.cm, p.colChkView(k, k, p.nbr))
			}
			for g := range st.stages {
				if !p.gpuLive(g) {
					continue
				}
				if g != gk {
					es.send(st.pm, st.stages[g].data)
					if chk {
						es.send(st.cm, st.stages[g].chk)
					}
				}
				if leg != nil {
					leg(g)
				}
			}
			copyWithin(gdev, panelDev, st.stages[gk].data)
			if chk {
				copyWithin(gdev, p.colChkView(k, k, p.nbr), st.stages[gk].chk)
			}
		})
	}
	broadcast()
	if !es.pl.afterPDBcast || !chk {
		return
	}
	resend := func(g stagePair) {
		es.send(st.pm, g.data)
		es.send(st.cm, g.chk)
	}
	if p.checkBroadcast(st.stages, &es.res.Counter.PDAfter, strips, resend, broadcast) {
		gc := p.colChkView(k, k, p.nbr)
		if out, _ := p.verifyRepair(colAxis, gdev.Workers(), panelDev.Access(gdev), gc.Access(gdev), nil); out == repairFailed {
			es.send(st.pm, panelDev)
			es.send(st.cm, gc)
			es.res.Counter.Rebroadcasts++
		}
	}
}

// checkBroadcast verifies the received stages of a panel broadcast,
// adding strips blocks per stage to counter, and applies §VII.C:
// corruption on every live GPU implicates the sender, so the step restarts
// locally (restart redoes the sender's work and the broadcast); corruption
// on some GPUs implicates PCIe, so the legs the ladder could not repair in
// place are shipped again (resend ships the panel and its checksums into
// one stage). It reports the PCIe case.
func (p *protected) checkBroadcast(stages []stagePair, counter *int, strips int, resend func(stagePair), restart func()) bool {
	outs, corrupted := p.verifyStages(stages, counter, strips)
	if live := p.liveGPUs(); corrupted == live && live > 1 {
		p.es.res.Counter.LocalRestarts++
		restart()
		return false
	}
	if corrupted == 0 {
		return false
	}
	for g := range stages {
		if outs[g] == repairFailed {
			resend(stages[g])
			p.es.res.Counter.Rebroadcasts++
		}
	}
	return true
}

// tmuStep is what the trailing-update bracket needs from one ladder step:
// the TMU fault regions, the step's staging state (the staged panels TMU
// reads and its fault windows) and the panels' checksum strip count, the
// first trailing row, and the decomposition's §VII.B heuristic check over
// one slice (see checksStage).
type tmuStep struct {
	regs      []fault.Region
	step      *panelStep
	strips    int
	rlo       int
	heuristic func(sel tmuSel)
}

// tmuOpen opens step k's trailing update: the memory-fault window, the
// plan's pre-TMU verification, and the on-chip window, whose corruption
// the step keeps for the slices that load it (see sliceOnChip).
func (p *protected) tmuOpen(k int, t tmuStep) {
	es := p.es
	chk := es.opts.Protection != NoChecksum
	es.injectMem(k, fault.TMU, t.regs)
	if es.pl.beforeTMUPanels && chk {
		_, _ = p.verifyStages(t.step.stages, &es.res.Counter.TMUBefore, t.strips)
	}
	if es.pl.beforeTMUTrailing && chk {
		p.checkTrailing(t.rlo, k, tmuAll, &es.res.Counter.TMUBefore)
	}
	t.step.onChip = es.injectOnChip(k, fault.TMU, t.regs)
}

// tmuClose closes slice sel of step k's trailing update, right after that
// slice ran: the computation-fault window, the plan's post-TMU
// verification or §VII.B heuristic, and the periodic trailing check, over
// the slice's columns. The look-ahead slice closes before the rest
// launches, so the look-ahead column is struck, checked and repaired
// before panel k+1 is factored, as in the serial schedule. A computation
// fault aimed at a column the rest has not updated yet waits on the step
// until the rest closes.
func (p *protected) tmuClose(k int, t tmuStep, sel tmuSel) {
	es := p.es
	chk := es.opts.Protection != NoChecksum
	st := t.step
	ready := func(tg fault.Target) bool { return p.reads(k, faultGPU, sel, tg) }
	st.comp = append(st.comp, es.injectComp(k, fault.TMU, t.regs, ready)...)
	if sel != tmuLookahead {
		es.strike(st.comp)
		st.comp = nil
	}
	if es.pl.afterTMUTrailing && chk {
		p.checkTrailing(t.rlo, k, sel, &es.res.Counter.TMUAfter)
	}
	if es.pl.afterTMUHeuristic && chk {
		t.heuristic(sel)
	}
	if every := es.opts.PeriodicTrailingCheck; every > 0 && (k+1)%every == 0 && chk {
		p.checkTrailing(t.rlo, k, sel, &es.res.Counter.TMUAfter)
	}
}

// faultGPU is the GPU whose memory the PU and TMU fault regions expose
// (the drivers' region builders read GPU 0's stage and trailing columns).
const faultGPU = 0

// reads reports whether GPU g's slice sel of step k's trailing update
// loads the element t of a TMU fault region targets: GPU faultGPU's panel
// stage (columns of block k) is loaded by each of its slices, and one of
// its trailing columns only by the slice that updates it.
func (p *protected) reads(k, g int, sel tmuSel, t fault.Target) bool {
	if g != faultGPU {
		return false
	}
	if t.Region.Col0 < (k+1)*p.nb {
		return true
	}
	lb := p.trailStart(g, k+1) + t.J/p.nb
	lo, hi := p.tmuRange(g, k, sel)
	return lo <= lb && lb < hi
}

// checksStage reports whether the §VII.B heuristic closing slice sel of
// step k re-verifies GPU g's stage. The look-ahead column's owner checks
// its stage with the look-ahead slice: that column feeds panel k+1, and a
// stage repaired there is clean when the owner's remaining slice loads
// it. Every other GPU checks with the rest.
func (p *protected) checksStage(k, g int, sel tmuSel) bool {
	switch sel {
	case tmuLookahead:
		return g == p.owner(k+1)
	case tmuRest:
		return g != p.owner(k+1)
	}
	return true
}

// sliceOnChip returns the part of step k's on-chip corruption oc that GPU
// g's slice sel loads.
func (p *protected) sliceOnChip(k, g int, sel tmuSel, oc fault.OnChip) fault.OnChip {
	var out fault.OnChip
	for _, f := range oc {
		if p.reads(k, g, sel, f.Target) {
			out = append(out, f)
		}
	}
	return out
}

// checkTrailing verifies and repairs slice sel of step k's trailing region
// (rows >= rlo), adds the verified blocks to counter, and marks the run
// unrecoverable when the repair fails.
func (p *protected) checkTrailing(rlo, k int, sel tmuSel, counter *int) {
	worst, blocks := p.verifyTrailingCol(rlo, k, sel)
	*counter += blocks
	if worst == repairFailed {
		p.es.res.Unrecoverable = true
	}
}
