package core

import (
	"fmt"
	"sort"
	"time"

	"ftla/internal/hetsim"
)

// The step runtime.
//
// All three decompositions iterate the same right-looking ladder: factor a
// panel, commit (write back + broadcast) it, update the panel's row/column
// complement, then apply the trailing-matrix update — with verification
// and fault-injection windows woven between the stages by the checking
// scheme. The drivers express one iteration as the typed stages of the
// ladder interface; runLadder owns the schedule. A run is a list of
// items, one ladder each over its own protected layout — a solo run is a
// batch of one — and every stage of a step sweeps the live items before
// the next stage begins. A driver error drops its item alone; the run
// stops once no item is live.
//
// Two schedules exist. The serial schedule (Options.Lookahead <= 0)
// executes the stages of step k strictly in order before starting step
// k+1 — the legacy behavior, and the baseline the paper's overhead curves
// assume. The look-ahead schedule (Lookahead >= 1) reproduces MAGMA's
// hybrid pipelining: after step k's TMU has updated the *look-ahead
// column* (the panel of step k+1) synchronously and closed that column's
// fault window and checks, the rest of the trailing update is launched
// onto per-GPU hetsim streams and the CPU pulls and factorizes panel k+1
// while the GPUs are still updating. The runtime then joins the streams,
// finishes step k's verification, and step k+1 begins at its pivot
// stage. A step whose checkpoint is due joins before panel k+1 is
// factored, so the snapshot and its verdict never see step k+1.
//
// Why results are bit-identical: the trailing update is split by columns,
// and every kernel accumulates each output element sequentially along the
// contraction dimension, so computing the look-ahead column in a separate
// call produces the very floats the full-width call would (see
// blas.GemmP). The look-ahead panel factorization reads only data the
// synchronous look-ahead TMU already wrote (the panel column, its column-
// checksum strips, and its row-checksum pair), which the launched
// remainder never touches — the element sets are disjoint by the block
// layout.
//
// Injection windows are the same in both schedules (DESIGN.md §8): every
// window draws on the coordinating goroutine when its stage is issued, and
// a window's corruption lands on the slice of the trailing update that
// loads or produces it. Fail-stop fault plans (hetsim layer) stay armed
// under overlap: a plan firing inside a launched closure is captured by
// the stream and re-raised at the join, where the driver boundary's
// RecoverAbort turns it into the same typed error the serial schedule
// produces.
//
// Concurrency discipline under overlap: launched closures run *kernels
// only* (GEMM/TRSM/transfer-free trailing updates), plus applying and
// undoing the on-chip corruption their kernels load — every Result and
// Counter mutation, every verify/repair, and every injector call happens
// on the coordinating goroutine, so the drivers need no locking.

// tmuSel selects which slice of the trailing update a tmuGPU call applies.
type tmuSel int

const (
	// tmuAll applies the whole trailing update (serial schedule).
	tmuAll tmuSel = iota
	// tmuLookahead applies only the look-ahead column — the block column
	// of step k+1, owned by one GPU.
	tmuLookahead
	// tmuRest applies everything but the look-ahead column.
	tmuRest
)

// tmuColumn selects block column bj alone, on its owner: the one-column
// slice a parity replay applies to a rebuilt column (see
// codedState.adopt).
func tmuColumn(bj int) tmuSel { return tmuRest + 1 + tmuSel(bj) }

// ladder is one item's per-iteration stage definitions: one
// decomposition's dataflow over one protected layout. Stage methods run
// on the coordinating goroutine except tmuGPU, which the look-ahead
// schedule may run inside a hetsim stream and therefore must only execute
// kernels (no counters, no verifies, no injector calls; it applies the
// on-chip corruption tmuBegin drew for its slice). ladderBase supplies
// layout, failed and the stages a decomposition may leave empty.
type ladder interface {
	// layout returns the protected layout the ladder factors.
	layout() *protected
	// panelFactor pulls panel k to the CPU, verifies it, factorizes it,
	// and re-encodes its checksums, leaving the certified factor staged
	// host-side and in the host-held output. It must not write
	// device-resident trailing state: the writeback belongs to panelCommit
	// (the look-ahead schedule runs panelFactor(k+1) while step k's
	// trailing update is in flight).
	panelFactor(k int)
	// panelPivot applies row interchanges (LU), on the GPUs and to the
	// finished columns the host holds; no-op elsewhere.
	panelPivot(k int)
	// panelCommit writes the certified panel back to its owner and
	// broadcasts it, including post-broadcast verification. Never called
	// for the last step.
	panelCommit(k int)
	// panelUpdate runs the panel-update phase (PU) and, for Cholesky, its
	// inter-GPU broadcast; no-op for QR. Never called for the last step.
	panelUpdate(k int)
	// tmuBegin opens the trailing update: fault-injection windows and the
	// scheme's pre-TMU verification.
	tmuBegin(k int)
	// tmuGPU applies GPU g's slice of the trailing update. Kernels only.
	tmuGPU(k, g int, sel tmuSel)
	// tmuFinish closes slice sel of the trailing update, right after it
	// ran: computation-fault injection, post-TMU verification, the §VII.B
	// heuristic and periodic trailing checks over the slice. Closing the
	// last slice (tmuAll or tmuRest) also releases step k's staging state.
	tmuFinish(k int, sel tmuSel)
	// failed reports a non-abort driver error (e.g. a panel factorization
	// that failed after its local restart); runLadder drops the item on
	// it.
	failed() error
}

// stageRec is one canonical journal entry: stage `name` of ladder step
// `step`. The journal is recorded in dependency (ladder) order regardless
// of schedule, so serial and look-ahead runs of the same configuration
// produce identical journals (the pipeline tests assert exactly this).
type stageRec struct {
	Step int
	Name string
}

// String renders "panel-factor[3]".
func (s stageRec) String() string { return fmt.Sprintf("%s[%d]", s.Name, s.Step) }

// Canonical stage names, in ladder-rank order. The resume stage precedes a
// step's ladder stages (a resumed run starts by restoring state for its
// first step); checkpoint and rollback trail them (both run after the
// step's verification concluded).
const (
	stageResume      = "resume"
	stageNodeLoss    = "node-loss"
	stagePanelFactor = "panel-factor"
	stageEncode      = "encode"
	stagePanelPivot  = "panel-pivot"
	stagePanelCommit = "panel-commit"
	stagePanelUpdate = "panel-update"
	stageTMUBegin    = "tmu-begin"
	stageTMU         = "tmu"
	stageTMUFinish   = "tmu-finish"
	stageParity      = "parity"
	stageCheckpoint  = "checkpoint"
	stageRollback    = "rollback"
	stageRebalance   = "rebalance"
)

// stageRank orders stages within a step for journal canonicalization.
var stageRank = map[string]int{
	stageResume:      -2,
	stageNodeLoss:    -1,
	stagePanelFactor: 0,
	stageEncode:      1,
	stagePanelPivot:  2,
	stagePanelCommit: 3,
	stagePanelUpdate: 4,
	stageTMUBegin:    5,
	stageTMU:         6,
	stageTMUFinish:   7,
	stageParity:      8,
	stageCheckpoint:  9,
	stageRollback:    10,
	stageRebalance:   11,
}

// maxRollbacksPerCheckpoint bounds how often the runtime will replay from
// the same checkpoint without making progress past it. Corruption that
// recurs deterministically on every replay would otherwise loop forever;
// after the cap the run carries its Unrecoverable verdict to completion and
// the serving layer's complete restart takes over.
const maxRollbacksPerCheckpoint = 2

// stepRuntime schedules a run's items across the simulated system: every
// stage sweeps the items still live.
type stepRuntime struct {
	// es is the engine of the run's first item, and lead its layout. The
	// items share es's system, decomposition and options (bar the
	// injector), so es carries the schedule. The run-level controls —
	// checkpoint, rollback, rebalancing and node-loss reconstruction,
	// which Options.ValidateBatch reserves for runs of one item — act on
	// lead and report on es's Result.
	es       *engineSys
	lead     *protected
	items    []ladder
	errs     []error
	depth    int
	streams  []*hetsim.Stream
	factored []bool
	journal  []stageRec

	// lastCP is the most recent known-clean checkpoint (the Resume option's
	// checkpoint until the first in-run snapshot replaces it); rollbacks
	// counts replays from it since it was taken.
	lastCP    *Checkpoint
	rollbacks int

	// reb is the dynamic repartitioner, nil unless Options.RebalanceEvery
	// is armed and the system holds at least two GPUs (see
	// initRebalance).
	reb *rebState
}

// initRebalance arms the rebalancer when the configuration allows it:
// RebalanceEvery > 0 and at least two GPUs (nothing to re-split
// otherwise). Multi-node topologies rebalance too: the parity-aware
// migration protocol (rebState.filterLegal / codedState.rehomeParity)
// keeps the erasure code's one-column-per-node-per-group placement intact
// across moves. Injection windows address the layout each stage finds.
func (rt *stepRuntime) initRebalance() {
	if rt.es.opts.RebalanceEvery <= 0 || rt.es.sys.NumGPUs() < 2 {
		return
	}
	rt.reb = newRebState(rt.lead)
}

// maybeRebalance, called after step k's verification and checkpoint
// bookkeeping, repartitions the remaining trailing columns when the
// interval says so. The stage is journaled only when columns actually
// move, so a decision that confirms the current layout leaves no trace.
func (rt *stepRuntime) maybeRebalance(k int) {
	if rt.reb == nil || (k+1)%rt.es.opts.RebalanceEvery != 0 {
		return
	}
	moves := rt.reb.plan(k)
	if len(moves) == 0 {
		return
	}
	rt.stage(k, stageRebalance, func() {
		rt.reb.apply(k, moves)
		if cs := rt.lead.coded; cs != nil {
			cs.moved(k)
		}
	})
}

// live returns the ladders of the items no driver error has dropped.
func (rt *stepRuntime) live() []ladder {
	var out []ladder
	for i, l := range rt.items {
		if rt.errs[i] == nil {
			out = append(out, l)
		}
	}
	return out
}

// drop moves each live item's driver error into the run's per-item error
// slice, so later sweeps skip the item, and reports whether no item is
// left live: one bad item never stops the others.
func (rt *stepRuntime) drop() bool {
	done := true
	for i, l := range rt.items {
		if rt.errs[i] == nil {
			rt.errs[i] = l.failed()
			done = done && rt.errs[i] != nil
		}
	}
	return done
}

// maybeParity, run after step k's verification concluded clean, verifies
// the trailing columns and, when the refresh is due, re-encodes the parity
// of every group still holding columns it has not yet covered (see
// codedState.refresh), for every live item's layout. Journaled as its own
// stage, every step, so serial and look-ahead schedules compare equal.
func (rt *stepRuntime) maybeParity(k int) {
	var due []*codedState
	for _, l := range rt.live() {
		if cs := l.layout().coded; cs != nil && !cs.exhausted() {
			due = append(due, cs)
		}
	}
	if len(due) == 0 {
		return
	}
	rt.stage(k, stageParity, func() {
		for _, cs := range due {
			cs.refresh(k)
		}
	})
}

// handleNodeLoss reacts to the node faults fired at one epoch boundary —
// possibly a simultaneous multi-node burst. When the layout carries enough
// surviving erasure redundancy, the lost columns are rebuilt from parity
// and the run continues degraded on the surviving nodes; otherwise the
// typed NodeLostError surfaces to the driver boundary (the serving layer's
// failover ladder takes over, engaging only once redundancy is truly
// spent). Counted on Result either way.
func (rt *stepRuntime) handleNodeLoss(nodes []int) error {
	es := rt.es
	es.res.NodesLost += len(nodes)
	cs := rt.lead.coded
	if cs == nil {
		gpus := 0
		for g := 0; g < es.sys.NumGPUs(); g++ {
			if es.sys.NodeOf(g) == nodes[0] {
				gpus++
			}
		}
		return &hetsim.NodeLostError{Node: nodes[0], GPUs: gpus, Op: "reconstruct"}
	}
	n, err := cs.reconstructNodes(nodes)
	if err != nil {
		return err
	}
	es.res.Reconstructions += n
	return nil
}

// overlapDepth resolves the effective look-ahead depth: the Lookahead
// option, clamped to {0, 1}.
func (es *engineSys) overlapDepth() int {
	return min(max(es.opts.Lookahead, 0), 1)
}

// runLadder runs the items' ladders, one per item of the run, under the
// configured schedule: each stage of a step sweeps the live items before
// the next stage begins. A driver error drops its item, recorded in errs,
// and the run stops once no item is live. A fail-stop abort panics
// through (after stream cleanup) to the driver boundary's RecoverAbort;
// a node loss the run cannot absorb surfaces as the returned error.
func runLadder(items []ladder, errs []error) error {
	p := items[0].layout()
	es := p.es
	rt := &stepRuntime{
		es:       es,
		lead:     p,
		items:    items,
		errs:     errs,
		depth:    es.overlapDepth(),
		factored: make([]bool, p.nbr),
	}
	defer rt.close()
	nbr := p.nbr
	start := 0
	if cp := es.opts.Resume; cp != nil {
		rt.stage(cp.NextStep, stageResume, func() { p.restoreFrom(cp) })
		rt.lastCP = cp
		start = cp.NextStep
	}
	rt.initRebalance()
	for k := start; k < nbr; k++ {
		if rt.hostStart(k) {
			// A fresh run factors panel 0 from the host's copy of the
			// input while the scatter is still in flight, and a restored
			// one its first panel from the checkpoint while the restore
			// is; only then does the layout settle on the GPUs: before
			// the first pivot or commit reads its checksums, and before a
			// node loss at this epoch is rebuilt from its parity.
			if rt.factor(k) {
				return nil
			}
			rt.stage(k, stageEncode, func() {
				for _, l := range rt.live() {
					l.layout().settle()
				}
			})
		}
		// Node-loss epoch boundary: streams are joined and device state is
		// quiescent here, so a fired whole-node fault is absorbed by
		// erasure-coded reconstruction (or surfaces as the typed error when
		// no redundancy remains) before any stage touches the dead GPUs.
		if nodes := es.sys.NodeEpoch(); len(nodes) > 0 {
			var nerr error
			rt.stage(k, stageNodeLoss, func() { nerr = rt.handleNodeLoss(nodes) })
			if nerr != nil {
				return nerr
			}
		}
		if !rt.factored[k] && rt.factor(k) {
			return nil
		}
		rt.stage(k, stagePanelPivot, rt.all(k, ladder.panelPivot))
		if k < nbr-1 {
			// The last panel stays on the host: no trailing update and no
			// gather reads a GPU copy of it.
			rt.packed(k, stagePanelCommit, ladder.panelCommit)
		}
		if rt.drop() {
			return nil
		}
		if rt.maybeRollback(&k) {
			continue
		}
		if k == nbr-1 {
			break
		}
		rt.packed(k, stagePanelUpdate, ladder.panelUpdate)
		rt.stage(k, stageTMUBegin, rt.all(k, ladder.tmuBegin))
		// The rebalancer brackets the TMU with busy-time samples. Under
		// look-ahead the bracket also holds the pull of panel k+1, whose
		// source-side Fletcher pass adds busy time to its owner GPU, so
		// decisions can differ between schedules; factor bits cannot.
		rt.reb.beginSample()
		last := tmuAll
		if rt.depth >= 1 && !rt.checkpointDue(k) {
			// Look-ahead: update and close the next panel's column
			// synchronously, launch the remainder onto per-GPU streams,
			// factorize panel k+1 on the CPU while they run, then join.
			rt.stage(k, stageTMU, func() { rt.tmu(k, tmuLookahead) })
			evs := rt.launchRest(k)
			rt.packed(k+1, stagePanelFactor, ladder.panelFactor)
			rt.factored[k+1] = true
			for _, ev := range evs {
				ev.Wait()
			}
			last = tmuRest
		} else {
			rt.stage(k, stageTMU, func() { rt.tmu(k, tmuAll) })
		}
		rt.reb.endSample(k)
		rt.stage(k, stageTMUFinish, rt.all(k, func(l ladder, k int) { l.tmuFinish(k, last) }))
		if rt.drop() {
			return nil
		}
		if rt.maybeRollback(&k) {
			continue
		}
		rt.maybeParity(k)
		rt.maybeCheckpoint(k)
		rt.maybeRebalance(k)
	}
	if es.opts.stageJournal != nil {
		*es.opts.stageJournal = rt.canonicalJournal()
	}
	return nil
}

// tmu applies slice sel of step k's trailing update on every GPU, item by
// item, and, for the look-ahead slice, closes it on every item.
func (rt *stepRuntime) tmu(k int, sel tmuSel) {
	live := rt.live()
	for g := 0; g < rt.es.sys.NumGPUs(); g++ {
		for _, l := range live {
			l.tmuGPU(k, g, sel)
		}
	}
	if sel == tmuLookahead {
		for _, l := range live {
			l.tmuFinish(k, sel)
		}
	}
}

// hostStart reports whether step k starts a pass from the host's copy
// of its panel (see protected.hostCurrent).
func (rt *stepRuntime) hostStart(k int) bool {
	for _, l := range rt.live() {
		if l.layout().hostCurrent(k) {
			return true
		}
	}
	return false
}

// factor runs step k's panel-factor stage and reports whether the
// driver errors it left dropped every item.
func (rt *stepRuntime) factor(k int) bool {
	rt.packed(k, stagePanelFactor, ladder.panelFactor)
	rt.factored[k] = true
	return rt.drop()
}

// checkpointDue reports whether the checkpoint interval falls after step
// k.
func (rt *stepRuntime) checkpointDue(k int) bool {
	every := rt.es.opts.CheckpointEvery
	return every > 0 && (k+1)%every == 0
}

// maybeCheckpoint snapshots the state after step k when the checkpoint
// interval says so and the state is trustworthy (verification has not
// declared it unrecoverable). The last step never checkpoints — runLadder's
// loop breaks before reaching here.
func (rt *stepRuntime) maybeCheckpoint(k int) {
	es := rt.es
	if !rt.checkpointDue(k) || es.res.Unrecoverable {
		return
	}
	var cp *Checkpoint
	rt.stage(k, stageCheckpoint, func() { cp = rt.lead.captureCheckpoint(k + 1) })
	rt.lastCP = cp
	rt.rollbacks = 0
	es.res.Checkpoints++
	checkpointsTotal.Inc()
	if es.opts.OnCheckpoint != nil {
		es.opts.OnCheckpoint(cp)
	}
}

// maybeRollback, called after a step's verification concluded, replays from
// the last checkpoint when that verification declared the state
// unrecoverable: the checkpointed state is known-clean, and transient
// corruption does not recur on the replay — turning the paper's
// "complete restart" bucket into a partial one. It rewrites *k so the
// caller's loop continues at the checkpointed step, and reports whether a
// rollback happened. Without a checkpoint (or once
// maxRollbacksPerCheckpoint replays made no progress) the unrecoverable
// verdict stands and the run completes as before. The driver's per-step
// staging stays as the abandoned pass left it: the replay factors each
// step's panel, which restages the step, before any stage reads it.
func (rt *stepRuntime) maybeRollback(k *int) bool {
	es := rt.es
	if !es.res.Unrecoverable || rt.lastCP == nil || rt.rollbacks >= maxRollbacksPerCheckpoint {
		return false
	}
	if err := rt.lastCP.verifyIntegrity(); err != nil {
		// The snapshot itself is damaged (tampered with, or corrupted at
		// rest): replaying it would launder garbage into a "recovered" run.
		// Drop it and let the unrecoverable verdict stand — the run
		// completes as detected-corrupt and the serving layer's complete
		// restart takes over.
		rt.lastCP = nil
		return false
	}
	cp := rt.lastCP
	rt.stage(*k, stageRollback, func() { rt.lead.restoreFrom(cp) })
	rt.rollbacks++
	es.res.Unrecoverable = false
	es.res.Rollbacks++
	rollbacksTotal.Inc()
	rollbackDepth.Observe(float64(*k + 1 - cp.NextStep))
	for i := range rt.factored {
		rt.factored[i] = false
	}
	*k = cp.NextStep - 1
	return true
}

// stage runs one coordinator-side stage: journal it, emit a wall span on
// the attached tracer, and execute.
func (rt *stepRuntime) stage(k int, name string, fn func()) {
	rt.journal = append(rt.journal, stageRec{Step: k, Name: name})
	t0 := time.Now()
	fn()
	rt.es.sys.Tracer().WallSpan(fmt.Sprintf("%s:%s[%d]", rt.es.decomp, name, k), "stage", t0, time.Since(t0))
}

// all returns ladder stage fn of step k swept over every live item.
func (rt *stepRuntime) all(k int, fn func(ladder, int)) func() {
	return func() {
		for _, l := range rt.live() {
			fn(l, k)
		}
	}
}

// packed sweeps a panel stage (factor, commit, update) inside one
// transfer-coalescing window, so the stage's back-to-back transfers on one
// link pay its latency once — what packing a panel with its checksum
// strips into one message does — and a batch's panels share the window.
// Launched TMU closures issue no transfers, so the look-ahead panel-factor
// window never captures stream traffic.
func (rt *stepRuntime) packed(k int, name string, fn func(ladder, int)) {
	rt.stage(k, name, func() { rt.es.sys.CoalesceTransfers(rt.all(k, fn)) })
}

// launchRest enqueues every live GPU's remaining trailing-update slice onto
// its stream and returns the per-stream completion events. The TMU stage
// was already journaled by the synchronous look-ahead slice. GPUs taken
// down by a node loss are skipped — their slices are empty (the
// reconstruction emptied their ownership tables) and launching on a dead
// device would abort the run the redundancy just saved.
func (rt *stepRuntime) launchRest(k int) []*hetsim.StreamEvent {
	G := rt.es.sys.NumGPUs()
	if rt.streams == nil {
		rt.streams = make([]*hetsim.Stream, G)
		for g := 0; g < G; g++ {
			rt.streams[g] = rt.es.sys.GPU(g).NewStream()
		}
	}
	live := rt.live()
	evs := make([]*hetsim.StreamEvent, 0, G)
	for g := 0; g < G; g++ {
		if rt.es.sys.GPU(g).Lost() {
			continue
		}
		g := g
		rt.streams[g].Launch("tmu-rest", func() {
			for _, l := range live {
				l.tmuGPU(k, g, tmuRest)
			}
		})
		evs = append(evs, rt.streams[g].Record())
	}
	return evs
}

// close releases the runtime's streams. It runs on every exit path —
// including a fail-stop abort unwinding to the driver boundary — so no
// executor goroutine outlives the run (aborted streams drain their queue
// without executing it).
func (rt *stepRuntime) close() {
	for _, st := range rt.streams {
		if st != nil {
			st.Close()
		}
	}
}

// canonicalJournal returns the journal sorted into dependency order:
// by step, then by ladder stage rank. The look-ahead schedule records
// panel-factor(k+1) between step k's TMU and its finish; canonicalization
// restores the ladder order so the two schedules compare equal.
func (rt *stepRuntime) canonicalJournal() []stageRec {
	out := make([]stageRec, len(rt.journal))
	copy(out, rt.journal)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Step != out[j].Step {
			return out[i].Step < out[j].Step
		}
		return stageRank[out[i].Name] < stageRank[out[j].Name]
	})
	return out
}
