package core

import (
	"fmt"
	"time"

	"ftla/internal/fault"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
)

// Batched drivers.
//
// CholeskyBatch, LUBatch, and QRBatch factorize many same-order matrices
// in one pass over the ladder: each item's protected layout is distributed
// straight from the caller's matrix (as a solo run's is), the per-item
// ladders are wrapped in one composite batchLadder, and runLadder — the
// same step scheduler a solo run uses — schedules it, so for each step k
// each stage sweeps across all batch items before the next stage begins.
// runLadder runs the panel factor, panel commit, and panel update stages —
// the ones that move panels over PCIe — inside one hetsim
// transfer-coalescing window each (System.CoalesceTransfers). A solo run
// pays each link's fixed per-transfer latency once per stage; a batch pays
// it once per stage for all of its items — the batched analogue of a
// strided cudaMemcpy — which is where the serving layer's jobs/sec win
// over solo dispatch comes from (see BENCH_batch.json). The distribution
// and the gather of all items run in one more window each, around the
// items' stagings; a staging is already one message per link, so a batch
// of one is a solo run on the simulated clock too. As in a solo run, each
// item's output is held from the start and takes its panels as they are
// factored, and the gather pulls only the blocks its GPUs computed.
//
// Per-item semantics:
//
//   - Arithmetic is bit-identical to a solo run of the same item: each
//     item executes exactly the per-item ladder code of the solo driver on
//     disjoint buffers; items interact only through the shared simulated
//     clock. The batch bit-identity tests pin this across decompositions,
//     schedules, and GPU counts.
//   - Failure is isolated: an item whose driver errors (a failed panel
//     factorization) is flagged and its remaining stages are skipped while
//     its siblings run to completion; the per-item error slice reports it.
//     Only a fail-stop abort — rejected from batch options precisely for
//     this reason — would take the whole dispatch down.
//   - Fault injection is per item (the injs argument), under the
//     batch's schedule like any other item.
//   - The per-run options Options.ValidateBatch names are rejected up
//     front; the serving layer's per-item fallback (retry the one bad item
//     solo) covers their role.
//
// Result caveats: Wall, SimMakespan, PCIeBytes, and Flops on a batched
// item's Result describe the whole batch dispatch (the clock and counters
// are system-wide), not the item alone; the verification/recovery counters
// and outcome fields are per item as usual.

// validateBatchOpts rejects inputs and option combinations the batched
// runners do not support: the items must be non-nil, square, and of one
// order that Options.Validate accepts (it normalizes opts.NB), and the
// options must pass Options.ValidateBatch.
func validateBatchOpts(as []*matrix.Dense, opts *Options, injs []*fault.Injector) error {
	if len(as) == 0 {
		return fmt.Errorf("core: empty batch")
	}
	for i, a := range as {
		switch {
		case a == nil:
			return fmt.Errorf("core: batch item %d is nil", i)
		case a.Rows != a.Cols:
			return fmt.Errorf("core: batch item %d is %dx%d, want square", i, a.Rows, a.Cols)
		case a.Rows != as[0].Rows:
			return fmt.Errorf("core: batch item %d has order %d, want %d (all items share one order)", i, a.Rows, as[0].Rows)
		}
	}
	if err := opts.Validate(as[0].Rows); err != nil {
		return err
	}
	if opts.Injector != nil {
		return fmt.Errorf("core: batched runs take per-item injectors, not a shared Injector")
	}
	if err := opts.ValidateBatch(); err != nil {
		return err
	}
	if injs != nil && len(injs) != len(as) {
		return fmt.Errorf("core: %d injectors for %d batch items", len(injs), len(as))
	}
	return nil
}

// batchLadder is the composite ladder of a batched dispatch: each stage
// sweeps the per-item ladders that have not failed, so runLadder schedules
// the whole batch step by step exactly as it schedules a solo run. errs is
// the dispatch's per-item error slice.
type batchLadder struct {
	nbr   int
	items []ladder
	errs  []error
}

// each runs fn on every live item.
func (bl *batchLadder) each(fn func(l ladder)) {
	for i, l := range bl.items {
		if bl.errs[i] == nil {
			fn(l)
		}
	}
}

func (bl *batchLadder) steps() int        { return bl.nbr }
func (bl *batchLadder) panelFactor(k int) { bl.each(func(l ladder) { l.panelFactor(k) }) }
func (bl *batchLadder) panelPivot(k int)  { bl.each(func(l ladder) { l.panelPivot(k) }) }
func (bl *batchLadder) panelCommit(k int) { bl.each(func(l ladder) { l.panelCommit(k) }) }
func (bl *batchLadder) panelUpdate(k int) { bl.each(func(l ladder) { l.panelUpdate(k) }) }
func (bl *batchLadder) tmuBegin(k int)    { bl.each(func(l ladder) { l.tmuBegin(k) }) }
func (bl *batchLadder) tmuGPU(k, g int, sel tmuSel) {
	bl.each(func(l ladder) { l.tmuGPU(k, g, sel) })
}
func (bl *batchLadder) tmuFinish(k int, sel tmuSel) {
	bl.each(func(l ladder) { l.tmuFinish(k, sel) })
}

// failed moves each live item's driver error into errs, dropping the item
// from later sweeps, and returns nil: one bad item never stops its
// batchmates.
func (bl *batchLadder) failed() error {
	for i, l := range bl.items {
		if bl.errs[i] == nil {
			bl.errs[i] = l.failed()
		}
	}
	return nil
}

// layouts returns the protected layout of every live item.
func (bl *batchLadder) layouts() []*protected {
	var out []*protected
	bl.each(func(l ladder) { out = append(out, l.(rebalancer).layout()) })
	return out
}

// checkpoint and resume are unreachable: validateBatchOpts rejects the
// options that would call them.
func (bl *batchLadder) checkpoint(int) *Checkpoint { panic("core: batched runs do not checkpoint") }
func (bl *batchLadder) resume(*Checkpoint)         { panic("core: batched runs do not resume") }

// runBatch is the body the batched drivers share. It validates the batch,
// builds one engine + ladder per item on the shared system inside one
// transfer-coalescing window (each item's layout holds its output), runs
// them all through runLadder as one batchLadder, and gathers into every
// surviving item's output the blocks its GPUs computed. ls[i] is item
// i's ladder, for the driver's decomposition-specific outputs; outs[i] and
// ress[i] are nil when errs[i] is set. A batch-level error reports invalid
// inputs or options, or a fail-stop abort, which voids the whole dispatch.
func runBatch(decomp string, sys *hetsim.System, as []*matrix.Dense, opts Options,
	injs []*fault.Injector, mk func(p *protected) ladder,
) (outs []*matrix.Dense, ls []ladder, ress []*Result, errs []error, err error) {
	defer func() {
		if e := hetsim.RecoverAbort(recover()); e != nil {
			outs, ls, ress, errs, err = nil, nil, nil, nil, e
		}
	}()
	start := time.Now()
	if err := validateBatchOpts(as, &opts, injs); err != nil {
		return nil, nil, nil, nil, err
	}
	if err := opts.ValidateTopology(sys.Nodes()); err != nil {
		return nil, nil, nil, nil, err
	}
	n, count := as[0].Rows, len(as)
	ps := make([]*protected, count)
	ress = make([]*Result, count)
	bl := &batchLadder{nbr: n / opts.NB, items: make([]ladder, count), errs: make([]error, count)}
	// The batch-level engine drives the schedule only; the items' engines
	// carry the per-item state.
	bes := &engineSys{decomp: decomp, sys: sys, opts: opts, res: &Result{}}
	sys.CoalesceTransfers(func() {
		for i, a := range as {
			iopts := opts
			if injs != nil && injs[i] != nil {
				iopts.Injector = injs[i]
			}
			ress[i] = newResult(sys, n, opts)
			ps[i] = newProtected(newEngine(decomp, sys, iopts, ress[i]), a)
			bl.items[i] = mk(ps[i])
		}
	})
	if err := runLadder(bes, bl); err != nil {
		return nil, nil, nil, nil, err
	}
	outs = make([]*matrix.Dense, count)
	sys.CoalesceTransfers(func() {
		for i, p := range ps {
			if bl.errs[i] != nil {
				ress[i] = nil
				continue
			}
			outs[i] = p.gather()
		}
	})
	for i, p := range ps {
		if bl.errs[i] == nil {
			p.es.finishResult(start)
		}
	}
	return outs, bl.items, ress, bl.errs, nil
}

// CholeskyBatch factorizes every matrix in as — read, not modified — with
// the protected blocked Cholesky driver in one batched dispatch (see the
// batched-driver comment at the top of this file). It returns the per-item
// gathered factors, reports, and errors — outs[i]/ress[i] are nil when
// errs[i] is set — plus a batch-level error for invalid inputs or options,
// or a fail-stop abort, which voids the whole dispatch.
func CholeskyBatch(sys *hetsim.System, as []*matrix.Dense, opts Options, injs []*fault.Injector) (outs []*matrix.Dense, ress []*Result, errs []error, err error) {
	outs, _, ress, errs, err = runBatch("cholesky", sys, as, opts, injs, newCholLadder)
	return outs, ress, errs, err
}

// LUBatch is CholeskyBatch for the protected LU driver; pivs[i] is item
// i's pivot sequence.
func LUBatch(sys *hetsim.System, as []*matrix.Dense, opts Options, injs []*fault.Injector) (outs []*matrix.Dense, pivs [][]int, ress []*Result, errs []error, err error) {
	outs, ls, ress, errs, err := runBatch("lu", sys, as, opts, injs, newLULadder)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	pivs = make([][]int, len(ls))
	for i, l := range ls {
		if errs[i] == nil {
			pivs[i] = l.(*luLadder).piv
		}
	}
	return outs, pivs, ress, errs, nil
}

// QRBatch is CholeskyBatch for the protected Householder QR driver;
// taus[i] is item i's reflector coefficients.
func QRBatch(sys *hetsim.System, as []*matrix.Dense, opts Options, injs []*fault.Injector) (outs []*matrix.Dense, taus [][]float64, ress []*Result, errs []error, err error) {
	outs, ls, ress, errs, err := runBatch("qr", sys, as, opts, injs, newQRLadder)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	taus = make([][]float64, len(ls))
	for i, l := range ls {
		if errs[i] == nil {
			taus[i] = l.(*qrLadder).tau
		}
	}
	return outs, taus, ress, errs, nil
}
