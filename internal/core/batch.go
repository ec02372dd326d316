package core

import (
	"fmt"

	"ftla/internal/fault"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
)

// Batched drivers.
//
// CholeskyBatch, LUBatch, and QRBatch factorize many same-order matrices
// in one pass over the ladder. A batch runs through the one body every
// driver shares (factorize), of which a solo run is the batch of one: each
// item's protected layout is distributed straight from the caller's
// matrix, and runLadder sweeps each stage of step k across the live items
// before the next stage begins. runLadder runs the panel factor, panel
// commit, and panel update stages — the ones that move panels over PCIe —
// inside one hetsim transfer-coalescing window each
// (System.CoalesceTransfers), so a batch pays each link's fixed
// per-transfer latency once per stage for all of its items — the batched
// analogue of a strided cudaMemcpy — which is where the serving layer's
// jobs/sec win over solo dispatch comes from (see BENCH_batch.json). The
// distribution and the gather of all items run in one more window each,
// around the items' stagings; a staging is already one message per link,
// so a batch of one is a solo run on the simulated clock too.
//
// Per-item semantics:
//
//   - Arithmetic is bit-identical to a solo run of the same item: each
//     item executes exactly the per-item ladder code of the solo driver on
//     disjoint buffers; items interact only through the shared simulated
//     clock. The batch bit-identity tests pin this across decompositions,
//     schedules, and GPU counts.
//   - Failure is isolated: an item whose driver errors (a failed panel
//     factorization) is dropped from the later sweeps while its siblings
//     run to completion; the per-item error slice reports it. Only a
//     fail-stop abort — rejected from batch options precisely for this
//     reason — would take the whole dispatch down.
//   - Fault injection is per item (the injs argument), under the
//     batch's schedule like any other item.
//   - The per-run options Options.ValidateBatch names, and a shared
//     Options.Injector, are rejected up front in a run of more than one
//     item; a run of one item takes every option, which is how the solo
//     drivers (Cholesky, LU, QR) run.
//
// Result caveats: Wall, SimMakespan, PCIeBytes, and Flops on a batched
// item's Result describe the whole batch dispatch (the clock and counters
// are system-wide), not the item alone; the verification/recovery counters
// and outcome fields are per item as usual.

// validateRun rejects inputs and option combinations a run on a system
// of the given node count does not support: the items must be non-nil,
// square, and of one order that the Effective opts accept, and injs must
// name every item when set. A run of more than one item must also pass
// Options.ValidateBatch and carry its injectors per item, not in a shared
// opts.Injector.
func validateRun(as []*matrix.Dense, opts Options, nodes int, injs []*fault.Injector) error {
	if len(as) == 0 {
		return fmt.Errorf("core: no matrices to factorize")
	}
	for i, a := range as {
		switch {
		case a == nil:
			return fmt.Errorf("core: item %d is nil", i)
		case a.Rows != a.Cols:
			return fmt.Errorf("core: item %d is %dx%d, want square", i, a.Rows, a.Cols)
		case a.Rows != as[0].Rows:
			return fmt.Errorf("core: item %d has order %d, want %d (all items share one order)", i, a.Rows, as[0].Rows)
		}
	}
	if err := opts.validate(as[0].Rows, nodes); err != nil {
		return err
	}
	if injs != nil && len(injs) != len(as) {
		return fmt.Errorf("core: %d injectors for %d items", len(injs), len(as))
	}
	if len(as) == 1 {
		return nil
	}
	if opts.Injector != nil {
		return fmt.Errorf("core: batched runs take per-item injectors, not a shared Injector")
	}
	return opts.ValidateBatch()
}

// CholeskyBatch factorizes every matrix in as — read, not modified — with
// the protected blocked Cholesky driver in one batched dispatch (see the
// batched-driver comment at the top of this file). It returns the per-item
// gathered factors, reports, and errors — outs[i]/ress[i] are nil when
// errs[i] is set — plus a batch-level error for invalid inputs or options,
// or a fail-stop abort or node loss the run could not absorb, which voids
// the whole dispatch.
func CholeskyBatch(sys *hetsim.System, as []*matrix.Dense, opts Options, injs []*fault.Injector) (outs []*matrix.Dense, ress []*Result, errs []error, err error) {
	outs, _, ress, errs, err = factorize("Cholesky", sys, as, opts, injs, newCholLadder)
	return outs, ress, errs, err
}

// LUBatch is CholeskyBatch for the protected LU driver; pivs[i] is item
// i's pivot sequence.
func LUBatch(sys *hetsim.System, as []*matrix.Dense, opts Options, injs []*fault.Injector) (outs []*matrix.Dense, pivs [][]int, ress []*Result, errs []error, err error) {
	outs, ps, ress, errs, err := factorize("LU", sys, as, opts, injs, newLULadder)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	pivs = make([][]int, len(ps))
	for i, p := range ps {
		if p != nil {
			pivs[i] = p.piv
		}
	}
	return outs, pivs, ress, errs, nil
}

// QRBatch is CholeskyBatch for the protected Householder QR driver;
// taus[i] is item i's reflector coefficients.
func QRBatch(sys *hetsim.System, as []*matrix.Dense, opts Options, injs []*fault.Injector) (outs []*matrix.Dense, taus [][]float64, ress []*Result, errs []error, err error) {
	outs, ps, ress, errs, err := factorize("QR", sys, as, opts, injs, newQRLadder)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	taus = make([][]float64, len(ps))
	for i, p := range ps {
		if p != nil {
			taus[i] = p.tau
		}
	}
	return outs, taus, ress, errs, nil
}
