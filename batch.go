package ftla

import (
	"fmt"

	"ftla/internal/core"
	"ftla/internal/fault"
	"ftla/internal/hetsim"
)

// Batched decomposition API.
//
// CholeskyBatch, LUBatch, and QRBatch factorize many small same-shape
// matrices in one dispatch: each item is distributed straight from the
// caller's matrix, and the step scheduler sweeps every item per stage, so
// each step's panel pulls and broadcasts share one transfer-coalescing
// window for the entire batch instead of paying the per-transfer latency
// once per job. The inputs are read, never modified. Each item's arithmetic
// is bit-identical to a solo run of the same matrix under the same Config
// (the batch pin tests assert this), so batching is purely a throughput
// decision.
//
// The *BatchOn variants run on a caller-provided simulated system instead
// of constructing a fresh one — the amortization hook for serving layers
// that pool systems across jobs (cfg.System/cfg.GPUs are ignored; the
// caller picked the platform, and hands in a clean system, see
// hetsim.System.Reset). A batch of one matrix is a solo run and takes
// every Config option, so it is also how such a layer runs a lone job.
//
// Errors come back at two levels: the per-item slice errs (item i failed —
// its result slot is nil — while its siblings completed), and the
// batch-level err for problems that void the whole dispatch (invalid or
// unsupported options, nil or mismatched shapes, a fail-stop abort or a
// node loss the run could not absorb). A batch of two or more matrices
// rejects the Config options that are inherently per-run — those
// Config.ValidateBatch names, and Config.Injector — because they cannot be
// shared across a batch; fault injection is instead per item via the
// optional injs arguments on the *BatchOn variants, under the batch's
// schedule like a solo run's.

// injSlice adapts the variadic per-item injector argument: absent means no
// injection anywhere, otherwise it must name every item (nil entries mean
// "no injection for this item").
func injSlice(injs []*Injector, count int) ([]*fault.Injector, error) {
	if len(injs) == 0 {
		return nil, nil
	}
	if len(injs) != count {
		return nil, fmt.Errorf("ftla: %d injectors for %d batch items (pass one per item, nil for none)", len(injs), count)
	}
	return injs, nil
}

// CholeskyBatch computes the protected Cholesky factorization of every
// matrix in as — all symmetric positive definite, all the same order — in
// one batched dispatch. results[i] and errs[i] are item i's outcome
// (exactly one is non-nil); a non-nil err voids the whole batch and both
// slices are nil.
func CholeskyBatch(as []*Matrix, cfg Config) (results []*CholeskyResult, errs []error, err error) {
	sys, err := newSystem(cfg)
	if err != nil {
		return nil, nil, err
	}
	return CholeskyBatchOn(sys, as, cfg)
}

// CholeskyBatchOn is CholeskyBatch on a caller-provided simulated system,
// with optional per-item fault injectors: pass either no injs at all, or
// exactly one per item (nil entries inject nothing).
func CholeskyBatchOn(sys *hetsim.System, as []*Matrix, cfg Config, injs ...*Injector) (results []*CholeskyResult, errs []error, err error) {
	is, err := injSlice(injs, len(as))
	if err != nil {
		return nil, nil, err
	}
	outs, ress, errs, err := core.CholeskyBatch(sys, as, cfg, is)
	if err != nil {
		return nil, nil, err
	}
	results = make([]*CholeskyResult, len(as))
	for i := range outs {
		if errs[i] == nil {
			results[i] = &CholeskyResult{L: outs[i], Report: ress[i]}
		}
	}
	return results, errs, nil
}

// LUBatch computes the protected LU factorization with partial pivoting of
// every matrix in as in one batched dispatch; see CholeskyBatch for the
// per-item/batch-level error contract.
func LUBatch(as []*Matrix, cfg Config) (results []*LUResult, errs []error, err error) {
	sys, err := newSystem(cfg)
	if err != nil {
		return nil, nil, err
	}
	return LUBatchOn(sys, as, cfg)
}

// LUBatchOn is LUBatch on a caller-provided simulated system, with
// optional per-item fault injectors; see CholeskyBatchOn.
func LUBatchOn(sys *hetsim.System, as []*Matrix, cfg Config, injs ...*Injector) (results []*LUResult, errs []error, err error) {
	is, err := injSlice(injs, len(as))
	if err != nil {
		return nil, nil, err
	}
	outs, pivs, ress, errs, err := core.LUBatch(sys, as, cfg, is)
	if err != nil {
		return nil, nil, err
	}
	results = make([]*LUResult, len(as))
	for i := range outs {
		if errs[i] == nil {
			results[i] = &LUResult{Factors: outs[i], Pivots: pivs[i], Report: ress[i]}
		}
	}
	return results, errs, nil
}

// QRBatch computes the protected Householder QR factorization of every
// matrix in as in one batched dispatch; see CholeskyBatch for the
// per-item/batch-level error contract.
func QRBatch(as []*Matrix, cfg Config) (results []*QRResult, errs []error, err error) {
	sys, err := newSystem(cfg)
	if err != nil {
		return nil, nil, err
	}
	return QRBatchOn(sys, as, cfg)
}

// QRBatchOn is QRBatch on a caller-provided simulated system, with
// optional per-item fault injectors; see CholeskyBatchOn.
func QRBatchOn(sys *hetsim.System, as []*Matrix, cfg Config, injs ...*Injector) (results []*QRResult, errs []error, err error) {
	is, err := injSlice(injs, len(as))
	if err != nil {
		return nil, nil, err
	}
	outs, taus, ress, errs, err := core.QRBatch(sys, as, cfg, is)
	if err != nil {
		return nil, nil, err
	}
	results = make([]*QRResult, len(as))
	for i := range outs {
		if errs[i] == nil {
			results[i] = &QRResult{Factors: outs[i], Tau: taus[i], Report: ress[i]}
		}
	}
	return results, errs, nil
}
