package service

import (
	"context"
	"time"

	"ftla"
)

// runBatch drives one coalesced dispatch: hs are same-key jobs (see
// JobSpec.batchKey) gathered by the worker. The dispatch makes exactly one
// batched attempt for the jobs that need a factorization — per-item cache
// hits and expired contexts are settled first — and fans the per-item
// outcomes back out. Isolation is per item throughout: a job whose item
// corrupted (DetectedCorrupt, or a silent corruption caught by the
// residual check), errored, or whose whole batch attempt failed falls back
// to the solo retry path alone, with the batch attempt counted in its
// attempt budget; its batchmates keep their completed results.
func (s *Scheduler) runBatch(hs []*JobHandle) {
	size := len(hs)
	dispatch := time.Now()
	s.met.batchDispatches.Inc()
	s.met.batchSize.Observe(float64(size))
	s.met.batchCoalesced.Add(uint64(size))
	for _, h := range hs {
		h.coalesced = size
	}

	// Settle jobs that need no batched run: expired contexts finish
	// canceled, cache hits are served per item — the partial-cache path
	// that lets a coalesced batch run only its uncached items.
	var run []*JobHandle
	var keys []fingerprint
	for _, h := range hs {
		if err := h.ctx.Err(); err != nil {
			s.met.canceled.Inc()
			h.finish(nil, err)
			continue
		}
		var key fingerprint
		if !h.spec.NoCache {
			key = fingerprintOf(h.spec.Decomp, h.spec.A)
			if f, ok := s.cache.get(key); ok {
				s.settle(h, &JobResult{Factors: f, Attempts: h.prior, CacheHit: true, Wait: dispatch.Sub(h.enqueued)}, dispatch)
				continue
			}
		}
		run = append(run, h)
		keys = append(keys, key)
	}
	if len(run) == 0 {
		return
	}

	facts, errs, batchErr := s.runDecompositionBatch(run)
	if batchErr != nil {
		// The whole dispatch failed (an aborted attempt, or options the
		// batched drivers reject): every item retries solo, the batch
		// attempt counted against its budget.
		for _, h := range run {
			s.fallbackSolo(h)
		}
		return
	}
	for i, h := range run {
		switch {
		case errs[i] != nil:
			// Per-item driver error: the item is excluded; batchmates are
			// already factored. Retry it alone.
			s.fallbackSolo(h)
		case needsRestart(facts[i].Outcome):
			// The item's run is in the complete-restart bucket. Only this
			// item restarts — the per-item retry-isolation contract.
			s.fallbackSolo(h)
		default:
			if !h.spec.NoCache {
				s.cache.put(keys[i], facts[i])
			}
			s.settle(h, &JobResult{Factors: facts[i], Attempts: h.prior + 1, Wait: dispatch.Sub(h.enqueued)}, dispatch)
		}
	}
}

// runDecompositionBatch executes the one batched attempt for the uncached
// jobs of a dispatch and classifies each item's outcome from its report
// plus the service's residual check. The per-item error slice is parallel
// to run; a non-nil batch-level error voids the whole attempt.
func (s *Scheduler) runDecompositionBatch(run []*JobHandle) ([]*Factorization, []error, error) {
	lead := run[0].spec
	cfg := lead.Config.Effective()
	// Injection is per item in the batched drivers; the shared Config must
	// not carry the leader's injector.
	cfg.Injector = nil
	as := make([]*ftla.Matrix, len(run))
	injs := make([]*ftla.Injector, len(run))
	anyInj := false
	for i, h := range run {
		as[i] = h.spec.A
		injs[i] = h.spec.Config.Injector
		anyInj = anyInj || injs[i] != nil
	}
	if !anyInj {
		injs = nil
	}

	actx, acancel := context.Background(), context.CancelFunc(func() {})
	if s.cfg.AttemptTimeout > 0 {
		actx, acancel = context.WithTimeout(context.Background(), s.cfg.AttemptTimeout)
	}
	defer acancel()
	sys := s.pool.acquire(cfg.SystemConfig())
	sys.Bind(actx)

	facts := make([]*Factorization, len(run))
	var errs []error
	var err error
	switch lead.Decomp {
	case Cholesky:
		var rs []*ftla.CholeskyResult
		rs, errs, err = ftla.CholeskyBatchOn(sys, as, cfg, injs...)
		for i, r := range rs {
			facts[i] = &Factorization{Chol: r}
		}
	case LU:
		var rs []*ftla.LUResult
		rs, errs, err = ftla.LUBatchOn(sys, as, cfg, injs...)
		for i, r := range rs {
			facts[i] = &Factorization{LU: r}
		}
	default:
		var rs []*ftla.QRResult
		rs, errs, err = ftla.QRBatchOn(sys, as, cfg, injs...)
		for i, r := range rs {
			facts[i] = &Factorization{QR: r}
		}
	}
	s.pool.release(sys)
	if err != nil {
		return nil, nil, err
	}
	for i, h := range run {
		if errs[i] != nil {
			facts[i] = nil
			continue
		}
		facts[i].Decomp = lead.Decomp
		facts[i].classify(as[i], h.spec.tol())
	}
	return facts, errs, nil
}

// fallbackSolo retries one batch item alone on the ordinary solo path,
// charging the failed batch attempt to the job's budget and to the retry
// counters (a restart: the item reruns from scratch). The injector is
// stripped, exactly as the solo retry loop strips it for attempts beyond
// the first — the batch attempt was attempt one, and its transient is
// assumed not to recur.
func (s *Scheduler) fallbackSolo(h *JobHandle) {
	s.met.retries.Inc()
	s.met.restarts.Inc()
	h.prior++
	h.spec.Config.Injector = nil
	s.run(h)
}
