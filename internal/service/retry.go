package service

import "time"

// RetryPolicy governs the service's reaction to retryable attempt
// failures: the complete-restart bucket of the paper's outcome taxonomy
// (§X.B) and, since the fail-stop layer, device loss/hang/timeout aborts.
// The protected factorizations repair what they can online (Corrected,
// LocalRestarted — both count as success here, with the recovery recorded
// in the report); what they cannot repair they detect and surrender to the
// application. This policy is that application-level answer, and since the
// checkpoint layer (ftla.Config.CheckpointEvery) each retry it grants
// takes one of two forms, counted apart as Stats.Restarts and
// Stats.Resumed:
//
//   - resume (preferred): when the job holds a known-clean checkpoint and
//     the previous result is not silently corrupt, the retry restores that
//     snapshot onto the (possibly degraded) platform and replays only the
//     steps after it;
//   - restart: without a usable checkpoint — none taken yet, the previous
//     run finished silently corrupt (its checkpoints cannot be trusted),
//     or a resume attempt itself failed — the retry reruns from scratch.
//
// Either way the retry runs on a fresh injector-free pooled system, on the
// model that soft errors are transients that will not strike the rerun —
// and that a lost device will not haunt the rebuilt, degraded system the
// pool hands to the retry. MaxAttempts, Backoff, and the job's deadline
// budget apply identically to both forms.
type RetryPolicy struct {
	// MaxAttempts caps total factorization runs per job, first attempt
	// included (default 3; minimum 1).
	MaxAttempts int
	// BaseBackoff is the nominal delay before the first retry; each
	// further retry doubles it, capped at MaxBackoff (defaults 5ms /
	// 250ms). The actual sleep is jittered — see Backoff. A zero-ish
	// simulated workload retries almost immediately; real deployments size
	// these to their fault environment.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// DefaultRetryPolicy is the policy Scheduler uses when Config.Retry is the
// zero value.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 250 * time.Millisecond}
}

// normalize fills the unset fields from DefaultRetryPolicy; a MaxBackoff
// below BaseBackoff takes the default cap, raised to BaseBackoff if need be.
func (p RetryPolicy) normalize() RetryPolicy {
	def := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = def.BaseBackoff
	}
	if p.MaxBackoff < p.BaseBackoff {
		p.MaxBackoff = max(def.MaxBackoff, p.BaseBackoff)
	}
	return p
}

// Backoff returns the jittered delay before retry number retryIdx
// (1-based: the delay between attempt 1 and attempt 2 is Backoff(1, ·)).
// The nominal delay doubles per retry from BaseBackoff, capped at
// MaxBackoff; the returned delay applies full ±50% jitter around that
// envelope — jitter is a uniform variate in [0, 1), and the result is
// envelope × (0.5 + jitter). Without jitter, every job killed by the same
// shared-pool event retries at the same instant and thunders the herd
// right back into the queue; the caller supplies the variate (the
// Scheduler draws from a seedable source, so tests stay deterministic).
// Out-of-range jitter is clamped into [0, 1).
func (p RetryPolicy) Backoff(retryIdx int, jitter float64) time.Duration {
	if retryIdx < 1 {
		retryIdx = 1
	}
	d := p.BaseBackoff
	for i := 1; i < retryIdx; i++ {
		d *= 2
		if d >= p.MaxBackoff {
			d = p.MaxBackoff
			break
		}
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if jitter < 0 {
		jitter = 0
	} else if jitter >= 1 {
		jitter = 1 - 1e-9
	}
	return time.Duration(float64(d) * (0.5 + jitter))
}
