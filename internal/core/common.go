package core

import (
	"time"

	"ftla/internal/blas"
	"ftla/internal/fault"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
	"ftla/internal/obs"
)

// factorizations counts completed driver runs in the obs default registry,
// labeled by decomposition (cholesky, lu, qr).
var factorizations = obs.Default().CounterVec(obs.MetricFactorizations,
	"Completed factorization runs, labeled by decomposition.", "decomp")

// withCommContext installs the PCIe fault hook scoped to one broadcast:
// transfers executed inside body may be struck by Communication faults
// scheduled for (it, op). Outside broadcasts the hook is disarmed, matching
// the fault model (§V targets panel broadcasts). The disarm is deferred so
// a fail-stop abort unwinding out of body cannot leave the hook pending on
// a pooled system.
func (es *engineSys) withCommContext(it int, op fault.Op, row0, col0 int, body func()) {
	if es.inj == nil {
		body()
		return
	}
	es.sys.SetTransferHook(func(from, to *hetsim.Device, payload *matrix.Dense) {
		if to.Kind() != hetsim.GPU {
			return
		}
		es.inj.OnTransfer(it, op, to.ID(), payload, row0, col0)
	})
	defer es.sys.SetTransferHook(nil)
	body()
}

// copyWithin copies src into dst, both resident on dev (device-local
// staging, costing no PCIe time).
func copyWithin(dev *hetsim.Device, src, dst *hetsim.Buffer) {
	dev.Run("copy", 0, func(int) {
		dst.Access(dev).CopyFrom(src.Access(dev))
	})
}

// injectMem / injectOnChip / injectComp / strike are nil-safe injector
// wrappers.
func (es *engineSys) injectMem(it int, op fault.Op, regs []fault.Region) {
	if es.inj != nil {
		es.inj.InjectMem(it, op, regs)
	}
}

func (es *engineSys) injectOnChip(it int, op fault.Op, regs []fault.Region) fault.OnChip {
	if es.inj == nil {
		return nil
	}
	return es.inj.InjectOnChip(it, op, regs)
}

func (es *engineSys) injectComp(it int, op fault.Op, regs []fault.Region, ready func(fault.Target) bool) []fault.Target {
	if es.inj == nil {
		return nil
	}
	return es.inj.InjectComp(it, op, regs, ready)
}

func (es *engineSys) strike(ts []fault.Target) {
	if es.inj != nil {
		es.inj.Strike(ts)
	}
}

// newEngine bundles the run state for the named decomposition, snapshots
// the flop counter so the result can report the run's own work, and arms
// any fail-stop fault plans (devices) and link fault plans (PCIe links)
// of the options on the system.
func newEngine(decomp string, sys *hetsim.System, opts Options, res *Result) *engineSys {
	for id, plan := range opts.FailStop {
		switch {
		case id == -1:
			sys.ArmFault(sys.CPU(), plan)
		case id >= 0 && id < sys.NumGPUs():
			sys.ArmFault(sys.GPU(id), plan)
		}
	}
	for id, plan := range opts.LinkFault {
		if id >= 0 && id < sys.NumGPUs() {
			sys.ArmLinkFault(id, plan)
		}
	}
	for node, plan := range opts.NodeFault {
		if node >= 0 && node < sys.Nodes() {
			sys.ArmNodeFault(node, plan)
		}
	}
	return &engineSys{decomp: decomp, sys: sys, opts: opts, res: res, pl: planFor(opts.Scheme), inj: opts.Injector, startFlops: blas.Flops()}
}

// span opens a phase region and returns its closer; `defer es.span(...)()`
// is the usual shape, or keep the closer and call it once inline. The
// closer adds the elapsed wall time to acc (one of the Result phase
// accumulators), feeds the same duration to the ftla_phase_seconds
// histogram of the obs default registry, and — when an obs.Trace is
// attached to the run's system — emits a wall-clock span named name under
// the phase category. One helper keeps Result, /metrics, and /trace in
// agreement about what each phase cost.
func (es *engineSys) span(phase, name string, acc *time.Duration) func() {
	t0 := time.Now()
	return func() {
		d := time.Since(t0)
		*acc += d
		obs.ObservePhase(phase, d)
		if es.sys != nil {
			es.sys.Tracer().WallSpan(name, phase, t0, d)
		}
	}
}

// finishResult stamps the timing/traffic/work fields once a driver
// completes, attributes the non-ABFT remainder of the wall time to the
// factorize phase (wall minus encode/verify/recover, clamped at zero),
// counts the run in ftla_factorizations_total, and emits the whole-run
// span when a tracer is attached.
func (es *engineSys) finishResult(start time.Time) {
	res := es.res
	res.Wall = time.Since(start)
	res.SimMakespan = es.sys.TimelineMakespan()
	res.PCIeBytes = es.sys.BytesTransferred()
	res.InternodeBytes = es.sys.InternodeBytes()
	res.Flops = blas.Flops() - es.startFlops
	factor := res.Wall - res.EncodeT - res.VerifyT - res.RecoverT
	if factor < 0 {
		factor = 0
	}
	obs.ObservePhase(obs.PhaseFactorize, factor)
	factorizations.With(es.decomp).Inc()
	es.sys.Tracer().WallSpan(es.decomp, obs.PhaseFactorize, start, res.Wall)
}
