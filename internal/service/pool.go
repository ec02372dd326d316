package service

import (
	"sync"

	"ftla/internal/hetsim"
)

// poolProbeAfter is the pool circuit breaker's probation interval: how
// many acquires on a platform must pass between probation probes. After
// that many grants, the next acquire re-admits one quarantined system
// (repaired by Reset) instead of an idle one.
const poolProbeAfter = 8

// poolMaxIdle bounds the idle systems the pool retains per platform, so a
// burst of heterogeneous configs cannot pin memory forever.
const poolMaxIdle = 4

// systemPool reuses hetsim.System instances across jobs, keyed by platform
// configuration (jobs may request different GPU counts or speeds). A
// released system has its device-utilization harvested into the pool's
// aggregate, is Reset to a like-new state, and becomes available to the
// next job on the same platform; the per-job cost of simulator construction
// is paid only on pool misses.
//
// The pool is also the service's circuit breaker for fail-stop faults. A
// system whose job aborted with a device loss is quarantined immediately.
// Quarantined systems are held out of circulation, counted by the ftla_pool_quarantined gauge, and
// re-admitted on probation: every poolProbeAfter acquires on the same
// platform, one quarantined system is repaired (Reset — which revives lost
// simulated devices, modeling node repair) and handed out as the probe. A
// probe that fails again goes straight back to quarantine.
type systemPool struct {
	mu   sync.Mutex
	idle map[hetsim.Config][]*hetsim.System

	met     *metrics           // created/reused land in the scheduler registry
	devSecs map[string]float64 // aggregated busy seconds by device name
	mkSecs  float64            // aggregated logical makespan across released systems

	// Circuit-breaker state.
	quar   map[hetsim.Config][]*hetsim.System // held-out systems per platform
	grants map[hetsim.Config]int              // acquires since the last probe
}

func newSystemPool(met *metrics) *systemPool {
	return &systemPool{
		idle:    make(map[hetsim.Config][]*hetsim.System),
		met:     met,
		devSecs: make(map[string]float64),
		quar:    make(map[hetsim.Config][]*hetsim.System),
		grants:  make(map[hetsim.Config]int),
	}
}

// acquire returns a clean system for the platform: a probation probe when
// one is due, else an idle system, else a fresh construction.
func (p *systemPool) acquire(cfg hetsim.Config) *hetsim.System {
	p.mu.Lock()
	p.grants[cfg]++
	if q := p.quar[cfg]; len(q) > 0 && p.grants[cfg] > poolProbeAfter {
		sys := q[len(q)-1]
		p.quar[cfg] = q[:len(q)-1]
		p.grants[cfg] = 0
		p.mu.Unlock()
		p.met.quarantined.Add(-1)
		p.met.sysReused.Inc()
		sys.Reset() // repair: revives lost devices, clears armed plans
		return sys
	}
	if q := p.idle[cfg]; len(q) > 0 {
		sys := q[len(q)-1]
		p.idle[cfg] = q[:len(q)-1]
		p.mu.Unlock()
		p.met.sysReused.Inc()
		return sys
	}
	p.mu.Unlock()
	p.met.sysCreated.Inc()
	return hetsim.New(cfg)
}

// release returns a system whose job attempt ended without a device
// fault: utilization is harvested and the system shelved for reuse (or
// dropped if the shelf is full).
func (p *systemPool) release(sys *hetsim.System) {
	p.harvest(sys)
	p.mu.Lock()
	p.shelveLocked(sys)
	p.mu.Unlock()
}

// quarantine holds a system out of circulation immediately — the reaction
// to a fail-stop device fault, where reuse without repair is unsafe.
func (p *systemPool) quarantine(sys *hetsim.System) {
	p.harvest(sys)
	p.mu.Lock()
	p.quarLocked(sys)
	p.mu.Unlock()
	p.met.quarantined.Add(1)
}

// harvest folds the system's device utilization and logical makespan into
// the pool aggregate, refreshes the ftla_device_utilization gauges, and
// Resets the system (detaching per-run attachments: tracer, bound context,
// fault plans, transfer hooks).
func (p *systemPool) harvest(sys *hetsim.System) {
	stats := sys.Utilization()
	mk := sys.TimelineMakespan()
	sys.Reset()
	p.mu.Lock()
	for _, st := range stats {
		p.devSecs[st.Name] += st.SimSecs
	}
	p.mkSecs += mk
	util := make(map[string]float64, len(p.devSecs))
	if p.mkSecs > 0 {
		for name, secs := range p.devSecs {
			util[name] = secs / p.mkSecs
		}
	}
	p.mu.Unlock()
	for name, u := range util {
		p.met.deviceUtil.With(name).Set(u)
	}
}

// shelveLocked parks a system on the idle shelf; callers hold p.mu.
func (p *systemPool) shelveLocked(sys *hetsim.System) {
	cfg := sys.Config()
	if q := p.idle[cfg]; len(q) < poolMaxIdle {
		p.idle[cfg] = append(q, sys)
	}
}

// quarLocked parks a system on the quarantine list and restarts the
// platform's probation clock, so the breaker stays open for a full
// poolProbeAfter grants from the quarantine event; callers hold p.mu and
// update the gauge after unlocking.
func (p *systemPool) quarLocked(sys *hetsim.System) {
	cfg := sys.Config()
	p.quar[cfg] = append(p.quar[cfg], sys)
	p.grants[cfg] = 0
}

// quarantined reports the number of systems currently held out.
func (p *systemPool) quarantined() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, q := range p.quar {
		n += len(q)
	}
	return n
}

// utilization snapshots the aggregated per-device busy seconds (including
// one row per GPU PCIe link), with shares of the total and overlap
// utilizations against the aggregated logical makespan — the fleet-wide
// equivalent of hetsim.System.Utilization.
func (p *systemPool) utilization() []hetsim.DeviceStat {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.devSecs))
	for name := range p.devSecs {
		names = append(names, name)
	}
	// Stable order: CPU, GPUs by name, PCIe last (lexical order happens to
	// give CPU < GPUn < PCIe, which reads naturally).
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	out := make([]hetsim.DeviceStat, 0, len(names))
	total := 0.0
	for _, name := range names {
		out = append(out, hetsim.DeviceStat{Name: name, SimSecs: p.devSecs[name]})
		total += p.devSecs[name]
	}
	if total > 0 {
		for i := range out {
			out[i].Share = out[i].SimSecs / total
		}
	}
	if p.mkSecs > 0 {
		for i := range out {
			out[i].Util = out[i].SimSecs / p.mkSecs
		}
	}
	return out
}
