package service

import (
	"sync"

	"ftla/internal/hetsim"
)

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
// Every attempt's system takes that one path, whatever its outcome: Reset
// revives lost devices and links and disarms every fault plan (modeling
// node repair), so a system whose attempt aborted on a fail-stop fault is
// as good as new once released and rejoins the shelf at once.
type systemPool struct {
	mu   sync.Mutex
	idle map[hetsim.Config][]*hetsim.System

	met     *metrics           // created/reused land in the scheduler registry
	devSecs map[string]float64 // aggregated busy seconds by device name
	mkSecs  float64            // aggregated logical makespan across released systems
}

func newSystemPool(met *metrics) *systemPool {
	return &systemPool{
		idle:    make(map[hetsim.Config][]*hetsim.System),
		met:     met,
		devSecs: make(map[string]float64),
	}
}

// acquire returns a clean system for the platform: an idle one, else a
// fresh construction.
func (p *systemPool) acquire(cfg hetsim.Config) *hetsim.System {
	p.mu.Lock()
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

// release returns a system whose job attempt ended, however it ended: its
// device utilization and logical makespan are folded into the pool
// aggregate (refreshing the ftla_device_utilization gauges), it is Reset
// (detaching per-run attachments — tracer, bound context, fault plans,
// transfer hooks — and reviving lost devices), and it is shelved for reuse
// (or dropped if the shelf is full).
func (p *systemPool) release(sys *hetsim.System) {
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
	cfg := sys.Config()
	if q := p.idle[cfg]; len(q) < poolMaxIdle {
		p.idle[cfg] = append(q, sys)
	}
	p.mu.Unlock()
	for name, u := range util {
		p.met.deviceUtil.With(name).Set(u)
	}
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
