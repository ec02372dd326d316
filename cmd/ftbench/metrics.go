package main

import (
	"strings"
	"time"

	"ftla/internal/obs"
)

// sample is one timed operation of a measured phase.
type sample struct {
	latency time.Duration // due → done
	run     time.Duration // execution: the library call, or JobResult.Run
	sim     float64       // simulated makespan in seconds, a batched dispatch's split over its jobs; 0 for a cache hit, which factors nothing
	checked int           // blocks the ABFT layer verified
	group   string        // identical runs share a group; "" when the run has no twin
}

// summarize fills sim_ms_per_job and the timing percentiles. The simulated
// clock is the bounded timing: the wall-clock percentiles move with the
// neighbours of a shared host (see the package documentation) and are
// bench.* diagnostics.
func summarize(res *childResult, samples []sample) {
	var lat, run []float64
	var sim float64
	factored := 0
	for _, s := range samples {
		lat = append(lat, msOf(s.latency))
		run = append(run, msOf(s.run))
		if s.sim > 0 {
			sim += 1e3 * s.sim
			factored++
		}
	}
	res.Samples = len(samples)
	res.BeyondP90 = beyond(lat, 0.9)
	res.E2E["sim_ms_per_job"] = ratio(sim, float64(factored))
	L := res.Layers
	L["bench.factor_ms_p50"] = median(run)
	L["bench.factor_ms_p90"] = quantile(run, 0.9)
	L["bench.latency_ms_p50"] = median(lat)
	L["bench.latency_ms_p90"] = quantile(lat, 0.9)
	L["bench.latency_ms_p99"] = quantile(lat, 0.99)
}

// layerCounters derives the per-job layer metrics from the obs snapshot
// diff over a measured phase of jobs jobs.
func layerCounters(res *childResult, d obs.Snapshot, samples []sample, jobs int) {
	per := func(v float64) float64 { return ratio(v, float64(jobs)) }
	c := func(name string) float64 {
		var total uint64
		for k, v := range d.Counters {
			if k == name || strings.HasPrefix(k, name+"{") {
				total += v
			}
		}
		return float64(total)
	}
	enc, ver := d.PhaseSeconds(obs.PhaseEncode), d.PhaseSeconds(obs.PhaseVerify)
	rec, fac := d.PhaseSeconds(obs.PhaseRecover), d.PhaseSeconds(obs.PhaseFactorize)
	checked := 0
	for _, s := range samples {
		checked += s.checked
	}
	L := res.Layers
	L["blas.flops_per_job"] = per(c(obs.MetricBlasFlops))
	L["checksum.encode_ms_per_job"] = per(1e3 * enc)
	L["checksum.verify_ms_per_job"] = per(1e3 * ver)
	L["checksum.recover_ms_per_job"] = per(1e3 * rec)
	L["checksum.abft_share"] = ratio(enc+ver+rec, enc+ver+rec+fac)
	L["checksum.blocks_verified_per_job"] = per(float64(checked))
	L["checksum.mismatches_per_job"] = per(c(obs.MetricChecksumMismatches))
	L["gf.parity_bytes_per_job"] = per(c(obs.MetricParityBytes))
	L["hetsim.pcie_bytes_per_job"] = per(c(obs.MetricPCIeBytes))
	L["hetsim.transfers_per_job"] = per(c(obs.MetricPCIeTransfers))
	L["hetsim.internode_bytes_per_job"] = per(c(obs.MetricInternodeBytes))
	L["hetsim.pcie_sim_ms_per_job"] = per(1e3 * d.PhaseSeconds(obs.PhasePCIe))
	L["hetsim.retransmits_per_job"] = per(c(obs.MetricTransferRetransmits))
	L["hetsim.sim_spread_rel"] = simSpread(samples)
	L["core.factorize_ms_per_job"] = per(1e3 * fac)
	L["core.reconstructions_per_job"] = per(c(obs.MetricReconstructions))
	L["core.checkpoints_per_job"] = per(c(obs.MetricCheckpoints))
	L["core.rollbacks_per_job"] = per(c(obs.MetricRollbacks))
}

// simSpread is the largest (max−min)/min of the simulated makespan over a
// group of identical runs: a deterministic simulated clock reads 0.
func simSpread(samples []sample) float64 {
	lo, hi := map[string]float64{}, map[string]float64{}
	for _, s := range samples {
		if s.group == "" {
			continue
		}
		if v, ok := lo[s.group]; !ok || s.sim < v {
			lo[s.group] = s.sim
		}
		if s.sim > hi[s.group] {
			hi[s.group] = s.sim
		}
	}
	spread := 0.0
	for g, l := range lo {
		if r := (hi[g] - l) / l; r > spread {
			spread = r
		}
	}
	return spread
}
