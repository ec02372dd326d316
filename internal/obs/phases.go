package obs

import "time"

// Canonical metric names shared by the instrumented packages and their
// consumers (the server's /metrics, internal/overhead, bench_test.go).
const (
	// MetricPhaseSeconds is the phase-attribution histogram family
	// (label "phase", values Phases, unit seconds; the pcie phase is on
	// the simulated clock).
	MetricPhaseSeconds = "ftla_phase_seconds"
	// MetricBlasFlops is the process-wide flop tally maintained by
	// internal/blas.
	MetricBlasFlops = "ftla_blas_flops_total"
	// MetricPCIeBytes is the total simulated PCIe traffic in bytes.
	MetricPCIeBytes = "ftla_pcie_bytes_total"
	// MetricPCIeTransfers counts simulated PCIe transfers.
	MetricPCIeTransfers = "ftla_pcie_transfers_total"
	// MetricChecksumEncodes counts checksum-encoding kernel invocations
	// (label "kernel": gemm or opt).
	MetricChecksumEncodes = "ftla_checksum_encodes_total"
	// MetricChecksumMismatches counts checksum verification mismatches
	// (detected error locations, pre-recovery).
	MetricChecksumMismatches = "ftla_checksum_mismatches_total"
	// MetricFactorizations counts completed factorization runs (label
	// "decomp": cholesky, lu, qr).
	MetricFactorizations = "ftla_factorizations_total"
	// MetricCheckpoints counts verified-state checkpoints taken by the
	// step runtime (Options.CheckpointEvery > 0).
	MetricCheckpoints = "ftla_checkpoints_total"
	// MetricRollbacks counts mid-run rollbacks to the last checkpoint
	// (uncorrectable corruption replayed instead of aborting).
	MetricRollbacks = "ftla_rollbacks_total"
	// MetricRollbackDepth is the histogram of rollback depth: how many
	// ladder steps a rollback discarded (distance from the failing step
	// back to the checkpointed one, in steps).
	MetricRollbackDepth = "ftla_rollback_depth_steps"
	// MetricRebalances counts applied work repartitionings: rebalance
	// rounds that migrated at least one trailing block column between
	// GPUs (Options.RebalanceEvery > 0).
	MetricRebalances = "ftla_rebalance_total"
	// MetricRebalanceMoved counts block columns migrated between GPUs by
	// the rebalancer, checksum strips riding along.
	MetricRebalanceMoved = "ftla_rebalance_moved_columns"
	// MetricDeviceShare is the per-device gauge family (label "device") of
	// each GPU's share of the remaining trailing block columns as of the
	// latest rebalance decision, in [0, 1].
	MetricDeviceShare = "ftla_device_share"
	// MetricTransferRetransmits counts PCIe retransmissions issued by the
	// reliable-transfer protocol after a detected drop or checksum
	// mismatch.
	MetricTransferRetransmits = "ftla_transfer_retransmits_total"
	// MetricLinkFaults counts armed link faults that fired (label "mode":
	// corrupt, drop, flap, degrade).
	MetricLinkFaults = "ftla_link_faults_total"
	// MetricCheckpointIntegrityFailures counts checkpoints rejected at
	// resume or rollback because their content checksum no longer matched
	// (a tampered or corrupted snapshot is never replayed).
	MetricCheckpointIntegrityFailures = "ftla_checkpoint_integrity_failures_total"
	// MetricNodeLost counts whole-node losses fired by armed node fault
	// plans (label "node": the lost node's index).
	MetricNodeLost = "ftla_node_lost_total"
	// MetricReconstructions counts lost-node block columns rebuilt from
	// erasure-coded parity, with no checkpoint involved (labels "node": the
	// node whose columns were reconstructed; "spent"/"remaining": how much
	// of the configured redundancy the cluster has consumed / still holds
	// after the rebuild — remaining is the minimum surviving parity count
	// across groups).
	MetricReconstructions = "ftla_reconstructions_total"
	// MetricParityBytes counts the bytes shipped by the erasure-coded
	// redundancy layer: parity encode/refresh traffic, reconstruction
	// shipments, and migration-driven parity re-encodes. A subset of
	// MetricInternodeBytes by the placement invariant (member→parity
	// shipments cross nodes by construction).
	MetricParityBytes = "ftla_parity_bytes_total"
	// MetricRebalanceParityReencodes counts parity columns re-homed and
	// re-encoded by the rebalancer's parity-aware migration protocol (a
	// member migrated onto a node that held one of its group's parities, so
	// the parity moved to the donor's node).
	MetricRebalanceParityReencodes = "ftla_rebalance_parity_reencodes_total"
	// MetricInternodeBytes is the total simulated inter-node interconnect
	// traffic in bytes (transfers whose endpoints live on different nodes;
	// intra-node traffic stays in MetricPCIeBytes, which counts both tiers).
	MetricInternodeBytes = "ftla_internode_bytes_total"
)

// phaseHist holds the per-phase histograms of the default registry,
// pre-resolved so the hot path is map-free.
var phaseHist = func() map[string]*Histogram {
	f := Default().family(MetricPhaseSeconds,
		"ABFT phase attribution: seconds spent per phase (encode/factorize/verify/recover wall-clock, pcie simulated).",
		kindHistogram, "phase", normBuckets(PhaseBuckets()))
	m := make(map[string]*Histogram, 5)
	for _, p := range Phases() {
		m[p] = f.with(p, func() any { return newHistogram(f.buckets) }).(*Histogram)
	}
	return m
}()

// PhaseBuckets returns the bucket bounds of the phase histogram: 10µs to
// ~30s, two buckets per decade — phase segments are short (one
// verification, one encode pass), so the range starts well below the
// latency default.
func PhaseBuckets() []float64 {
	return ExpBuckets(1e-5, 3.1622776601683795, 13)
}

// BatchSizeBuckets returns the bucket bounds for batch-size histograms
// (power-of-two sizes 1..128): coalescing schedulers batch in doublings,
// so exponential buckets resolve every interesting size exactly.
func BatchSizeBuckets() []float64 {
	return ExpBuckets(1, 2, 8)
}

// ObservePhase records d of work attributed to phase in the default
// registry. Unknown phases are dropped rather than minted, keeping the
// label set closed.
func ObservePhase(phase string, d time.Duration) {
	if h, ok := phaseHist[phase]; ok {
		h.Observe(d.Seconds())
	}
}

// ObservePhaseSeconds is ObservePhase for already-converted simulated
// seconds (the pcie phase advances on the simulated clock, which never
// materializes as a time.Duration).
func ObservePhaseSeconds(phase string, secs float64) {
	if h, ok := phaseHist[phase]; ok {
		h.Observe(secs)
	}
}

// PhaseSeconds returns the summed seconds attributed to phase in the
// snapshot (typically a Diff), zero when the phase never fired.
func (s Snapshot) PhaseSeconds(phase string) float64 {
	return s.Histograms[Key(MetricPhaseSeconds, "phase", phase)].Sum
}
