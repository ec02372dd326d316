package blas

import "ftla/internal/obs"

// flopCount is a process-wide tally of floating-point operations executed
// by the BLAS kernels (and, via their internal use of these kernels, the
// checksum and LAPACK layers). It gives experiments a deterministic,
// noise-free work metric: on the simulated platform, wall-clock overhead
// percentages are hostage to scheduler jitter, while flop ratios are
// exactly reproducible.
//
// The tally lives in the obs default registry (ftla_blas_flops_total), so
// the number experiments difference between two reads is what a /metrics
// scrape reports — one source of truth, two consumers.
var flopCount = obs.Default().Counter(obs.MetricBlasFlops,
	"Floating-point operations executed by the BLAS kernels (and callers self-reporting via AddFlops).")

// AddFlops adds n floating-point operations to the global tally. Other
// packages performing substantial arithmetic outside the BLAS kernels
// (checksum encoding, reconstructions) call this to stay covered.
func AddFlops(n uint64) { flopCount.Add(n) }

// Flops returns the flops executed since process start; callers measure a
// region by differencing two reads.
func Flops() uint64 { return flopCount.Value() }
