package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"ftla"
	"ftla/internal/matrix"
	"ftla/internal/service"
)

// metric names a reported value and its unit.
type metric struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees, emitted for every
// workload by an untraced run. BENCHMARK.json fixes their regression bounds.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"sim_ms_per_job", "sim_ms"},
	{"mem_mb", "MB"},
}

// perLayer lists the per-layer metrics, emitted for every workload by a
// traced run; the prefix is the module the metric measures.
var perLayer = []metric{
	{"blas.gemm_gflops", "GFLOP/s"},
	{"blas.trsm_gflops", "GFLOP/s"},
	{"blas.syrk_gflops", "GFLOP/s"},
	{"blas.flops_per_job", "flop"},
	{"lapack.panel_ms", "ms"},
	{"checksum.encode_gbps", "GB/s"},
	{"checksum.verify_gbps", "GB/s"},
	{"checksum.encode_ms_per_job", "ms"},
	{"checksum.verify_ms_per_job", "ms"},
	{"checksum.recover_ms_per_job", "ms"},
	{"checksum.abft_share", "fraction"},
	{"checksum.blocks_verified_per_job", "count"},
	{"checksum.mismatches_per_job", "count"},
	{"gf.mulword_gbps", "GB/s"},
	{"gf.parity_bytes_per_job", "B"},
	{"hetsim.transfer_us", "us"},
	{"hetsim.reliable_transfer_us", "us"},
	{"hetsim.reliable_overhead", "ratio"},
	{"hetsim.pcie_bytes_per_job", "B"},
	{"hetsim.transfers_per_job", "count"},
	{"hetsim.internode_bytes_per_job", "B"},
	{"hetsim.pcie_sim_ms_per_job", "sim_ms"},
	{"hetsim.retransmits_per_job", "count"},
	{"hetsim.sim_spread_rel", "ratio"},
	{"core.factorize_ms_per_job", "ms"},
	{"core.reconstructions_per_job", "count"},
	{"core.checkpoints_per_job", "count"},
	{"core.rollbacks_per_job", "count"},
	{"service.submit_us_p50", "us"},
	{"service.queue_ms_p50", "ms"},
	{"service.queue_ms_p90", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.run_ms_p90", "ms"},
	{"service.batch_size_mean", "count"},
	{"service.coalesced_frac", "fraction"},
	{"service.cache_hit_frac", "fraction"},
	{"service.attempts_per_job", "count"},
	{"service.resumed_frac", "fraction"},
	{"service.pool_reuse_frac", "fraction"},
	{"service.rejected", "count"},
	{"bench.gflops", "GFLOP/s"},
	{"bench.factor_ms_p50", "ms"},
	{"bench.factor_ms_p90", "ms"},
	{"bench.latency_ms_p50", "ms"},
	{"bench.latency_ms_p90", "ms"},
	{"bench.latency_ms_p99", "ms"},
	{"bench.slo_ok_frac", "fraction"},
	{"bench.jobs_per_s", "1/s"},
	{"bench.gen_late_ms_p99", "ms"},
	{"bench.gen_late_ms_max", "ms"},
	{"bench.input_gen_s", "s"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.error_rate", "fraction"},
}

// workload is one traffic mix. Names are fixed: BENCHMARK.json and
// recorded results cite them.
type workload struct {
	name, about string
	run         func(o options) (*childResult, error)
}

var workloads = []workload{
	{"factor-large", "closed loop, 1 client: ftla.{Cholesky,LU,QR} round-robin, n=768 nb=64, 2 GPUs, look-ahead",
		func(o options) (*childResult, error) { return runLibrary(o, "factor-large", factorLarge(o.tiny())) }},
	{"cluster-loss", "closed loop, 1 client: 4 GPUs on 4 nodes, r=2; each input runs clean, one node lost, two-node burst",
		func(o options) (*childResult, error) { return runLibrary(o, "cluster-loss", clusterLoss(o.tiny())) }},
	{"serve-small", "open loop, Poisson 1000 jobs/s: n=64 solves, every job factorizes (NoCache), then a saturation burst",
		func(o options) (*childResult, error) { return runService(o, "serve-small", serveSmall(o.tiny())) }},
	{"serve-faults", "open loop, Poisson 300 jobs/s: n=128 solves on hot operators with link, TMU, crash and DRAM faults, then a burst",
		func(o options) (*childResult, error) { return runService(o, "serve-faults", serveFaults(o.tiny())) }},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// libraryParams sizes a closed-loop workload that calls ftla directly.
type libraryParams struct {
	n, nb, gpus       int
	nodes, redundancy int
	inputs            int // inputs per decomposition
}

func factorLarge(tiny bool) libraryParams {
	if tiny {
		return libraryParams{n: 64, nb: 32, gpus: 2, inputs: 2}
	}
	return libraryParams{n: 768, nb: 64, gpus: 2, inputs: 4}
}

func clusterLoss(tiny bool) libraryParams {
	if tiny {
		return libraryParams{n: 64, nb: 16, gpus: 4, nodes: 4, redundancy: 2, inputs: 1}
	}
	return libraryParams{n: 512, nb: 32, gpus: 4, nodes: 4, redundancy: 2, inputs: 4}
}

// serviceParams sizes an open-loop workload against internal/service.
type serviceParams struct {
	n, nb     int
	rate      float64 // Poisson arrivals per second during the open phase
	operators int     // distinct operators per decomposition
	// faults selects the serve-faults mix: clean jobs reuse hot operators
	// through the factorization cache, beside the fault classes of
	// faultClass. Without it every job bypasses the cache (NoCache).
	faults bool
	slo    time.Duration
}

func serveSmall(tiny bool) serviceParams {
	if tiny {
		return serviceParams{n: 32, nb: 16, rate: 40, operators: 4, slo: 10 * time.Millisecond}
	}
	return serviceParams{n: 64, nb: 32, rate: 1000, operators: 128, slo: 10 * time.Millisecond}
}

func serveFaults(tiny bool) serviceParams {
	if tiny {
		return serviceParams{n: 64, nb: 16, rate: 40, operators: 2, faults: true, slo: 25 * time.Millisecond}
	}
	return serviceParams{n: 128, nb: 32, rate: 300, operators: 8, faults: true, slo: 25 * time.Millisecond}
}

// decomp is one of the three one-sided decompositions.
type decomp int

const (
	cholesky decomp = iota
	lu
	qr
)

var decomps = []decomp{cholesky, lu, qr}

func (d decomp) String() string { return [...]string{"cholesky", "lu", "qr"}[d] }

// flops is the nominal flop count of factoring an n×n input.
func (d decomp) flops(n int) float64 {
	c := float64(n) * float64(n) * float64(n) / 3
	return c * [...]float64{1, 2, 4}[d]
}

// generate builds a valid input: SPD for Cholesky, diagonally dominant for
// LU, uniform random for QR.
func (d decomp) generate(n int, seed uint64) *ftla.Matrix {
	switch d {
	case cholesky:
		return ftla.RandomSPD(n, seed)
	case lu:
		return ftla.RandomDiagDominant(n, seed)
	default:
		return ftla.Random(n, n, seed)
	}
}

func (d decomp) service() service.Decomp {
	return [...]service.Decomp{service.Cholesky, service.LU, service.QR}[d]
}

// factorization is a library result reduced to what the checks need.
type factorization struct {
	report  *ftla.Report
	factors *ftla.Matrix
	piv     []int
	tau     []float64
	solve   func([]float64) ([]float64, error)
}

// factor runs one protected decomposition through the public API.
func (d decomp) factor(a *ftla.Matrix, cfg ftla.Config) (*factorization, error) {
	switch d {
	case cholesky:
		r, err := ftla.Cholesky(a, cfg)
		if err != nil {
			return nil, err
		}
		return &factorization{report: r.Report, factors: r.L, solve: r.Solve}, nil
	case lu:
		r, err := ftla.LU(a, cfg)
		if err != nil {
			return nil, err
		}
		return &factorization{report: r.Report, factors: r.Factors, piv: r.Pivots, solve: r.Solve}, nil
	default:
		r, err := ftla.QR(a, cfg)
		if err != nil {
			return nil, err
		}
		return &factorization{report: r.Report, factors: r.Factors, tau: r.Tau, solve: r.Solve}, nil
	}
}

// hash digests the factor's bits, pivots and reflector coefficients: two
// runs agree to the bit exactly when their hashes do.
func (f *factorization) hash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for i := 0; i < f.factors.Rows; i++ {
		for _, v := range f.factors.Row(i) {
			put(math.Float64bits(v))
		}
	}
	for _, p := range f.piv {
		put(uint64(p))
	}
	for _, t := range f.tau {
		put(math.Float64bits(t))
	}
	return h.Sum64()
}

// solveTol bounds ‖A·x − b‖₂/‖b‖₂ for every solve the benchmark checks.
const solveTol = 1e-8

// solveResidual returns ‖A·x − b‖₂/‖b‖₂.
func solveResidual(a *ftla.Matrix, x, b []float64) float64 {
	var num, den float64
	for i := 0; i < a.Rows; i++ {
		s := -b[i]
		for j, v := range a.Row(i) {
			s += v * x[j]
		}
		num += s * s
		den += b[i] * b[i]
	}
	return math.Sqrt(num / den)
}

// checkSolve solves A·x = b with solve and verifies the residual.
func checkSolve(a *ftla.Matrix, b []float64, solve func([]float64) ([]float64, error)) error {
	x, err := solve(b)
	if err != nil {
		return err
	}
	if r := solveResidual(a, x, b); !(r <= solveTol) {
		return fmt.Errorf("solve residual %.3g > %g", r, solveTol)
	}
	return nil
}

// randomVector returns n uniform entries in [-1, 1), deterministic in seed.
func randomVector(n int, seed uint64) []float64 {
	rng := matrix.NewRNG(seed)
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	return b
}
