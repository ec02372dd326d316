// Batched-serving throughput study: jobs/sec on the small-matrix mix as a
// function of batch size, the regime the batched drivers exist for. The
// measurements use the simulated clock (deterministic on any host; see
// DESIGN.md §5.9), so TestBatchThroughputGate can gate on them in check.sh
// while BenchmarkBatchThroughput regenerates BENCH_batch.json.
package ftla

import (
	"fmt"
	"testing"
	"time"
)

// batchMixN/batchMixNB shape the small-matrix mix: tiny problems where the
// fixed per-transfer PCIe latency dominates the sub-microsecond compute and
// per-job protection overhead is proportionally worst — exactly what the
// batched drivers amortize.
const (
	batchMixN      = 64
	batchMixNB     = 32
	batchMixGPUs   = 2
	batchMixPerDec = 64 // jobs per decomposition; divisible by every batch size
)

func batchMixConfig() Config {
	return Config{GPUs: batchMixGPUs, NB: batchMixNB, Protection: FullChecksum, Scheme: NewScheme}
}

// batchMixJobs builds the per-decomposition inputs of the mix, each item
// from its own seed.
func batchMixJobs(decomp string) []*Matrix {
	ms := make([]*Matrix, batchMixPerDec)
	for i := range ms {
		seed := uint64(301 + 7*i)
		switch decomp {
		case "cholesky":
			ms[i] = RandomSPD(batchMixN, seed)
		case "lu":
			ms[i] = RandomDiagDominant(batchMixN, seed)
		default:
			ms[i] = Random(batchMixN, batchMixN, seed)
		}
	}
	return ms
}

// runBatchMix pushes the whole mix (all three decompositions) through in
// batched dispatches of batchSize — a dispatch of one is the solo run —
// each on a fresh system, and returns total jobs and the summed simulated
// makespan.
func runBatchMix(t testing.TB, batchSize int) (jobs int, simSeconds float64) {
	t.Helper()
	cfg := batchMixConfig()
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		ms := batchMixJobs(decomp)
		for lo := 0; lo < len(ms); lo += batchSize {
			chunk := ms[lo : lo+batchSize]
			sys := NewSystem(cfg)
			var errs []error
			var err error
			switch decomp {
			case "cholesky":
				_, errs, err = CholeskyBatchOn(sys, chunk, cfg)
			case "lu":
				_, errs, err = LUBatchOn(sys, chunk, cfg)
			default:
				_, errs, err = QRBatchOn(sys, chunk, cfg)
			}
			for i, e := range errs {
				if e != nil {
					t.Fatalf("%s batch item %d: %v", decomp, i, e)
				}
			}
			if err != nil {
				t.Fatalf("%s chunk at %d (batch %d): %v", decomp, lo, batchSize, err)
			}
			jobs += len(chunk)
			simSeconds += sys.TimelineMakespan()
		}
	}
	return jobs, simSeconds
}

// batchBenchRow is one BENCH_batch.json record.
type batchBenchRow struct {
	BatchSize   int     `json:"batch_size"`
	Jobs        int     `json:"jobs"`
	N           int     `json:"n"`
	NB          int     `json:"nb"`
	GPUs        int     `json:"gpus"`
	SimSeconds  float64 `json:"sim_seconds"`
	JobsPerSec  float64 `json:"jobs_per_sim_sec"`
	Speedup     float64 `json:"speedup_vs_unbatched"`
	WallSeconds float64 `json:"wall_seconds"`
}

var batchSizes = []int{1, 4, 16, 64}

// collectBatchRows measures the whole sweep.
func collectBatchRows(t testing.TB) []batchBenchRow {
	rows := make([]batchBenchRow, 0, len(batchSizes))
	for _, bs := range batchSizes {
		t0 := time.Now()
		jobs, sim := runBatchMix(t, bs)
		rows = append(rows, batchBenchRow{
			BatchSize: bs, Jobs: jobs, N: batchMixN, NB: batchMixNB, GPUs: batchMixGPUs,
			SimSeconds: sim, JobsPerSec: float64(jobs) / sim,
			WallSeconds: time.Since(t0).Seconds(),
		})
	}
	for i := range rows {
		rows[i].Speedup = rows[i].JobsPerSec / rows[0].JobsPerSec
	}
	return rows
}

// BenchmarkBatchThroughput regenerates BENCH_batch.json: simulated jobs/sec
// on the small-matrix mix at batch sizes 1/4/16/64.
func BenchmarkBatchThroughput(b *testing.B) {
	var rows []batchBenchRow
	for i := 0; i < b.N; i++ {
		rows = collectBatchRows(b)
	}
	writeBenchJSON(b, "BENCH_batch.json", rows)
	for _, r := range rows {
		b.ReportMetric(r.JobsPerSec, fmt.Sprintf("jobs-per-sim-sec-b%d", r.BatchSize))
	}
}

// TestBatchThroughputGate is the check.sh acceptance gate on the batched
// subsystem: simulated jobs/sec must scale monotonically with batch size
// and reach ≥ 2× the unbatched baseline at batch 16 on the small-matrix
// mix. The simulated clock makes the assertion exact and host-independent.
func TestBatchThroughputGate(t *testing.T) {
	rows := collectBatchRows(t)
	for i := 1; i < len(rows); i++ {
		if rows[i].JobsPerSec < rows[i-1].JobsPerSec {
			t.Fatalf("jobs/sec not monotone: batch %d gives %.1f < batch %d's %.1f",
				rows[i].BatchSize, rows[i].JobsPerSec, rows[i-1].BatchSize, rows[i-1].JobsPerSec)
		}
	}
	var b1, b16 float64
	for _, r := range rows {
		switch r.BatchSize {
		case 1:
			b1 = r.JobsPerSec
		case 16:
			b16 = r.JobsPerSec
		}
	}
	if b16 < 2*b1 {
		t.Fatalf("batch-16 throughput %.1f jobs/sim-sec < 2x unbatched %.1f", b16, b1)
	}
	t.Logf("batch speedups: x4=%.2f x16=%.2f x64=%.2f",
		rows[1].Speedup, rows[2].Speedup, rows[3].Speedup)
}
