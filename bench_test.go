// Benchmarks regenerating every table and figure of the paper's
// evaluation. Run with:
//
//	go test -bench=. -benchmem .
//
// Each benchmark reports, beyond ns/op, the custom metrics that carry the
// reproduced quantity (overhead percentages, blocks verified, speedups,
// outcome probabilities), so a single bench run re-derives the paper's
// headline numbers. See EXPERIMENTS.md for the paper-vs-measured record.
package ftla

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"ftla/internal/campaign"
	"ftla/internal/checksum"
	"ftla/internal/core"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
	"ftla/internal/obs"
	"ftla/internal/overhead"
	"ftla/internal/probmodel"
	"ftla/internal/propagation"
)

// --- Table IV / V: error propagation study --------------------------------

func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := propagation.TableIV(96, 16, uint64(i)+1)
		if len(rows) != 5 {
			b.Fatal("unexpected table size")
		}
	}
}

func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(propagation.TableV()) != 6 {
			b.Fatal("unexpected table size")
		}
	}
}

// --- Table VI: verification counts per checking scheme ---------------------

func benchTableVI(b *testing.B, scheme core.Scheme, mode core.Mode) {
	const n, nb, gpus = 512, 32, 2
	var total int
	for i := 0; i < b.N; i++ {
		sys := hetsim.New(hetsim.DefaultConfig(gpus))
		a := matrix.RandomDiagDominant(n, matrix.NewRNG(1))
		_, _, res, err := core.LU(sys, a, core.Options{NB: nb, Protection: mode, Scheme: scheme, Kernel: checksum.OptKernel})
		if err != nil {
			b.Fatal(err)
		}
		total = res.Counter.TotalChecked()
	}
	b.ReportMetric(float64(total), "blocks-verified")
}

func BenchmarkTableVIPriorOp(b *testing.B) { benchTableVI(b, core.PriorOp, core.SingleSide) }
func BenchmarkTableVIPostOp(b *testing.B)  { benchTableVI(b, core.PostOp, core.Full) }
func BenchmarkTableVINewScheme(b *testing.B) {
	benchTableVI(b, core.NewScheme, core.Full)
}

// --- Table VII: overall relative overhead ----------------------------------

func benchTableVII(b *testing.B, decomp string) {
	const n, nb, gpus = 512, 32, 2
	base := runOnce(b, decomp, n, nb, gpus, core.Options{NB: nb, Protection: core.NoChecksum, Scheme: core.NoCheck})
	var prot float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prot = runOnce(b, decomp, n, nb, gpus, core.Options{NB: nb, Protection: core.Full, Scheme: core.NewScheme, Kernel: checksum.OptKernel})
	}
	b.ReportMetric(100*(prot-base)/base, "overhead-%")
}

func BenchmarkTableVIICholesky(b *testing.B) { benchTableVII(b, "cholesky") }
func BenchmarkTableVIILU(b *testing.B)       { benchTableVII(b, "lu") }
func BenchmarkTableVIIQR(b *testing.B)       { benchTableVII(b, "qr") }

// runOnce executes one factorization and returns its deterministic flop
// count — overhead ratios computed from it are exactly reproducible,
// unlike wall-clock ratios on a noisy host (see DESIGN.md §5.9).
func runOnce(b *testing.B, decomp string, n, nb, gpus int, opts core.Options) float64 {
	b.Helper()
	sys := hetsim.New(hetsim.DefaultConfig(gpus))
	rng := matrix.NewRNG(uint64(n))
	switch decomp {
	case "cholesky":
		a := matrix.RandomSPD(n, rng)
		_, res, err := core.Cholesky(sys, a, opts)
		if err != nil {
			b.Fatal(err)
		}
		return float64(res.Flops)
	case "qr":
		a := matrix.Random(n, n, rng)
		_, _, res, err := core.QR(sys, a, opts)
		if err != nil {
			b.Fatal(err)
		}
		return float64(res.Flops)
	default:
		a := matrix.RandomDiagDominant(n, rng)
		_, _, res, err := core.LU(sys, a, opts)
		if err != nil {
			b.Fatal(err)
		}
		return float64(res.Flops)
	}
}

// --- §IX phase attribution: measured breakdown from obs snapshot diffs ------

// benchPhaseBreakdown reports where a protected factorization's wall time
// goes (encode / factorize / verify / recover) using overhead.FromSnapshots,
// the phase-counter diff cmd/ftbench reads too, so bench output, ftbench's
// per-layer metrics, and /metrics scrapes all agree (OBSERVABILITY.md).
func benchPhaseBreakdown(b *testing.B, decomp string) {
	const n, nb, gpus = 256, 32, 2
	var m overhead.Measured
	for i := 0; i < b.N; i++ {
		before := obs.Default().Snapshot()
		runOnce(b, decomp, n, nb, gpus, core.Options{NB: nb, Protection: core.Full, Scheme: core.NewScheme, Kernel: checksum.OptKernel})
		m = overhead.FromSnapshots(before, obs.Default().Snapshot())
	}
	b.ReportMetric(1e3*m.Encode, "encode-ms")
	b.ReportMetric(1e3*m.Verify, "verify-ms")
	b.ReportMetric(1e3*m.Recover, "recover-ms")
	b.ReportMetric(100*m.Overhead(), "abft-%")
}

func BenchmarkPhaseBreakdownCholesky(b *testing.B) { benchPhaseBreakdown(b, "cholesky") }
func BenchmarkPhaseBreakdownLU(b *testing.B)       { benchPhaseBreakdown(b, "lu") }
func BenchmarkPhaseBreakdownQR(b *testing.B)       { benchPhaseBreakdown(b, "qr") }

// --- DESIGN.md §8: step-runtime schedules, serial vs look-ahead --------------

// lookaheadBenchRow is one BENCH_lookahead.json record: the wall and
// simulated cost of one decomposition under one schedule, with the phase
// breakdown attributed by overhead.FromSnapshots — the same phase counters
// that feed cmd/ftbench and the /metrics histograms.
type lookaheadBenchRow struct {
	Decomp      string  `json:"decomp"`
	Lookahead   int     `json:"lookahead"`
	N           int     `json:"n"`
	NB          int     `json:"nb"`
	GPUs        int     `json:"gpus"`
	WallSeconds float64 `json:"wall_seconds"`
	SimMakespan float64 `json:"sim_makespan_seconds"`
	Encode      float64 `json:"encode_seconds"`
	Factorize   float64 `json:"factorize_seconds"`
	Verify      float64 `json:"verify_seconds"`
	Recover     float64 `json:"recover_seconds"`
	PCIe        float64 `json:"pcie_sim_seconds"`
}

var lookaheadBench struct {
	sync.Mutex
	rows map[string]lookaheadBenchRow
}

// recordLookaheadRow folds one schedule measurement into
// BENCH_lookahead.json, rewriting the artifact with every row collected so
// far (sorted, so reruns diff cleanly).
func recordLookaheadRow(b *testing.B, row lookaheadBenchRow) {
	b.Helper()
	lookaheadBench.Lock()
	defer lookaheadBench.Unlock()
	if lookaheadBench.rows == nil {
		lookaheadBench.rows = map[string]lookaheadBenchRow{}
	}
	lookaheadBench.rows[fmt.Sprintf("%s/la%d", row.Decomp, row.Lookahead)] = row
	out := make([]lookaheadBenchRow, 0, len(lookaheadBench.rows))
	for _, r := range lookaheadBench.rows {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Decomp != out[j].Decomp {
			return out[i].Decomp < out[j].Decomp
		}
		return out[i].Lookahead < out[j].Lookahead
	})
	writeBenchJSON(b, "BENCH_lookahead.json", out)
}

// writeBenchJSON writes a benchmark artifact: rows as indented JSON with a
// trailing newline, so regenerated files diff cleanly. Only Benchmark*
// functions call it; the tier-1 gates assert on the same rows without
// touching the tracked artifacts.
func writeBenchJSON(tb testing.TB, name string, rows any) {
	tb.Helper()
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		tb.Fatalf("marshal %s: %v", name, err)
	}
	if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
		tb.Fatalf("write %s: %v", name, err)
	}
}

// benchLookahead measures one decomposition under one step-runtime
// schedule: wall time, simulated makespan (where the overlap shows up), and
// the wall phase breakdown.
func benchLookahead(b *testing.B, decomp string, lookahead int) {
	const n, nb, gpus = 512, 64, 2
	opts := core.Options{NB: nb, Protection: core.Full, Scheme: core.NewScheme,
		Kernel: checksum.OptKernel, Lookahead: lookahead}
	var m overhead.Measured
	var sim float64
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		before := obs.Default().Snapshot()
		sys := hetsim.New(hetsim.DefaultConfig(gpus))
		rng := matrix.NewRNG(uint64(n))
		var res *core.Result
		var err error
		switch decomp {
		case "cholesky":
			_, res, err = core.Cholesky(sys, matrix.RandomSPD(n, rng), opts)
		case "qr":
			_, _, res, err = core.QR(sys, matrix.Random(n, n, rng), opts)
		default:
			_, _, res, err = core.LU(sys, matrix.RandomDiagDominant(n, rng), opts)
		}
		if err != nil {
			b.Fatal(err)
		}
		m = overhead.FromSnapshots(before, obs.Default().Snapshot())
		sim = res.SimMakespan
	}
	wall := time.Since(t0).Seconds() / float64(b.N)
	b.ReportMetric(1e3*sim, "sim-ms")
	b.ReportMetric(1e3*m.ABFTSeconds(), "abft-ms")
	b.ReportMetric(1e3*m.Factorize, "factorize-ms")
	recordLookaheadRow(b, lookaheadBenchRow{
		Decomp: decomp, Lookahead: lookahead, N: n, NB: nb, GPUs: gpus,
		WallSeconds: wall, SimMakespan: sim,
		Encode: m.Encode, Factorize: m.Factorize, Verify: m.Verify,
		Recover: m.Recover, PCIe: m.PCIe,
	})
}

func BenchmarkLookaheadSerialCholesky(b *testing.B)  { benchLookahead(b, "cholesky", 0) }
func BenchmarkLookaheadOverlapCholesky(b *testing.B) { benchLookahead(b, "cholesky", 1) }
func BenchmarkLookaheadSerialLU(b *testing.B)        { benchLookahead(b, "lu", 0) }
func BenchmarkLookaheadOverlapLU(b *testing.B)       { benchLookahead(b, "lu", 1) }
func BenchmarkLookaheadSerialQR(b *testing.B)        { benchLookahead(b, "qr", 0) }
func BenchmarkLookaheadOverlapQR(b *testing.B)       { benchLookahead(b, "qr", 1) }

// --- Table VIII: protection-strength campaign -------------------------------

func BenchmarkTableVIII(b *testing.B) {
	cfg := campaign.DefaultConfig(campaign.LU)
	cfg.N, cfg.NB = 128, 16
	var survived, total int
	for i := 0; i < b.N; i++ {
		rows, err := campaign.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		survived, total = 0, 0
		for _, r := range rows {
			if r.Approach == "full+new" && r.Fired {
				total++
				if r.Outcome != core.CorruptedResult && r.Outcome != core.DetectedCorrupt {
					survived++
				}
			}
		}
	}
	b.ReportMetric(float64(survived), "cases-survived")
	b.ReportMetric(float64(total), "cases-total")
}

// --- Figs. 6–8 / 9–11: probability model ------------------------------------

func BenchmarkFig6to8(b *testing.B) {
	m := probmodel.PaperModel()
	var pFree float64
	for i := 0; i < b.N; i++ {
		for _, a := range probmodel.AllApproaches() {
			for _, op := range probmodel.AllOps() {
				pFree = m.Outcomes(a, op).P[probmodel.FaultFree]
			}
		}
	}
	b.ReportMetric(pFree, "p-fault-free-TMU")
}

func BenchmarkFig9to11(b *testing.B) {
	m := probmodel.PaperModel()
	rc := probmodel.DefaultCosts()
	var newCost, postCost float64
	for i := 0; i < b.N; i++ {
		newCost = m.ExpectedRecovery(probmodel.FullNew, probmodel.TMU, rc)
		postCost = m.ExpectedRecovery(probmodel.SingleSidePost, probmodel.TMU, rc)
	}
	b.ReportMetric(newCost*1e6, "new-us")
	b.ReportMetric(postCost*1e6, "single-post-us")
}

// --- Fig. 12: checksum-encoding kernels --------------------------------------

func benchFig12(b *testing.B, k checksum.Kernel, n, nb int) {
	a := matrix.Random(n, n, matrix.NewRNG(1))
	out := matrix.NewDense(checksum.ColDims(n, n, nb))
	b.SetBytes(int64(8 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checksum.EncodeCol(k, 4, a, nb, out)
	}
}

func BenchmarkFig12GEMM1024(b *testing.B) { benchFig12(b, checksum.GEMMKernel, 1024, 128) }
func BenchmarkFig12Opt1024(b *testing.B)  { benchFig12(b, checksum.OptKernel, 1024, 128) }
func BenchmarkFig12GEMM2048(b *testing.B) { benchFig12(b, checksum.GEMMKernel, 2048, 256) }
func BenchmarkFig12Opt2048(b *testing.B)  { benchFig12(b, checksum.OptKernel, 2048, 256) }

// --- Figs. 13–15: weak-scaling overhead --------------------------------------

func benchFig1315(b *testing.B, decomp string, gpus int, mode core.Mode, scheme core.Scheme, kernel checksum.Kernel) {
	const perGPU, nb = 192, 32
	n := perGPU
	for g := 2; g <= gpus; g *= 2 {
		n = n * 141 / 100 // ≈ sqrt(2) growth keeps the per-GPU footprint fixed
	}
	n = (n + nb - 1) / nb * nb
	base := runOnce(b, decomp, n, nb, gpus, core.Options{NB: nb, Protection: core.NoChecksum, Scheme: core.NoCheck})
	var prot float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prot = runOnce(b, decomp, n, nb, gpus, core.Options{NB: nb, Protection: mode, Scheme: scheme, Kernel: kernel})
	}
	b.ReportMetric(100*(prot-base)/base, "overhead-%")
}

func BenchmarkFig13Cholesky1GPU(b *testing.B) {
	benchFig1315(b, "cholesky", 1, core.Full, core.NewScheme, checksum.OptKernel)
}
func BenchmarkFig13Cholesky2GPU(b *testing.B) {
	benchFig1315(b, "cholesky", 2, core.Full, core.NewScheme, checksum.OptKernel)
}
func BenchmarkFig13Cholesky4GPU(b *testing.B) {
	benchFig1315(b, "cholesky", 4, core.Full, core.NewScheme, checksum.OptKernel)
}
func BenchmarkFig14LU1GPU(b *testing.B) {
	benchFig1315(b, "lu", 1, core.Full, core.NewScheme, checksum.OptKernel)
}
func BenchmarkFig14LU2GPU(b *testing.B) {
	benchFig1315(b, "lu", 2, core.Full, core.NewScheme, checksum.OptKernel)
}
func BenchmarkFig14LU4GPU(b *testing.B) {
	benchFig1315(b, "lu", 4, core.Full, core.NewScheme, checksum.OptKernel)
}
func BenchmarkFig15QR1GPU(b *testing.B) {
	benchFig1315(b, "qr", 1, core.Full, core.NewScheme, checksum.OptKernel)
}
func BenchmarkFig15QR2GPU(b *testing.B) {
	benchFig1315(b, "qr", 2, core.Full, core.NewScheme, checksum.OptKernel)
}
func BenchmarkFig15QR4GPU(b *testing.B) {
	benchFig1315(b, "qr", 4, core.Full, core.NewScheme, checksum.OptKernel)
}

// Ablation benches for the DESIGN.md §4 decisions.

// Ablation 1: prior-op vs post-op vs new scheme wall time (the checking
// scheme comparison behind Figs. 13–15's series).
func BenchmarkAblationSchemePrior(b *testing.B) {
	benchFig1315(b, "lu", 2, core.SingleSide, core.PriorOp, checksum.OptKernel)
}
func BenchmarkAblationSchemePost(b *testing.B) {
	benchFig1315(b, "lu", 2, core.SingleSide, core.PostOp, checksum.OptKernel)
}

// Ablation 2: the optimized encoding kernel's effect on total overhead.
func BenchmarkAblationKernelGEMM(b *testing.B) {
	benchFig1315(b, "lu", 2, core.Full, core.NewScheme, checksum.GEMMKernel)
}

// Ablation 3: single-side vs full checksum maintenance cost.
func BenchmarkAblationSingleSide(b *testing.B) {
	benchFig1315(b, "lu", 2, core.SingleSide, core.NewScheme, checksum.OptKernel)
}

// Ablation 4: block size sensitivity of the protected factorization.
func BenchmarkAblationBlockSize(b *testing.B) {
	for _, nb := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("nb%d", nb), func(b *testing.B) {
			var w float64
			for i := 0; i < b.N; i++ {
				w = runOnce(b, "lu", 384, nb, 2, core.Options{NB: nb, Protection: core.Full, Scheme: core.NewScheme, Kernel: checksum.OptKernel})
			}
			b.ReportMetric(w/1e6, "Mflops")
		})
	}
}

// Ablation 5: checksum granularity (DESIGN.md §4.1) — detection +
// localization cost of one corrupted element as the block size grows from
// fine-grained (fast localization, more checksum rows) to whole-matrix
// (one strip, as in non-blocked ABFT).
func BenchmarkAblationGranularity(b *testing.B) {
	const n = 1024
	for _, nb := range []int{32, 128, 1024} {
		b.Run(fmt.Sprintf("nb%d", nb), func(b *testing.B) {
			a := matrix.Random(n, n, matrix.NewRNG(1))
			chk := matrix.NewDense(checksum.ColDims(n, n, nb))
			checksum.EncodeCol(checksum.OptKernel, 4, a, nb, chk)
			orig := a.At(700, 300)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Set(700, 300, orig+5)
				ms := checksum.VerifyCol(4, a, nb, chk, 1e-9)
				if len(ms) != 1 {
					b.Fatalf("mismatches = %d", len(ms))
				}
				lr, ok := checksum.Locate(ms[0], nb)
				if !ok {
					b.Fatal("localization failed")
				}
				checksum.CorrectCol(a, nb, ms[0], lr)
			}
		})
	}
}
