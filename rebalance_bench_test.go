// Dynamic-partitioning makespan study: how much of the makespan inflation
// a 4x straggler causes does the rebalancer claw back? The measurements
// use the simulated clock, which is host-independent and bit-reproducible
// under both schedules, so TestRebalanceMakespanGate gates on them in
// check.sh while BenchmarkRebalance regenerates BENCH_rebalance.json.
package ftla

import (
	"testing"
	"time"

	"ftla/internal/hetsim"
)

// rebBenchN/rebBenchNB shape the study: a trailing-update-dominated run
// (16 ladder steps over 3 GPUs) where one device's share of each step is
// large enough that slowing it 4x inflates every step to its pace. The
// platform dials the nominal GPU rate down so the run is compute-bound at
// this (wall-clock-friendly) order — the regime the rebalancer targets;
// at the default 1000 Gflops a n=384 run is >99% PCIe time and no work
// split could change its makespan.
const (
	rebBenchN      = 512
	rebBenchNB     = 32
	rebBenchGPUs   = 3
	rebBenchGflops = 1
	rebSlowdown    = 4
	rebEvery       = 1
)

func rebBenchSystem() *hetsim.Config {
	sc := hetsim.DefaultConfig(rebBenchGPUs)
	sc.GPUGflops = rebBenchGflops
	return &sc
}

func rebBenchInput(decomp string) *Matrix {
	switch decomp {
	case "cholesky":
		return RandomSPD(rebBenchN, 71)
	case "lu":
		return RandomDiagDominant(rebBenchN, 72)
	default:
		return Random(rebBenchN, rebBenchN, 73)
	}
}

// runRebCase runs one decomposition and returns the simulated makespan.
// straggle arms a 4x straggler on GPU1 from the first operation; dynamic
// turns the rebalancer on.
func runRebCase(t testing.TB, decomp string, straggle, dynamic bool) (mk float64, moved int) {
	t.Helper()
	cfg := Config{GPUs: rebBenchGPUs, NB: rebBenchNB, Lookahead: 1, System: rebBenchSystem()}
	if straggle {
		cfg.FailStop = map[int]FailStopPlan{1: {Mode: FailStraggler, Slowdown: rebSlowdown}}
	}
	if dynamic {
		cfg.RebalanceEvery = rebEvery
	}
	sys := NewSystem(cfg)
	rep, err := runOn(sys, decomp, rebBenchInput(decomp), cfg)
	if err != nil {
		t.Fatalf("%s (straggle=%v dynamic=%v): %v", decomp, straggle, dynamic, err)
	}
	return sys.TimelineMakespan(), rep.MovedColumns
}

// runOn factorizes a on the caller's system as the one-matrix batch of
// decomp ("cholesky", "lu" or "qr") and returns the run's report.
func runOn(sys *hetsim.System, decomp string, a *Matrix, cfg Config) (*Report, error) {
	as := []*Matrix{a}
	var rep *Report
	var errs []error
	var err error
	switch decomp {
	case "cholesky":
		var rs []*CholeskyResult
		if rs, errs, err = CholeskyBatchOn(sys, as, cfg); err == nil && errs[0] == nil {
			rep = rs[0].Report
		}
	case "lu":
		var rs []*LUResult
		if rs, errs, err = LUBatchOn(sys, as, cfg); err == nil && errs[0] == nil {
			rep = rs[0].Report
		}
	default:
		var rs []*QRResult
		if rs, errs, err = QRBatchOn(sys, as, cfg); err == nil && errs[0] == nil {
			rep = rs[0].Report
		}
	}
	if err == nil {
		err = errs[0]
	}
	return rep, err
}

// rebBenchRow is one BENCH_rebalance.json record.
type rebBenchRow struct {
	Decomp        string  `json:"decomp"`
	N             int     `json:"n"`
	NB            int     `json:"nb"`
	GPUs          int     `json:"gpus"`
	Slowdown      int     `json:"straggler_slowdown"`
	StaticClean   float64 `json:"static_clean_sim_seconds"`
	StaticSlow    float64 `json:"static_straggler_sim_seconds"`
	DynamicSlow   float64 `json:"rebalance_straggler_sim_seconds"`
	MovedColumns  int     `json:"moved_columns"`
	RecoveredFrac float64 `json:"recovered_inflation_fraction"`
	WallSeconds   float64 `json:"wall_seconds"`
}

// collectRebRows measures the three-way comparison per decomposition.
func collectRebRows(t testing.TB) []rebBenchRow {
	rows := make([]rebBenchRow, 0, 3)
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		t0 := time.Now()
		clean, _ := runRebCase(t, decomp, false, false)
		slow, _ := runRebCase(t, decomp, true, false)
		dyn, moved := runRebCase(t, decomp, true, true)
		row := rebBenchRow{
			Decomp: decomp, N: rebBenchN, NB: rebBenchNB, GPUs: rebBenchGPUs,
			Slowdown:    rebSlowdown,
			StaticClean: clean, StaticSlow: slow, DynamicSlow: dyn,
			MovedColumns: moved,
			WallSeconds:  time.Since(t0).Seconds(),
		}
		if slow > clean {
			row.RecoveredFrac = (slow - dyn) / (slow - clean)
		}
		rows = append(rows, row)
	}
	return rows
}

// BenchmarkRebalance regenerates BENCH_rebalance.json: simulated makespans
// of static-clean / static-straggler / rebalance-straggler runs per
// decomposition, with the recovered fraction of the straggler-induced
// inflation.
func BenchmarkRebalance(b *testing.B) {
	var rows []rebBenchRow
	for i := 0; i < b.N; i++ {
		rows = collectRebRows(b)
	}
	writeBenchJSON(b, "BENCH_rebalance.json", rows)
	for _, r := range rows {
		b.ReportMetric(r.RecoveredFrac, r.Decomp+"-recovered-frac")
	}
}

// TestRebalanceMakespanGate is the check.sh acceptance gate on dynamic
// partitioning: with one of three GPUs strangled 4x, turning the
// rebalancer on must recover at least 40% of the straggler-induced
// makespan inflation for every decomposition, and must actually migrate
// columns doing it. The simulated clock makes the assertion exact and
// host-independent.
func TestRebalanceMakespanGate(t *testing.T) {
	rows := collectRebRows(t)
	for _, r := range rows {
		if r.StaticSlow <= r.StaticClean {
			t.Fatalf("%s: straggler did not inflate the makespan (%.4f vs %.4f)",
				r.Decomp, r.StaticSlow, r.StaticClean)
		}
		if r.MovedColumns == 0 {
			t.Fatalf("%s: rebalancer moved no columns under a 4x straggler", r.Decomp)
		}
		if r.RecoveredFrac < 0.40 {
			t.Fatalf("%s: recovered only %.0f%% of the straggler inflation (clean %.4fs, straggler %.4fs, rebalanced %.4fs); gate is 40%%",
				r.Decomp, 100*r.RecoveredFrac, r.StaticClean, r.StaticSlow, r.DynamicSlow)
		}
		t.Logf("%s: recovered %.0f%% (clean %.4fs → straggler %.4fs → rebalanced %.4fs, %d columns moved)",
			r.Decomp, 100*r.RecoveredFrac, r.StaticClean, r.StaticSlow, r.DynamicSlow, r.MovedColumns)
	}
}
