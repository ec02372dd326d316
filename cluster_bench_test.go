// Cluster-scaling study: what the node-aware topology costs and what the
// coded redundancy buys. For each node count the same factorization runs
// once clean and once with a whole-node loss absorbed mid-run by parity
// reconstruction; the simulated clock gives host-independent, bit-
// reproducible makespans, and the transfer accounting splits out the
// inter-node traffic the parity maintenance adds.
// BenchmarkClusterScaling regenerates BENCH_cluster.json.
package ftla

import (
	"testing"
	"time"
)

// clusterBench shapes the study: 4 GPUs spread over 1, 2, or 4 nodes, a
// compute-bound order (nominal GPU rate dialed down as in the rebalance
// study) so topology effects are visible against real work, and a slow
// inter-node interconnect so the parity traffic has a price.
const (
	clusterBenchN      = 256
	clusterBenchNB     = 32
	clusterBenchGPUs   = 4
	clusterBenchGflops = 1
)

// runClusterCase runs one Cholesky on the given topology and returns the
// simulated makespan plus the run's report. loseNode arms a whole-node
// loss two epochs in (reconstructed from parity; only valid for nodes > 1).
func runClusterCase(t testing.TB, nodes int, loseNode bool) (float64, *Report) {
	t.Helper()
	cfg := Config{GPUs: clusterBenchGPUs, NB: clusterBenchNB, Lookahead: 1, Nodes: nodes}
	if loseNode {
		cfg.NodeFault = map[int]NodeFaultPlan{1: {AfterEpochs: 2}}
	}
	sc := cfg.SystemConfig()
	sc.GPUGflops = clusterBenchGflops
	cfg.System = &sc
	sys := NewSystem(cfg)
	rep, err := runOn(sys, "cholesky", RandomSPD(clusterBenchN, 81), cfg)
	if err != nil {
		t.Fatalf("cholesky (nodes=%d loseNode=%v): %v", nodes, loseNode, err)
	}
	return sys.TimelineMakespan(), rep
}

// clusterBenchRow is one BENCH_cluster.json record.
type clusterBenchRow struct {
	Nodes               int     `json:"nodes"`
	GPUs                int     `json:"gpus"`
	N                   int     `json:"n"`
	NB                  int     `json:"nb"`
	CleanSimSeconds     float64 `json:"clean_sim_seconds"`
	CleanInternodeBytes int64   `json:"clean_internode_bytes"`
	LossSimSeconds      float64 `json:"node_loss_sim_seconds"`
	LossInternodeBytes  int64   `json:"node_loss_internode_bytes"`
	Reconstructions     int     `json:"reconstructions"`
	WallSeconds         float64 `json:"wall_seconds"`
}

// collectClusterRows measures clean and node-loss runs at 1, 2, and 4
// nodes. The 1-node row has no loss leg: a flat topology carries no parity
// to reconstruct from.
func collectClusterRows(t testing.TB) []clusterBenchRow {
	rows := make([]clusterBenchRow, 0, 3)
	for _, nodes := range []int{1, 2, 4} {
		t0 := time.Now()
		mk, rep := runClusterCase(t, nodes, false)
		row := clusterBenchRow{
			Nodes: nodes, GPUs: clusterBenchGPUs, N: clusterBenchN, NB: clusterBenchNB,
			CleanSimSeconds: mk, CleanInternodeBytes: rep.InternodeBytes,
		}
		if nodes > 1 {
			lmk, lrep := runClusterCase(t, nodes, true)
			row.LossSimSeconds = lmk
			row.LossInternodeBytes = lrep.InternodeBytes
			row.Reconstructions = lrep.Reconstructions
		}
		row.WallSeconds = time.Since(t0).Seconds()
		rows = append(rows, row)
	}
	return rows
}

// BenchmarkClusterScaling regenerates BENCH_cluster.json: simulated
// makespan and inter-node traffic at 1, 2, and 4 nodes, clean and with a
// mid-run whole-node loss absorbed by parity reconstruction.
func BenchmarkClusterScaling(b *testing.B) {
	var rows []clusterBenchRow
	for i := 0; i < b.N; i++ {
		rows = collectClusterRows(b)
	}
	writeBenchJSON(b, "BENCH_cluster.json", rows)
	for _, r := range rows {
		if r.Nodes > 1 && r.CleanSimSeconds > 0 {
			b.ReportMetric(r.LossSimSeconds/r.CleanSimSeconds,
				"nodes"+itoa(r.Nodes)+"-loss-makespan-ratio")
		}
	}
}

// clusterMakespanCap bounds the 4-node clean makespan as a multiple of the
// 1-node one. The lazy row-range parity refresh (every c steps), hub-
// encoded parity groups, one transfer window per panel stage, one message
// per link for each staging, and a final gather of only the blocks the
// GPUs computed held it at 2.17, and the cap is that reading plus 5%;
// Cholesky GPU columns that start at their diagonal blocks hold it at
// 2.12. The cap keeps the simulated-clock win from quietly regressing.
const clusterMakespanCap = 2.27

// itoa avoids pulling strconv into the bench for a single-digit label.
func itoa(n int) string { return string(rune('0' + n)) }

// TestClusterScalingSanity pins the study's structural claims so the
// benchmark rows stay meaningful: a flat run moves no inter-node bytes,
// multi-node runs do (clean and lossy both — parity maintenance before the
// loss, the reconstruction burst at it), and the loss run actually
// reconstructs, and the 4-node clean makespan stays within
// clusterMakespanCap of the 1-node one. No direction is pinned between
// clean and loss makespans: losing a node halves the fleet but also stops
// the parity refresh (and its slow inter-node traffic), so either side can
// win depending on the interconnect.
func TestClusterScalingSanity(t *testing.T) {
	flat, rep := runClusterCase(t, 1, false)
	if rep.InternodeBytes != 0 {
		t.Fatalf("flat run counted %d inter-node bytes", rep.InternodeBytes)
	}
	for _, nodes := range []int{2, 4} {
		mk, rep := runClusterCase(t, nodes, false)
		if rep.InternodeBytes == 0 {
			t.Fatalf("nodes=%d: clean run moved no inter-node bytes", nodes)
		}
		if nodes == 4 && mk > clusterMakespanCap*flat {
			t.Fatalf("4-node clean makespan %.4g sim-s is %.2fx the 1-node %.4g sim-s (cap %.1fx)",
				mk, mk/flat, flat, clusterMakespanCap)
		}
		_, lrep := runClusterCase(t, nodes, true)
		if lrep.Reconstructions == 0 || lrep.NodesLost != 1 {
			t.Fatalf("nodes=%d: loss run NodesLost/Reconstructions = %d/%d",
				nodes, lrep.NodesLost, lrep.Reconstructions)
		}
		if lrep.InternodeBytes == 0 {
			t.Fatalf("nodes=%d: loss run moved no inter-node bytes", nodes)
		}
	}
}
