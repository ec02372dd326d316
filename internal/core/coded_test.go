package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"ftla/internal/checksum"
	"ftla/internal/fault"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
)

// clusterSystem builds a multi-node test topology: gpus GPUs spread
// round-robin over nodes, with a deliberately slow inter-node interconnect
// so cross-node traffic is visible in the accounting.
func clusterSystem(gpus, nodes int) *hetsim.System {
	cfg := hetsim.DefaultConfig(gpus)
	cfg.CPUWorkers = 1
	cfg.GPUWorkers = 2
	cfg.Nodes = nodes
	cfg.InterGBps = 1.0
	cfg.InterLatencyUS = 100.0
	return hetsim.New(cfg)
}

// runPipelineOn is runPipeline against a caller-built system (the cluster
// tests need topology control; everything else matches).
func runPipelineOn(t *testing.T, decomp string, n int, sys *hetsim.System, opts Options) pipelineRun {
	t.Helper()
	a := pipelineInput(decomp, n)
	var pr pipelineRun
	opts.stageJournal = &pr.journal
	var err error
	switch decomp {
	case "cholesky":
		pr.out, pr.res, err = Cholesky(sys, a, opts)
	case "lu":
		pr.out, pr.pivots, pr.res, err = LU(sys, a, opts)
	case "qr":
		pr.out, pr.tau, pr.res, err = QR(sys, a, opts)
	default:
		t.Fatalf("unknown decomposition %q", decomp)
	}
	if err != nil {
		t.Fatalf("%s (lookahead=%d) failed: %v", decomp, opts.Lookahead, err)
	}
	return pr
}

// TestClusterSingleNodeBitIdentical pins the refactor's zero-cost promise:
// a topology declared with Nodes=1 is the flat single-box system — same
// canonical journal (no parity or node-loss stages), bit-identical factors,
// pivots, and tau, identical counters and traffic, and no inter-node bytes
// — across all three decompositions, both schedules, and 1–3 GPUs.
func TestClusterSingleNodeBitIdentical(t *testing.T) {
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		for _, gpus := range []int{1, 2, 3} {
			for _, lookahead := range []int{0, 1} {
				opts := Options{NB: 16, Protection: Full, Scheme: NewScheme,
					Kernel: checksum.OptKernel, Lookahead: lookahead}
				flat := runPipelineOn(t, decomp, 96, testSystem(gpus), opts)
				oneNode := runPipelineOn(t, decomp, 96, clusterSystem(gpus, 1), opts)
				label := decomp + "/1-node"
				comparePipelineRuns(t, label, flat, oneNode)
				if oneNode.res.InternodeBytes != 0 {
					t.Fatalf("%s: single-node run counted %d inter-node bytes",
						label, oneNode.res.InternodeBytes)
				}
				for _, rec := range oneNode.journal {
					if rec.Name == stageParity || rec.Name == stageNodeLoss {
						t.Fatalf("%s: cluster stage %v journaled on a single-node topology", label, rec)
					}
				}
			}
		}
	}
}

// TestClusterNodeLossReconstructBitIdentical is the tentpole acceptance
// pin: killing a whole node mid-run on a 3-node topology is absorbed by the
// erasure-coded parity — no checkpoint, no restart — and the finished
// factors (plus pivots/tau) are bit-identical to the uninterrupted run on
// the same topology.
func TestClusterNodeLossReconstructBitIdentical(t *testing.T) {
	configs := []struct {
		mode   Mode
		scheme Scheme
	}{
		{NoChecksum, NoCheck},
		{SingleSide, PostOp},
		{Full, NewScheme},
	}
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		for _, lookahead := range []int{0, 1} {
			for _, cfg := range configs {
				label := decomp + "/" + cfg.mode.String() + "/node-loss"
				opts := Options{NB: 16, Protection: cfg.mode, Scheme: cfg.scheme,
					Kernel: checksum.OptKernel, Lookahead: lookahead}
				clean := runPipelineOn(t, decomp, 96, clusterSystem(3, 3), opts)

				opts.NodeFault = map[int]hetsim.NodeFaultPlan{1: {AfterEpochs: 2}}
				lossy := runPipelineOn(t, decomp, 96, clusterSystem(3, 3), opts)

				if lossy.res.NodesLost != 1 {
					t.Fatalf("%s: NodesLost = %d, want 1", label, lossy.res.NodesLost)
				}
				if lossy.res.Reconstructions != 2 {
					// Node 1 holds GPU1, which owns block columns 1 and 4 of 6.
					t.Fatalf("%s: Reconstructions = %d, want 2", label, lossy.res.Reconstructions)
				}
				if clean.res.NodesLost != 0 || clean.res.Reconstructions != 0 {
					t.Fatalf("%s: clean run reported node events: %+v", label, clean.res)
				}
				if clean.res.InternodeBytes <= 0 {
					t.Fatalf("%s: parity maintenance moved no inter-node bytes", label)
				}
				if d, r, c := clean.out.MaxAbsDiff(lossy.out); d != 0 {
					t.Fatalf("%s: factors not bit-identical after reconstruction: |Δ|=%g at (%d,%d)",
						label, d, r, c)
				}
				for i := range clean.pivots {
					if clean.pivots[i] != lossy.pivots[i] {
						t.Fatalf("%s: pivots differ at %d: %d vs %d",
							label, i, clean.pivots[i], lossy.pivots[i])
					}
				}
				for i := range clean.tau {
					if clean.tau[i] != lossy.tau[i] {
						t.Fatalf("%s: tau differs at %d: %v vs %v",
							label, i, clean.tau[i], lossy.tau[i])
					}
				}
				if lossy.res.Rollbacks != 0 || lossy.res.Checkpoints != 0 {
					t.Fatalf("%s: reconstruction leaned on checkpoints: %+v", label, lossy.res)
				}
				found := false
				for _, rec := range lossy.journal {
					if rec.Name == stageNodeLoss {
						found = true
					}
				}
				if !found {
					t.Fatalf("%s: no node-loss stage journaled", label)
				}
			}
		}
	}
}

// TestClusterSecondNodeLossSurfacesTypedError: r=1 redundancy absorbs one
// loss; a second one must surface hetsim.NodeLostError to the caller (the
// serving layer's failover ladder), not panic or silently corrupt.
func TestClusterSecondNodeLossSurfacesTypedError(t *testing.T) {
	opts := Options{NB: 16, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel,
		NodeFault: map[int]hetsim.NodeFaultPlan{
			1: {AfterEpochs: 1},
			2: {AfterEpochs: 2},
		}}
	sys := clusterSystem(3, 3)
	out, res, err := Cholesky(sys, pipelineInput("cholesky", 96), opts)
	if out != nil || res != nil {
		t.Fatal("second node loss still returned a result")
	}
	var lost *hetsim.NodeLostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v, want NodeLostError", err)
	}
	if lost.Node != 2 || lost.GPUs != 1 {
		t.Fatalf("NodeLostError = %+v, want node 2 with 1 GPU", lost)
	}
}

// TestClusterDoubleNodeLossBitIdentical is the r=2 acceptance pin: on a
// 4-node cluster with two parity columns per group, TWO node losses —
// arriving sequentially at different epochs or as one simultaneous burst —
// are absorbed by Reed-Solomon reconstruction with the finished factors
// (plus pivots/tau) bit-identical to an uninterrupted run on the same
// topology, no checkpoint or restart involved. The burst arms nodes 0 and 1,
// whose GPUs co-own both members of every even group, forcing a genuine 2×2
// GF(2^8) decode (not two XOR solves); the sequential case exercises the
// live-parity accounting after an adopted column starts sharing a GPU with
// a surviving parity. Each loss runs at every refresh interval of
// parityIntervals, so the sequential case's second loss also meets a
// rebuilt column inside a lazy window. Each (decomposition, schedule)
// runs its clean twin as a parallel subtest, and each (case, interval) as
// a parallel subtest of that.
func TestClusterDoubleNodeLossBitIdentical(t *testing.T) {
	cases := []struct {
		name      string
		plans     map[int]hetsim.NodeFaultPlan
		lossEdges int // distinct node-loss stages expected in the journal
	}{
		{"sequential", map[int]hetsim.NodeFaultPlan{1: {AfterEpochs: 2}, 3: {AfterEpochs: 4}}, 2},
		{"burst", map[int]hetsim.NodeFaultPlan{0: {AfterEpochs: 2}, 1: {AfterEpochs: 2}}, 1},
	}
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		for _, lookahead := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/lookahead=%d", decomp, lookahead), func(t *testing.T) {
				t.Parallel()
				opts := Options{NB: 16, Protection: Full, Scheme: NewScheme,
					Kernel: checksum.OptKernel, Lookahead: lookahead, Redundancy: 2}
				clean := runPipelineOn(t, decomp, 128, clusterSystem(4, 4), opts)
				for _, tc := range cases {
					for _, every := range parityIntervals {
						t.Run(fmt.Sprintf("%s/c=%d", tc.name, every), func(t *testing.T) {
							t.Parallel()
							lopts := opts
							lopts.NodeFault = tc.plans
							lopts.parityEvery = every
							lossy := runPipelineOn(t, decomp, 128, clusterSystem(4, 4), lopts)

							if lossy.res.NodesLost != 2 {
								t.Fatalf("NodesLost = %d, want 2", lossy.res.NodesLost)
							}
							if lossy.res.Reconstructions != 4 {
								// Each lost node holds one GPU owning two of the eight
								// block columns.
								t.Fatalf("Reconstructions = %d, want 4", lossy.res.Reconstructions)
							}
							if lossy.res.Rollbacks != 0 || lossy.res.Checkpoints != 0 {
								t.Fatalf("reconstruction leaned on checkpoints: %+v", lossy.res)
							}
							if d, r, c := clean.out.MaxAbsDiff(lossy.out); d != 0 {
								t.Fatalf("factors not bit-identical after double loss: |Δ|=%g at (%d,%d)", d, r, c)
							}
							for i := range clean.pivots {
								if clean.pivots[i] != lossy.pivots[i] {
									t.Fatalf("pivots differ at %d", i)
								}
							}
							for i := range clean.tau {
								if clean.tau[i] != lossy.tau[i] {
									t.Fatalf("tau differs at %d", i)
								}
							}
							stages := 0
							for _, rec := range lossy.journal {
								if rec.Name == stageNodeLoss {
									stages++
								}
							}
							if stages != tc.lossEdges {
								t.Fatalf("%d node-loss stages journaled, want %d", stages, tc.lossEdges)
							}
						})
					}
				}
			})
		}
	}
}

// TestClusterThirdLossExhaustsRedundancy: r=2 absorbs two losses; the third
// must surface the typed error once some group has no parity left to solve
// with — the failover ladder engages only when redundancy is truly spent.
func TestClusterThirdLossExhaustsRedundancy(t *testing.T) {
	opts := Options{NB: 16, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel,
		Redundancy: 2,
		NodeFault: map[int]hetsim.NodeFaultPlan{
			1: {AfterEpochs: 1},
			2: {AfterEpochs: 2},
			3: {AfterEpochs: 3},
		}}
	out, res, err := Cholesky(clusterSystem(4, 4), pipelineInput("cholesky", 128), opts)
	if out != nil || res != nil {
		t.Fatal("third node loss still returned a result")
	}
	var lost *hetsim.NodeLostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v, want NodeLostError", err)
	}
	if lost.Node != 3 || lost.GPUs != 1 {
		t.Fatalf("NodeLostError = %+v, want node 3 with 1 GPU", lost)
	}
}

// TestClusterRebalanceBitIdentityUniform pins the other half of the
// tentpole: dynamic rebalancing now runs on multi-node topologies, the
// parity-aware migration protocol keeps the placement invariant, and on
// uniform devices a rebalancing run stays bit-identical to the static run
// on the same cluster. Straggling every GPU of node 0 forces real
// cross-node moves, so the parity re-home path executes (asserted via the
// onRebalance hook).
func TestClusterRebalanceBitIdentityUniform(t *testing.T) {
	for _, tc := range []struct{ gpus, nodes, r, n int }{
		{4, 2, 1, 192}, // kk=1: every cross-node move displaces a parity
		{3, 3, 2, 128}, // r=2: re-home must pick the parity on the target node
	} {
		for _, decomp := range []string{"cholesky", "lu", "qr"} {
			for _, lookahead := range []int{0, 1} {
				label := fmt.Sprintf("%s/%dx%d-r%d/lookahead=%d", decomp, tc.gpus, tc.nodes, tc.r, lookahead)
				opts := Options{NB: 16, Protection: Full, Scheme: NewScheme,
					Kernel: checksum.OptKernel, Lookahead: lookahead, Redundancy: tc.r}
				static := runPipelineOn(t, decomp, tc.n, clusterSystem(tc.gpus, tc.nodes), opts)

				dyn := opts
				dyn.FailStop = map[int]hetsim.FaultPlan{}
				for g := 0; g < tc.gpus/tc.nodes; g++ {
					dyn.FailStop[g] = hetsim.FaultPlan{Mode: hetsim.FaultStraggler, Slowdown: 4}
				}
				dyn.RebalanceEvery = 2
				rehomed := 0
				dyn.onRebalance = func(step int, moves []rebMove) {
					for _, m := range moves {
						if m.parT >= 0 {
							rehomed++
						}
					}
				}
				moved := runPipelineOn(t, decomp, tc.n, clusterSystem(tc.gpus, tc.nodes), dyn)

				if moved.res.MovedColumns == 0 || rehomed == 0 {
					t.Fatalf("%s: cluster rebalancing moved %d columns and re-homed %d parities; want both > 0",
						label, moved.res.MovedColumns, rehomed)
				}
				if d, r, c := static.out.MaxAbsDiff(moved.out); d != 0 {
					t.Fatalf("%s: factors differ from static cluster run: |Δ|=%g at (%d,%d)",
						label, d, r, c)
				}
				for i := range static.pivots {
					if static.pivots[i] != moved.pivots[i] {
						t.Fatalf("%s: pivot %d differs", label, i)
					}
				}
				for i := range static.tau {
					if static.tau[i] != moved.tau[i] {
						t.Fatalf("%s: tau %d differs", label, i)
					}
				}
			}
		}
	}
}

// TestClusterRebalanceSurvivesNodeLoss: rebalancing and reconstruction
// compose — a run that both repartitions columns and loses a node finishes
// bit-identical to the static uninterrupted run on the same topology
// (migration preserves the placement invariant, so the loss stays
// recoverable afterwards).
func TestClusterRebalanceSurvivesNodeLoss(t *testing.T) {
	opts := Options{NB: 16, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel}
	static := runPipelineOn(t, "lu", 192, clusterSystem(4, 2), opts)

	dyn := opts
	dyn.FailStop = map[int]hetsim.FaultPlan{0: {Mode: hetsim.FaultStraggler, Slowdown: 4}}
	dyn.RebalanceEvery = 2
	dyn.NodeFault = map[int]hetsim.NodeFaultPlan{1: {AfterEpochs: 3}}
	lossy := runPipelineOn(t, "lu", 192, clusterSystem(4, 2), dyn)

	if lossy.res.NodesLost != 1 || lossy.res.Reconstructions == 0 {
		t.Fatalf("node loss not absorbed under rebalancing: %+v", lossy.res)
	}
	if lossy.res.MovedColumns == 0 {
		t.Fatal("rebalancer moved nothing; the composition exercised nothing")
	}
	if d, r, c := static.out.MaxAbsDiff(lossy.out); d != 0 {
		t.Fatalf("factors differ: |Δ|=%g at (%d,%d)", d, r, c)
	}
	for i := range static.pivots {
		if static.pivots[i] != lossy.pivots[i] {
			t.Fatalf("pivot %d differs", i)
		}
	}
}

// TestClusterParityPlacementDisjoint verifies the placement invariant the
// erasure code rests on: within every group, the r parity columns and the
// members all live on pairwise distinct nodes (every node holds exactly one
// column of each group), so any ≤ r node losses remove at most r columns
// per group — never more than the surviving parities can solve for.
func TestClusterParityPlacementDisjoint(t *testing.T) {
	for _, tc := range []struct{ gpus, nodes, r, n int }{
		{2, 2, 1, 96}, {3, 3, 1, 96}, {4, 2, 1, 128}, {6, 3, 1, 192},
		{3, 3, 2, 96}, {4, 4, 2, 128}, {6, 3, 2, 192}, {4, 4, 3, 128}, {8, 4, 2, 256},
	} {
		sys := clusterSystem(tc.gpus, tc.nodes)
		a := pipelineInput("cholesky", tc.n)
		opts := Options{NB: 16, Protection: SingleSide, Scheme: PostOp, Kernel: checksum.OptKernel,
			Redundancy: tc.r}
		if err := opts.Validate(tc.n); err != nil {
			t.Fatal(err)
		}
		res := &Result{}
		es := newEngine("cholesky", sys, opts, res)
		p := newProtected(es, a)
		p.settle()
		if p.coded == nil {
			t.Fatalf("gpus=%d nodes=%d: no coded state on a multi-node topology", tc.gpus, tc.nodes)
		}
		if p.coded.r != tc.r {
			t.Fatalf("gpus=%d nodes=%d: coded r = %d, want %d", tc.gpus, tc.nodes, p.coded.r, tc.r)
		}
		for _, g := range p.coded.groups {
			nodesSeen := map[int]string{}
			claim := func(node int, what string) {
				if prev, dup := nodesSeen[node]; dup {
					t.Fatalf("gpus=%d nodes=%d r=%d: group [%d,%d] has %s and %s on node %d",
						tc.gpus, tc.nodes, tc.r, g.first, g.last, prev, what, node)
				}
				nodesSeen[node] = what
			}
			for j, pg := range g.pgs {
				if g.bufs[j] == nil {
					t.Fatalf("gpus=%d nodes=%d r=%d: group [%d,%d] parity %d unallocated",
						tc.gpus, tc.nodes, tc.r, g.first, g.last, j)
				}
				claim(sys.NodeOf(pg), "parity")
			}
			for bj := g.first; bj <= g.last; bj++ {
				claim(sys.NodeOf(p.owner(bj)), "member")
			}
		}
	}
}

// parityIntervals are the refresh intervals c the cluster pins run at:
// every step (the eager refresh), and two lazy windows, the default c = 4
// among them.
var parityIntervals = []int{1, 2, 4}

// requireSameFactors fails unless got's factors, pivots and tau are
// bit-identical to want's.
func requireSameFactors(t *testing.T, label string, want, got pipelineRun) {
	t.Helper()
	if d, r, c := want.out.MaxAbsDiff(got.out); d != 0 {
		t.Fatalf("%s: factors not bit-identical: |Δ|=%g at (%d,%d)", label, d, r, c)
	}
	for i := range want.pivots {
		if want.pivots[i] != got.pivots[i] {
			t.Fatalf("%s: pivots differ at %d: %d vs %d", label, i, want.pivots[i], got.pivots[i])
		}
	}
	for i := range want.tau {
		if want.tau[i] != got.tau[i] {
			t.Fatalf("%s: tau differs at %d: %v vs %v", label, i, want.tau[i], got.tau[i])
		}
	}
}

// TestClusterLossEpochSweep proves the lazy refresh and its replay exact:
// a refresh every c steps re-encodes only rows the steps since the last
// one wrote, and a column rebuilt as of that refresh is brought up to
// date by replaying the logged steps. One node loss (r=1, 3 nodes) and a
// two-node burst (r=2, 4 nodes) fire at every epoch 1..nbr−1, across all
// three decompositions, both schedules and every interval of
// parityIntervals, and the finished factors, pivots and tau must equal
// the uninterrupted run's bit for bit. Each (scenario, decomposition,
// schedule, interval) runs as a parallel subtest.
func TestClusterLossEpochSweep(t *testing.T) {
	const n, nb = 128, 16
	for _, tc := range []struct {
		name           string
		gpus, nodes, r int
		lose           []int
	}{
		{"one-loss", 3, 3, 1, []int{1}},
		{"burst", 4, 4, 2, []int{0, 1}},
	} {
		for _, decomp := range []string{"cholesky", "lu", "qr"} {
			for _, lookahead := range []int{0, 1} {
				for _, every := range parityIntervals {
					t.Run(fmt.Sprintf("%s/%s/lookahead=%d/c=%d", tc.name, decomp, lookahead, every), func(t *testing.T) {
						t.Parallel()
						opts := Options{NB: nb, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel,
							Lookahead: lookahead, Redundancy: tc.r, parityEvery: every}
						clean := runPipelineOn(t, decomp, n, clusterSystem(tc.gpus, tc.nodes), opts)
						for epoch := 1; epoch < n/nb; epoch++ {
							label := fmt.Sprintf("epoch=%d", epoch)
							lopts := opts
							lopts.NodeFault = make(map[int]hetsim.NodeFaultPlan)
							for _, node := range tc.lose {
								lopts.NodeFault[node] = hetsim.NodeFaultPlan{AfterEpochs: epoch}
							}
							lossy := runPipelineOn(t, decomp, n, clusterSystem(tc.gpus, tc.nodes), lopts)
							if lossy.res.NodesLost != len(tc.lose) || lossy.res.Reconstructions == 0 {
								t.Fatalf("%s: NodesLost/Reconstructions = %d/%d, want %d/>0",
									label, lossy.res.NodesLost, lossy.res.Reconstructions, len(tc.lose))
							}
							requireSameFactors(t, label, clean, lossy)
						}
					})
				}
			}
		}
	}
}

// TestClusterLossAtStepZero loses nodes at the first epoch boundary,
// before any step has run: node 0, whose GPU owns panel 0, and a burst of
// nodes 0 and 1, on 4 GPUs over 4 nodes with r = 2. A fresh run factors
// panel 0 on the host before it encodes the layout on the GPUs, so the
// parity the reconstruction decodes must be in place before the loss is
// handled. Each lossy run must rebuild and match the clean run bit for
// bit.
func TestClusterLossAtStepZero(t *testing.T) {
	const n, nb = 128, 16
	for _, lose := range [][]int{{0}, {0, 1}} {
		for _, decomp := range []string{"cholesky", "lu", "qr"} {
			for _, lookahead := range []int{0, 1} {
				t.Run(fmt.Sprintf("lose=%v/%s/lookahead=%d", lose, decomp, lookahead), func(t *testing.T) {
					t.Parallel()
					opts := Options{NB: nb, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel,
						Lookahead: lookahead, Redundancy: 2}
					clean := runPipelineOn(t, decomp, n, clusterSystem(4, 4), opts)
					opts.NodeFault = make(map[int]hetsim.NodeFaultPlan)
					for _, node := range lose {
						opts.NodeFault[node] = hetsim.NodeFaultPlan{AfterEpochs: 0}
					}
					lossy := runPipelineOn(t, decomp, n, clusterSystem(4, 4), opts)
					if lossy.res.NodesLost != len(lose) || lossy.res.Reconstructions == 0 {
						t.Fatalf("NodesLost/Reconstructions = %d/%d, want %d/>0",
							lossy.res.NodesLost, lossy.res.Reconstructions, len(lose))
					}
					requireSameFactors(t, "loss at step 0", clean, lossy)
				})
			}
		}
	}
}

// TestClusterLossEpochSweepPivoting is the epoch sweep for LU on an input
// that needs partial pivoting: the sweep's diagonally dominant LU input
// never swaps a row, so only here do the swaps mirrored onto frozen
// groups' parity and the swaps a replay re-applies to a rebuilt column
// meet real interchanges. The clean run must pivot; every lossy run must
// match it bit for bit, pivots included.
func TestClusterLossEpochSweepPivoting(t *testing.T) {
	const n, nb = 128, 16
	a := matrix.Random(n, n, matrix.NewRNG(29))
	run := func(t *testing.T, gpus, nodes int, opts Options) pipelineRun {
		var pr pipelineRun
		var err error
		pr.out, pr.pivots, pr.res, err = LU(clusterSystem(gpus, nodes), a, opts)
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	for _, tc := range []struct {
		name           string
		gpus, nodes, r int
		lose           []int
	}{
		{"one-loss", 3, 3, 1, []int{1}},
		{"burst", 4, 4, 2, []int{0, 1}},
	} {
		for _, lookahead := range []int{0, 1} {
			for _, every := range parityIntervals {
				t.Run(fmt.Sprintf("%s/lookahead=%d/c=%d", tc.name, lookahead, every), func(t *testing.T) {
					t.Parallel()
					opts := Options{NB: nb, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel,
						Lookahead: lookahead, Redundancy: tc.r, parityEvery: every}
					clean := run(t, tc.gpus, tc.nodes, opts)
					swaps := 0
					for i, p := range clean.pivots {
						if p != i {
							swaps++
						}
					}
					if swaps < n/4 {
						t.Fatalf("clean run swapped %d rows; the input no longer exercises pivoting", swaps)
					}
					for epoch := 1; epoch < n/nb; epoch++ {
						lopts := opts
						lopts.NodeFault = make(map[int]hetsim.NodeFaultPlan)
						for _, node := range tc.lose {
							lopts.NodeFault[node] = hetsim.NodeFaultPlan{AfterEpochs: epoch}
						}
						lossy := run(t, tc.gpus, tc.nodes, lopts)
						if lossy.res.NodesLost != len(tc.lose) || lossy.res.Detected {
							t.Fatalf("epoch=%d: NodesLost %d, Detected %t; want %d, false",
								epoch, lossy.res.NodesLost, lossy.res.Detected, len(tc.lose))
						}
						requireSameFactors(t, fmt.Sprintf("epoch=%d", epoch), clean, lossy)
					}
				})
			}
		}
	}
}

// parityBytes is the closed form of the coded layer's traffic on a clean
// run of decomp (order n, block nb, kk members and r parities per group):
// the initial encode from row 0, then after every step k with k − s >=
// every, where s is the previous refresh (−1 for the initial encode), one
// refresh of each group still holding a column > s from row R =
// (s+1)·nb. Encoding from row R ships each member's rows from max(R, its
// top) to the hub, and the r−1 finished parities j >= 1 home from
// max(R, the top of the group's first member), where a block column's top
// is the first row of its diagonal block for Cholesky, whose GPUs hold
// nothing above it, and row 0 otherwise. Every shipment crosses nodes.
func parityBytes(decomp string, n, nb, kk, r, every int) int64 {
	nbr := n / nb
	top := func(bj int) int {
		if decomp == "cholesky" {
			return bj * nb
		}
		return 0
	}
	var total int64
	refresh := func(s int) {
		for first := 0; first < nbr; first += kk {
			last := min(first+kk, nbr) - 1
			if last <= s {
				continue
			}
			from := (s + 1) * nb
			rows := (r - 1) * (n - max(from, top(first)))
			for bj := first; bj <= last; bj++ {
				rows += n - max(from, top(bj))
			}
			total += int64(8 * rows * nb)
		}
	}
	refresh(-1)
	s := -1
	for k := 0; k < nbr-1; k++ {
		if k-s >= every {
			refresh(s)
			s = k
		}
	}
	return total
}

// TestClusterParityRefreshTraffic pins the coded layer's traffic to its
// closed form (parityBytes) on a clean r=2, 4-node run, for every refresh
// interval c of parityIntervals. With c = 1 that is a refresh of rows
// [k·nb, n) after every step. An attached injector with nothing scheduled
// must not change the traffic: the refresh height and interval depend on
// what the run detected, not on the injector.
func TestClusterParityRefreshTraffic(t *testing.T) {
	const n, nb, gpus, nodes, r = 128, 16, 4, 4, 2
	for _, every := range parityIntervals {
		for _, decomp := range []string{"cholesky", "lu", "qr"} {
			want := uint64(parityBytes(decomp, n, nb, nodes-r, r, every))
			for _, lookahead := range []int{0, 1} {
				for _, idle := range []bool{false, true} {
					opts := Options{NB: nb, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel,
						Lookahead: lookahead, Redundancy: r, parityEvery: every}
					if idle {
						opts.Injector = fault.NewInjector(11)
					}
					before := parityBytesTotal.Value()
					runPipelineOn(t, decomp, n, clusterSystem(gpus, nodes), opts)
					got := parityBytesTotal.Value() - before
					if got != want {
						t.Errorf("%s/lookahead=%d/c=%d/idle-injector=%t: parity bytes = %d, want %d",
							decomp, lookahead, every, idle, got, want)
					}
				}
			}
		}
	}
}

// TestClusterRepairRefreshesFullHeight pins the Detected rule of the
// parity refresh: once a run has detected an error, an ABFT repair may
// have rewritten rows above the active panel (a full-column repair
// rewrites them with roundoff-level different bits), so every later step
// refreshes, at full height — the replay of a lazy window would not
// reproduce a repair. A node loss after a repaired soft error then still
// rebuilds the repaired bits exactly — the injected run with the loss
// equals the same injected run without it, in both schedules and at every
// refresh interval of parityIntervals, each a parallel subtest.
func TestClusterRepairRefreshesFullHeight(t *testing.T) {
	const n, nb = 128, 16
	// Each fault is detected and repaired on the device in step 1, well
	// before the burst at epoch 4 (QR has no panel-update stage to strike).
	for _, tc := range []struct {
		decomp string
		spec   fault.Spec
	}{
		{"cholesky", fault.Spec{Kind: fault.OffChipMemory, Op: fault.PU, Part: fault.UpdatePart, Iteration: 1}},
		{"lu", fault.Spec{Kind: fault.OffChipMemory, Op: fault.PU, Part: fault.UpdatePart, Iteration: 1}},
		{"qr", fault.Spec{Kind: fault.OffChipMemory, Op: fault.TMU, Part: fault.UpdatePart, Iteration: 1}},
	} {
		for _, lookahead := range []int{0, 1} {
			for _, every := range parityIntervals {
				t.Run(fmt.Sprintf("%s/lookahead=%d/c=%d", tc.decomp, lookahead, every), func(t *testing.T) {
					t.Parallel()
					run := func(loss bool) pipelineRun {
						inj := fault.NewInjector(11)
						inj.Schedule(tc.spec)
						opts := Options{NB: nb, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel,
							Lookahead: lookahead, Redundancy: 2, Injector: inj, parityEvery: every}
						if loss {
							opts.NodeFault = map[int]hetsim.NodeFaultPlan{0: {AfterEpochs: 4}, 1: {AfterEpochs: 4}}
						}
						pr := runPipelineOn(t, tc.decomp, n, clusterSystem(4, 4), opts)
						if len(inj.Events()) == 0 || pr.res.Counter.CorrectedElements == 0 || pr.res.Unrecoverable {
							t.Fatalf("loss=%v: injected fault not detected and repaired: events %v, counters %+v",
								loss, inj.Events(), pr.res.Counter)
						}
						return pr
					}
					clean, lossy := run(false), run(true)
					if lossy.res.NodesLost != 2 {
						t.Fatalf("NodesLost = %d, want 2", lossy.res.NodesLost)
					}
					requireSameFactors(t, "injected", clean, lossy)
				})
			}
		}
	}
}

// TestClusterNodeLossDoesNotLaunder pins the verified-parity rule: the
// end-of-step refresh verifies the trailing columns against their column
// checksums before it encodes them, so a soft error the step's own checks
// missed is repaired instead of entering the parity, where a node loss
// would rebuild it as if it were correct. Each lossy run must match its
// no-loss twin bit for bit and in its verdict; under the new scheme that
// verdict must be a detection. Loss epoch 1 is left out: the node 0 GPU
// the TMU window aims at is gone before it opens.
//
// Every lossy run repeats at each refresh interval of parityIntervals:
// the refresh verification runs after every step whether or not the
// parity is re-encoded, so a lazy window launders nothing either.
//
// The two schedules' no-loss twins must also agree on the verdict and
// Counter, except for the look-ahead difference DESIGN §8 lists: the
// refresh after step k checks the GPU copy of column k+1, which under
// look-ahead panel k+1 has already been pulled from. A fault there is
// then found once more (Cholesky and LU repair it in the CPU's staged
// copy first), and under PostOp a PD off-chip fault on QR's GPU panel,
// which the serial schedule never sees, is found. Those rows (refound)
// must differ by exactly one more detection and correction.
func TestClusterNodeLossDoesNotLaunder(t *testing.T) {
	const n, nb = 128, 16
	type pin struct {
		seed    uint64
		scheme  Scheme
		spec    fault.Spec
		decomps []string
		epochs  []int
		refound []string
	}
	all := []string{"cholesky", "lu", "qr"}
	pins := []pin{{11, NewScheme, fault.Spec{Kind: fault.Computation, Op: fault.TMU, Part: fault.UpdatePart, Iteration: 1},
		all, []int{2, 3, 4, 5, 6, 7}, nil}}
	for _, kind := range []fault.Kind{fault.Computation, fault.OffChipMemory} {
		pins = append(pins, pin{7, NewScheme, fault.Spec{Kind: kind, Op: fault.TMU, Part: fault.UpdatePart, Iteration: 3},
			all, []int{4}, []string{"cholesky", "lu"}})
	}
	pins = append(pins, pin{7, PostOp, fault.Spec{Kind: fault.OffChipMemory, Op: fault.PD, Part: fault.UpdatePart, Iteration: 2, Row: -1, Col: -1},
		[]string{"qr"}, []int{4}, []string{"qr"}})
	verdict := func(r *Result) string {
		return fmt.Sprintf("det=%t unrec=%t", r.Detected, r.Unrecoverable)
	}
	for _, pn := range pins {
		for _, decomp := range pn.decomps {
			run := func(t *testing.T, lookahead, epoch, every int) pipelineRun {
				inj := fault.NewInjector(pn.seed)
				inj.Schedule(pn.spec)
				opts := Options{NB: nb, Protection: Full, Scheme: pn.scheme, Kernel: checksum.OptKernel,
					Lookahead: lookahead, Redundancy: 2, Injector: inj, parityEvery: every}
				if epoch > 0 {
					opts.NodeFault = map[int]hetsim.NodeFaultPlan{0: {AfterEpochs: epoch}, 1: {AfterEpochs: epoch}}
				}
				return runPipelineOn(t, decomp, n, clusterSystem(4, 4), opts)
			}
			group := fmt.Sprintf("seed=%d/%v/%v@%v/it=%d/%s",
				pn.seed, pn.scheme, pn.spec.Kind, pn.spec.Op, pn.spec.Iteration, decomp)
			t.Run(group, func(t *testing.T) {
				t.Parallel()
				twins := [2]pipelineRun{run(t, 0, 0, 0), run(t, 1, 0, 0)}
				serial, la := twins[0].res, twins[1].res
				want, wantDet := serial.Counter, serial.Detected
				if slices.Contains(pn.refound, decomp) {
					want.DetectedErrors++
					want.CorrectedElements++
					wantDet = true
				}
				if la.Detected != wantDet || la.Unrecoverable != serial.Unrecoverable || la.Counter != want {
					t.Errorf("look-ahead twin %s %+v, serial %s %+v", verdict(la), la.Counter, verdict(serial), serial.Counter)
				}
				for lookahead, twin := range twins {
					for _, epoch := range pn.epochs {
						for _, every := range parityIntervals {
							name := fmt.Sprintf("lookahead=%d/epoch=%d/c=%d", lookahead, epoch, every)
							t.Run(name, func(t *testing.T) {
								lossy := run(t, lookahead, epoch, every)
								if lossy.res.NodesLost != 2 || verdict(lossy.res) != verdict(twin.res) ||
									(pn.scheme == NewScheme && !lossy.res.Detected) {
									t.Fatalf("NodesLost %d, %s; want 2, twin's %s (counters %+v)",
										lossy.res.NodesLost, verdict(lossy.res), verdict(twin.res), lossy.res.Counter)
								}
								requireSameFactors(t, group+"/"+name, twin, lossy)
							})
						}
					}
				}
			})
		}
	}
}
