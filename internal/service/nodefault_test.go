package service

// Cluster chaos coverage: whole-node losses on multi-node topologies
// (scripts/check.sh runs TestNodeLossRecoveryGate with -race). The serving
// contract for clusters has two rungs: a first node loss is absorbed BELOW
// the job by the erasure-coded parity — one attempt, reconstruction in the
// report, bit-exact factors — and a second loss (redundancy spent)
// surfaces a typed *hetsim.NodeLostError that engages the scheduler's
// node-failover ladder: release the system, carve the dead node out of
// the platform, retry on the smaller cluster.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ftla"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
	"ftla/internal/obs"
)

// counterSum totals a counter family across its label values — labeled
// series snapshot under `name{label="v"}` keys, one per value.
func counterSum(s obs.Snapshot, name string) uint64 {
	var total uint64
	for k, v := range s.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// nodeSpec is a 3-GPU / 3-node Cholesky job; nf arms whole-node loss plans
// keyed by node index (nil = clean cluster run).
func nodeSpec(seed uint64, nf map[int]ftla.NodeFaultPlan) JobSpec {
	return JobSpec{
		Decomp: Cholesky,
		A:      ftla.RandomSPD(96, seed),
		Config: ftla.Config{
			GPUs: 3, NB: 16, Nodes: 3,
			NodeFault: nf,
		},
		NoCache: true,
	}
}

// TestChaosNodeLossAbsorbedBelowJob: one node loss on a 3-node cluster is
// repaired in place by parity reconstruction — the job completes on its
// first attempt, never touching the retry or failover machinery, with the
// recovery visible only in the report and the library metrics.
func TestChaosNodeLossAbsorbedBelowJob(t *testing.T) {
	s := New(Config{Workers: 1, Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}})
	defer s.Close()

	before := obs.Default().Snapshot()
	spec := nodeSpec(41, map[int]ftla.NodeFaultPlan{1: {AfterEpochs: 2}})
	h, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if res.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (node loss must be absorbed below the job)", res.Attempts)
	}
	rep := res.Factors.Report()
	if rep.NodesLost != 1 || rep.Reconstructions == 0 {
		t.Fatalf("report NodesLost/Reconstructions = %d/%d, want 1/>0",
			rep.NodesLost, rep.Reconstructions)
	}
	if res.Residual > 1e-9 {
		t.Fatalf("reconstruction produced a wrong factor: residual %g", res.Residual)
	}
	st := s.Stats()
	if st.NodeFailovers != 0 || st.Retries != 0 || st.AbortedAttempts != 0 {
		t.Fatalf("failover machinery engaged for an absorbed loss: NodeFailovers=%d Retries=%d AbortedAttempts=%d",
			st.NodeFailovers, st.Retries, st.AbortedAttempts)
	}
	requireShelvedRepaired(t, s, spec.Config.SystemConfig())
	d := obs.Default().Snapshot().Diff(before)
	if counterSum(d, obs.MetricNodeLost) == 0 || counterSum(d, obs.MetricReconstructions) == 0 {
		t.Fatalf("library metrics missed the event: node_lost=%d reconstructions=%d",
			counterSum(d, obs.MetricNodeLost), counterSum(d, obs.MetricReconstructions))
	}
}

// TestChaosSecondNodeLossFailsOverToDegradedCluster: r=1 redundancy spends
// on the first loss; the second aborts the attempt with a typed node error,
// the pool repairs and shelves the system, and the retry completes on a
// cluster one node smaller — the whole event visible in the service
// metrics.
func TestChaosSecondNodeLossFailsOverToDegradedCluster(t *testing.T) {
	s := New(Config{Workers: 1, Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}})
	defer s.Close()

	spec := nodeSpec(42, map[int]ftla.NodeFaultPlan{
		1: {AfterEpochs: 1},
		2: {AfterEpochs: 2},
	})
	h, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one lost to the second node fault, one degraded rerun)",
			res.Attempts)
	}
	if got := res.Factors.Report().GPUs; got != 2 {
		t.Fatalf("winning attempt ran on %d GPUs, want 2 (one node carved out of 3x1)", got)
	}
	if res.Residual > 1e-9 {
		t.Fatalf("failover produced a wrong factor: residual %g", res.Residual)
	}
	st := s.Stats()
	if st.NodeFailovers != 1 {
		t.Fatalf("Stats.NodeFailovers = %d, want 1", st.NodeFailovers)
	}
	if st.DeviceLost != 0 || st.LinkLost != 0 {
		t.Fatalf("node loss misclassified: DeviceLost=%d LinkLost=%d", st.DeviceLost, st.LinkLost)
	}
	if st.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", st.Retries)
	}
	requireShelvedRepaired(t, s, spec.Config.SystemConfig())
}

// TestChaosNodeLossExhaustionSurfacesTypedError: with no retries left the
// job terminates with a *FailStopError wrapping the typed node error — the
// caller can tell a dead node from a dead device or link.
func TestChaosNodeLossExhaustionSurfacesTypedError(t *testing.T) {
	s := New(Config{Workers: 1, Retry: RetryPolicy{MaxAttempts: 1}})
	defer s.Close()

	spec := nodeSpec(43, map[int]ftla.NodeFaultPlan{
		1: {AfterEpochs: 1},
		2: {AfterEpochs: 2},
	})
	h, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.Wait(context.Background())
	var fse *FailStopError
	if !errors.As(err, &fse) {
		t.Fatalf("err = %v, want *FailStopError", err)
	}
	var nle *hetsim.NodeLostError
	if !errors.As(err, &nle) {
		t.Fatalf("FailStopError does not wrap the node loss: %v", err)
	}
	if nle.Node != 2 || nle.GPUs != 1 {
		t.Fatalf("NodeLostError = %+v, want node 2 with 1 GPU", nle)
	}
}

// TestChaosDeviceLossOnClusterRetiresWholeNode: a single GPU dying on a
// multi-node platform cannot be carved out alone (the GPU count must stay
// divisible by the node count), so the failover retires the dead device's
// whole node. This also pins the structured-identity fix: the dead device
// reports the node-qualified name "N1/GPU1", which the old name-parsing
// classifier failed to recognize as a GPU at all.
func TestChaosDeviceLossOnClusterRetiresWholeNode(t *testing.T) {
	s := New(Config{Workers: 1, Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}})
	defer s.Close()

	spec := nodeSpec(44, nil)
	spec.Config.FailStop = map[int]ftla.FailStopPlan{
		1: {Mode: ftla.FailCrash, AfterOps: 20},
	}
	h, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Attempts)
	}
	if got := res.Factors.Report().GPUs; got != 2 {
		t.Fatalf("winning attempt ran on %d GPUs, want 2 (GPU1's node retired)", got)
	}
	if res.Residual > 1e-9 {
		t.Fatalf("failover produced a wrong factor: residual %g", res.Residual)
	}
	if st := s.Stats(); st.DeviceLost != 1 || st.NodeFailovers != 0 {
		t.Fatalf("DeviceLost/NodeFailovers = %d/%d, want 1/0 (a device died, not a node)",
			st.DeviceLost, st.NodeFailovers)
	}
}

// The failover rung's classifier: node, link, GPU, and CPU faults each map
// to their metric and span, and applying the degrade verdict
// shrinks a flat 4-GPU platform by one GPU and a 2-node cluster by one node
// — except a CPU fault, which leaves either shape alone. Wrapped errors
// classify like bare ones; context aborts are not fail-stop faults.
func TestClassifyFailStop(t *testing.T) {
	m := newMetrics(obs.NewRegistry())
	flat := hetsim.Config{NumGPUs: 4, Nodes: 1}
	cluster := hetsim.Config{NumGPUs: 4, Nodes: 2}
	for _, tc := range []struct {
		name        string
		err         error
		metric      *obs.Counter
		span        string
		flat, clust hetsim.Config
	}{
		{"node", &hetsim.NodeLostError{Node: 1, GPUs: 2, Op: "reconstruct"},
			m.nodeLost, "node-lost:N1",
			hetsim.Config{NumGPUs: 3, Nodes: 1}, hetsim.Config{NumGPUs: 2, Nodes: 1}},
		{"link", &hetsim.LinkError{Link: 2, Op: "pcie"},
			m.linkLost, "link-lost:GPU2",
			hetsim.Config{NumGPUs: 3, Nodes: 1}, hetsim.Config{NumGPUs: 2, Nodes: 1}},
		{"gpu-lost", fmt.Errorf("attempt: %w", &hetsim.DeviceLostError{Device: "N1/GPU3", GPU: 3, Node: 1}),
			m.deviceLost, "device-lost:N1/GPU3",
			hetsim.Config{NumGPUs: 3, Nodes: 1}, hetsim.Config{NumGPUs: 2, Nodes: 1}},
		{"gpu-hung", &hetsim.DeviceHungError{Device: "GPU0", GPU: 0, Cause: context.DeadlineExceeded},
			m.deviceLost, "device-lost:GPU0",
			hetsim.Config{NumGPUs: 3, Nodes: 1}, hetsim.Config{NumGPUs: 2, Nodes: 1}},
		{"cpu-lost", &hetsim.DeviceLostError{Device: "CPU", GPU: -1},
			m.deviceLost, "device-lost:CPU", flat, cluster},
		{"cpu-hung", &hetsim.DeviceHungError{Device: "CPU", GPU: -1},
			m.deviceLost, "device-lost:CPU", flat, cluster},
	} {
		fo, ok := m.classifyFailStop(tc.err)
		if !ok {
			t.Fatalf("%s: not classified as a fail-stop fault", tc.name)
		}
		if fo.metric != tc.metric || fo.span != tc.span {
			t.Errorf("%s: got span %q (metric match %v), want span %q",
				tc.name, fo.span, fo.metric == tc.metric, tc.span)
		}
		for _, c := range []struct{ from, want hetsim.Config }{{flat, tc.flat}, {cluster, tc.clust}} {
			got := c.from
			if fo.degrade {
				degradeNode(&got)
			}
			if got != c.want {
				t.Errorf("%s: %d GPUs/%d nodes degrades to %d/%d, want %d/%d", tc.name,
					c.from.NumGPUs, c.from.Nodes, got.NumGPUs, got.Nodes, c.want.NumGPUs, c.want.Nodes)
			}
		}
	}
	for _, err := range []error{context.Canceled, context.DeadlineExceeded, errors.New("bad options")} {
		if _, ok := m.classifyFailStop(err); ok {
			t.Errorf("%v classified as a fail-stop fault", err)
		}
	}
}

// TestNodeLossRecoveryGate is the CI gate scripts/check.sh runs under
// -race: a fleet of cluster jobs on 3-node platforms where a third of the
// jobs lose one node mid-run (absorbed by parity) and a third lose two
// (failover ladder). At least 90% of the jobs must reach a completed
// result, and not one completed job may carry a silently wrong factor.
func TestNodeLossRecoveryGate(t *testing.T) {
	snap := obs.Default().Snapshot()
	s := New(Config{
		Workers: 4,
		Retry:   RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond},
		Seed:    99,
	})
	defer s.Close()

	const jobs = 18
	handles := make([]*JobHandle, 0, jobs)
	for i := 0; i < jobs; i++ {
		var nf map[int]ftla.NodeFaultPlan
		switch i % 3 {
		case 0: // clean control
		case 1: // one loss: absorbed by parity reconstruction
			nf = map[int]ftla.NodeFaultPlan{1 + i%2: {AfterEpochs: 1 + i%4}}
		case 2: // two losses: redundancy spent, failover ladder engages
			nf = map[int]ftla.NodeFaultPlan{
				1: {AfterEpochs: 1 + i%2},
				2: {AfterEpochs: 2 + i%2},
			}
		}
		h, err := s.Submit(context.Background(), nodeSpec(uint64(700+i), nf))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}

	var mu sync.Mutex
	completed, wrong := 0, 0
	var wg sync.WaitGroup
	for i, h := range handles {
		wg.Add(1)
		go func(i int, h *JobHandle) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			res, err := h.Wait(ctx)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				t.Logf("job %d did not complete: %v", i, err)
				return
			}
			completed++
			if res.Residual > 1e-9 {
				wrong++
				t.Errorf("job %d: silently wrong factor, residual %g", i, res.Residual)
			}
		}(i, h)
	}
	wg.Wait()

	if wrong != 0 {
		t.Fatalf("%d job(s) returned silently wrong factors", wrong)
	}
	if completed*10 < jobs*9 {
		t.Fatalf("only %d/%d jobs completed, gate requires >= 90%%", completed, jobs)
	}
	d := obs.Default().Snapshot().Diff(snap)
	if counterSum(d, obs.MetricNodeLost) == 0 {
		t.Fatal("gate fleet lost no nodes: the armed faults never fired")
	}
	if counterSum(d, obs.MetricReconstructions) == 0 {
		t.Fatal("no parity reconstructions recorded: every loss took the failover path")
	}
	if d.CounterValue(obs.MetricInternodeBytes) == 0 {
		t.Fatal("no inter-node traffic recorded on a 3-node fleet")
	}
	st := s.Stats()
	if st.NodeFailovers == 0 {
		t.Fatal("no node failovers recorded: the double-loss jobs never engaged the ladder")
	}
	t.Logf("node-loss gate: completed=%d/%d nodeFailovers=%d retries=%d reconstructions=%d",
		completed, jobs, st.NodeFailovers, st.Retries, counterSum(d, obs.MetricReconstructions))
}

// clusterSpec is a 4-GPU / 4-node Cholesky job carrying r parity columns
// per cross-node group; nf arms whole-node loss plans and lf PCIe link
// fault plans (nil = clean cluster run).
func clusterSpec(seed uint64, r int, nf map[int]ftla.NodeFaultPlan, lf map[int]ftla.LinkFaultPlan) JobSpec {
	return JobSpec{
		Decomp: Cholesky,
		A:      ftla.RandomSPD(96, seed),
		Config: ftla.Config{
			GPUs: 4, NB: 16, Nodes: 4, Redundancy: r,
			NodeFault: nf,
			LinkFault: lf,
		},
		NoCache: true,
	}
}

// TestMultiNodeLossRecoveryGate is the CI gate scripts/check.sh runs under
// -race: a fleet of r=2 cluster jobs on 4-node platforms where jobs lose
// one node, two nodes sequentially, or two nodes in one correlated burst —
// every loss inside the redundancy budget. At least 90% of the jobs must
// reach a completed result, not one completed job may carry a silently
// wrong factor, and because r=2 absorbs every armed loss below the job,
// the failover ladder must never engage.
func TestMultiNodeLossRecoveryGate(t *testing.T) {
	snap := obs.Default().Snapshot()
	s := New(Config{
		Workers: 4,
		Retry:   RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond},
		Seed:    101,
	})
	defer s.Close()

	const jobs = 16
	handles := make([]*JobHandle, 0, jobs)
	double := make(map[int]bool)
	for i := 0; i < jobs; i++ {
		var nf map[int]ftla.NodeFaultPlan
		switch i % 4 {
		case 0: // clean control
		case 1: // one loss: the first parity column absorbs it
			nf = map[int]ftla.NodeFaultPlan{1 + i%3: {AfterEpochs: 1 + i%4}}
		case 2: // two sequential losses: both absorbed at r=2
			nf = map[int]ftla.NodeFaultPlan{
				1: {AfterEpochs: 1 + i%2},
				2: {AfterEpochs: 3 + i%2},
			}
			double[i] = true
		case 3: // correlated burst: two nodes at one epoch, a 2-erasure decode
			nf = map[int]ftla.NodeFaultPlan{
				i % 3:   {AfterEpochs: 2},
				1 + i%3: {AfterEpochs: 2},
			}
			double[i] = true
		}
		h, err := s.Submit(context.Background(), clusterSpec(uint64(900+i), 2, nf, nil))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}

	var mu sync.Mutex
	completed, wrong := 0, 0
	var wg sync.WaitGroup
	for i, h := range handles {
		wg.Add(1)
		go func(i int, h *JobHandle) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			res, err := h.Wait(ctx)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				t.Logf("job %d did not complete: %v", i, err)
				return
			}
			completed++
			if res.Residual > 1e-9 {
				wrong++
				t.Errorf("job %d: silently wrong factor, residual %g", i, res.Residual)
			}
			if double[i] {
				if res.Attempts != 1 {
					t.Errorf("job %d: double loss took %d attempts, want 1 (absorbed below the job)", i, res.Attempts)
				}
				if nl := res.Factors.Report().NodesLost; nl != 2 {
					t.Errorf("job %d: report NodesLost = %d, want 2", i, nl)
				}
			}
		}(i, h)
	}
	wg.Wait()

	if wrong != 0 {
		t.Fatalf("%d job(s) returned silently wrong factors", wrong)
	}
	if completed*10 < jobs*9 {
		t.Fatalf("only %d/%d jobs completed, gate requires >= 90%%", completed, jobs)
	}
	st := s.Stats()
	if st.NodeFailovers != 0 {
		t.Fatalf("Stats.NodeFailovers = %d, want 0 (every loss is inside the r=2 budget)", st.NodeFailovers)
	}
	d := obs.Default().Snapshot().Diff(snap)
	if counterSum(d, obs.MetricNodeLost) == 0 {
		t.Fatal("gate fleet lost no nodes: the armed faults never fired")
	}
	if counterSum(d, obs.MetricReconstructions) == 0 {
		t.Fatal("no parity reconstructions recorded")
	}
	if counterSum(d, obs.MetricParityBytes) == 0 {
		t.Fatal("no parity maintenance traffic recorded on an r=2 fleet")
	}
	spentTwo := false
	for k := range d.Counters {
		if strings.HasPrefix(k, obs.MetricReconstructions+"{") && strings.Contains(k, `spent="2"`) {
			spentTwo = true
			break
		}
	}
	if !spentTwo {
		t.Fatal("no reconstruction recorded with spent=2: the double losses never drained the budget")
	}
	t.Logf("multi-node-loss gate: completed=%d/%d reconstructions=%d parityBytes=%d",
		completed, jobs, counterSum(d, obs.MetricReconstructions), counterSum(d, obs.MetricParityBytes))
}

// TestChaosClusterStorm mixes correlated node bursts with PCIe link faults
// on r=2 clusters — the two fault layers recover through different
// machinery (in-place erasure decode vs. checksummed retransmission and
// link failover) and must not trip over each other. Run under -race by
// scripts/check.sh via the fleet gates' shared harness conventions.
func TestChaosClusterStorm(t *testing.T) {
	before := runtime.NumGoroutine()
	snap := obs.Default().Snapshot()

	s := New(Config{
		Workers: 4,
		Retry:   RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond},
		Seed:    103,
	})

	rng := matrix.NewRNG(2028)
	const jobs = 18
	handles := make([]*JobHandle, 0, jobs)
	for i := 0; i < jobs; i++ {
		var nf map[int]ftla.NodeFaultPlan
		var lf map[int]ftla.LinkFaultPlan
		switch rng.Intn(5) {
		case 0: // clean control
		case 1: // single node loss, absorbed by the first parity
			nf = map[int]ftla.NodeFaultPlan{rng.Intn(4): {AfterEpochs: 1 + rng.Intn(4)}}
		case 2: // correlated two-node burst, one simultaneous 2-erasure decode
			a := rng.Intn(4)
			b := (a + 1 + rng.Intn(3)) % 4
			e := 1 + rng.Intn(3)
			nf = map[int]ftla.NodeFaultPlan{a: {AfterEpochs: e}, b: {AfterEpochs: e}}
		case 3: // transient link corruption, absorbed by retransmission
			lf = map[int]ftla.LinkFaultPlan{rng.Intn(4): {
				Mode: ftla.LinkCorrupt, AfterTransfers: rng.Intn(12), Every: 4 + rng.Intn(8),
			}}
		case 4: // node loss while a link flaps
			nf = map[int]ftla.NodeFaultPlan{1 + rng.Intn(3): {AfterEpochs: 1 + rng.Intn(3)}}
			lf = map[int]ftla.LinkFaultPlan{rng.Intn(4): {
				Mode: ftla.LinkFlap, Count: 1 + rng.Intn(8),
			}}
		}
		h, err := s.Submit(context.Background(), clusterSpec(uint64(1100+i), 2, nf, lf))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}

	var mu sync.Mutex
	completed := 0
	var wg sync.WaitGroup
	for i, h := range handles {
		wg.Add(1)
		go func(i int, h *JobHandle) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			res, err := h.Wait(ctx)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				t.Logf("job %d did not complete: %v", i, err)
				return
			}
			completed++
			if res.Residual > 1e-9 {
				t.Errorf("job %d: silently wrong result, residual %g", i, res.Residual)
			}
		}(i, h)
	}
	wg.Wait()
	s.Close()

	if completed*10 < jobs*9 {
		t.Fatalf("only %d/%d jobs completed, storm requires >= 90%%", completed, jobs)
	}
	st := s.Stats()
	if got := int(st.Completed + st.Failed + st.Canceled); got != jobs {
		t.Fatalf("terminal states %d != jobs %d (some job vanished)", got, jobs)
	}
	d := obs.Default().Snapshot().Diff(snap)
	if counterSum(d, obs.MetricNodeLost) == 0 {
		t.Fatal("storm lost no nodes: the armed node faults never fired")
	}
	if counterSum(d, obs.MetricReconstructions) == 0 {
		t.Fatal("storm recorded no parity reconstructions")
	}
	if d.CounterValue(obs.MetricTransferRetransmits) == 0 {
		t.Fatal("storm issued no retransmissions: the link faults never fired")
	}
	t.Logf("cluster storm: completed=%d/%d reconstructions=%d retransmits=%d retries=%d",
		completed, jobs, counterSum(d, obs.MetricReconstructions),
		d.CounterValue(obs.MetricTransferRetransmits), st.Retries)

	// Goroutine-leak check, same settle loop as TestChaosStorm.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before storm, %d after settle", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
