package hetsim

// Whole-node faults. The fail-stop layer (failstop.go) loses one device at
// a time; this layer models the cluster-scale failure class — a node
// (power supply, fabric switch, kernel panic) taking every GPU it hosts
// down at once. Node faults fire only at epoch boundaries (NodeEpoch,
// called by the step runtime at the top of each ladder step, where streams
// are joined and device state is quiescent), which models the detection
// granularity of a real cluster health-checker: the coordinator notices a
// dead node between steps, not mid-kernel. The CPU coordinates from node 0
// and survives any node loss — losing the coordinator ends the computation
// by definition and is modeled by the CPU FaultPlan instead.

import (
	"fmt"
	"strconv"

	"ftla/internal/obs"
)

// nodeLostTotal counts fired node faults in the obs default registry,
// labeled by the lost node's index.
var nodeLostTotal = obs.Default().CounterVec(obs.MetricNodeLost,
	"Whole-node losses fired by armed node fault plans, labeled by node.", "node")

// NodeFaultPlan arms a whole-node loss (see System.ArmNodeFault). The
// zero value fires at the very next epoch boundary.
type NodeFaultPlan struct {
	// AfterEpochs delays the loss until this many NodeEpoch boundaries
	// have passed; 0 fires at the first one. This is how a chaos harness
	// kills a node mid-factorization deterministically.
	AfterEpochs int
}

// String describes the armed plan, e.g. "node loss after 3 epochs".
func (p NodeFaultPlan) String() string {
	return fmt.Sprintf("node loss after %d epochs", p.AfterEpochs)
}

// NodeLostError reports a whole-node loss the computation could not absorb
// (no erasure-coded redundancy available, or some parity group has already
// lost more columns than its surviving parities can solve for). Runs that
// reconstruct the lost columns from parity continue degraded and never
// surface this error.
type NodeLostError struct {
	// Node is the lost node's index.
	Node int
	// GPUs is how many devices the node took down.
	GPUs int
	// Op names the phase that gave up ("reconstruct", "epoch").
	Op string
}

// Error describes the loss.
func (e *NodeLostError) Error() string {
	return fmt.Sprintf("hetsim: node N%d lost (%d GPUs, op %s)", e.Node, e.GPUs, e.Op)
}

// ArmNodeFault arms (or, with a second call, replaces) a node fault plan
// on the given node of the topology. Arming a node that is out of range
// panics; Reset disarms every plan and revives lost nodes.
func (s *System) ArmNodeFault(node int, plan NodeFaultPlan) {
	if node < 0 || node >= s.cfg.nodes() {
		panic(fmt.Sprintf("hetsim: ArmNodeFault on node %d of a %d-node system", node, s.cfg.nodes()))
	}
	s.nodeMu.Lock()
	if s.nodePlans == nil {
		s.nodePlans = make(map[int]NodeFaultPlan)
	}
	s.nodePlans[node] = plan
	s.nodeMu.Unlock()
}

// NodeEpoch advances the node-fault epoch counter and fires every armed
// plan that has come due, in ascending node order — two plans armed for the
// same epoch model a correlated burst (shared rack power, a fabric
// partition) and are reported as ONE simultaneous multi-node loss, which is
// exactly the case an r ≥ 2 erasure code exists to absorb. Firing marks
// every GPU of each fired node lost — without panicking: the caller is the
// coordinator deciding how to react — and returns the lost nodes' indices,
// empty when nothing fired. Callers are expected to invoke it once per
// ladder step at a quiescent point.
func (s *System) NodeEpoch() []int {
	s.nodeMu.Lock()
	s.nodeEpoch++
	epoch := s.nodeEpoch
	var fired []int
	for node := 0; node < s.cfg.nodes(); node++ {
		plan, ok := s.nodePlans[node]
		if !ok || epoch <= plan.AfterEpochs {
			continue
		}
		fired = append(fired, node)
		delete(s.nodePlans, node)
	}
	s.nodeMu.Unlock()
	for _, node := range fired {
		for _, g := range s.gpus {
			if g.node != node {
				continue
			}
			g.fmu.Lock()
			g.lost = true
			g.fmu.Unlock()
		}
		nodeLostTotal.With(strconv.Itoa(node)).Inc()
	}
	return fired
}
