package core

import (
	"math"
	"sort"

	"ftla/internal/obs"
)

// Dynamic work repartitioning (DESIGN.md §10).
//
// The static 1-D block-column-cyclic layout fixes each GPU's share of the
// trailing matrix for the whole factorization, so a device that slows down
// mid-run (the hetsim straggler fault, or genuinely heterogeneous device
// speeds) inflates every trailing-update stage to its pace. The rebalancer
// closes the loop the Heterogeneous-Solvers exemplar closes with its
// per-iteration gpuProportion recompute: measure each GPU's trailing-update
// time, EWMA-smooth a per-column cost estimate, and every
// Options.RebalanceEvery steps re-apportion the remaining trailing block
// columns proportionally to estimated speed, migrating ownership of
// reassigned columns over simulated PCIe with their checksum strips riding
// along (protected.migrateColumn).
//
// The decision pipeline is deterministic for a given schedule: samples
// are hetsim.Device laps, the kernel time and Fletcher passes of reliable
// transfers inside the bracket alone. A lap does not carry the rounding
// of the device's running busy total, so GPUs doing equal work sample
// equal bits and the apportionment's ties fall to its tie-break rule,
// whatever ran outside the bracket (a parity refresh, say). It is not
// schedule-invariant:
// under look-ahead the pull of the next panel, and its source-side Fletcher
// pass on the owner GPU, falls between the two sampling points, so the
// schedules can reach different decisions. Results are bit-identical to
// the static layout either way because migration copies exact bits and
// every kernel's per-column arithmetic is owner-independent.

// On multi-node topologies rebalancing coexists with the cross-node
// erasure code (coded.go) through a parity-aware migration protocol. The
// code's placement invariant — within a group, members and parities live on
// pairwise distinct nodes — must survive every move, or a single node loss
// could remove more columns of one group than its parities can solve for.
// Moves are therefore filtered (filterLegal) against a simulation of the
// round: an intra-node move is always legal (node residues unchanged); a
// cross-node move toward a node holding one of the group's live parities is
// legal and re-homes that parity to the donor GPU (re-encoded inside the
// migration's coalesced-transfer window, so the swap costs one extra
// group-encode); a cross-node move toward a node holding another member of
// the group — or one that would leave two of the group's columns behind on
// the donor's node — is dropped. Bit-exactness survives because migration
// copies exact bits and the re-homed parity is re-encoded from unchanged
// member bits by the same deterministic kernels the refresh stage runs.

// Rebalance instruments in the obs default registry.
var (
	rebalancesTotal = obs.Default().Counter(obs.MetricRebalances,
		"Applied work repartitionings (rebalance rounds that moved at least one column).")
	rebalanceMoved = obs.Default().Counter(obs.MetricRebalanceMoved,
		"Block columns migrated between GPUs by the rebalancer, checksum strips riding along.")
	rebalanceParityReencodes = obs.Default().Counter(obs.MetricRebalanceParityReencodes,
		"Parity columns re-homed and re-encoded by the parity-aware migration protocol (a member moved onto a node holding its group's parity).")
	deviceShare = obs.Default().FloatGaugeVec(obs.MetricDeviceShare,
		"Per-GPU share of the remaining trailing block columns at the latest rebalance decision.",
		"device")
)

// rebEWMA is the smoothing factor of the per-column cost estimator: the
// newest sample and the history weigh equally, so a 4× straggler dominates
// the estimate within ~two samples while one noisy step cannot.
const rebEWMA = 0.5

// rebDeadband is the estimate spread (max/min seconds-per-column) below
// which the devices count as uniform and the apportionment snaps to equal
// weights. Per-column costs differ slightly across GPUs even on identical
// devices (Cholesky's trailing columns shrink with depth, so each GPU
// averages over different heights); without the deadband that noise would
// shuffle columns every round. A skewed *layout* is still corrected under
// the deadband — equal weights re-apportion toward balance — only the
// weights are snapped, not the decision.
const rebDeadband = 1.25

// rebMove reassigns block column bj to GPU dst. When the move lands on a
// node holding one of the group's parity columns, parT/parJ identify that
// parity and parDst the GPU (the donor's) it is re-homed to; parT = -1
// means no parity action.
type rebMove struct {
	bj     int
	dst    int
	parT   int
	parJ   int
	parDst int
}

// rebState is the runtime's rebalancer: the EWMA per-column cost estimate
// per GPU.
type rebState struct {
	es  *engineSys
	p   *protected
	est []float64 // EWMA seconds per trailing column; 0 = no sample yet
}

func newRebState(p *protected) *rebState {
	return &rebState{es: p.es, p: p, est: make([]float64, p.es.sys.NumGPUs())}
}

// beginSample brackets the start of step k's trailing update: start a new
// busy-time lap on every GPU. Nil-safe (rebalancing off).
func (rb *rebState) beginSample() {
	if rb == nil {
		return
	}
	for g := range rb.est {
		rb.es.sys.GPU(g).Lap()
	}
}

// endSample closes the bracket after step k's trailing update (post-join
// under look-ahead) and folds each GPU's lap, per column, into its EWMA
// estimate. Nil-safe.
func (rb *rebState) endSample(k int) {
	if rb == nil {
		return
	}
	p := rb.p
	for g := range rb.est {
		cols := p.nloc[g] - p.trailStart(g, k+1)
		if cols <= 0 {
			continue
		}
		delta := rb.es.sys.GPU(g).Lap()
		if delta <= 0 {
			continue
		}
		sample := delta / float64(cols)
		if rb.est[g] == 0 {
			rb.est[g] = sample
		} else {
			rb.est[g] = (1-rebEWMA)*rb.est[g] + rebEWMA*sample
		}
	}
}

// liveIdx returns the indices of the GPUs still serving. GPUs taken down by
// a node loss hold no columns and must receive none, so every apportionment
// runs over this subset.
func (rb *rebState) liveIdx() []int {
	var live []int
	for g := 0; g < len(rb.est); g++ {
		if rb.p.gpuLive(g) {
			live = append(live, g)
		}
	}
	return live
}

// plan decides the rebalance after step k: apportion the T = nbr-(k+2)
// remaining trailing columns (column k+1 is the next panel and stays put)
// over the live GPUs proportionally to estimated speed, publish the
// resulting device shares, and emit the legal moves that take the current
// layout there. Returns nil when there is nothing to move.
func (rb *rebState) plan(k int) []rebMove {
	p := rb.p
	bjLo := k + 2
	T := p.nbr - bjLo
	live := rb.liveIdx()
	if T <= 0 || len(live) < 2 {
		return nil
	}
	cur := make([]int, len(rb.est))
	for g := range cur {
		cur[g] = p.nloc[g] - p.trailStart(g, bjLo)
	}
	lcur := make([]int, len(live))
	for i, g := range live {
		lcur[i] = cur[g]
	}
	// Every live GPU keeps at least one column (a starved GPU must keep
	// producing samples to earn width back), capped at an equal share.
	ltgt := apportion(T, rb.weightsOf(live), lcur, min(1, T/len(live)))
	tgt := make([]int, len(cur))
	for i, g := range live {
		tgt[g] = ltgt[i]
	}
	for g := range tgt {
		deviceShare.With(rb.es.sys.GPU(g).Name()).Set(float64(tgt[g]) / float64(T))
	}
	return rb.filterLegal(rb.movesFor(tgt, cur))
}

// weightsOf converts the cost estimates of the live subset to apportionment
// weights: speed = 1/cost. GPUs without a sample yet, or a spread inside
// the deadband, collapse to equal weights.
func (rb *rebState) weightsOf(live []int) []float64 {
	w := make([]float64, len(live))
	mn, mx := math.Inf(1), 0.0
	for i, g := range live {
		e := rb.est[g]
		if e <= 0 {
			for i := range w {
				w[i] = 1
			}
			return w
		}
		w[i] = 1 / e
		mn = math.Min(mn, e)
		mx = math.Max(mx, e)
	}
	if mx/mn < rebDeadband {
		for i := range w {
			w[i] = 1
		}
	}
	return w
}

// filterLegal drops moves that would break the erasure code's placement
// invariant and annotates the survivors with the parity re-homes they
// require, simulating the round move by move so earlier accepted moves are
// visible to later legality checks. On flat systems every move is legal.
func (rb *rebState) filterLegal(moves []rebMove) []rebMove {
	cs := rb.p.coded
	for i := range moves {
		moves[i].parT = -1
	}
	if cs == nil {
		return moves
	}
	sys := rb.es.sys
	// Simulated placement as of the moves accepted so far: member owners
	// and parity hosts.
	simOwn := append([]int(nil), rb.p.own...)
	simPg := make([][]int, len(cs.groups))
	for t := range cs.groups {
		simPg[t] = append([]int(nil), cs.groups[t].pgs...)
	}
	out := moves[:0]
	for _, m := range moves {
		src := simOwn[m.bj]
		srcNode, dstNode := sys.NodeOf(src), sys.NodeOf(m.dst)
		if srcNode == dstNode {
			// Intra-node moves never change the group's node residues.
			simOwn[m.bj] = m.dst
			out = append(out, m)
			continue
		}
		t := cs.groupOf(m.bj)
		g := &cs.groups[t]
		blocked := false
		parJ := -1
		for bj2 := g.first; bj2 <= g.last; bj2++ {
			if bj2 != m.bj && sys.NodeOf(simOwn[bj2]) == dstNode {
				blocked = true // another member already on the target node
			}
		}
		for j, buf := range g.bufs {
			if buf != nil && sys.NodeOf(simPg[t][j]) == dstNode {
				parJ = j
			}
		}
		if !blocked && parJ >= 0 {
			// The target node holds one of the group's parities: legal only
			// when the donor's node ends the move holding no other column of
			// the group, so the parity can re-home there without sharing a
			// node with a member or another parity.
			for bj2 := g.first; bj2 <= g.last; bj2++ {
				if bj2 != m.bj && sys.NodeOf(simOwn[bj2]) == srcNode {
					blocked = true
				}
			}
			for j, buf := range g.bufs {
				if j != parJ && buf != nil && sys.NodeOf(simPg[t][j]) == srcNode {
					blocked = true
				}
			}
			if !blocked {
				m.parT, m.parJ, m.parDst = t, parJ, src
				simPg[t][parJ] = src
			}
		}
		if blocked {
			continue
		}
		simOwn[m.bj] = m.dst
		out = append(out, m)
	}
	return out
}

// apportion distributes T whole columns over the GPUs proportionally to
// weights by largest remainder, breaking ties toward the current owner
// (larger cur first, then lower index) so a balanced layout under equal
// weights maps to itself, then raises everyone to the minC floor by taking
// from the largest targets. Deterministic throughout.
func apportion(T int, weights []float64, cur []int, minC int) []int {
	G := len(weights)
	tgt := make([]int, G)
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	if T <= 0 || sum <= 0 {
		return tgt
	}
	type frac struct {
		g   int
		rem float64
	}
	fracs := make([]frac, G)
	used := 0
	for g, w := range weights {
		exact := float64(T) * w / sum
		tgt[g] = int(math.Floor(exact))
		fracs[g] = frac{g, exact - float64(tgt[g])}
		used += tgt[g]
	}
	sort.SliceStable(fracs, func(i, j int) bool {
		if fracs[i].rem != fracs[j].rem {
			return fracs[i].rem > fracs[j].rem
		}
		if cur[fracs[i].g] != cur[fracs[j].g] {
			return cur[fracs[i].g] > cur[fracs[j].g]
		}
		return fracs[i].g < fracs[j].g
	})
	for i := 0; used < T; i++ {
		tgt[fracs[i%G].g]++
		used++
	}
	for raised := true; raised; {
		raised = false
		for g := 0; g < G; g++ {
			if tgt[g] >= minC {
				continue
			}
			donor := -1
			for h := 0; h < G; h++ {
				if tgt[h] > minC && (donor < 0 || tgt[h] > tgt[donor]) {
					donor = h
				}
			}
			if donor < 0 {
				return tgt
			}
			tgt[donor]--
			tgt[g]++
			raised = true
		}
	}
	return tgt
}

// movesFor turns a target apportionment into concrete moves: each donor
// releases its highest-indexed trailing columns (the cheapest and
// latest-needed), and receivers in ascending GPU order drain the pool from
// the highest column down. Deterministic.
func (rb *rebState) movesFor(tgt, cur []int) []rebMove {
	p := rb.p
	var pool []int
	for g := range tgt {
		for i := 0; i < cur[g]-tgt[g]; i++ {
			pool = append(pool, p.blocks[g][p.nloc[g]-1-i])
		}
	}
	if len(pool) == 0 {
		return nil
	}
	sort.Sort(sort.Reverse(sort.IntSlice(pool)))
	var moves []rebMove
	pi := 0
	for g := range tgt {
		for i := 0; i < tgt[g]-cur[g]; i++ {
			moves = append(moves, rebMove{bj: pool[pi], dst: g})
			pi++
		}
	}
	return moves
}

// apply executes a planned round of moves inside one coalesced-transfer
// window (each PCIe link pays its latency once per round, as a real
// batched cudaMemcpy would), updates the run counters and process
// metrics, and notifies the test hook.
func (rb *rebState) apply(k int, moves []rebMove) {
	es := rb.es
	es.sys.CoalesceTransfers(func() {
		for _, m := range moves {
			rb.p.migrateColumn(m.bj, m.dst)
			if m.parT >= 0 {
				// The move displaced a parity from the target node; re-home
				// it to the donor GPU inside the same transfer window.
				rb.p.coded.rehomeParity(m.parT, m.parJ, m.parDst)
				rebalanceParityReencodes.Inc()
			}
		}
	})
	es.res.Rebalances++
	es.res.MovedColumns += len(moves)
	rebalancesTotal.Inc()
	rebalanceMoved.Add(uint64(len(moves)))
	if es.opts.onRebalance != nil {
		es.opts.onRebalance(k, moves)
	}
}
