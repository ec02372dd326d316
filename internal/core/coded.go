package core

import (
	"math"
	"sort"
	"strconv"

	"ftla/internal/gf"
	"ftla/internal/hetsim"
	"ftla/internal/obs"
)

// Coded redundancy columns (DESIGN.md §11).
//
// ABFT checksums repair corrupted *values*; a whole-node loss removes every
// block column the node's GPUs held, and no column checksum can rebuild a
// column that is gone. The cluster layer therefore maintains an erasure
// code *across nodes*: every group of kk = Nodes-r consecutive data block
// columns carries r parity columns, one on each of the r nodes that own
// none of the group's members, so any ≤ r node losses remove at most r
// columns per group and the survivors plus the remaining parities rebuild
// the lost members exactly.
//
// The code is a [kk+r, kk] Reed-Solomon erasure code over GF(2^8), applied
// bytewise to the IEEE-754 bit patterns of the elements (math.Float64bits):
// parity j of a group is P_j = Σ_i gen[j][i]·D_i with gen the normalized
// Cauchy generator of internal/gf. Field addition is XOR, so — unlike a
// floating-point sum code — the code is closed under reconstruction with
// *zero* rounding error, which is what makes a node-loss-then-reconstruct
// run bit-identical to an uninterrupted one (the acceptance pin of PR 9,
// extended to multi-loss in PR 10). gen's row 0 is all ones, so parity 0 is
// the plain XOR of the members and the r = 1 configuration is bit-identical
// in effect to the previous hard-wired XOR scheme.
//
// Placement. Block columns start block-cyclic (bj on GPU bj mod G) and
// nodes are round-robin (GPU g on node g mod Nodes, with G a multiple of
// Nodes), so the members of group t — columns [t·kk, t·kk+kk) — land on kk
// *distinct* consecutive node residues, and parity j's GPU
// pg_j = (t·kk + kk + j) mod G lives on the j-th residue the members miss.
// Every node therefore holds exactly one column of each group (member or
// parity), so any ≤ r node losses remove at most r columns per group, and
// a loss never takes more columns than the surviving parities can solve
// for. Member→parity shipments cross nodes by construction; they ride the
// same TransferReliable path as every other movement, and hetsim
// charges the inter-node link tier and counts InternodeBytes from the
// endpoints. Rebalancing migration preserves the invariant through the
// parity-aware protocol in rebalance.go: a cross-node move is only
// accepted toward a node holding one of the group's parities, which is
// then re-encoded on the donor's node (codedState.rehomeParity).
//
// Maintenance. Parity is lazy: it is encoded and shipped only every c
// ladder steps (parityInterval; Options.parityEvery overrides it in
// tests), and between two such refreshes it stays exact as of the last
// one, step s — the refresh epoch (−1 for the input). Every step runs
// the refresh's verification regardless: it checks and repairs the
// trailing columns against their column checksums on the host, as the
// post-TMU check does, so a soft error the step's own checks missed is
// repaired instead of entering the parity, where a node loss would
// rebuild it as if it were correct. A due refresh at step k then
// re-encodes rows [(s+1)·nb, n) of every group with a column > s: steps
// s+1..k write only those rows (LU row interchanges included), so the
// rows above are frozen and their parity is already current (the code is
// row-local). Groups whose columns all lie at or before s are frozen as
// a whole and never change: no step writes a finished column on the GPUs
// (LU's later row interchanges reach finished columns on the host alone),
// so their parity stays exact. Once a run has detected an error, every
// step refreshes, at full height: a §VII.B repair may rewrite rows above
// the panel with roundoff-level different bits, which the replay below
// would not reproduce. A group's live parities are all
// encoded on one hub GPU (its first live parity GPU), which receives each
// member once and ships the finished parities j >= 1 home: kk + live − 1
// cross-node shipments per group rather than kk·live. The initial encode
// and a restore (which ships the unfinished columns from the checkpoint
// and re-encodes all surviving parity; checkpoints do not carry it) run
// at full height and reset s. Full height is every row a member holds:
// Cholesky's GPUs hold each column from its diagonal block down
// (protected.top), so an encode ships each member from its own diagonal
// block, and a group's parities start at its first member's (from): the
// rows above are zero in every member, so in every parity. A rebalancing
// round that moves columns after a step past s refreshes at once, so a
// re-homed parity shares its group's epoch and every snapshot (below)
// sits on its column's owner.
//
// Two things keep a lazy parity usable. At each refresh, the initial
// encode and every rollback included, every GPU copies the rows later
// steps may write, [(s+1)·nb, n), of the columns it owns of the groups
// still active into snapshots — device-local copies, as of s, of the very
// bits the parity encodes. And every live GPU already holds each step's
// verified broadcast stage (the panel, with LU's pivots, QR's T and
// c(V)); the ladders log those stages as a replay of each step since s,
// dropped at the next refresh.
//
// Reconstruction. At a node-loss epoch e the runtime calls
// reconstructNodes with every node that died at that boundary
// (simultaneous losses fire together; see hetsim.NodeEpoch). Parities on
// dead nodes are retired; then, per group, the lost members are solved
// from the first surviving parities: each selected parity GPU folds the
// surviving members — their snapshots, for a group active at s — into its
// parity copy (RHS_j = P_j ⊕ Σ gen[j][i]·D_i), the generator submatrix is
// inverted over GF(2^8) — always possible, every square submatrix of a
// Cauchy matrix is nonsingular — and each lost member D = Σ inv·RHS is
// accumulated and adopted on a selected parity GPU. That is the member as
// of s; the adoptee keeps it as the member's snapshot and replays the
// logged steps s+1..e−1 on that one column — before its own step the row
// interchanges, the PU TRSM and the TMU GEMM, at its own step the panel's
// adoption from the logged stage, after it nothing — with the ladders'
// own kernels. Every kernel is column-local and
// accumulates in k-order (the reason look-ahead is bit-exact, runtime.go),
// so the replayed column equals the uninterrupted run's bit for bit. Its
// checksum strips are then re-encoded from the rebuilt data. Redundancy is
// *dynamic*, not a global one-shot: a group stays recoverable while its
// lost members do not exceed its surviving parities, so an r = 2 cluster
// absorbs two losses whether they arrive in one epoch or two. Only when
// some group can no longer be solved does the typed hetsim.NodeLostError
// surface to the serving layer.

// Coded-redundancy instruments in the obs default registry.
var (
	// reconstructionsTotal counts block columns rebuilt from parity after a
	// node loss, labeled by the lost node and by how much redundancy the
	// cluster has spent/remaining after the rebuild (minimum surviving
	// parity count across groups).
	reconstructionsTotal = obs.Default().CounterVec(obs.MetricReconstructions,
		"Block columns rebuilt from erasure-coded parity after a node loss, labeled by node and by redundancy spent/remaining after the rebuild.",
		"node", "spent", "remaining")
	// parityBytesTotal counts the bytes the coded layer shipped between
	// nodes: parity encode/refresh traffic, reconstruction shipments, and
	// rebalance-driven parity re-encodes.
	parityBytesTotal = obs.Default().Counter(obs.MetricParityBytes,
		"Bytes shipped by the erasure-coded redundancy layer (parity refresh, reconstruction, and migration re-encodes).")
)

// parityGroup is one erasure-code group: data block columns [first, last]
// and their r parity columns on GPUs pgs. bufs[j] is parity j's n × nb
// column, nil once retired (its node was lost); pgs[j] tracks the hosting
// GPU and is rewritten when the rebalancer re-homes a parity.
type parityGroup struct {
	first, last int
	pgs         []int
	bufs        []*hetsim.Buffer
}

// liveParities returns the indices of the group's surviving parities.
func (g *parityGroup) liveParities() []int {
	var live []int
	for j, b := range g.bufs {
		if b != nil {
			live = append(live, j)
		}
	}
	return live
}

// codedState is the cross-node redundancy attached to a protected layout on
// multi-node topologies (nil on flat systems).
type codedState struct {
	p      *protected
	r      int      // parity columns per group
	kk     int      // data columns per parity group = Nodes - r
	gen    [][]byte // r × kk normalized Cauchy generator; gen[0] all ones
	groups []parityGroup
	// scratch holds each GPU's r lazily allocated n × nb work columns:
	// scratch[g][0] is the staging column member and RHS shipments land in,
	// and scratch[g][1:] are the r−1 accumulators GPU g, as a group's hub,
	// encodes parities j >= 1 into before shipping them home. All are
	// reused across groups (transfers inside one coalesced window complete
	// in order).
	scratch map[int][]*hetsim.Buffer
	// tables caches the per-coefficient GF(2^8) multiplication tables the
	// parity kernels stream words through.
	tables map[byte]*gf.Table
	// nodesLost counts the node losses this state absorbed, for the
	// spent/remaining metric labels.
	nodesLost int

	// every is the refresh interval c in steps.
	every int
	// epoch is the refresh epoch s: the step whose end every parity
	// reflects (−1 for the input).
	epoch int
	// snaps[bj] holds rows [(epoch+1)·nb, n) of block column bj as of
	// epoch, on the GPU that owns it, for the members of groups still
	// active at epoch (last > epoch); the rows above are frozen, so the
	// column itself holds them. nil for frozen groups.
	snaps []*hetsim.Buffer
	// log replays the steps since epoch, in order: log[i](bj, g) applies
	// step epoch+1+i to block column bj on its owner g (see adopt).
	log []func(bj, g int)
}

// parityInterval is the default refresh interval c: parity is encoded
// and shipped after every c-th ladder step.
const parityInterval = 4

// redundancyOf resolves the Options.Redundancy knob against the topology:
// default 1, clamped into [1, Nodes-1] (at least one data column per group
// must remain; the layers above validate and reject out-of-range requests,
// this clamp is the defensive floor for direct core callers).
func redundancyOf(opts *Options, nodes int) int {
	r := opts.Redundancy
	if r < 1 {
		r = 1
	}
	if r > nodes-1 {
		r = nodes - 1
	}
	return r
}

// newCodedState builds the parity groups for p's layout. Requires at least
// two nodes; callers gate on that.
func newCodedState(p *protected) *codedState {
	nodes := p.es.sys.Nodes()
	G := p.es.sys.NumGPUs()
	r := redundancyOf(&p.es.opts, nodes)
	kk := nodes - r
	cs := &codedState{
		p: p, r: r, kk: kk,
		gen:     gf.Cauchy(r, kk),
		scratch: make(map[int][]*hetsim.Buffer),
		tables:  make(map[byte]*gf.Table),
		every:   parityInterval,
		snaps:   make([]*hetsim.Buffer, p.nbr),
	}
	if e := p.es.opts.parityEvery; e > 0 {
		cs.every = e
	}
	for first := 0; first < p.nbr; first += kk {
		last := first + kk - 1
		if last >= p.nbr {
			last = p.nbr - 1
		}
		g := parityGroup{first: first, last: last, pgs: make([]int, r), bufs: make([]*hetsim.Buffer, r)}
		for j := 0; j < r; j++ {
			g.pgs[j] = (first + kk + j) % G
			g.bufs[j] = p.es.sys.GPU(g.pgs[j]).Alloc(p.n, p.nb)
		}
		cs.groups = append(cs.groups, g)
	}
	return cs
}

// groupOf returns the parity-group index of block column bj.
func (cs *codedState) groupOf(bj int) int { return bj / cs.kk }

// exhausted reports that no group has a surviving parity column left —
// maintenance is pointless and the next loss is terminal for every group.
func (cs *codedState) exhausted() bool {
	for t := range cs.groups {
		for _, b := range cs.groups[t].bufs {
			if b != nil {
				return false
			}
		}
	}
	return true
}

// table returns the cached multiplication table of coefficient c.
func (cs *codedState) table(c byte) *gf.Table {
	if t, ok := cs.tables[c]; ok {
		return t
	}
	t := gf.MulTable(c)
	cs.tables[c] = t
	return t
}

// scratchCols returns GPU g's r work columns (see codedState.scratch).
func (cs *codedState) scratchCols(g int) []*hetsim.Buffer {
	if b, ok := cs.scratch[g]; ok {
		return b
	}
	b := make([]*hetsim.Buffer, cs.r)
	for i := range b {
		b[i] = cs.p.es.sys.GPU(g).Alloc(cs.p.n, cs.p.nb)
	}
	cs.scratch[g] = b
	return b
}

// ship moves a parity-layer buffer between devices over the reliable
// transfer path and counts the bytes it carried on the parity-traffic
// meter.
func (cs *codedState) ship(src, dst *hetsim.Buffer) {
	cs.p.es.sys.TransferReliable(src, dst)
	parityBytesTotal.Add(uint64(8 * src.Rows() * src.Cols()))
}

// rows returns rows [r0, n) of the n × nb column b.
func (cs *codedState) rows(b *hetsim.Buffer, r0 int) *hetsim.Buffer {
	return b.View(r0, 0, cs.p.n-r0, cs.p.nb)
}

// axpyInto folds c·src into dst over the float bit patterns (dst ^= c·src
// bytewise in GF(2^8)), both resident on dev. With c = 1 the table is the
// identity and the kernel is the plain XOR of the r = 1 code.
func (cs *codedState) axpyInto(dev *hetsim.Device, dst, src *hetsim.Buffer, c byte) {
	t := cs.table(c)
	dev.Run("parity-axpy", float64(dst.Rows()*dst.Cols()), func(int) {
		d, s := dst.Access(dev), src.Access(dev)
		for i := 0; i < d.Rows; i++ {
			dr, sr := d.Row(i), s.Row(i)
			for j := range dr {
				dr[j] = math.Float64frombits(math.Float64bits(dr[j]) ^ t.MulWord(math.Float64bits(sr[j])))
			}
		}
	})
}

// scaleInto overwrites dst with c·src (bytewise GF(2^8) over the bit
// patterns), both resident on dev.
func (cs *codedState) scaleInto(dev *hetsim.Device, dst, src *hetsim.Buffer, c byte) {
	t := cs.table(c)
	dev.Run("parity-scale", float64(dst.Rows()*dst.Cols()), func(int) {
		d, s := dst.Access(dev), src.Access(dev)
		for i := 0; i < d.Rows; i++ {
			dr, sr := d.Row(i), s.Row(i)
			for j := range dr {
				dr[j] = math.Float64frombits(t.MulWord(math.Float64bits(sr[j])))
			}
		}
	})
}

// member returns rows [r0, n) of block column bj on its owner.
func (cs *codedState) member(bj, r0 int) *hetsim.Buffer {
	p := cs.p
	return p.local[p.owner(bj)].View(r0, p.localOff(bj), p.n-r0, p.nb)
}

// from returns the first row of group t a code from row r0 on covers:
// r0, or the first row a member holds (protected.top) when that is lower
// down. The rows above it are zero in every member, so in every parity.
func (cs *codedState) from(t, r0 int) int { return max(r0, cs.p.top(cs.groups[t].first)) }

// encode recomputes rows [r0, n) of group t's parities js on GPU on, into
// the columns dsts resident there: dsts[a] = Σ_i gen[js[a]][i]·D_i. Each
// member crosses to on once, with the rows it holds — straight into
// dsts[0] when it is the first member and its coefficient there is 1,
// otherwise into on's staging column — and is folded into every target;
// a member already resident on on (a reconstruction adoptee or a migrated
// column) is read in place.
func (cs *codedState) encode(t, on, r0 int, js []int, dsts []*hetsim.Buffer) {
	g := &cs.groups[t]
	p := cs.p
	dev := p.es.sys.GPU(on)
	r0 = cs.from(t, r0)
	out := make([]*hetsim.Buffer, len(dsts))
	for a, d := range dsts {
		out[a] = cs.rows(d, r0)
	}
	for bj := g.first; bj <= g.last; bj++ {
		i := bj - g.first
		r := max(r0, p.top(bj))
		src := cs.member(bj, r)
		if p.owner(bj) != on {
			land := cs.rows(cs.scratchCols(on)[0], r)
			if i == 0 && cs.gen[js[0]][0] == 1 {
				land = out[0]
			}
			cs.ship(src, land)
			src = land
		}
		for a, j := range js {
			switch {
			case src == out[a]:
				// The shipment landed as this parity's first term.
			case i == 0:
				cs.scaleInto(dev, out[a], src, cs.gen[j][i])
			default:
				cs.axpyInto(dev, cs.rows(dsts[a], r), src, cs.gen[j][i])
			}
		}
	}
}

// refreshGroup recomputes rows [r0, n) of every surviving parity of group
// t on the group's hub — its first live parity GPU — and ships the
// parities j >= 1 home from the hub's accumulators.
func (cs *codedState) refreshGroup(t, r0 int) {
	g := &cs.groups[t]
	live := g.liveParities()
	if len(live) == 0 {
		return
	}
	hub := g.pgs[live[0]]
	dsts := append([]*hetsim.Buffer{g.bufs[live[0]]}, cs.scratchCols(hub)[1:len(live)]...)
	cs.encode(t, hub, r0, live, dsts)
	r0 = cs.from(t, r0)
	for a := 1; a < len(live); a++ {
		cs.ship(cs.rows(dsts[a], r0), cs.rows(g.bufs[live[a]], r0))
	}
}

// refresh ends step k: it verifies the trailing columns on their owner
// GPUs, as the post-TMU check does, and then — every c steps, or every
// step once the run has detected an error — commits the parity as of
// step k (see the maintenance note above).
func (cs *codedState) refresh(k int) {
	cs.verify(k)
	if k-cs.epoch >= cs.every || cs.p.es.res.Detected {
		cs.commit(k)
	}
}

// reset re-encodes every surviving parity at full height from data that
// reflect the end of step s: the initial encode (s = −1, the input) and
// the restore of a checkpoint (s = NextStep−1). It verifies first what
// the refresh after step s verifies (the input below its first block
// row): the rows above are finished, and LU's row panels there carry
// column checksums PU left stale. Then it snapshots as commit does.
func (cs *codedState) reset(s int) {
	cs.verify(max(s, 0))
	cs.snapshot(s)
	cs.epoch = -1
	cs.reencode(0)
	cs.epoch = s
	cs.log = cs.log[:0]
}

// verify checks and repairs the trailing columns of step k against their
// column checksums, so parity only ever encodes verified bits.
func (cs *codedState) verify(k int) {
	if cs.p.es.opts.Protection != NoChecksum {
		cs.p.checkTrailing((k+1)*cs.p.nb, k, tmuAll, &cs.p.es.res.Counter.TMUAfter)
	}
}

// commit makes the parity current as of step k, past the epoch, and
// starts a new epoch there: it snapshots the groups still active after k,
// re-encodes rows [(s+1)·nb, n) of every group with a column > s — at
// full height once the run has detected an error — and drops the replay
// log. The snapshots come first: zero-cost device-local copies that would
// otherwise wait for the parity shipments to land.
func (cs *codedState) commit(k int) {
	cs.snapshot(k)
	r0 := (cs.epoch + 1) * cs.p.nb
	if cs.p.es.res.Detected {
		r0 = 0
	}
	cs.reencode(r0)
	cs.epoch = k
	cs.log = cs.log[:0]
}

// moved follows a rebalancing round after step k that migrated columns:
// past the epoch it commits, so a re-homed parity shares its group's
// epoch and every snapshot sits on its column's new owner; at the epoch
// the parity is current already, and only the snapshots move to the new
// owners.
func (cs *codedState) moved(k int) {
	if k > cs.epoch {
		cs.commit(k)
	} else {
		cs.snapshot(k)
	}
}

// reencode recomputes rows [r0, n) of the surviving parity of every group
// with a column past the epoch, inside one coalesced-transfer window, so a
// round pays each link's latency once.
func (cs *codedState) reencode(r0 int) {
	cs.p.es.sys.CoalesceTransfers(func() {
		for t := range cs.groups {
			if cs.groups[t].last > cs.epoch {
				cs.refreshGroup(t, r0)
			}
		}
	})
}

// snapshot copies, on each owner, rows [(k+1)·nb, n) of every member of
// the groups with a live parity and a column past step k — the rows later
// steps may write — reusing each column's snapshot buffer while it sits
// on the owner and is tall enough.
func (cs *codedState) snapshot(k int) {
	p := cs.p
	r0 := (k + 1) * p.nb
	for t := range cs.groups {
		g := &cs.groups[t]
		for bj := g.first; bj <= g.last; bj++ {
			if g.last <= k || g.liveParities() == nil {
				cs.snaps[bj] = nil
				continue
			}
			dev := p.es.sys.GPU(p.owner(bj))
			if b := cs.snaps[bj]; b == nil || b.Device() != dev || b.Rows() < p.n-r0 {
				cs.snaps[bj] = dev.Alloc(p.n-r0, p.nb)
			}
			cs.snaps[bj] = cs.snaps[bj].View(0, 0, p.n-r0, p.nb)
			copyWithin(dev, cs.member(bj, r0), cs.snaps[bj])
		}
	}
}

// record appends the replay of the step just finished to the log (see
// adopt). Once no parity survives nothing can be rebuilt, no refresh
// drops the log, and it is not kept.
func (cs *codedState) record(step func(bj, g int)) {
	if !cs.exhausted() {
		cs.log = append(cs.log, step)
	}
}

// atEpoch returns block column bj as of the epoch, for decoding: the
// column itself in a frozen group, else a full-height copy on its owner
// assembled from the frozen rows of the column and its snapshot below
// them.
func (cs *codedState) atEpoch(bj int) *hetsim.Buffer {
	p := cs.p
	if cs.groups[cs.groupOf(bj)].last <= cs.epoch {
		return cs.member(bj, 0)
	}
	r0 := (cs.epoch + 1) * p.nb
	dev := cs.snaps[bj].Device()
	col := dev.Alloc(p.n, p.nb)
	copyWithin(dev, cs.member(bj, 0).View(0, 0, r0, p.nb), col.View(0, 0, r0, p.nb))
	copyWithin(dev, cs.snaps[bj], cs.rows(col, r0))
	return col
}

// rehomeParity re-encodes parity j of group t onto a fresh column on GPU
// dst and retires the old copy — the parity half of the parity-aware
// migration protocol (rebalance.go): when a member migrates onto the node
// hosting one of its group's parities, that parity moves to the donor's
// node, keeping every node at exactly one column per group. Re-encoding
// (rather than copying the old buffer) is valid because migration does not
// change member bits, and it keeps all parity motion on the member→parity
// shipment paths the transfer lint audits.
func (cs *codedState) rehomeParity(t, j, dst int) {
	g := &cs.groups[t]
	buf := cs.p.es.sys.GPU(dst).Alloc(cs.p.n, cs.p.nb)
	cs.encode(t, dst, 0, []int{j}, []*hetsim.Buffer{buf})
	g.pgs[j] = dst
	g.bufs[j] = buf
}

// reconstructNodes rebuilds every block column the lost nodes' GPUs held.
// All nodes that died at one epoch boundary are handled together — a
// simultaneous r-node burst removes up to r columns per group, which is
// exactly what r surviving parities can solve. It returns how many columns
// were rebuilt, or the typed error when some group lost more members than
// it has surviving parities (redundancy truly spent — the serving layer's
// failover ladder takes over). Losses fire only at epoch boundaries
// (the step runtime's node-loss stage), after the previous step's
// refresh verification, so the parity, the snapshots and the replay log
// together describe every member exactly.
func (cs *codedState) reconstructNodes(lostNodes []int) (int, error) {
	p := cs.p
	sys := p.es.sys
	cs.nodesLost += len(lostNodes)
	lostSet := make(map[int]bool, len(lostNodes))
	for _, node := range lostNodes {
		lostSet[node] = true
	}
	// Retire parities hosted on the dead nodes.
	for t := range cs.groups {
		g := &cs.groups[t]
		for j, buf := range g.bufs {
			if buf != nil && lostSet[sys.NodeOf(g.pgs[j])] {
				g.bufs[j] = nil
			}
		}
	}
	// Collect the lost data columns, attributed to the node that held them.
	G := sys.NumGPUs()
	var lost []int
	byNode := make(map[int]int, len(lostNodes))
	for g := 0; g < G; g++ {
		if node := sys.NodeOf(g); lostSet[node] {
			lost = append(lost, p.blocks[g]...)
			byNode[node] += len(p.blocks[g])
		}
	}
	sort.Ints(lost)
	// Feasibility before any mutation: every group must be solvable.
	byGroup := make(map[int][]int)
	for _, bj := range lost {
		t := cs.groupOf(bj)
		byGroup[t] = append(byGroup[t], bj)
	}
	for t, members := range byGroup {
		if len(members) > len(cs.groups[t].liveParities()) {
			node := lostNodes[0]
			gpus := 0
			for g := 0; g < G; g++ {
				if sys.NodeOf(g) == node {
					gpus++
				}
			}
			return 0, &hetsim.NodeLostError{Node: node, GPUs: gpus, Op: "reconstruct"}
		}
	}
	groups := make([]int, 0, len(byGroup))
	for t := range byGroup {
		groups = append(groups, t)
	}
	sort.Ints(groups)
	sys.CoalesceTransfers(func() {
		for _, t := range groups {
			cs.rebuildGroup(t, byGroup[t])
		}
	})
	spent, remaining := cs.redundancyLeft()
	for _, node := range lostNodes {
		if n := byNode[node]; n > 0 {
			reconstructionsTotal.With(strconv.Itoa(node), strconv.Itoa(spent), strconv.Itoa(remaining)).Add(uint64(n))
		}
	}
	return len(lost), nil
}

// redundancyLeft summarizes the cluster's surviving margin: remaining is
// the minimum live-parity count over all groups (how many further member
// losses the weakest group can still absorb), spent is the gap to the
// configured r.
func (cs *codedState) redundancyLeft() (spent, remaining int) {
	remaining = cs.r
	for t := range cs.groups {
		if live := len(cs.groups[t].liveParities()); live < remaining {
			remaining = live
		}
	}
	return cs.r - remaining, remaining
}

// rebuildGroup recovers group t's e lost members from its first e surviving
// parities. On each selected parity GPU the survivors are folded into a
// copy of the parity column — RHS_a = P_{j_a} ⊕ Σ_{surviving i}
// gen[j_a][i]·D_i — leaving an e×e linear system over GF(2^8) whose matrix
// is a square submatrix of the Cauchy generator, hence invertible. Each
// lost member D_{l_b} = Σ_a inv[b][a]·RHS_a is accumulated on the b-th
// selected parity GPU and adopted there. With e = 1 and a surviving parity
// 0 this degenerates to recon = parity ⊕ (XOR of survivors): the exact r=1
// path of PR 9. While the group is active the survivors enter through
// their snapshots, so each rebuilt member is the member as of the epoch,
// and adopt replays the steps since. Every shipment carries the rows a
// member holds (protected.top): a survivor's own, and of an RHS those of
// the member it helps rebuild; the rows above are zero in both.
func (cs *codedState) rebuildGroup(t int, lostMembers []int) {
	p := cs.p
	sys := p.es.sys
	g := &cs.groups[t]
	e := len(lostMembers)
	sel := g.liveParities()[:e]
	isLost := make(map[int]bool, e)
	for _, bj := range lostMembers {
		isLost[bj] = true
	}

	// The survivors as of the epoch.
	bufs := make([]*hetsim.Buffer, g.last-g.first+1)
	for bj := g.first; bj <= g.last; bj++ {
		if !isLost[bj] {
			bufs[bj-g.first] = cs.atEpoch(bj)
		}
	}

	// RHS scratches, one per selected parity, resident on its GPU.
	rhs := make([]*hetsim.Buffer, e)
	for a, j := range sel {
		pg := g.pgs[j]
		dev := sys.GPU(pg)
		scratch := dev.Alloc(p.n, p.nb)
		copyWithin(dev, g.bufs[j], scratch)
		for bj := g.first; bj <= g.last; bj++ {
			if isLost[bj] {
				continue
			}
			r := p.top(bj)
			src := cs.rows(bufs[bj-g.first], r)
			if src.Device() != dev {
				stage := cs.rows(cs.scratchCols(pg)[0], r)
				cs.ship(src, stage)
				src = stage
			}
			cs.axpyInto(dev, cs.rows(scratch, r), src, cs.gen[j][bj-g.first])
		}
		rhs[a] = scratch
	}

	// Invert the e×e generator submatrix (selected parity rows × lost
	// member columns).
	sub := make([][]byte, e)
	for a, j := range sel {
		sub[a] = make([]byte, e)
		for b, bj := range lostMembers {
			sub[a][b] = cs.gen[j][bj-g.first]
		}
	}
	inv, ok := gf.Invert(sub)
	if !ok {
		// Unreachable for a Cauchy generator; a panic here means the
		// generator construction is broken, not a recoverable runtime state.
		panic("core: erasure decode matrix singular")
	}

	// Accumulate and adopt each lost member on its selected parity GPU.
	for b, bj := range lostMembers {
		dst := g.pgs[sel[b]]
		dev := sys.GPU(dst)
		recon := dev.Alloc(p.n, p.nb)
		r := p.top(bj)
		for a := range sel {
			src := cs.rows(rhs[a], r)
			if a != b {
				stage := cs.rows(cs.scratchCols(dst)[0], r)
				cs.ship(src, stage)
				src = stage
			}
			if a == 0 {
				cs.scaleInto(dev, cs.rows(recon, r), src, inv[b][a])
			} else {
				cs.axpyInto(dev, cs.rows(recon, r), src, inv[b][a])
			}
		}
		cs.adopt(bj, dst, recon)
	}
}

// adopt inserts the rebuilt column recon (resident on GPU dst) into a
// slot opened at bj's sorted position in dst's slab and rewrites the
// ownership tables. While bj's group is active, recon is bj as of the
// epoch: it becomes bj's snapshot, and the logged steps since are
// replayed on the slot. The checksum strips are then re-encoded from the
// data. Unlike migrateColumn the source slab is never compacted — its
// device is gone — so the source-side update is bookkeeping only.
func (cs *codedState) adopt(bj, dst int, recon *hetsim.Buffer) {
	p := cs.p
	idx := p.openSlot(dst, bj)
	copyWithin(p.es.sys.GPU(dst), cs.rows(recon, p.top(bj)), p.strips(dst, idx, bj)[0])
	p.reown(bj, dst, idx)
	if cs.groups[cs.groupOf(bj)].last > cs.epoch {
		cs.snaps[bj] = cs.rows(recon, (cs.epoch+1)*p.nb)
		for _, step := range cs.log {
			step(bj, dst)
		}
	}
	// Certified re-encode: the maintained strips died with the node; fresh
	// strips from the rebuilt data verify exactly clean.
	p.encodeStrips(dst, idx, 1)
}
