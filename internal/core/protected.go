package core

import (
	"slices"
	"sort"

	"ftla/internal/checksum"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
	"ftla/internal/obs"
)

// protected is the distributed, checksum-encoded matrix state. The n×n
// matrix is distributed over the GPUs in a 1-D block-column layout: each
// GPU stores a compact n × localCols panel of its block columns, a
// column-checksum matrix with one 2-row strip per block row, and (under
// Full mode) a row-checksum matrix with one 2-column strip per local block
// column.
//
// Ownership is table-backed rather than arithmetic. Runs start from the
// MAGMA-style block-column-cyclic assignment (block column bj on GPU
// bj mod G), but the rebalancer may migrate trailing block columns between
// GPUs mid-run, so owner/localBlock lookups go through own/loc/blocks. The
// one invariant every consumer relies on is that blocks[g] is sorted by
// global block index: a GPU's trailing blocks (bj >= some k) are then
// always a contiguous suffix of its local slab, which keeps every
// range-based view ([trailStart, nloc)) valid no matter how columns have
// been shuffled.
type protected struct {
	es  *engineSys
	n   int
	nb  int
	nbr int // number of block rows == block columns
	tol float64

	local  []*hetsim.Buffer // [g] n × capb(g)·nb
	colChk []*hetsim.Buffer // [g] 2·nbr × capb(g)·nb
	rowChk []*hetsim.Buffer // [g] n × 2·capb(g); nil when mode != Full
	nloc   []int            // local block count per GPU (used prefix of the slab)

	// Ownership tables. own[bj] is the GPU holding block column bj,
	// loc[bj] its local block index there, and blocks[g] the sorted global
	// block indices GPU g holds (len(blocks[g]) == nloc[g]).
	own    []int
	loc    []int
	blocks [][]int
	// capb is each GPU's slab capacity in blocks; nloc[g] <= capb[g].
	// Static runs size slabs exactly; rebalancing and multi-node runs
	// reserve full width so migration/adoption never reallocates.
	capb []int

	// coded is the cross-node erasure redundancy (see coded.go), nil on
	// flat single-node systems.
	coded *codedState

	// out is the host home of the factor. It starts as the input, with a
	// restore's finished columns from the checkpoint; pull stages each
	// panel into its place there, where factorPanel certifies it and it
	// stays, LU's later row interchanges reach its finished columns on
	// the host, and finish fills in the blocks the GPUs computed. Its
	// first done block columns are complete; no GPU copy of them is read.
	out  *matrix.Dense
	done int
	// piv and tau are the history of the finished steps that out does not
	// hold: LU's global pivot sequence and QR's Householder scalars, each
	// allocated by its driver's ladder constructor and nil otherwise.
	// They live on the layout, beside out, so that a checkpoint takes and
	// restores a run's whole state from one place.
	piv []int
	tau []float64
	// lower marks a factor whose GPUs compute the rows below each
	// diagonal block (Cholesky's L21, whose strictly upper blocks keep the
	// input); otherwise they compute the rows above it (LU's U12, QR's
	// R12) and the host holds the rest of each column. A lower factor's
	// GPUs hold each column from its diagonal block down (see top).
	lower bool
	// unsettled marks a layout just set up, by the scatter of a fresh run
	// or by a restore, from which the GPUs have derived nothing yet: the
	// scatter's checksums and the parity of either come with settle, which
	// runs after the first panel is factored. Until then the host's copy
	// of that panel is current (see hostCurrent). restored is the
	// checkpoint of a restore, nil for a fresh run.
	unsettled bool
	restored  *Checkpoint
	// used[g] counts the slots of GPU g's slab that have ever held a
	// block column: the slots from nloc[g] to it may hold a stale copy
	// (see openSlot), the ones past it are still zero.
	used []int
}

// gpuLive reports whether GPU g is still serving — not fail-stopped and
// not taken down by a node loss. Per-GPU loops that unconditionally touch
// devices or broadcast stages gate on it after a reconstruction.
func (p *protected) gpuLive(g int) bool { return !p.es.sys.GPU(g).Lost() }

// liveGPUs counts the GPUs still serving. The §VII.C sender-implication
// comparisons ("corrupted on *every* GPU implicates the sender") use this
// instead of the raw GPU count once a node is gone.
func (p *protected) liveGPUs() int {
	n := 0
	for g := 0; g < p.es.sys.NumGPUs(); g++ {
		if p.gpuLive(g) {
			n++
		}
	}
	return n
}

// owner returns the GPU index holding block column bj.
func (p *protected) owner(bj int) int { return p.own[bj] }

// localBlock returns the local block index of block column bj on its
// owner.
func (p *protected) localBlock(bj int) int { return p.loc[bj] }

// localOff returns the local column offset of block column bj on its
// owner.
func (p *protected) localOff(bj int) int { return p.loc[bj] * p.nb }

// trailStart returns, for GPU g, the first local block index belonging to
// block columns >= bj. Because blocks[g] is sorted, the answer is a binary
// search and the trailing blocks form a contiguous slab suffix.
func (p *protected) trailStart(g, bj int) int {
	return sort.SearchInts(p.blocks[g], bj)
}

// globalBlock returns the global block-column index of GPU g's local
// block lb — the inverse of localBlock.
func (p *protected) globalBlock(g, lb int) int { return p.blocks[g][lb] }

// initCyclicLayout fills the ownership tables with the block-column-cyclic
// assignment (bj on GPU bj mod G) every run starts from.
func (p *protected) initCyclicLayout(G int) {
	p.own = make([]int, p.nbr)
	p.loc = make([]int, p.nbr)
	p.blocks = make([][]int, G)
	p.nloc = make([]int, G)
	for g := 0; g < G; g++ {
		p.nloc[g] = (p.nbr - g + G - 1) / G
		p.blocks[g] = make([]int, 0, p.nbr)
	}
	for bj := 0; bj < p.nbr; bj++ {
		g := bj % G
		p.own[bj] = g
		p.loc[bj] = len(p.blocks[g])
		p.blocks[g] = append(p.blocks[g], bj)
	}
	p.used = slices.Clone(p.nloc)
}

// newLayout builds an empty layout of a's order over the current GPUs
// with verification tolerance tol: the host-held factor, seeded with a,
// the block-column-cyclic ownership tables, each GPU's data and checksum
// slabs and, on multi-node systems, the parity groups. Nothing is shipped
// or encoded yet — newProtected scatters a into it and settle encodes
// it, and a resumed run restores a checkpoint. Rebalancing runs
// (Options.RebalanceEvery > 0) and multi-node runs allocate full-width
// slabs (nbr blocks) so column migration — or the adoption of
// reconstructed columns after a node loss — is a shift-and-copy, never a
// realloc; static flat runs size them to the cyclic share.
func newLayout(es *engineSys, a *matrix.Dense, tol float64) *protected {
	G := es.sys.NumGPUs()
	n := a.Rows
	p := &protected{es: es, n: n, nb: es.opts.NB, nbr: n / es.opts.NB, tol: tol, out: a.Clone(), lower: es.decomp == "cholesky"}
	p.initCyclicLayout(G)
	p.local = make([]*hetsim.Buffer, G)
	p.colChk = make([]*hetsim.Buffer, G)
	p.rowChk = make([]*hetsim.Buffer, G)
	p.capb = make([]int, G)
	for g := 0; g < G; g++ {
		p.capb[g] = p.nloc[g]
		if es.opts.RebalanceEvery > 0 || es.sys.Nodes() > 1 {
			p.capb[g] = p.nbr
		}
		if p.capb[g] == 0 {
			p.capb[g] = 1 // never happens for nbr >= G; defensive
		}
		p.local[g] = es.sys.GPU(g).Alloc(p.n, p.capb[g]*p.nb)
		if es.opts.Protection != NoChecksum {
			p.colChk[g] = es.sys.GPU(g).Alloc(2*p.nbr, p.capb[g]*p.nb)
		}
		if es.opts.Protection == Full {
			p.rowChk[g] = es.sys.GPU(g).Alloc(p.n, 2*p.capb[g])
		}
	}
	if es.sys.Nodes() > 1 {
		p.coded = newCodedState(p)
	}
	return p
}

// newProtected scatters a (resident on the CPU) across the GPUs in one
// staging: the rows of each block column its owner holds (see strips),
// from the first one the GPUs read (see first). The copies are in flight
// when it returns: the ladder factors panel 0 from the host's copy of a
// meanwhile, and then encodes the layout (settle).
func newProtected(es *engineSys, a *matrix.Dense) *protected {
	n := a.Rows
	scale := 1 + matrix.NormMax(a)
	p := newLayout(es, a, max(matrix.Gamma(n)*scale*scale*float64(n), 1e-9))
	var srcs []*matrix.Dense
	var dsts []*hetsim.Buffer
	for bj := p.first(); bj < p.nbr; bj++ {
		r := p.top(bj)
		srcs = append(srcs, a.View(r, bj*p.nb, n-r, p.nb))
		dsts = append(dsts, p.column(bj)[0])
	}
	es.sys.Restore(srcs, dsts)
	p.unsettled = true
	return p
}

// first returns the first block column a fresh layout ships and encodes.
// The commit of LU's and QR's panel 0 writes its whole column and strips
// before any GPU reads them, so a flat run skips block column 0; a
// cluster ships it for the parity of the input. Cholesky's commit writes
// the diagonal block alone, and its PU reads the input below.
func (p *protected) first() int {
	if p.lower || p.coded != nil {
		return 0
	}
	return 1
}

// settle completes a layout just set up, once its first panel is
// factored: after a scatter it encodes the initial checksums on-device
// with the configured kernel, and on multi-node systems it encodes the
// parity of the data the GPUs now hold, with its epoch at the input's or
// the checkpoint's step (a restore ships the checksum strips, but
// checkpoints carry no parity).
func (p *protected) settle() {
	p.unsettled = false
	es := p.es
	epoch := -1
	if cp := p.restored; cp != nil {
		epoch = cp.NextStep - 1
		p.restored = nil
	} else if es.opts.Protection != NoChecksum {
		stop := es.span(obs.PhaseEncode, "encode-initial", &es.res.EncodeT)
		for g := range p.nloc {
			// Encode over the used prefix only: rebalancing runs allocate
			// wider slabs whose tail holds no blocks yet.
			lb := p.trailStart(g, p.first())
			p.encodeStrips(g, lb, p.nloc[g]-lb)
		}
		stop()
	}
	if p.coded != nil {
		p.coded.reset(epoch)
	}
}

// hostCurrent reports whether the host's copy of panel k is current, so
// that pull need not stage it from the GPUs: the first panel of an
// unsettled layout is the input's block column, in place in the output,
// after a scatter, and the checkpoint holds it after a restore.
func (p *protected) hostCurrent(k int) bool {
	if !p.unsettled {
		return false
	}
	if cp := p.restored; cp != nil {
		return k == cp.NextStep
	}
	return k == 0
}

// top returns the first row of block column bj its owner holds: the
// diagonal block's for a lower factor, whose GPUs read nothing above it,
// else row 0.
func (p *protected) top(bj int) int {
	if p.lower {
		return bj * p.nb
	}
	return 0
}

// strips returns GPU g's views of block column bj in its local slot lb:
// the data rows from top(bj) down, then their column-checksum strips,
// then their row-checksum pairs, each present only when the mode keeps
// it. Each is a row suffix of its full-height column. It is the one
// definition of what a stored block column consists of; every column
// move and code walks this list.
func (p *protected) strips(g, lb, bj int) []*hetsim.Buffer {
	r := p.top(bj)
	out := []*hetsim.Buffer{p.local[g].View(r, lb*p.nb, p.n-r, p.nb)}
	if p.es.opts.Protection != NoChecksum {
		s := r / p.nb
		out = append(out, p.colChk[g].View(2*s, lb*p.nb, 2*(p.nbr-s), p.nb))
	}
	if p.es.opts.Protection == Full {
		out = append(out, p.rowChk[g].View(r, 2*lb, p.n-r, 2))
	}
	return out
}

// column returns the strips of block column bj on its owner.
func (p *protected) column(bj int) []*hetsim.Buffer {
	return p.strips(p.own[bj], p.loc[bj], bj)
}

// shiftBlocks moves GPU g's local blocks [lb, nloc) d slots along its
// slabs, every strip with its data, at full height: a lower factor's
// zeros above each diagonal block move too. Device-local, zero flops.
func (p *protected) shiftBlocks(g, lb, d int) {
	w := p.nloc[g] - lb
	if w <= 0 {
		return
	}
	dev := p.es.sys.GPU(g)
	for _, s := range p.slabs(g) {
		per := s.Cols() / p.capb[g]
		copyWithin(dev, s.View(0, lb*per, s.Rows(), w*per), s.View(0, (lb+d)*per, s.Rows(), w*per))
	}
}

// slabs returns GPU g's data slab and the checksum slabs the mode keeps.
func (p *protected) slabs(g int) []*hetsim.Buffer {
	out := []*hetsim.Buffer{p.local[g]}
	for _, s := range []*hetsim.Buffer{p.colChk[g], p.rowChk[g]} {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// openSlot returns block column bj's sorted insertion point in GPU dst's
// slab and shifts the blocks from there one slot right to make room. A
// slot opened past the blocks may hold a stale copy of a column that left
// (see used), whose rows above bj's diagonal block no move into the slot
// overwrites: a lower factor clears them there.
func (p *protected) openSlot(dst, bj int) int {
	idx := sort.SearchInts(p.blocks[dst], bj)
	p.shiftBlocks(dst, idx, 1)
	if r := p.top(bj); idx == p.nloc[dst] && idx < p.used[dst] && r > 0 {
		dev := p.es.sys.GPU(dst)
		dev.Run("clear", 0, func(int) {
			for _, s := range p.slabs(dst) {
				per := s.Cols() / p.capb[dst]
				s.View(0, idx*per, r*s.Rows()/p.n, per).Access(dev).Zero()
			}
		})
	}
	return idx
}

// reown moves block column bj in the ownership tables from its current
// owner to local slot idx of GPU dst. After initCyclicLayout it is the
// only writer of own, loc, blocks and nloc.
func (p *protected) reown(bj, dst, idx int) {
	src, sl := p.own[bj], p.loc[bj]
	p.blocks[src] = append(p.blocks[src][:sl], p.blocks[src][sl+1:]...)
	p.nloc[src]--
	for _, b := range p.blocks[src][sl:] {
		p.loc[b]--
	}
	p.blocks[dst] = slices.Insert(p.blocks[dst], idx, bj)
	p.nloc[dst]++
	p.used[dst] = max(p.used[dst], p.nloc[dst])
	for i := idx; i < p.nloc[dst]; i++ {
		p.loc[p.blocks[dst][i]] = i
	}
	p.own[bj] = dst
}

// encodeStrips encodes the checksum strips of GPU g's local blocks
// [lb, lb+w) from their data with the configured kernel.
func (p *protected) encodeStrips(g, lb, w int) {
	var cols [][3]*matrix.Dense
	dev := p.es.sys.GPU(g)
	for l := lb; l < lb+w; l++ {
		var ms [3]*matrix.Dense
		for i, b := range p.strips(g, l, p.blocks[g][l]) {
			ms[i] = b.Access(dev)
		}
		cols = append(cols, ms)
	}
	p.encodeOn(dev, cols...)
}

// encodeOn encodes on dev, with the configured kernel, the checksums of
// the block columns cols lists, each as its data and the destinations it
// asks for, nil otherwise: its column-checksum strips and its
// row-checksum pairs. One kernel per kind covers every column.
func (p *protected) encodeOn(dev *hetsim.Device, cols ...[3]*matrix.Dense) {
	if len(cols) == 0 {
		return
	}
	k := p.es.opts.Kernel
	flops := 0.0
	for _, c := range cols {
		flops += 4 * float64(c[0].Rows*c[0].Cols)
	}
	if cols[0][1] != nil {
		dev.Run("encode-col", flops, func(wk int) {
			for _, c := range cols {
				checksum.EncodeCol(k, wk, c[0], p.nb, c[1])
			}
		})
	}
	if cols[0][2] != nil {
		dev.Run("encode-row", flops, func(wk int) {
			for _, c := range cols {
				checksum.EncodeRow(k, wk, c[0], p.nb, c[2])
			}
		})
	}
}

// migrateColumn moves ownership of block column bj to GPU dst: the
// destination opens a slot at the sorted insertion point, the column's
// strips travel over PCIe, the source compacts its slab, and the ownership
// tables are updated. The copies are bit-exact, so the column's ABFT
// protection (column-checksum strip, row-checksum pair) survives the move
// unchanged. Callers batch rounds of moves inside a
// hetsim.CoalesceTransfers window so a round pays each link's PCIe latency
// once.
func (p *protected) migrateColumn(bj, dst int) {
	src, sl := p.own[bj], p.loc[bj]
	if src == dst {
		return
	}
	idx := p.openSlot(dst, bj)
	to := p.strips(dst, idx, bj)
	for i, from := range p.column(bj) {
		p.es.sys.TransferReliable(from, to[i])
	}
	p.shiftBlocks(src, sl+1, -1)
	p.reown(bj, dst, idx)
}

// finish lists, for the caller's staging, the copies of the rows the GPUs
// computed (see lower) of block columns [p.done, hi) into their place in
// p.out, which holds the rest, and counts those columns as done: no step
// after hi−1 writes them.
func (p *protected) finish(hi int) (srcs []*hetsim.Buffer, dsts []*matrix.Dense) {
	for bj := p.done; bj < hi; bj++ {
		lo, end := 0, bj*p.nb
		if p.lower {
			lo, end = (bj+1)*p.nb, p.n
		}
		if lo < end {
			srcs = append(srcs, p.column(bj)[0].View(lo-p.top(bj), 0, end-lo, p.nb))
			dsts = append(dsts, p.out.View(lo, bj*p.nb, end-lo, p.nb))
		}
	}
	p.done = hi
	return srcs, dsts
}

// gather completes the host-held factor in one staging: the blocks the
// GPUs computed of every block column no checkpoint capture has finished.
func (p *protected) gather() *matrix.Dense {
	p.es.sys.Checkpoint(p.finish(p.nbr))
	return p.out
}

// colChkView returns the column-checksum strip rows [2·slo, 2·shi) of
// block column bj on its owner.
func (p *protected) colChkView(bj, slo, shi int) *hetsim.Buffer {
	g := p.owner(bj)
	return p.colChk[g].View(2*slo, p.localOff(bj), 2*(shi-slo), p.nb)
}

// rowChkView returns the row-checksum pair columns of block column bj,
// rows [rlo, rhi). Only valid under Full mode.
func (p *protected) rowChkView(bj, rlo, rhi int) *hetsim.Buffer {
	g := p.owner(bj)
	return p.rowChk[g].View(rlo, 2*p.localBlock(bj), rhi-rlo, 2)
}

// swapRows applies the LU row interchange r1 <-> r2 on every GPU across
// block columns [bjLo, bjHi), maintaining the column checksums
// incrementally (the v₂-weighted sums change under a swap; the v₁ sums
// change only across strips) and letting row-checksum rows travel with
// their data rows.
func (p *protected) swapRows(r1, r2, bjLo, bjHi int) {
	if r1 == r2 {
		return
	}
	G := p.es.sys.NumGPUs()
	s1, s2 := r1/p.nb, r2/p.nb
	w1 := float64(r1%p.nb + 1)
	w2 := float64(r2%p.nb + 1)
	for g := 0; g < G; g++ {
		gdev := p.es.sys.GPU(g)
		lbLo := p.trailStart(g, bjLo)
		lbHi := p.trailStart(g, bjHi)
		if lbLo >= lbHi {
			continue
		}
		local, cc, rc := p.local[g], p.colChk[g], p.rowChk[g]
		mode := p.es.opts.Protection
		gdev.Run("laswp", float64((lbHi-lbLo)*p.nb), func(int) {
			data := local.Access(gdev)
			jlo, jhi := lbLo*p.nb, lbHi*p.nb
			row1 := data.Row(r1)[jlo:jhi]
			row2 := data.Row(r2)[jlo:jhi]
			for j := range row1 {
				row1[j], row2[j] = row2[j], row1[j]
			}
			if mode != NoChecksum {
				chk := cc.Access(gdev)
				if s1 == s2 {
					c2 := chk.Row(2*s1 + 1)[jlo:jhi]
					for j := range row1 {
						// Post-swap: row1 holds b (old r2), row2 holds a.
						c2[j] += (w1 - w2) * (row1[j] - row2[j])
					}
				} else {
					c11 := chk.Row(2 * s1)[jlo:jhi]
					c12 := chk.Row(2*s1 + 1)[jlo:jhi]
					c21 := chk.Row(2 * s2)[jlo:jhi]
					c22 := chk.Row(2*s2 + 1)[jlo:jhi]
					for j := range row1 {
						d := row1[j] - row2[j] // b − a
						c11[j] += d
						c12[j] += w1 * d
						c21[j] -= d
						c22[j] -= w2 * d
					}
				}
			}
			if mode == Full && rc != nil {
				rchk := rc.Access(gdev)
				pjlo, pjhi := 2*lbLo, 2*lbHi
				rr1 := rchk.Row(r1)[pjlo:pjhi]
				rr2 := rchk.Row(r2)[pjlo:pjhi]
				for j := range rr1 {
					rr1[j], rr2[j] = rr2[j], rr1[j]
				}
			}
		})
	}
}

// repairOutcome reports what a verify-and-repair pass concluded.
type repairOutcome int

const (
	repairClean     repairOutcome = iota // no mismatch
	repairCorrected                      // mismatches found, all repaired
	repairFailed                         // mismatches remain: needs restart
)

// correctedElem reports one element repaired by a verify/repair pass, in
// coordinates relative to the verified view. D1 is the applied correction
// (new = old + D1), which recovery paths use to undo second-order damage.
type correctedElem struct {
	Row int
	Col int
	D1  float64
}

// checksumAxis is the checksum dimension a verify-and-repair pass runs on:
// column checksums (row strips, each line a column) or row checksums
// (column strips, each line a row).
type checksumAxis struct {
	verify     func(workers int, a *matrix.Dense, nb int, chk *matrix.Dense, tol float64) []checksum.Mismatch
	extent     func(a *matrix.Dense) int // elements along the strip axis
	correct    func(a *matrix.Dense, nb int, m checksum.Mismatch, local int) correctedElem
	verifySpan string
	repairSpan string
}

var (
	colAxis = checksumAxis{
		verify: checksum.VerifyCol,
		extent: func(a *matrix.Dense) int { return a.Rows },
		correct: func(a *matrix.Dense, nb int, m checksum.Mismatch, lr int) correctedElem {
			checksum.CorrectCol(a, nb, m, lr)
			return correctedElem{Row: m.Strip*nb + lr, Col: m.Line, D1: m.D1}
		},
		verifySpan: "verify-col",
		repairSpan: "repair-col",
	}
	rowAxis = checksumAxis{
		verify: checksum.VerifyRow,
		extent: func(a *matrix.Dense) int { return a.Cols },
		correct: func(a *matrix.Dense, nb int, m checksum.Mismatch, lc int) correctedElem {
			checksum.CorrectRow(a, nb, m, lc)
			return correctedElem{Row: m.Line, Col: m.Strip*nb + lc, D1: m.D1}
		},
		verifySpan: "verify-row",
		repairSpan: "repair-row",
	}
)

// verifyRepair verifies data against its checksums chk along axis ax
// (strip indices aligned: chk strip 0 covers the first nb data lines of
// the strip axis) and repairs what it can:
//
//  1. every mismatch that localizes to a single element is corrected
//     (0-D errors and 1-D corruption across the checksummed lines, which
//     shows as one localizable error per line);
//  2. a line whose mismatches do not localize (1-D corruption along the
//     line) is handed to repair, which rebuilds it from the orthogonal
//     checksums — lines are visited in ascending index order, so a failed
//     pass leaves the same bits on every run;
//  3. anything else is repairFailed (2-D propagation → local restart).
//
// The pass re-verifies after repair. With a repair callback, lines that
// still disagree (a multi-element corruption that aliased as a localizable
// single error) escalate to the line repair and re-verify once more. It
// charges verify/recovery time, updates the counters, and returns the
// individually corrected elements — the ladders use their coordinates to
// repair the trailing rows/columns those elements contaminated during TMU
// (§VII.B heuristic recovery).
func (p *protected) verifyRepair(ax checksumAxis, workers int, data, chk *matrix.Dense, repair func(line int) bool) (repairOutcome, []correctedElem) {
	verify := func() []checksum.Mismatch {
		defer p.es.span(obs.PhaseVerify, ax.verifySpan, &p.es.res.VerifyT)()
		return ax.verify(workers, data, p.nb, chk, p.tol)
	}
	ms := verify()
	if len(ms) == 0 {
		return repairClean, nil
	}
	p.es.res.Detected = true
	p.es.res.Counter.DetectedErrors += len(ms)
	defer p.es.span(obs.PhaseRecover, ax.repairSpan, &p.es.res.RecoverT)()

	var fixed []correctedElem
	stuck := map[int]bool{}
	for _, m := range ms {
		if l, ok := checksum.Locate(m, min(p.nb, ax.extent(data)-m.Strip*p.nb)); ok {
			fixed = append(fixed, ax.correct(data, p.nb, m, l))
			p.es.res.Counter.CorrectedElements++
		} else {
			stuck[m.Line] = true
		}
	}
	for _, line := range sortedKeys(stuck) {
		if repair == nil || !repair(line) {
			return repairFailed, fixed
		}
		p.es.res.Counter.ReconstructedLins++
	}
	ms = verify()
	if len(ms) != 0 && repair != nil {
		left := map[int]bool{}
		for _, m := range ms {
			left[m.Line] = true
		}
		ok := true
		for _, line := range sortedKeys(left) {
			if !repair(line) {
				ok = false
			}
		}
		if ok {
			ms = verify()
		}
	}
	if len(ms) != 0 {
		return repairFailed, fixed
	}
	return repairCorrected, fixed
}

// sortedKeys returns the keys of m in ascending order, so repair decisions
// never depend on Go's randomized map iteration.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// fullColumnRepair returns the stuck-column callback for a column verify
// pass over GPU g's local columns from jlo on: each stuck view column is
// rebuilt over the full matrix height by repairFullColumn. It is nil
// unless the mode is Full, the only mode that keeps row checksums.
func (p *protected) fullColumnRepair(g, jlo int) func(col int) bool {
	if p.es.opts.Protection != Full {
		return nil
	}
	return func(col int) bool { return p.repairFullColumn(g, jlo+col) }
}

// verifyTrailingCol verifies (and repairs) the column checksums of rows
// >= rlo of slice sel of step k's trailing block columns (those after k)
// across every GPU. blocks counts the matrix blocks verified for the
// Table VI counters. Under Full mode, 1-D column corruption is repaired
// from the local row checksums, and repaired rows/columns get their
// orthogonal checksums re-encoded.
func (p *protected) verifyTrailingCol(rlo, k int, sel tmuSel) (worst repairOutcome, blocks int) {
	nb := p.nb
	o := rlo
	G := p.es.sys.NumGPUs()
	worst = repairClean
	for g := 0; g < G; g++ {
		gdev := p.es.sys.GPU(g)
		lbLo, lbHi := p.tmuRange(g, k, sel)
		if lbLo >= lbHi {
			continue
		}
		jlo := lbLo * nb
		cols := lbHi*nb - jlo
		data := p.local[g].View(o, jlo, p.n-o, cols).Access(gdev)
		chk := p.colChk[g].View(2*(o/nb), jlo, 2*(p.nbr-o/nb), cols).Access(gdev)
		out, _ := p.verifyRepair(colAxis, gdev.Workers(), data, chk, p.fullColumnRepair(g, jlo))
		if out > worst {
			worst = out
		}
		blocks += (cols / nb) * (p.nbr - o/nb)
		// Restore orthogonal-checksum consistency after repairs.
		if p.es.opts.Protection == Full && out == repairCorrected {
			p.reconcileOrthogonal(g, o, p.n, lbLo, lbHi)
		}
	}
	return worst, blocks
}

// reconcileOrthogonal cross-checks GPU g's region (global rows
// [rlo, rhi), local blocks >= lbLo) against its row checksums after
// column-checksum-based repairs, and resolves the two second-order damage
// patterns a single fault can leave behind:
//
//   - a data column that was "corrected" into agreement with a *polluted*
//     column checksum (corruption transformed by a non-GEMM update aliases
//     as a single-element error): many rows of one column disagree with
//     the (clean) row checksums → rebuild the column from the row
//     checksums and re-encode its column checksums;
//   - a clean data row whose row checksums were polluted by the corrupted
//     operand of a checksum-maintenance kernel: one row disagrees across
//     strips → re-encode that row's row checksums from the (repaired)
//     data.
func (p *protected) reconcileOrthogonal(g, rlo, rhi, lbLo, lbHi int) {
	if p.es.opts.Protection != Full {
		return
	}
	gdev := p.es.sys.GPU(g)
	nb := p.nb
	if lbHi > p.nloc[g] {
		lbHi = p.nloc[g]
	}
	jlo := lbLo * nb
	cols := lbHi*nb - jlo
	if cols <= 0 || rhi <= rlo {
		return
	}
	data := p.local[g].View(rlo, jlo, rhi-rlo, cols).Access(gdev)
	rchk := p.rowChk[g].View(rlo, 2*lbLo, rhi-rlo, 2*(lbHi-lbLo)).Access(gdev)
	stop := p.es.span(obs.PhaseVerify, "verify-orthogonal", &p.es.res.VerifyT)
	ms := checksum.VerifyRow(gdev.Workers(), data, nb, rchk, p.tol)
	stop()
	if len(ms) == 0 {
		return
	}
	defer p.es.span(obs.PhaseRecover, "reconcile-orthogonal", &p.es.res.RecoverT)()
	rowHits := map[int]int{}
	colRows := map[int][]int{} // local col -> rows
	for _, m := range ms {
		rowHits[m.Line]++
		if lc, ok := checksum.Locate(m, nb); ok {
			col := m.Strip*nb + lc
			colRows[col] = append(colRows[col], m.Line)
		}
	}
	covered := map[int]bool{} // rows inside a rebuilt column
	for _, col := range sortedKeys(colRows) {
		if rows := colRows[col]; len(rows) >= 2 {
			// Aliased column corruption: the row checksums are the clean
			// authority — rebuild the whole column and refresh its column
			// checksums.
			p.repairFullColumn(g, jlo+col)
			for _, r := range rows {
				covered[r] = true
			}
		}
	}
	for _, r := range sortedKeys(rowHits) {
		// The same row disagreeing in several strips is a polluted
		// row-checksum line (unless it was part of a column repair).
		if rowHits[r] >= 2 && !covered[r] {
			p.reencodeRowChkRow(g, rlo+r, lbLo, lbHi)
		}
	}
	// Remaining single-hit rows: data agrees with the (just-reconciled)
	// column checksums, so the row checksum entry is the polluted side.
	ms = checksum.VerifyRow(gdev.Workers(), data, nb, rchk, p.tol)
	seen := map[int]bool{}
	for _, m := range ms {
		if !seen[m.Line] {
			seen[m.Line] = true
			p.reencodeRowChkRow(g, rlo+m.Line, lbLo, lbHi)
		}
	}
}

// reencodeRowChkRow recomputes the row-checksum pairs of global row r on
// GPU g for the local blocks of [lbLo, lbHi) that hold the row (see top).
// This is the certified re-encode that restores consistency after the
// data row has been repaired: the TMU row-checksum update consumes the raw
// (possibly corrupted) panel operand, so the contaminated row's row
// checksums are polluted and must be rebuilt from the repaired data.
func (p *protected) reencodeRowChkRow(g, r, lbLo, lbHi int) {
	if p.es.opts.Protection != Full {
		return
	}
	if p.lower {
		lbHi = min(lbHi, p.trailStart(g, r/p.nb+1))
	}
	gdev := p.es.sys.GPU(g)
	data := p.local[g].Access(gdev)
	rchk := p.rowChk[g].Access(gdev)
	nb := p.nb
	for lb := lbLo; lb < lbHi; lb++ {
		s1, s2 := 0.0, 0.0
		row := data.Row(r)[lb*nb : lb*nb+nb]
		for j, v := range row {
			s1 += v
			s2 += float64(j+1) * v
		}
		rchk.Set(r, 2*lb, s1)
		rchk.Set(r, 2*lb+1, s2)
	}
}

// verifyRowQuick reports whether global row r on GPU g is consistent with
// its row checksums over local blocks [lbLo, nloc). It is the cheap O(cols)
// probe used before row interchanges move data around.
func (p *protected) verifyRowQuick(g, r, lbLo int) bool {
	if p.es.opts.Protection != Full {
		return true
	}
	gdev := p.es.sys.GPU(g)
	data := p.local[g].Access(gdev)
	rchk := p.rowChk[g].Access(gdev)
	nb := p.nb
	for lb := lbLo; lb < p.nloc[g]; lb++ {
		s1 := 0.0
		row := data.Row(r)[lb*nb : lb*nb+nb]
		for _, v := range row {
			s1 += v
		}
		if d := s1 - rchk.At(r, 2*lb); d > p.tol || d < -p.tol || d != d {
			return false
		}
	}
	return true
}

// repairFullColumn rebuilds GPU g's local column (GPU-local index
// localCol) over every row its block column holds (see top) from its row
// checksums, then re-encodes the column's column checksums from the
// repaired data. This is the uniform stuck-column repair: reconstructing
// only a verification window and then re-encoding the whole column's
// checksums would make any contamination outside the window permanently
// invisible, so every detection point repairs the entire column at once
// (the row checksums are maintained for every row held, finalized or
// trailing).
func (p *protected) repairFullColumn(g, localCol int) bool {
	if p.es.opts.Protection != Full {
		return false
	}
	gdev := p.es.sys.GPU(g)
	nb := p.nb
	lb := localCol / nb
	if lb >= p.nloc[g] {
		return false
	}
	st := p.strips(g, lb, p.blocks[g][lb])
	checksum.ReconstructColumn(st[0].Access(gdev), nb, st[2].Access(gdev), localCol%nb, 0, st[0].Rows())
	p.reencodeColChkCol(g, localCol)
	p.es.res.Counter.ReconstructedLins++
	return true
}

// reencodeColChkCol recomputes the column-checksum entries of local column
// localCol on GPU g for every strip its block column holds — the dual of
// reencodeRowChkRow, used after a contaminated column has been rebuilt
// (the TMU column-checksum update consumes the raw row-panel operand).
func (p *protected) reencodeColChkCol(g, localCol int) {
	if p.es.opts.Protection == NoChecksum {
		return
	}
	gdev := p.es.sys.GPU(g)
	data := p.local[g].Access(gdev)
	cchk := p.colChk[g].Access(gdev)
	nb := p.nb
	for s := p.top(p.blocks[g][localCol/nb]) / nb; s < p.nbr; s++ {
		s1, s2 := 0.0, 0.0
		for i := 0; i < nb; i++ {
			v := data.At(s*nb+i, localCol)
			s1 += v
			s2 += float64(i+1) * v
		}
		cchk.Set(2*s, localCol, s1)
		cchk.Set(2*s+1, localCol, s2)
	}
}

// repairContaminatedRow fully repairs global row r on GPU g when its data
// or row checksums may be inconsistent (the lazy on-chip 1-D case of
// §VII.B Fig. 4b, triggered by the pre-swap probe or by grouped panel
// corrections): the row's strip is verified against the column checksums
// (clean in this failure mode), every column corrected by localization,
// and the row's row checksums re-encoded from the repaired data. Returns
// false if the strip cannot be reconciled.
func (p *protected) repairContaminatedRow(g, r, bjLo int) bool {
	defer p.es.span(obs.PhaseRecover, "repair-contaminated-row", &p.es.res.RecoverT)()
	gdev := p.es.sys.GPU(g)
	nb := p.nb
	lbLo := p.trailStart(g, bjLo)
	if lbLo >= p.nloc[g] {
		return true
	}
	jlo := lbLo * nb
	cols := p.nloc[g]*nb - jlo
	s := r / nb
	data := p.local[g].View(s*nb, jlo, nb, cols).Access(gdev)
	chk := p.colChk[g].View(2*s, jlo, 2, cols).Access(gdev)
	// A stuck column here is a 1-D column contamination crossing this
	// strip (e.g. an on-chip row-panel fault consumed by a previous TMU):
	// rebuild the entire column from the row checksums.
	out, _ := p.verifyRepair(colAxis, gdev.Workers(), data, chk, p.fullColumnRepair(g, jlo))
	if out == repairFailed {
		p.es.res.Unrecoverable = true
		return false
	}
	p.reencodeRowChkRow(g, r, lbLo, p.nloc[g])
	return true
}
