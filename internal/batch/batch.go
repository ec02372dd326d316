// Package batch provides the strided-slab batch types behind the batched
// decomposition drivers (internal/core's CholeskyBatch/LUBatch/QRBatch and
// the ftla public Batch API): many small same-shape matrices packed into
// one contiguous slab, with per-item checksum strips so the whole batch can
// be integrity-checked in a single encode/verify pass.
//
// The slab layout stacks count n×n items vertically into one (count·n)×n
// row-major matrix, so item i is the contiguous row block [i·n, (i+1)·n)
// and a per-item view is a zero-copy sub-matrix. Because n is a multiple of
// the ABFT block size nb, the slab's column-checksum strips (2 rows per
// nb-row strip, as everywhere in this repository) align exactly with item
// boundaries: item i owns checksum rows [i·2·(n/nb), (i+1)·2·(n/nb)). One
// EncodeCol call over the slab therefore encodes every item's strips at
// once, and one VerifyCol call verifies them — the "issued once for the
// entire batch" property the batched drivers build on.
package batch

import (
	"fmt"

	"ftla/internal/checksum"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
)

// Batch is a strided slab of count n×n matrices plus per-item column
// checksum strips. Construct with New or FromMatrices; the strips are
// always kept encoded (with the optimized kernel, so a re-encode of
// untouched data reproduces them bit-for-bit and Verify can demand exact
// agreement).
type Batch struct {
	count, n, nb int

	// Data is the strided slab: item i occupies rows [i·n, (i+1)·n).
	Data *matrix.Dense
	// Chk holds the per-item column-checksum strips of the slab: item i
	// occupies rows [i·2·(n/nb), (i+1)·2·(n/nb)).
	Chk *matrix.Dense
}

// New allocates a zeroed batch of count n×n items with block size nb and
// encodes its (zero) checksum strips.
func New(count, n, nb int) (*Batch, error) {
	if count < 1 {
		return nil, fmt.Errorf("batch: count must be >= 1, got %d", count)
	}
	if n <= 0 || nb <= 0 || n%nb != 0 {
		return nil, fmt.Errorf("batch: order %d must be a positive multiple of block size %d", n, nb)
	}
	b := &Batch{
		count: count, n: n, nb: nb,
		Data: matrix.NewDense(count*n, n),
		Chk:  matrix.NewDense(2*count*(n/nb), n),
	}
	b.Encode(1)
	return b, nil
}

// FromMatrices packs the given square matrices — all of order n, a multiple
// of nb — into a new slab (copying the inputs) and encodes the per-item
// checksum strips in one pass.
func FromMatrices(ms []*matrix.Dense, nb int) (*Batch, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("batch: no matrices")
	}
	n := ms[0].Rows
	for i, m := range ms {
		if m == nil {
			return nil, fmt.Errorf("batch: item %d is nil", i)
		}
		if m.Rows != m.Cols {
			return nil, fmt.Errorf("batch: item %d is %dx%d, want square", i, m.Rows, m.Cols)
		}
		if m.Rows != n {
			return nil, fmt.Errorf("batch: item %d has order %d, want %d (all items must share one shape)", i, m.Rows, n)
		}
	}
	if n <= 0 || nb <= 0 || n%nb != 0 {
		return nil, fmt.Errorf("batch: order %d must be a positive multiple of block size %d", n, nb)
	}
	b := &Batch{
		count: len(ms), n: n, nb: nb,
		Data: matrix.NewDense(len(ms)*n, n),
		Chk:  matrix.NewDense(2*len(ms)*(n/nb), n),
	}
	for i, m := range ms {
		b.Item(i).CopyFrom(m)
	}
	b.Encode(1)
	return b, nil
}

// Count returns the number of items in the batch.
func (b *Batch) Count() int { return b.count }

// N returns the per-item matrix order.
func (b *Batch) N() int { return b.n }

// NB returns the ABFT block size the strips are encoded with.
func (b *Batch) NB() int { return b.nb }

// Item returns a zero-copy view of item i's n×n matrix inside the slab.
func (b *Batch) Item(i int) *matrix.Dense {
	return b.Data.View(i*b.n, 0, b.n, b.n)
}

// Encode (re)computes every item's checksum strips in one slab-wide pass
// with the optimized kernel. Always the optimized kernel, regardless of the
// run configuration: the strips are queue-integrity metadata, not the run's
// maintained checksums, and pinning the kernel makes re-encoding untouched
// data bit-identical so Verify needs no tolerance.
func (b *Batch) Encode(workers int) {
	checksum.EncodeCol(checksum.OptKernel, workers, b.Data, b.nb, b.Chk)
}

// Verify re-encodes the slab and returns the indices of items whose stored
// strips disagree — host memory corrupted between Encode (submission) and
// now, e.g. while the item sat in a serving queue. The comparison is exact
// (zero tolerance): the strips were encoded from these very bits with the
// same deterministic kernel, so any deviation is corruption, not round-off.
func (b *Batch) Verify(workers int) []int {
	ms := checksum.VerifyCol(workers, b.Data, b.nb, b.Chk, 0)
	if len(ms) == 0 {
		return nil
	}
	per := checksum.PartitionColMismatches(ms, b.n/b.nb, b.count)
	var bad []int
	for i, m := range per {
		if len(m) > 0 {
			bad = append(bad, i)
		}
	}
	return bad
}

// Key identifies jobs that may share one coalesced batched dispatch: two
// jobs coalesce only when every field matches, because one batched ladder
// runs a single (shape, protection, scheme, kernel, schedule, platform)
// configuration across the whole slab. The fields deliberately use plain
// integers rather than the core enum types so the package stays importable
// from both sides of the core/service boundary.
type Key struct {
	// Decomp is the decomposition wire name: "cholesky", "lu", or "qr".
	Decomp string
	// N and NB are the per-item order and ABFT block size.
	N, NB int
	// Mode, Scheme, and Kernel are the protection configuration
	// (core.Mode/core.Scheme/checksum.Kernel values as ints).
	Mode, Scheme, Kernel int
	// Lookahead and PeriodicTrailingCheck are the schedule knobs that
	// shape the shared ladder.
	Lookahead, PeriodicTrailingCheck int
	// Redundancy is the erasure-code parity count on a multi-node
	// platform (0 on flat systems): it shapes the shared cluster layout,
	// so jobs asking for different parity depths must not coalesce.
	Redundancy int
	// Sys is the simulated platform the batch runs on (a comparable
	// value, so Key is usable as a map key).
	Sys hetsim.Config
}
