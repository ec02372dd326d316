package core

import (
	"errors"
	"fmt"
	"math"

	"ftla/internal/hetsim"
	"ftla/internal/matrix"
	"ftla/internal/obs"
)

// Checkpoint/rollback instruments in the obs default registry. The counters
// aggregate across every run in the process (the per-run figures are on
// Result); the histogram records how many ladder steps each rollback
// discarded.
var (
	checkpointsTotal = obs.Default().Counter(obs.MetricCheckpoints,
		"Verified-state checkpoints taken by the step runtime.")
	rollbacksTotal = obs.Default().Counter(obs.MetricRollbacks,
		"Mid-run rollbacks to the last checkpoint (uncorrectable corruption replayed instead of aborting).")
	rollbackDepth = obs.Default().Histogram(obs.MetricRollbackDepth,
		"Ladder steps discarded per rollback (failing step back to the checkpointed one).",
		[]float64{1, 2, 4, 8, 16, 32, 64})
	checkpointIntegrityFailures = obs.Default().Counter(obs.MetricCheckpointIntegrityFailures,
		"Checkpoints rejected at resume/rollback because the content checksum no longer matched.")
)

// ErrCheckpointIntegrity reports a checkpoint whose content no longer
// matches the checksum taken at capture: the snapshot was tampered with or
// corrupted at rest, and resuming (or rolling back onto) it would silently
// replay garbage. Wrapped by the resume/rollback rejection errors, so
// errors.Is classifies them.
var ErrCheckpointIntegrity = errors.New("core: checkpoint integrity check failed")

// Checkpoint is a host-side snapshot of a factorization in flight, taken by
// the step runtime immediately after step NextStep-1's verification passed —
// so the captured state is known-clean, not merely hoped-clean. It holds
// everything a resumed run needs: the host-held factor's finished block
// columns, the distributed state of the columns later steps still write
// with their checksum strips (both stored per block column, so the layout
// is independent of how many GPUs held them), the pivot/reflector history
// of the finished steps, and the step index to resume from.
//
// A Checkpoint is device-set agnostic: Options.Resume can replay it on a
// system with a different GPU count than the run that took it (the failover
// path — lose a GPU at step k, resume on the survivors), and the resumed
// factorization is bit-identical to an uninterrupted run on that final
// device set.
type Checkpoint struct {
	// Decomp names the producing driver: "cholesky", "lu", or "qr". A
	// checkpoint only resumes under the same driver.
	Decomp string
	// N and NB are the matrix order and block size of the run.
	N, NB int
	// Mode and Scheme are the protection configuration; resume requires an
	// identical configuration (the checksum strips below only make sense
	// under the mode that maintained them).
	Mode   Mode
	Scheme Scheme
	// NextStep is the ladder step the snapshot resumes from: steps
	// [0, NextStep) are complete and verified.
	NextStep int
	// Tol is the verification tolerance derived from the original input
	// matrix, carried so a resumed run verifies against the same threshold.
	Tol float64
	// Data, ColChk and RowChk hold one host matrix per block column. Data
	// is the n×NB column: for a finished column (below NextStep) a copy of
	// the host-held factor's, complete, and otherwise the distributed
	// state. ColChk and RowChk hold the latter's strips, nil for a finished
	// column: its 2·(n/NB)×NB column-checksum strip (the slice is nil under
	// NoChecksum) and its n×2 row-checksum pair (nil unless Mode is Full).
	// The distributed state is the rows the GPUs hold: a Cholesky column's
	// from its diagonal block down, zero above it in all three.
	Data   []*matrix.Dense
	ColChk []*matrix.Dense
	RowChk []*matrix.Dense
	// Piv is the LU pivot history, zero beyond the finished steps; nil for
	// other decompositions.
	Piv []int
	// Tau is the QR Householder scalar history, zero beyond the finished
	// steps; nil for other decompositions.
	Tau []float64
	// Sum is the content checksum taken at capture over every payload the
	// snapshot carries (data panels, checksum strips, pivot and reflector
	// histories, and the resume step). Resume and mid-run rollback
	// re-derive it and reject the checkpoint on a mismatch — a corrupted
	// snapshot is surrendered as detected, never silently replayed.
	Sum uint64
}

// contentSum re-derives the checkpoint's content checksum: a Fletcher-
// style running pair over the bit patterns of everything a replay would
// trust. Position-sensitive, so swapped panels change the value.
func (cp *Checkpoint) contentSum() uint64 {
	var s1, s2 uint64
	add := func(b uint64) {
		s1 += b
		s2 += s1
	}
	addMat := func(m *matrix.Dense) {
		if m == nil {
			add(1)
			return
		}
		for i := 0; i < m.Rows; i++ {
			for _, v := range m.Row(i) {
				add(math.Float64bits(v))
			}
		}
	}
	add(uint64(cp.NextStep))
	for _, m := range cp.Data {
		addMat(m)
	}
	for _, m := range cp.ColChk {
		addMat(m)
	}
	for _, m := range cp.RowChk {
		addMat(m)
	}
	for _, pv := range cp.Piv {
		add(uint64(int64(pv)))
	}
	for _, t := range cp.Tau {
		add(math.Float64bits(t))
	}
	return s1 ^ (s2<<1 | s2>>63)
}

// seal stores the content checksum. captureCheckpoint calls it on the
// complete snapshot, before any OnCheckpoint hook can observe it —
// whatever mutates the checkpoint afterwards is detectable.
func (cp *Checkpoint) seal() { cp.Sum = cp.contentSum() }

// verifyIntegrity checks the stored content checksum against a fresh
// derivation, ticking the integrity-failure metric and returning an error
// wrapping ErrCheckpointIntegrity on mismatch. Both resume (validateFor)
// and mid-run rollback call it before trusting a snapshot.
func (cp *Checkpoint) verifyIntegrity() error {
	if cp.contentSum() != cp.Sum {
		checkpointIntegrityFailures.Inc()
		return fmt.Errorf("%w: stored %#x != derived content", ErrCheckpointIntegrity, cp.Sum)
	}
	return nil
}

// validateFor checks that the checkpoint can resume decomposition decomp of
// order n under opts on a system with at least one GPU.
func (cp *Checkpoint) validateFor(decomp string, n int, opts *Options) error {
	switch {
	case cp.Decomp != decomp:
		return fmt.Errorf("core: %s checkpoint cannot resume a %s run", cp.Decomp, decomp)
	case cp.N != n:
		return fmt.Errorf("core: checkpoint order %d != input order %d", cp.N, n)
	case cp.NB != opts.NB:
		return fmt.Errorf("core: checkpoint NB %d != options NB %d", cp.NB, opts.NB)
	case cp.Mode != opts.Protection || cp.Scheme != opts.Scheme:
		return fmt.Errorf("core: checkpoint protection %v/%v != options %v/%v",
			cp.Mode, cp.Scheme, opts.Protection, opts.Scheme)
	case cp.NextStep <= 0 || cp.NextStep >= cp.N/cp.NB:
		return fmt.Errorf("core: checkpoint step %d outside (0, %d)", cp.NextStep, cp.N/cp.NB)
	}
	if err := cp.checkShape(); err != nil {
		return err
	}
	return cp.verifyIntegrity()
}

// checkShape refuses a checkpoint whose host matrices are not those a
// capture at NextStep takes: an n×NB data column per block column, and the
// checksum strips the mode keeps for exactly the columns from NextStep on.
func (cp *Checkpoint) checkShape() error {
	dims := cp.stripDims()
	nbr := cp.N / cp.NB
	kept := []bool{true, cp.Mode != NoChecksum, cp.Mode == Full}
	for i, ms := range cp.hostStrips() {
		if !kept[i] {
			continue
		}
		if len(ms) != nbr {
			return fmt.Errorf("core: checkpoint strip kind %d covers %d block columns, want %d", i, len(ms), nbr)
		}
		for bj, m := range ms {
			if want := i == 0 || bj >= cp.NextStep; (m != nil) != want || m != nil && (m.Rows != dims[i][0] || m.Cols != dims[i][1]) {
				return fmt.Errorf("core: checkpoint strip kind %d of block column %d does not fit step %d", i, bj, cp.NextStep)
			}
		}
	}
	return nil
}

// captureCheckpoint snapshots what a run resuming from step next needs,
// block column by block column, in one System.Checkpoint staging (PCIe
// under the fail-stop gates): every strip of the columns from next on, and
// the GPU-computed blocks of the columns finished since the last capture,
// into the host-held factor, whose finished columns the snapshot copies
// with the layout's pivot or reflector history; and seals it.
func (p *protected) captureCheckpoint(next int) *Checkpoint {
	cp := &Checkpoint{
		Decomp:   p.es.decomp,
		N:        p.n,
		NB:       p.nb,
		Mode:     p.es.opts.Protection,
		Scheme:   p.es.opts.Scheme,
		NextStep: next,
		Tol:      p.tol,
		Data:     make([]*matrix.Dense, p.nbr),
	}
	if p.es.opts.Protection != NoChecksum {
		cp.ColChk = make([]*matrix.Dense, p.nbr)
	}
	if p.es.opts.Protection == Full {
		cp.RowChk = make([]*matrix.Dense, p.nbr)
	}
	host := cp.hostStrips()
	dims := cp.stripDims()
	srcs, dsts := p.finish(next)
	for bj := next; bj < p.nbr; bj++ {
		for i, s := range p.column(bj) {
			m := matrix.NewDense(dims[i][0], dims[i][1])
			host[i][bj] = m
			srcs = append(srcs, s)
			dsts = append(dsts, m.View(m.Rows-s.Rows(), 0, s.Rows(), s.Cols()))
		}
	}
	p.es.sys.Checkpoint(srcs, dsts)
	for bj := 0; bj < next; bj++ {
		cp.Data[bj] = p.out.View(0, bj*p.nb, p.n, p.nb).Clone()
	}
	// The histories stop at the finished steps: after a rollback the
	// entries beyond still hold the abandoned pass's, and a resumed run
	// replays those steps anyway.
	if p.piv != nil {
		cp.Piv = make([]int, p.n)
		copy(cp.Piv[:next*p.nb], p.piv)
	}
	if p.tau != nil {
		cp.Tau = make([]float64, p.n)
		copy(cp.Tau[:next*p.nb], p.tau)
	}
	cp.seal()
	return cp
}

// stripDims returns the shapes of a block column's host copies, in the
// order hostStrips lists them: the n×NB data column, its 2·(n/NB)×NB
// column-checksum strips and its n×2 row-checksum pair.
func (cp *Checkpoint) stripDims() [3][2]int {
	return [3][2]int{{cp.N, cp.NB}, {2 * (cp.N / cp.NB), cp.NB}, {cp.N, 2}}
}

// hostStrips lists the checkpoint's per-block-column host copies in the
// order protected.strips returns a column: data, column-checksum strips,
// row-checksum pairs.
func (cp *Checkpoint) hostStrips() [][]*matrix.Dense {
	return [][]*matrix.Dense{cp.Data, cp.ColChk, cp.RowChk}
}

// restoreFrom, the entry of mid-run rollback (same device set) and resume
// (possibly fewer GPUs), reseeds the host-held factor's finished columns
// from the checkpoint (a rollback drops LU's interchanges on them since),
// and the layout's pivot or reflector history, and ships the strips of
// the columns from NextStep on, the only GPU copies read again, onto the
// current layout in one System.Restore: the rows each owner holds (see
// protected.strips), so a checkpoint whose columns carry more rows
// restores too. The copies are in flight when it returns: the ladder
// factors panel NextStep from the checkpoint meanwhile (see hostCurrent),
// and then settles the layout, whose parity checkpoints do not carry.
func (p *protected) restoreFrom(cp *Checkpoint) {
	for bj := 0; bj < cp.NextStep; bj++ {
		p.out.View(0, bj*p.nb, p.n, p.nb).CopyFrom(cp.Data[bj])
	}
	copy(p.piv, cp.Piv)
	copy(p.tau, cp.Tau)
	p.done = cp.NextStep
	host := cp.hostStrips()
	var srcs []*matrix.Dense
	var dsts []*hetsim.Buffer
	for bj := cp.NextStep; bj < p.nbr; bj++ {
		for i, s := range p.column(bj) {
			m := host[i][bj]
			srcs = append(srcs, m.View(m.Rows-s.Rows(), 0, s.Rows(), s.Cols()))
			dsts = append(dsts, s)
		}
	}
	p.es.sys.Restore(srcs, dsts)
	p.unsettled, p.restored = true, cp
}
