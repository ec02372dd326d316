package core

import (
	"math"
	"testing"
	"testing/quick"

	"ftla/internal/checksum"
	"ftla/internal/matrix"
)

// newTestProtected builds a protected matrix over a fresh system for
// white-box tests.
func newTestProtected(t *testing.T, n, nb, gpus int, mode Mode) (*protected, *matrix.Dense) {
	t.Helper()
	sys := testSystem(gpus)
	rng := matrix.NewRNG(uint64(n + nb + gpus))
	a := matrix.RandomDiagDominant(n, rng)
	scheme := NewScheme
	if mode == NoChecksum {
		scheme = NoCheck
	}
	opts := Options{NB: nb, Protection: mode, Scheme: scheme}
	if err := opts.Validate(n); err != nil {
		t.Fatal(err)
	}
	es := newEngine("test", sys, opts, &Result{})
	p := newProtected(es, a)
	p.settle()
	return p, a
}

func TestDistributionMapping(t *testing.T) {
	p, _ := newTestProtected(t, 96, 16, 3, Full)
	if p.nbr != 6 {
		t.Fatalf("nbr = %d", p.nbr)
	}
	// Block-cyclic layout: bj -> gpu bj%3, local block bj/3.
	for bj := 0; bj < p.nbr; bj++ {
		if p.owner(bj) != bj%3 {
			t.Fatalf("owner(%d) = %d", bj, p.owner(bj))
		}
		if p.localBlock(bj) != bj/3 {
			t.Fatalf("localBlock(%d) = %d", bj, p.localBlock(bj))
		}
	}
	// nloc partitions the blocks exactly.
	total := 0
	for g := 0; g < 3; g++ {
		total += p.nloc[g]
	}
	if total != p.nbr {
		t.Fatalf("nloc sums to %d, want %d", total, p.nbr)
	}
}

func TestTrailStart(t *testing.T) {
	p, _ := newTestProtected(t, 96, 16, 2, Full)
	// GPU 0 owns blocks 0,2,4; GPU 1 owns 1,3,5.
	cases := []struct{ g, bj, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 2, 1}, {0, 3, 2}, {0, 5, 3},
		{1, 0, 0}, {1, 1, 0}, {1, 2, 1}, {1, 4, 2},
	}
	for _, c := range cases {
		if got := p.trailStart(c.g, c.bj); got != c.want {
			t.Errorf("trailStart(%d, %d) = %d, want %d", c.g, c.bj, got, c.want)
		}
	}
}

func TestGatherRoundTrip(t *testing.T) {
	p, a := newTestProtected(t, 64, 16, 3, Full)
	got := p.gather()
	if !got.Equal(a) {
		t.Fatal("gather does not reproduce the distributed matrix")
	}
}

func TestInitialChecksumsConsistent(t *testing.T) {
	p, _ := newTestProtected(t, 96, 16, 2, Full)
	if worst, _ := p.verifyTrailingCol(0, -1, tmuAll); worst != repairClean {
		t.Fatal("fresh encode already inconsistent")
	}
	for g := 0; g < 2; g++ {
		for r := 0; r < p.n; r++ {
			if !p.verifyRowQuick(g, r, 0) {
				t.Fatalf("row %d on GPU %d inconsistent after encode", r, g)
			}
		}
	}
}

// Property: maintained column checksums survive arbitrary swap sequences
// exactly (up to round-off).
func TestSwapMaintenanceQuick(t *testing.T) {
	f := func(seed uint64) bool {
		p, _ := newTestProtected(t, 64, 16, 2, Full)
		rng := matrix.NewRNG(seed)
		for i := 0; i < 12; i++ {
			r1, r2 := rng.Intn(64), rng.Intn(64)
			p.swapRows(r1, r2, 0, p.nbr)
		}
		worst, _ := p.verifyTrailingCol(0, -1, tmuAll)
		return worst == repairClean && !p.es.res.Detected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSwapPreservesRowChk(t *testing.T) {
	p, _ := newTestProtected(t, 64, 16, 2, Full)
	p.swapRows(3, 50, 0, p.nbr)
	p.swapRows(17, 18, 0, p.nbr)
	for g := 0; g < 2; g++ {
		for _, r := range []int{3, 50, 17, 18} {
			if !p.verifyRowQuick(g, r, 0) {
				t.Fatalf("rowChk row %d broken after swap on GPU %d", r, g)
			}
		}
	}
}

func TestSwapRangeRestriction(t *testing.T) {
	p, _ := newTestProtected(t, 64, 16, 2, Full)
	g0 := p.es.sys.GPU(0)
	before := p.local[0].Access(g0).Clone()
	// Swap restricted to block columns [2, 4): GPU0's block 2 is local
	// block 1 (cols 16..32); its block 0 (cols 0..16) must not move.
	p.swapRows(1, 40, 2, 4)
	after := p.local[0].Access(g0)
	for j := 0; j < 16; j++ {
		if after.At(1, j) != before.At(1, j) {
			t.Fatal("swap leaked into excluded block column")
		}
	}
	if after.At(1, 16) != before.At(40, 16) {
		t.Fatal("swap did not apply to included block column")
	}
}

func TestReencodeRowChkRow(t *testing.T) {
	p, _ := newTestProtected(t, 64, 16, 2, Full)
	g0 := p.es.sys.GPU(0)
	// Pollute the stored row checksum, then re-encode from data.
	rc := p.rowChk[0].Access(g0)
	rc.Set(5, 0, rc.At(5, 0)+3)
	if p.verifyRowQuick(0, 5, 0) {
		t.Fatal("pollution not visible")
	}
	p.reencodeRowChkRow(0, 5, 0, p.nloc[0])
	if !p.verifyRowQuick(0, 5, 0) {
		t.Fatal("re-encode did not restore consistency")
	}
}

func TestReencodeColChkCol(t *testing.T) {
	p, _ := newTestProtected(t, 64, 16, 2, Full)
	g0 := p.es.sys.GPU(0)
	cc := p.colChk[0].Access(g0)
	cc.Set(2, 7, cc.At(2, 7)+5) // pollute strip 1, local col 7
	ms := checksum.VerifyCol(1, p.local[0].Access(g0), p.nb, cc, p.tol)
	if len(ms) == 0 {
		t.Fatal("pollution not visible")
	}
	p.reencodeColChkCol(0, 7)
	ms = checksum.VerifyCol(1, p.local[0].Access(g0), p.nb, cc, p.tol)
	if len(ms) != 0 {
		t.Fatal("re-encode did not restore consistency")
	}
}

func TestRepairContaminatedRow(t *testing.T) {
	p, _ := newTestProtected(t, 64, 16, 2, Full)
	g0 := p.es.sys.GPU(0)
	data := p.local[0].Access(g0)
	want := data.Clone()
	// Contaminate row 20 across GPU0's columns AND pollute its rowChk —
	// the §VII.B Fig. 4b double damage.
	for j := 0; j < data.Cols; j++ {
		data.Set(20, j, data.At(20, j)+1.5)
	}
	rc := p.rowChk[0].Access(g0)
	rc.Set(20, 1, rc.At(20, 1)-2)
	if !p.repairContaminatedRow(0, 20, 0) {
		t.Fatal("repair reported failure")
	}
	for j := 0; j < data.Cols; j++ {
		if math.Abs(data.At(20, j)-want.At(20, j)) > 1e-10 {
			t.Fatalf("row not restored at col %d", j)
		}
	}
	if !p.verifyRowQuick(0, 20, 0) {
		t.Fatal("rowChk not reconciled")
	}
}

func TestReconcileOrthogonalColumnCase(t *testing.T) {
	// Aliased column corruption: data column wrong in many rows, colChk
	// polluted to agree, rowChk clean → reconcile must rebuild the column
	// from rowChk and re-encode colChk.
	p, _ := newTestProtected(t, 64, 16, 2, Full)
	g0 := p.es.sys.GPU(0)
	data := p.local[0].Access(g0)
	want := data.Clone()
	col := 5
	for i := 8; i < 24; i++ {
		data.Set(i, col, data.At(i, col)+float64(i))
	}
	p.reencodeColChkCol(0, col) // simulate consistent pollution
	p.reconcileOrthogonal(0, 0, p.n, 0, p.nloc[0])
	for i := 0; i < p.n; i++ {
		if math.Abs(data.At(i, col)-want.At(i, col)) > 1e-10 {
			t.Fatalf("column not rebuilt at row %d: %g vs %g", i, data.At(i, col), want.At(i, col))
		}
	}
	cc := p.colChk[0].Access(g0)
	if ms := checksum.VerifyCol(1, data, p.nb, cc, p.tol); len(ms) != 0 {
		t.Fatal("colChk not re-encoded after column rebuild")
	}
}

func TestReconcileOrthogonalRowPollutionCase(t *testing.T) {
	// Dual damage pattern: clean data, polluted rowChk row across strips →
	// reconcile must re-encode the row checksums, not touch the data.
	p, _ := newTestProtected(t, 64, 16, 2, Full)
	g0 := p.es.sys.GPU(0)
	data := p.local[0].Access(g0)
	want := data.Clone()
	rc := p.rowChk[0].Access(g0)
	for pair := 0; pair < rc.Cols; pair += 2 {
		rc.Set(9, pair, rc.At(9, pair)+2)
	}
	p.reconcileOrthogonal(0, 0, p.n, 0, p.nloc[0])
	if !data.Equal(want) {
		t.Fatal("reconcile modified clean data")
	}
	if !p.verifyRowQuick(0, 9, 0) {
		t.Fatal("polluted row checksums not re-encoded")
	}
}

// TestCleanRunsBillNoRecovery: on a clean input every checksum pass is
// verification, QR's orthogonal cross-check included, so a Full run of
// each decomposition under either schedule reports verify time and no
// recovery time.
func TestCleanRunsBillNoRecovery(t *testing.T) {
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		for _, lookahead := range []int{0, 1} {
			a := batchInputs(decomp, 1, 96)[0]
			opts := Options{NB: 16, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel, Lookahead: lookahead}
			_, _, _, res := runSolo(t, decomp, a, 2, opts)
			if res.Detected || res.RecoverT != 0 || res.VerifyT <= 0 {
				t.Errorf("%s lookahead=%d: detected=%v RecoverT=%v VerifyT=%v, want nothing detected, no recovery time and some verify time",
					decomp, lookahead, res.Detected, res.RecoverT, res.VerifyT)
			}
		}
	}
}

func TestVerifyRepairColLadder(t *testing.T) {
	p, _ := newTestProtected(t, 64, 16, 1, Full)
	g0 := p.es.sys.GPU(0)
	data := p.local[0].Access(g0)
	chk := p.colChk[0].Access(g0)
	want := data.Clone()
	// 0-D: single element.
	data.Set(10, 3, data.At(10, 3)+4)
	if out, _ := p.verifyRepair(colAxis, 1, data, chk, nil); out != repairCorrected {
		t.Fatalf("0-D repair outcome %v", out)
	}
	if !data.EqualWithin(want, 1e-10) {
		t.Fatal("0-D repair wrong value")
	}
	// 1-D row: one row across many columns (each column localizes).
	for j := 0; j < 32; j++ {
		data.Set(20, j, data.At(20, j)-2.5)
	}
	if out, _ := p.verifyRepair(colAxis, 1, data, chk, nil); out != repairCorrected {
		t.Fatalf("1-D row repair outcome %v", out)
	}
	if !data.EqualWithin(want, 1e-10) {
		t.Fatal("1-D row repair wrong values")
	}
	// 1-D column without rowRepair: must fail.
	for i := 16; i < 32; i++ {
		data.Set(i, 8, data.At(i, 8)+1.25)
	}
	if out, _ := p.verifyRepair(colAxis, 1, data, chk, nil); out != repairFailed {
		t.Fatalf("1-D column without rowRepair: outcome %v, want failed", out)
	}
	// With rowRepair: reconstruct from row checksums.
	if out, _ := p.verifyRepair(colAxis, 1, data, chk, p.fullColumnRepair(0, 0)); out != repairCorrected {
		t.Fatalf("1-D column with rowRepair: outcome %v", out)
	}
	if !data.EqualWithin(want, 1e-9) {
		d, i, j := data.MaxAbsDiff(want)
		t.Fatalf("column reconstruction wrong by %g at (%d,%d)", d, i, j)
	}
}

func TestToleranceScalesWithMatrix(t *testing.T) {
	pSmall, _ := newTestProtected(t, 32, 16, 1, Full)
	pBig, _ := newTestProtected(t, 128, 16, 1, Full)
	if pBig.tol <= pSmall.tol {
		t.Fatal("tolerance must grow with matrix size/scale")
	}
}
