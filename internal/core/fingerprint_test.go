package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"ftla/internal/checksum"
	"ftla/internal/fault"
)

// ladderFingerprintsFile pins the observable behavior of the three ladders
// across protection configurations, fault kinds and schedules. It is a
// golden file: any change to it means a refactor changed bits, counters,
// traffic, work or the simulated clock.
const ladderFingerprintsFile = "testdata/ladder_fingerprints.txt"

// fingerprintCase is one row of the ladder sweep.
type fingerprintCase struct {
	decomp    string
	mode      Mode
	scheme    Scheme
	specs     []fault.Spec
	lookahead int
	periodic  int
	ckEvery   int
}

func (c fingerprintCase) label() string {
	f := "clean"
	if len(c.specs) > 0 {
		var ds []string
		for _, s := range c.specs {
			ds = append(ds, s.Describe())
		}
		f = strings.Join(ds, "+")
	}
	return fmt.Sprintf("%s %v/%v la=%d ptc=%d ck=%d %s",
		c.decomp, c.mode, c.scheme, c.lookahead, c.periodic, c.ckEvery, f)
}

// fingerprintCases enumerates the sweep: every decomposition under every
// protected configuration, clean and with each fault kind striking PD, PU
// (Cholesky and LU: QR has no PU) and TMU at iteration 2, plus unprotected
// clean runs, one periodic-trailing-check row and one checkpointing row per
// decomposition — all under both schedules.
func fingerprintCases() []fingerprintCase {
	protected := []struct {
		mode   Mode
		scheme Scheme
	}{
		{Full, NewScheme}, {Full, PostOp}, {Full, PriorOp}, {SingleSide, NewScheme},
	}
	kinds := []fault.Kind{fault.Computation, fault.OffChipMemory, fault.OnChipMemory, fault.Communication}
	var out []fingerprintCase
	for _, lookahead := range []int{0, 1} {
		for _, decomp := range []string{"cholesky", "lu", "qr"} {
			ops := []fault.Op{fault.PD, fault.PU, fault.TMU}
			if decomp == "qr" {
				ops = []fault.Op{fault.PD, fault.TMU}
			}
			for _, pc := range protected {
				out = append(out, fingerprintCase{decomp: decomp, mode: pc.mode, scheme: pc.scheme, lookahead: lookahead})
				for _, kind := range kinds {
					for _, op := range ops {
						part := fault.UpdatePart
						if kind == fault.OnChipMemory {
							part = fault.ReferencePart
						}
						spec := fault.Spec{Kind: kind, Op: op, Part: part, Iteration: 2, Bits: 2, Row: -1, Col: -1, GPUTarget: 1}
						out = append(out, fingerprintCase{decomp: decomp, mode: pc.mode, scheme: pc.scheme, specs: []fault.Spec{spec}, lookahead: lookahead})
					}
				}
			}
			out = append(out,
				fingerprintCase{decomp: decomp, mode: NoChecksum, scheme: NoCheck, lookahead: lookahead},
				fingerprintCase{decomp: decomp, mode: Full, scheme: NewScheme, lookahead: lookahead, periodic: 2},
				// Two corrupted elements in one panel column defeat
				// SingleSide's repair, so this row rolls back to the
				// checkpoint taken after step 1.
				fingerprintCase{decomp: decomp, mode: SingleSide, scheme: NewScheme, lookahead: lookahead, ckEvery: 2, specs: []fault.Spec{
					{Kind: fault.OffChipMemory, Op: fault.PD, Part: fault.ReferencePart, Iteration: 2, Row: 1, Col: 0},
					{Kind: fault.OffChipMemory, Op: fault.PD, Part: fault.ReferencePart, Iteration: 2, Row: 2, Col: 0},
				}})
		}
	}
	return out
}

// fingerprint runs one case on a fresh 2-GPU system and renders everything
// a behavior-preserving refactor must keep: the bits of the factor and its
// auxiliary output, the full verification/recovery counter, the outcome
// flags, PCIe traffic, flops, and — for the serial schedule, whose clock is
// deterministic — the simulated makespan.
func fingerprint(t *testing.T, i int, c fingerprintCase) string {
	t.Helper()
	const n = 128
	opts := Options{NB: 16, Mode: c.mode, Scheme: c.scheme, Kernel: checksum.OptKernel,
		Lookahead: c.lookahead, PeriodicTrailingCheck: c.periodic, CheckpointEvery: c.ckEvery}
	if len(c.specs) > 0 {
		inj := fault.NewInjector(uint64(1000 + i))
		for _, s := range c.specs {
			inj.Schedule(s)
		}
		opts.Injector = inj
	}
	out, piv, tau, res, err := runDecomp(c.decomp, testSystem(2), pipelineInput(c.decomp, n), opts)
	if err != nil {
		return fmt.Sprintf("%s | err=%v", c.label(), err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for b := range buf {
			buf[b] = byte(v >> (8 * b))
		}
		h.Write(buf[:])
	}
	for _, v := range out.Data {
		put(math.Float64bits(v))
	}
	for _, v := range piv {
		put(uint64(v))
	}
	for _, v := range tau {
		put(math.Float64bits(v))
	}
	makespan := "-"
	if c.lookahead == 0 {
		makespan = fmt.Sprintf("%x", math.Float64bits(res.SimMakespan))
	}
	return fmt.Sprintf("%s | bits=%016x %+v det=%t unrec=%t ck=%d rb=%d pcie=%d flops=%d sim=%s",
		c.label(), h.Sum64(), res.Counter, res.Detected, res.Unrecoverable,
		res.Checkpoints, res.Rollbacks, res.PCIeBytes, res.Flops, makespan)
}

// TestLadderFingerprints compares the sweep against the committed golden
// file line by line. The test never rewrites the file: a row that changes
// is a change in behavior, to be justified rather than regenerated.
func TestLadderFingerprints(t *testing.T) {
	want, err := os.ReadFile(ladderFingerprintsFile)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	cases := fingerprintCases()
	if len(wantLines) != len(cases) {
		t.Fatalf("golden file has %d rows, sweep has %d", len(wantLines), len(cases))
	}
	bad := 0
	for i, c := range cases {
		if got := fingerprint(t, i, c); got != wantLines[i] {
			bad++
			if bad <= 5 {
				t.Errorf("row %d differs:\n got  %s\n want %s", i, got, wantLines[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("%d of %d rows differ", bad, len(cases))
	}
}
