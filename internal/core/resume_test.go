package core

import (
	"errors"
	"fmt"
	"testing"

	"ftla/internal/checksum"
	"ftla/internal/fault"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
)

// runDecomp dispatches one driver call and normalizes the three return
// shapes (Cholesky has no auxiliary output, LU returns pivots, QR returns
// tau).
func runDecomp(decomp string, sys *hetsim.System, a *matrix.Dense, opts Options) (out *matrix.Dense, piv []int, tau []float64, res *Result, err error) {
	switch decomp {
	case "cholesky":
		out, res, err = Cholesky(sys, a, opts)
	case "lu":
		out, piv, res, err = LU(sys, a, opts)
	default:
		out, tau, res, err = QR(sys, a, opts)
	}
	return
}

// interruptAndCapture runs decomp on a fresh 4-GPU system with a checkpoint
// after every step and GPU3 armed to crash after afterOps operations. It
// returns the last checkpoint taken before the crash and whether the
// interruption was usable: the run must really have aborted with a
// DeviceLostError (not finished) and at least one checkpoint must have been
// captured first.
func interruptAndCapture(t *testing.T, decomp string, a *matrix.Dense, base Options, afterOps int) (*Checkpoint, bool) {
	t.Helper()
	var last *Checkpoint
	opts := base
	opts.CheckpointEvery = 1
	opts.OnCheckpoint = func(cp *Checkpoint) { last = cp }
	opts.FailStop = map[int]hetsim.FaultPlan{3: {Mode: hetsim.FaultCrash, AfterOps: afterOps}}
	_, _, _, _, err := runDecomp(decomp, testSystem(4), a, opts)
	if err == nil {
		return nil, false // crash armed too late: the run finished first
	}
	var lost *hetsim.DeviceLostError
	if !errors.As(err, &lost) {
		t.Fatalf("%s: interrupted run failed with %v, want DeviceLostError", decomp, err)
	}
	return last, last != nil
}

// TestResumeBitIdentity is the tentpole invariant: for every decomposition
// and both schedules, a run killed by device loss at a randomized step and
// resumed from its last checkpoint on the three surviving GPUs produces a
// factor bit-identical to an uninterrupted run on that same reduced device
// set.
func TestResumeBitIdentity(t *testing.T) {
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		for _, lookahead := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/lookahead=%d", decomp, lookahead), func(t *testing.T) {
				base := Options{NB: 16, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel, Lookahead: lookahead}
				a := pipelineInput(decomp, 96)

				// Randomize when GPU3 dies (per-config seeds vary the
				// interruption step), with a deterministic fallback ladder so
				// the crash always lands strictly between the first
				// checkpoint and the finish line.
				rng := matrix.NewRNG(uint64(len(decomp)*10+lookahead) + 41)
				candidates := []int{
					20 + int(rng.Uint64()%60),
					20 + int(rng.Uint64()%60),
					15, 30, 50, 80,
				}
				var cp *Checkpoint
				for _, afterOps := range candidates {
					if got, ok := interruptAndCapture(t, decomp, a, base, afterOps); ok {
						cp = got
						break
					}
				}
				if cp == nil {
					t.Fatal("no candidate op count crashed mid-run with a checkpoint in hand")
				}
				if cp.NextStep <= 0 || cp.NextStep >= 96/16 {
					t.Fatalf("checkpoint step %d outside the resumable range", cp.NextStep)
				}

				// Resume on the three survivors.
				resOpts := base
				resOpts.Resume = cp
				rout, rpiv, rtau, rres, err := runDecomp(decomp, testSystem(3), a, resOpts)
				if err != nil {
					t.Fatalf("resume from step %d on 3 GPUs failed: %v", cp.NextStep, err)
				}
				if rres.Unrecoverable {
					t.Fatal("resumed run surrendered")
				}

				// Uninterrupted baseline on the same reduced device set.
				bout, bpiv, btau, _, err := runDecomp(decomp, testSystem(3), a, base)
				if err != nil {
					t.Fatalf("baseline on 3 GPUs failed: %v", err)
				}
				if d, r, c := bout.MaxAbsDiff(rout); d != 0 {
					t.Fatalf("resumed factor differs from uninterrupted: |Δ|=%g at (%d,%d)", d, r, c)
				}
				if len(rpiv) != len(bpiv) {
					t.Fatalf("pivot lengths differ: %d vs %d", len(rpiv), len(bpiv))
				}
				for i := range bpiv {
					if rpiv[i] != bpiv[i] {
						t.Fatalf("pivot %d differs: resumed %d vs baseline %d", i, rpiv[i], bpiv[i])
					}
				}
				if len(rtau) != len(btau) {
					t.Fatalf("tau lengths differ: %d vs %d", len(rtau), len(btau))
				}
				for i := range btau {
					if rtau[i] != btau[i] {
						t.Fatalf("tau %d differs: resumed %v vs baseline %v", i, rtau[i], btau[i])
					}
				}
			})
		}
	}
}

// TestRollbackRecoversUncorrectable: an injected corruption the checksums
// can detect but not repair (two DRAM hits in one column under single-side
// protection) no longer surrenders the run — the step runtime rolls back to
// the last checkpoint, replays, and finishes with a factor bit-identical to
// a fault-free run, since the restored state predates the (transient)
// corruption.
func TestRollbackRecoversUncorrectable(t *testing.T) {
	a := pipelineInput("lu", 96)
	clean := Options{NB: 16, Protection: SingleSide, Scheme: NewScheme, Kernel: checksum.OptKernel}
	cout, cpiv, cres, err := LU(testSystem(2), a, clean)
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if cres.Unrecoverable || cres.Detected {
		t.Fatal("clean run is not clean")
	}

	for _, lookahead := range []int{0, 1} {
		inj := fault.NewInjector(7)
		for _, row := range []int{1, 2} {
			inj.Schedule(fault.Spec{
				Kind: fault.OffChipMemory, Op: fault.PD, Part: fault.ReferencePart,
				Iteration: 2, Row: row, Col: 0,
			})
		}
		opts := clean
		opts.Lookahead = lookahead
		opts.Injector = inj
		opts.CheckpointEvery = 1
		out, piv, res, err := LU(testSystem(2), a, opts)
		if err != nil {
			t.Fatalf("lookahead=%d: rolled-back run failed: %v", lookahead, err)
		}
		if res.Rollbacks < 1 {
			t.Fatalf("lookahead=%d: Rollbacks = %d, want >= 1", lookahead, res.Rollbacks)
		}
		if res.Unrecoverable {
			t.Fatalf("lookahead=%d: rollback did not clear the surrender", lookahead)
		}
		if !res.Detected {
			t.Fatalf("lookahead=%d: injected corruption went undetected", lookahead)
		}
		if res.Checkpoints < 1 {
			t.Fatalf("lookahead=%d: Checkpoints = %d, want >= 1", lookahead, res.Checkpoints)
		}
		if len(inj.Events()) != 2 {
			t.Fatalf("lookahead=%d: %d fault events, want 2", lookahead, len(inj.Events()))
		}
		if d, r, c := cout.MaxAbsDiff(out); d != 0 {
			t.Fatalf("lookahead=%d: rolled-back factor differs from clean: |Δ|=%g at (%d,%d)",
				lookahead, d, r, c)
		}
		for i := range cpiv {
			if piv[i] != cpiv[i] {
				t.Fatalf("lookahead=%d: pivot %d differs after rollback", lookahead, i)
			}
		}
	}
}

// TestCheckpointCadenceAndValidation: CheckpointEvery controls how often
// snapshots are taken (never after the final step), the checkpoint carries
// the resume step, and Options.Resume rejects checkpoints whose driver,
// geometry or strip shape does not match.
func TestCheckpointCadenceAndValidation(t *testing.T) {
	a := pipelineInput("cholesky", 96)
	var last *Checkpoint
	opts := Options{NB: 16, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel,
		CheckpointEvery: 2, OnCheckpoint: func(cp *Checkpoint) { last = cp }}
	out, res, err := Cholesky(testSystem(2), a, opts)
	if err != nil {
		t.Fatal(err)
	}
	// 6 steps, every 2nd checkpointed, final step never: after steps 1 and 3.
	if res.Checkpoints != 2 {
		t.Fatalf("Checkpoints = %d, want 2", res.Checkpoints)
	}
	if last == nil || last.NextStep != 4 {
		t.Fatalf("last checkpoint = %+v, want NextStep 4", last)
	}
	if last.Decomp != "cholesky" || last.N != 96 || last.NB != 16 {
		t.Fatalf("checkpoint identity wrong: %q n=%d nb=%d", last.Decomp, last.N, last.NB)
	}

	// Same driver, same geometry, same device count: resume reproduces the
	// uninterrupted factor bit-for-bit.
	resOpts := Options{NB: 16, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel, Resume: last}
	rout, _, err := Cholesky(testSystem(2), a, resOpts)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if d, r, c := out.MaxAbsDiff(rout); d != 0 {
		t.Fatalf("resumed factor differs: |Δ|=%g at (%d,%d)", d, r, c)
	}

	// Wrong driver.
	if _, _, _, err := LU(testSystem(2), pipelineInput("lu", 96), resOpts); err == nil {
		t.Fatal("LU accepted a cholesky checkpoint")
	}
	// Wrong block size.
	bad := resOpts
	bad.NB = 32
	if _, _, err := Cholesky(testSystem(2), a, bad); err == nil {
		t.Fatal("resume accepted a mismatched block size")
	}
	// Wrong protection mode.
	bad = resOpts
	bad.Protection, bad.Scheme = SingleSide, NewScheme
	if _, _, err := Cholesky(testSystem(2), a, bad); err == nil {
		t.Fatal("resume accepted a mismatched protection mode")
	}
	// A trailing column without its column-checksum strip, re-sealed so
	// that the content checksum matches: the shape check refuses it.
	shape := *last
	shape.ColChk = append([]*matrix.Dense(nil), last.ColChk...)
	shape.ColChk[shape.NextStep] = nil
	shape.seal()
	bad = resOpts
	bad.Resume = &shape
	if _, _, err := Cholesky(testSystem(2), a, bad); err == nil || errors.Is(err, ErrCheckpointIntegrity) {
		t.Fatalf("resume of a checkpoint missing a trailing strip: err = %v, want a shape error", err)
	}
}
