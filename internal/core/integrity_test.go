package core

import (
	"errors"
	"testing"

	"ftla/internal/checksum"
	"ftla/internal/fault"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
)

// tamperAndCapture is interruptAndCapture with sabotage: the OnCheckpoint
// hook mutates the snapshot the moment it is handed out, proving the
// runtime seals the content checksum before user code can observe the
// checkpoint. The tamper targets the piece the driver populates last
// (Piv for LU, Tau for QR, a data panel for Cholesky), pinning that seal
// happens after the driver finished writing, not inside captureCheckpoint.
func tamperAndCapture(t *testing.T, decomp string, a *matrix.Dense, base Options, afterOps int) (*Checkpoint, bool) {
	t.Helper()
	var last *Checkpoint
	opts := base
	opts.CheckpointEvery = 1
	opts.OnCheckpoint = func(cp *Checkpoint) {
		switch decomp {
		case "lu":
			cp.Piv[0]++
		case "qr":
			cp.Tau[0] += 0.5
		default:
			row := cp.Data[0].Row(0)
			row[0] += 1
		}
		last = cp
	}
	opts.FailStop = map[int]hetsim.FaultPlan{3: {Mode: hetsim.FaultCrash, AfterOps: afterOps}}
	_, _, _, _, err := runDecomp(decomp, testSystem(4), a, opts)
	if err == nil {
		return nil, false
	}
	var lost *hetsim.DeviceLostError
	if !errors.As(err, &lost) {
		t.Fatalf("%s: interrupted run failed with %v, want DeviceLostError", decomp, err)
	}
	return last, last != nil
}

// TestTamperedCheckpointRejectedAtResume: a checkpoint mutated after
// capture — here by the OnCheckpoint hook itself — is refused by
// Options.Resume with an error classified by ErrCheckpointIntegrity, and
// the integrity-failure metric ticks. A tampered snapshot is never
// silently replayed.
func TestTamperedCheckpointRejectedAtResume(t *testing.T) {
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		t.Run(decomp, func(t *testing.T) {
			base := Options{NB: 16, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel}
			a := pipelineInput(decomp, 96)

			var cp *Checkpoint
			for _, afterOps := range []int{30, 50, 15, 80} {
				if got, ok := tamperAndCapture(t, decomp, a, base, afterOps); ok {
					cp = got
					break
				}
			}
			if cp == nil {
				t.Fatal("no candidate op count crashed mid-run with a checkpoint in hand")
			}

			before := checkpointIntegrityFailures.Value()
			resOpts := base
			resOpts.Resume = cp
			_, _, _, _, err := runDecomp(decomp, testSystem(3), a, resOpts)
			if err == nil {
				t.Fatal("resume accepted a tampered checkpoint")
			}
			if !errors.Is(err, ErrCheckpointIntegrity) {
				t.Fatalf("resume err = %v, want ErrCheckpointIntegrity", err)
			}
			if checkpointIntegrityFailures.Value() <= before {
				t.Fatal("integrity rejection did not tick the metric")
			}
		})
	}
}

// TestUntamperedCheckpointStillResumes is the control for the tamper test:
// the same capture path without sabotage resumes cleanly, so the rejection
// above is the checksum speaking, not a broken capture.
func TestUntamperedCheckpointStillResumes(t *testing.T) {
	base := Options{NB: 16, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel}
	a := pipelineInput("lu", 96)
	var cp *Checkpoint
	for _, afterOps := range []int{30, 50, 15, 80} {
		if got, ok := interruptAndCapture(t, "lu", a, base, afterOps); ok {
			cp = got
			break
		}
	}
	if cp == nil {
		t.Fatal("no candidate op count crashed mid-run with a checkpoint in hand")
	}
	resOpts := base
	resOpts.Resume = cp
	_, _, _, res, err := runDecomp("lu", testSystem(3), a, resOpts)
	if err != nil {
		t.Fatalf("clean checkpoint rejected: %v", err)
	}
	if res.Unrecoverable {
		t.Fatal("clean resume surrendered")
	}
}

// TestTamperedCheckpointRefusedAtRollback: when the in-memory checkpoint a
// rollback would restore has been corrupted, the runtime discards it and
// lets the uncorrectable verdict stand (detected surrender) instead of
// replaying garbage. Mirrors TestRollbackRecoversUncorrectable with a
// sabotaged snapshot: there the rollback saves the run, here it must not.
func TestTamperedCheckpointRefusedAtRollback(t *testing.T) {
	a := pipelineInput("lu", 96)
	for _, lookahead := range []int{0, 1} {
		inj := fault.NewInjector(7)
		for _, row := range []int{1, 2} {
			inj.Schedule(fault.Spec{
				Kind: fault.OffChipMemory, Op: fault.PD, Part: fault.ReferencePart,
				Iteration: 2, Row: row, Col: 0,
			})
		}
		opts := Options{NB: 16, Protection: SingleSide, Scheme: NewScheme, Kernel: checksum.OptKernel}
		opts.Lookahead = lookahead
		opts.Injector = inj
		opts.CheckpointEvery = 1
		opts.OnCheckpoint = func(cp *Checkpoint) { cp.Piv[0]++ }

		before := checkpointIntegrityFailures.Value()
		_, _, res, err := LU(testSystem(2), a, opts)
		if err != nil {
			t.Fatalf("lookahead=%d: run errored: %v", lookahead, err)
		}
		if res.Rollbacks != 0 {
			t.Fatalf("lookahead=%d: Rollbacks = %d, want 0 (tampered snapshot must not be restored)",
				lookahead, res.Rollbacks)
		}
		if !res.Unrecoverable || !res.Detected {
			t.Fatalf("lookahead=%d: Unrecoverable=%v Detected=%v, want detected surrender",
				lookahead, res.Unrecoverable, res.Detected)
		}
		if checkpointIntegrityFailures.Value() <= before {
			t.Fatalf("lookahead=%d: rollback rejection did not tick the integrity metric", lookahead)
		}
	}
}

// TestCheckpointSumSurvivesRoundTrip pins that sealing is deterministic:
// re-deriving the content checksum of an untouched checkpoint matches the
// stored Sum for every decomposition.
func TestCheckpointSumSurvivesRoundTrip(t *testing.T) {
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		base := Options{NB: 16, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel}
		a := pipelineInput(decomp, 96)
		var cps []*Checkpoint
		opts := base
		opts.CheckpointEvery = 1
		opts.OnCheckpoint = func(cp *Checkpoint) { cps = append(cps, cp) }
		if _, _, _, _, err := runDecomp(decomp, testSystem(2), a, opts); err != nil {
			t.Fatalf("%s: clean run failed: %v", decomp, err)
		}
		if len(cps) == 0 {
			t.Fatalf("%s: no checkpoints captured", decomp)
		}
		for i, cp := range cps {
			if err := cp.verifyIntegrity(); err != nil {
				t.Fatalf("%s: checkpoint %d failed self-verification: %v", decomp, i, err)
			}
			if cp.Sum == 0 {
				t.Fatalf("%s: checkpoint %d has zero Sum (never sealed?)", decomp, i)
			}
		}
	}
}
