package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"ftla/internal/checksum"
	"ftla/internal/fault"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
	"ftla/internal/obs"
)

// pipelineRun executes one decomposition on a fresh testSystem and returns
// everything the cross-schedule comparisons need: the factor, the extra
// output (pivots for LU, tau for QR, nil for Cholesky), the result, and the
// canonical stage journal.
type pipelineRun struct {
	out     *matrix.Dense
	pivots  []int
	tau     []float64
	res     *Result
	journal []stageRec
}

func pipelineInput(decomp string, n int) *matrix.Dense {
	rng := matrix.NewRNG(uint64(n) + 7)
	switch decomp {
	case "cholesky":
		return matrix.RandomSPD(n, rng)
	case "lu":
		return matrix.RandomDiagDominant(n, rng)
	default:
		return matrix.Random(n, n, rng)
	}
}

func runPipeline(t *testing.T, decomp string, n, gpus int, opts Options) pipelineRun {
	t.Helper()
	a := pipelineInput(decomp, n)
	var pr pipelineRun
	opts.stageJournal = &pr.journal
	sys := testSystem(gpus)
	var err error
	switch decomp {
	case "cholesky":
		pr.out, pr.res, err = Cholesky(sys, a, opts)
	case "lu":
		pr.out, pr.pivots, pr.res, err = LU(sys, a, opts)
	case "qr":
		pr.out, pr.tau, pr.res, err = QR(sys, a, opts)
	default:
		t.Fatalf("unknown decomposition %q", decomp)
	}
	if err != nil {
		t.Fatalf("%s (gpus=%d lookahead=%d) failed: %v", decomp, gpus, opts.Lookahead, err)
	}
	return pr
}

// comparePipelineRuns asserts the full cross-schedule contract: identical
// canonical journals, bit-identical factors and auxiliary outputs, and
// identical verification counters.
func comparePipelineRuns(t *testing.T, label string, serial, la pipelineRun) {
	t.Helper()
	if len(serial.journal) != len(la.journal) {
		t.Fatalf("%s: journal lengths differ: serial %d vs look-ahead %d",
			label, len(serial.journal), len(la.journal))
	}
	for i := range serial.journal {
		if serial.journal[i] != la.journal[i] {
			t.Fatalf("%s: journal diverges at %d: serial %v vs look-ahead %v",
				label, i, serial.journal[i], la.journal[i])
		}
	}
	if d, r, c := serial.out.MaxAbsDiff(la.out); d != 0 {
		t.Fatalf("%s: factors not bit-identical: |Δ|=%g at (%d,%d)", label, d, r, c)
	}
	if len(serial.pivots) != len(la.pivots) {
		t.Fatalf("%s: pivot lengths differ", label)
	}
	for i := range serial.pivots {
		if serial.pivots[i] != la.pivots[i] {
			t.Fatalf("%s: pivots differ at %d: %d vs %d", label, i, serial.pivots[i], la.pivots[i])
		}
	}
	if len(serial.tau) != len(la.tau) {
		t.Fatalf("%s: tau lengths differ", label)
	}
	for i := range serial.tau {
		if serial.tau[i] != la.tau[i] {
			t.Fatalf("%s: tau differs at %d: %v vs %v", label, i, serial.tau[i], la.tau[i])
		}
	}
	if serial.res.Counter != la.res.Counter {
		t.Fatalf("%s: counters differ:\nserial     %+v\nlook-ahead %+v",
			label, serial.res.Counter, la.res.Counter)
	}
	if serial.res.Detected != la.res.Detected || serial.res.Unrecoverable != la.res.Unrecoverable {
		t.Fatalf("%s: detection state differs", label)
	}
	if serial.res.PCIeBytes != la.res.PCIeBytes {
		t.Fatalf("%s: PCIe traffic differs: %d vs %d", label, serial.res.PCIeBytes, la.res.PCIeBytes)
	}
	if serial.res.Flops != la.res.Flops {
		t.Fatalf("%s: flop counts differ: %d vs %d", label, serial.res.Flops, la.res.Flops)
	}
}

// TestPipelineSchedulesAgree is the tentpole's cross-driver ladder test:
// every decomposition × protection × scheme × GPU count must produce the
// same canonical stage journal and bit-identical outputs whether the step
// runtime schedules serially (Lookahead=0) or with look-ahead overlap
// (Lookahead=1).
func TestPipelineSchedulesAgree(t *testing.T) {
	configs := []struct {
		mode   Mode
		scheme Scheme
	}{
		{NoChecksum, NoCheck},
		{SingleSide, PriorOp},
		{SingleSide, PostOp},
		{Full, PostOp},
		{Full, NewScheme},
	}
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		for _, gpus := range []int{1, 3} {
			for _, cfg := range configs {
				label := decomp + "/" + cfg.mode.String() + "/" + cfg.scheme.String()
				opts := Options{NB: 16, Protection: cfg.mode, Scheme: cfg.scheme, Kernel: checksum.OptKernel}
				serial := runPipeline(t, decomp, 96, gpus, opts)
				opts.Lookahead = 1
				la := runPipeline(t, decomp, 96, gpus, opts)
				comparePipelineRuns(t, label, serial, la)
				if len(serial.journal) == 0 {
					t.Fatalf("%s: empty stage journal", label)
				}
			}
		}
	}
}

// TestPipelineJournalCanonicalOrder: the canonical journal lists every step's
// stages in ladder-rank order, and look-ahead's out-of-order panel-factor
// recording is invisible after canonicalization.
func TestPipelineJournalCanonicalOrder(t *testing.T) {
	opts := Options{NB: 16, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel, Lookahead: 1}
	pr := runPipeline(t, "cholesky", 96, 2, opts)
	prev := stageRec{Step: -1}
	for _, rec := range pr.journal {
		if rec.Step < prev.Step {
			t.Fatalf("journal step order violated: %v after %v", rec, prev)
		}
		if rec.Step == prev.Step && stageRank[rec.Name] < stageRank[prev.Name] {
			t.Fatalf("journal stage order violated: %v after %v", rec, prev)
		}
		prev = rec
	}
	// Every step must open with panel-factor and the non-final steps must
	// close with tmu-finish.
	steps := map[int]bool{}
	for _, rec := range pr.journal {
		if rec.Name == stagePanelFactor {
			steps[rec.Step] = true
		}
	}
	for k := 0; k < 96/16; k++ {
		if !steps[k] {
			t.Fatalf("no panel-factor journaled for step %d", k)
		}
	}
}

// TestPipelineCommitLegsOverlap: LU's and QR's panel commit issue every
// broadcast leg before the owner's device-local stage copy, so on every
// step the panel leg to the GPU that does not own the panel starts before
// the owner's writeback has landed, under both schedules; the last step,
// whose panel only the host keeps, commits nothing. The trace is read in
// issue order: each CPU panel kernel opens a step, and the first
// panel-sized copies from the CPU after it are the step's writeback (to
// the owner) and its leg (to the other GPU).
func TestPipelineCommitLegsOverlap(t *testing.T) {
	const n, nb = 256, 32
	for _, decomp := range []string{"lu", "qr"} {
		for _, la := range []int{0, 1} {
			label := fmt.Sprintf("%s la=%d", decomp, la)
			sys := testSystem(2)
			tr := obs.NewTrace()
			sys.SetTracer(tr)
			opts := Options{NB: nb, Protection: Full, Scheme: NewScheme, Kernel: checksum.OptKernel, Lookahead: la}
			var err error
			if decomp == "lu" {
				_, _, _, err = LU(sys, pipelineInput(decomp, n), opts)
			} else {
				_, _, _, err = QR(sys, pipelineInput(decomp, n), opts)
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			panelKernel := map[string]string{"lu": "getf2", "qr": "geqr2-chk"}[decomp]
			k := -1
			var wb, leg *obs.Span
			check := func() {
				if k < 0 {
					return
				}
				if wb == nil || leg == nil {
					t.Fatalf("%s step %d: writeback %v, leg %v: commit not found in the trace", label, k, wb, leg)
				}
				if end := wb.StartUS + wb.DurUS; leg.StartUS >= end {
					t.Errorf("%s step %d (owner GPU%d): leg starts at %.3f us, after the writeback ends at %.3f us", label, k, k%2, leg.StartUS, end)
				}
			}
			for _, sp := range tr.Spans() {
				if sp.Proc != obs.ProcSim {
					continue
				}
				if sp.Track == "CPU" && sp.Name == panelKernel {
					check()
					k, wb, leg = k+1, nil, nil
					continue
				}
				if k < 0 || sp.Cat != obs.PhasePCIe || sp.Args["bytes"] != float64(8*(n-k*nb)*nb) {
					continue
				}
				switch sp.Name {
				case fmt.Sprintf("CPU->GPU%d", k%2):
					if wb == nil {
						wb = &sp
					}
				case fmt.Sprintf("CPU->GPU%d", 1-k%2):
					if wb != nil && leg == nil {
						leg = &sp
					}
				}
			}
			if k != n/nb-1 {
				t.Fatalf("%s: traced %d panel kernels, want %d", label, k+1, n/nb)
			}
			if wb != nil || leg != nil {
				t.Errorf("%s step %d: the last panel was committed to the GPUs (writeback %v, leg %v)", label, k, wb, leg)
			}
		}
	}
}

// injectionSweepCases enumerates single-fault configurations for the
// cross-schedule sweep: every decomposition under every protected
// configuration with each fault kind striking each operation at steps 1
// and 2 (the update part; on-chip faults the reference part, and off-chip
// faults both parts), plus, per decomposition, the double DRAM fault
// SingleSide cannot repair under CheckpointEvery 2 at steps 2 and 3 — a
// rollback to the checkpoint after step 1, and a fault in the step right
// after a checkpoint.
func injectionSweepCases() []fingerprintCase {
	protected := []struct {
		mode   Mode
		scheme Scheme
	}{
		{Full, NewScheme}, {Full, PostOp}, {Full, PriorOp}, {SingleSide, NewScheme},
	}
	kinds := []fault.Kind{fault.Computation, fault.OffChipMemory, fault.OnChipMemory, fault.Communication}
	var out []fingerprintCase
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		ops := []fault.Op{fault.PD, fault.PU, fault.TMU}
		if decomp == "qr" {
			ops = []fault.Op{fault.PD, fault.TMU}
		}
		for _, pc := range protected {
			for _, it := range []int{1, 2} {
				for _, kind := range kinds {
					for _, op := range ops {
						spec := fault.Spec{Kind: kind, Op: op, Part: fault.UpdatePart, Iteration: it, Bits: 2, Row: -1, Col: -1, GPUTarget: 1}
						if kind == fault.OnChipMemory {
							spec.Part = fault.ReferencePart
						}
						out = append(out, fingerprintCase{decomp: decomp, mode: pc.mode, scheme: pc.scheme, specs: []fault.Spec{spec}})
						if kind == fault.OffChipMemory {
							spec.Part = fault.ReferencePart
							out = append(out, fingerprintCase{decomp: decomp, mode: pc.mode, scheme: pc.scheme, specs: []fault.Spec{spec}})
						}
					}
				}
			}
		}
		for _, it := range []int{2, 3} {
			out = append(out, fingerprintCase{decomp: decomp, mode: SingleSide, scheme: NewScheme, ckEvery: 2, specs: []fault.Spec{
				{Kind: fault.OffChipMemory, Op: fault.PD, Part: fault.ReferencePart, Iteration: it, Row: 1, Col: 0},
				{Kind: fault.OffChipMemory, Op: fault.PD, Part: fault.ReferencePart, Iteration: it, Row: 2, Col: 0},
			}})
		}
	}
	return out
}

// TestPipelineInjectionScheduleInvariant: injection windows sit at the
// same logical point of the factorization under both schedules. Over the
// sweep on 2 GPUs, every Lookahead=1 run must agree with its Lookahead=0
// twin on the verdict (Detected, Unrecoverable, Checkpoints, Rollbacks),
// on whether the factor meets the residual bound, and on every injected
// event — element, old and new value — and must finish earlier on the
// simulated clock. Each case runs as a parallel subtest.
func TestPipelineInjectionScheduleInvariant(t *testing.T) {
	const n = 128
	for i, c := range injectionSweepCases() {
		t.Run(c.label(), func(t *testing.T) {
			t.Parallel()
			a := pipelineInput(c.decomp, n)
			run := func(lookahead int) (*Result, bool, []fault.Event) {
				inj := fault.NewInjector(uint64(1000 + i))
				for _, s := range c.specs {
					inj.Schedule(s)
				}
				opts := Options{NB: 16, Protection: c.mode, Scheme: c.scheme, Kernel: checksum.OptKernel,
					Lookahead: lookahead, CheckpointEvery: c.ckEvery, Injector: inj}
				out, piv, tau, res, err := runDecomp(c.decomp, testSystem(2), a, opts)
				if err != nil {
					t.Fatalf("la=%d: %v", lookahead, err)
				}
				return res, decompResidual(c.decomp, a, out, piv, tau) <= 1e-9, inj.Events()
			}
			serial, serialOK, serialEvs := run(0)
			la, laOK, laEvs := run(1)
			verdict := func(r *Result, ok bool) string {
				return fmt.Sprintf("det=%t unrec=%t ck=%d rb=%d residual-ok=%t", r.Detected, r.Unrecoverable, r.Checkpoints, r.Rollbacks, ok)
			}
			if v, w := verdict(la, laOK), verdict(serial, serialOK); v != w {
				t.Errorf("look-ahead verdict %s, serial %s", v, w)
			}
			if !slices.Equal(laEvs, serialEvs) {
				t.Errorf("look-ahead events %v, serial %v", laEvs, serialEvs)
			}
			if la.SimMakespan >= serial.SimMakespan {
				t.Errorf("look-ahead makespan %g not below serial %g", la.SimMakespan, serial.SimMakespan)
			}
		})
	}
}

// TestPipelineFailStopBothSchedules: a mid-pipeline device crash aborts with
// the same typed DeviceLostError in both schedules, and the system is
// Reset-safe afterwards in both.
func TestPipelineFailStopBothSchedules(t *testing.T) {
	for _, lookahead := range []int{0, 1} {
		sys := hetsim.New(hetsim.DefaultConfig(2))
		a := matrix.RandomSPD(128, matrix.NewRNG(1))
		opts := Options{NB: 32, Protection: Full, Scheme: NewScheme, Lookahead: lookahead,
			FailStop: map[int]hetsim.FaultPlan{1: {Mode: hetsim.FaultCrash, AfterOps: 25}}}
		out, res, err := Cholesky(sys, a, opts)
		if out != nil || res != nil {
			t.Fatalf("lookahead=%d: aborted run still returned a result", lookahead)
		}
		var lost *hetsim.DeviceLostError
		if !errors.As(err, &lost) {
			t.Fatalf("lookahead=%d: err = %v, want DeviceLostError", lookahead, err)
		}
		if lost.Device != "GPU1" {
			t.Fatalf("lookahead=%d: lost device = %q, want GPU1", lookahead, lost.Device)
		}
		sys.Reset()
		clean := Options{NB: 32, Protection: Full, Scheme: NewScheme, Lookahead: lookahead}
		if _, _, err := Cholesky(sys, a, clean); err != nil {
			t.Fatalf("lookahead=%d: rerun after Reset failed: %v", lookahead, err)
		}
	}
}

// TestPipelineFailStopLUAndQR: the crash contract holds for the other two
// drivers under the look-ahead schedule too.
func TestPipelineFailStopLUAndQR(t *testing.T) {
	plan := map[int]hetsim.FaultPlan{0: {Mode: hetsim.FaultCrash, AfterOps: 10}}
	opts := Options{NB: 32, Protection: Full, Scheme: NewScheme, Lookahead: 1, FailStop: plan}

	sys := hetsim.New(hetsim.DefaultConfig(2))
	var lost *hetsim.DeviceLostError
	if _, _, _, err := LU(sys, matrix.RandomDiagDominant(128, matrix.NewRNG(2)), opts); !errors.As(err, &lost) {
		t.Fatalf("LU: err = %v, want DeviceLostError", err)
	}

	sys = hetsim.New(hetsim.DefaultConfig(2))
	if _, _, _, err := QR(sys, matrix.Random(128, 128, matrix.NewRNG(3)), opts); !errors.As(err, &lost) {
		t.Fatalf("QR: err = %v, want DeviceLostError", err)
	}
}

// TestPipelineLookaheadHidesPanelWork: on the acceptance platform
// (DefaultConfig(4)) the look-ahead schedule's simulated makespan must beat
// the serial schedule by at least 15% once the matrix is large enough that
// the trailing update can hide the CPU panel factorization (n >= 2048).
// NB=64 balances the two sides of the overlap on the default speeds: the
// per-stream trailing slice stays under the CPU panel time (nb >= m/40, so
// the panel hides the streams), while the panel total shrinks enough that
// the de-serialized trailing update is a large makespan fraction.
func TestPipelineLookaheadHidesPanelWork(t *testing.T) {
	if testing.Short() {
		t.Skip("large-matrix makespan check skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("n=2560 factorizations are prohibitively slow under the race detector; scripts/check.sh runs this test without -race")
	}
	n, nb := 2560, 64
	run := func(lookahead int) float64 {
		sys := hetsim.New(hetsim.DefaultConfig(4))
		a := matrix.RandomSPD(n, matrix.NewRNG(99))
		opts := Options{NB: nb, Protection: NoChecksum, Scheme: NoCheck, Lookahead: lookahead}
		_, res, err := Cholesky(sys, a, opts)
		if err != nil {
			t.Fatalf("lookahead=%d failed: %v", lookahead, err)
		}
		return res.SimMakespan
	}
	serial := run(0)
	la := run(1)
	if la > 0.85*serial {
		t.Fatalf("look-ahead makespan %.4fs vs serial %.4fs: improvement %.1f%% < 15%%",
			la, serial, 100*(1-la/serial))
	}
}
