package service

// Chaos harness for the fail-stop layer (scripts/check.sh runs these with
// -race -count=2 via -run 'Chaos|Storm'). The invariant under test, from
// the serving layer's graceful-degradation contract: every job terminates
// with either a residual-verified result or a typed error — never a
// deadlock, a panic, a goroutine leak, or a silently wrong matrix.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"ftla"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
)

// chaosSpec is a 4-GPU Cholesky job; fs arms fail-stop plans (nil = clean).
func chaosSpec(seed uint64, fs map[int]ftla.FailStopPlan) JobSpec {
	return JobSpec{
		Decomp: Cholesky,
		A:      ftla.RandomSPD(128, seed),
		Config: ftla.Config{
			GPUs: 4, NB: 32,
			FailStop: fs,
		},
		NoCache: true,
	}
}

// TestChaosGPULossFailsOverToDegradedSystem is the headline scenario: a
// 4-GPU job loses GPU 3 mid-factorization, the pool repairs and shelves
// the dead system, and the retry completes on a 3-GPU platform — with the
// whole event visible in the metrics.
func TestChaosGPULossFailsOverToDegradedSystem(t *testing.T) {
	s := New(Config{Workers: 1, Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}})
	defer s.Close()

	spec := chaosSpec(11, map[int]ftla.FailStopPlan{
		3: {Mode: ftla.FailCrash, AfterOps: 2},
	})
	h, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one lost to the crash, one degraded rerun)", res.Attempts)
	}
	if got := res.Factors.Report().GPUs; got != 3 {
		t.Fatalf("winning attempt ran on %d GPUs, want 3 (degraded from 4)", got)
	}
	if res.Residual > 1e-9 {
		t.Fatalf("failover produced a wrong factor: residual %g", res.Residual)
	}
	st := s.Stats()
	if st.DeviceLost != 1 {
		t.Fatalf("Stats.DeviceLost = %d, want 1", st.DeviceLost)
	}
	if st.AbortedAttempts != 1 {
		t.Fatalf("Stats.AbortedAttempts = %d, want 1", st.AbortedAttempts)
	}
	if st.Retries != 1 {
		t.Fatalf("Stats.Retries = %d, want 1", st.Retries)
	}
	requireShelvedRepaired(t, s, spec.Config.SystemConfig())
}

// TestChaosPersistentLossExhaustsRetries: when every attempt loses a
// device (here: all retries still find crashing hardware because the job
// pins MaxAttempts at 1), the job terminates with a typed *FailStopError
// wrapping the device fault — not a hang or a silent failure.
func TestChaosPersistentLossExhaustsRetries(t *testing.T) {
	s := New(Config{Workers: 1, Retry: RetryPolicy{MaxAttempts: 1}})
	defer s.Close()

	spec := chaosSpec(12, map[int]ftla.FailStopPlan{
		1: {Mode: ftla.FailCrash, AfterOps: 2},
	})
	h, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.Wait(context.Background())
	var fse *FailStopError
	if !errors.As(err, &fse) {
		t.Fatalf("err = %v, want *FailStopError", err)
	}
	var lost *hetsim.DeviceLostError
	if !errors.As(err, &lost) || lost.Device != "GPU1" {
		t.Fatalf("FailStopError does not wrap the device fault: %v", err)
	}
	if fse.Attempts != 1 {
		t.Fatalf("FailStopError.Attempts = %d, want 1", fse.Attempts)
	}
}

// TestChaosUnmeetableDeadline: a job whose Deadline cannot be met — a hung
// GPU eats the whole budget — terminates with a typed *DeadlineError that
// errors.Is-matches context.DeadlineExceeded, and the expiry is counted.
func TestChaosUnmeetableDeadline(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	spec := chaosSpec(13, map[int]ftla.FailStopPlan{
		0: {Mode: ftla.FailHang, AfterOps: 2},
	})
	spec.Deadline = 50 * time.Millisecond
	h, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if res != nil {
		t.Fatal("deadline-doomed job still produced a result")
	}
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlineError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DeadlineError must match context.DeadlineExceeded: %v", err)
	}
	if de.Deadline != spec.Deadline {
		t.Fatalf("DeadlineError.Deadline = %v, want %v", de.Deadline, spec.Deadline)
	}
	if st := s.Stats(); st.DeadlineExceeded != 1 {
		t.Fatalf("Stats.DeadlineExceeded = %d, want 1", st.DeadlineExceeded)
	}
}

// TestChaosCanceledWhileQueued covers the first cancellation path: a job
// whose context dies before a worker ever claims it finishes with the
// context's error and runs nothing.
func TestChaosCanceledWhileQueued(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	gate := make(chan struct{})
	claimed := make(chan struct{}, 4)
	s.beforeRun = func(*JobHandle) {
		claimed <- struct{}{}
		<-gate
	}
	// First job occupies the only worker at the beforeRun gate.
	h1, err := s.Submit(context.Background(), chaosSpec(14, nil))
	if err != nil {
		t.Fatal(err)
	}
	<-claimed
	// Second job waits in the queue; cancel it there.
	ctx, cancel := context.WithCancel(context.Background())
	h2, err := s.Submit(ctx, chaosSpec(15, nil))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(gate)
	if _, err := h2.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued-then-canceled job: err = %v, want context.Canceled", err)
	}
	if _, err := h1.Wait(context.Background()); err != nil {
		t.Fatalf("gated job should still succeed: %v", err)
	}
	if st := s.Stats(); st.Canceled != 1 {
		t.Fatalf("Stats.Canceled = %d, want 1", st.Canceled)
	}
}

// TestChaosCanceledMidAttempt covers the second cancellation path: the
// bound per-attempt context aborts kernels mid-factorization, so a hung
// attempt is reaped the moment the caller cancels — the worker does not
// wedge until some timeout.
func TestChaosCanceledMidAttempt(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	claimed := make(chan struct{}, 1)
	s.beforeRun = func(*JobHandle) { claimed <- struct{}{} }

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := chaosSpec(16, map[int]ftla.FailStopPlan{
		2: {Mode: ftla.FailHang, AfterOps: 2},
	})
	h, err := s.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	<-claimed // the attempt is running (and will hang on GPU2)
	time.Sleep(5 * time.Millisecond)
	cancel()
	if _, err := h.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-attempt cancel: err = %v, want context.Canceled", err)
	}
	if st := s.Stats(); st.Canceled != 1 {
		t.Fatalf("Stats.Canceled = %d, want 1", st.Canceled)
	}
}

// TestChaosDeadlineDuringBackoff covers the third cancellation path: the
// job budget expires while the scheduler sleeps between attempts. The
// backoff select must wake on the deadline and return the typed error, not
// sleep through it.
func TestChaosDeadlineDuringBackoff(t *testing.T) {
	s := New(Config{
		Workers: 1,
		// Backoff far beyond the deadline: the expiry lands in the sleep.
		Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Second, MaxBackoff: 10 * time.Second},
	})
	defer s.Close()

	// Forced-corrupt first attempt (same recipe as the retry tests): two
	// faults in one checksum strip under single-side protection.
	spec := corruptibleSpec(corruptingInjector(t))
	spec.Deadline = 300 * time.Millisecond
	start := time.Now()
	h, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.Wait(context.Background())
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlineError", err)
	}
	if de.Attempts != 1 {
		t.Fatalf("DeadlineError.Attempts = %d, want 1 (corrupt attempt, then expiry in backoff)", de.Attempts)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("job slept through its deadline: terminated after %v", waited)
	}
	if st := s.Stats(); st.DeadlineExceeded != 1 {
		t.Fatalf("Stats.DeadlineExceeded = %d, want 1", st.DeadlineExceeded)
	}
}

// runProbe runs one kernel on each of sys's GPUs and one CPU->GPU transfer
// over each PCIe link, and returns the first abort error.
func runProbe(sys *hetsim.System) (err error) {
	defer func() { err = hetsim.RecoverAbort(recover()) }()
	for _, g := range sys.GPUs() {
		g.Run("probe", 1, func(int) {})
		sys.Transfer(sys.CPU().AllocFrom(matrix.NewDense(4, 4)), g.Alloc(4, 4))
	}
	return nil
}

// requireShelvedRepaired asserts that the system a fail-stop fault aborted
// on platform cfg sits repaired on the pool's idle shelf: the shelf holds
// exactly one system, the next acquire returns it with every GPU alive,
// and its kernels and links work again. The system goes back on the shelf,
// which it returns.
func requireShelvedRepaired(t *testing.T, s *Scheduler, cfg hetsim.Config) *hetsim.System {
	t.Helper()
	s.pool.mu.Lock()
	shelf := append([]*hetsim.System(nil), s.pool.idle[cfg]...)
	s.pool.mu.Unlock()
	if len(shelf) != 1 {
		t.Fatalf("idle shelf of the %d-GPU platform holds %d systems, want the failed-over one", cfg.NumGPUs, len(shelf))
	}
	sys := s.pool.acquire(cfg)
	defer s.pool.release(sys)
	if sys != shelf[0] {
		t.Fatal("acquire did not return the shelved system")
	}
	for _, g := range sys.GPUs() {
		if g.Lost() {
			t.Fatalf("shelved system not repaired: %s still lost", g.Name())
		}
	}
	if err := runProbe(sys); err != nil {
		t.Fatalf("shelved system still failing: %v", err)
	}
	return sys
}

// TestChaosGPULossResumesFromCheckpoint is the headline rollback scenario:
// a checkpointing 4-GPU job loses GPU 3 mid-factorization and the retry
// resumes from the last host-side checkpoint on the degraded 3-GPU platform
// instead of restarting from scratch — visible in JobResult.Resumed and in
// the split retry counters (Stats.Resumed vs Stats.Restarts).
func TestChaosGPULossResumesFromCheckpoint(t *testing.T) {
	s := New(Config{Workers: 1, Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}})
	defer s.Close()

	// AfterOps 20: GPU3 dies after two checkpoints are in hand but well
	// before the factorization finishes (see the crash-window pin below).
	spec := chaosSpec(21, map[int]ftla.FailStopPlan{
		3: {Mode: ftla.FailCrash, AfterOps: 20},
	})
	spec.Config.CheckpointEvery = 1
	userCps := 0
	spec.Config.OnCheckpoint = func(*ftla.Checkpoint) { userCps++ } // chained sink

	h, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one lost to the crash, one resumed)", res.Attempts)
	}
	if res.Resumed != 1 {
		t.Fatalf("JobResult.Resumed = %d, want 1 (retry must resume, not restart)", res.Resumed)
	}
	if got := res.Factors.Report().GPUs; got != 3 {
		t.Fatalf("winning attempt ran on %d GPUs, want 3 (degraded from 4)", got)
	}
	if res.Residual > 1e-9 {
		t.Fatalf("resumed attempt produced a wrong factor: residual %g", res.Residual)
	}
	if userCps == 0 {
		t.Fatal("caller's OnCheckpoint sink was not chained")
	}
	st := s.Stats()
	if st.Retries != 1 || st.Resumed != 1 || st.Restarts != 0 {
		t.Fatalf("Retries/Resumed/Restarts = %d/%d/%d, want 1/1/0", st.Retries, st.Resumed, st.Restarts)
	}
	if st.DeviceLost != 1 {
		t.Fatalf("DeviceLost = %d, want 1", st.DeviceLost)
	}
	requireShelvedRepaired(t, s, spec.Config.SystemConfig())
}

// TestChaosCrashWindowPin pins the fixture the resume scenarios depend on:
// on the 4-GPU chaos platform, a GPU3 crash armed at AfterOps 20 fires after
// at least one checkpoint is taken and before the run completes. If a layout
// or kernel-schedule change moves the window, this fails with the observed
// figures instead of letting the resume tests rot into testing the restart
// path.
func TestChaosCrashWindowPin(t *testing.T) {
	spec := chaosSpec(21, map[int]ftla.FailStopPlan{
		3: {Mode: ftla.FailCrash, AfterOps: 20},
	})
	cfg := spec.Config
	cfg.CheckpointEvery = 1
	cps := 0
	cfg.OnCheckpoint = func(*ftla.Checkpoint) { cps++ }
	_, err := ftla.Cholesky(spec.A, cfg)
	var lost *hetsim.DeviceLostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v, want DeviceLostError (crash armed too late?)", err)
	}
	if cps == 0 {
		t.Fatal("crash fired before the first checkpoint: resume scenarios would test nothing")
	}
}

// TestChaosStormMixedRecovery races the two retry forms against each other:
// checkpointing jobs that lose a GPU (must resume), injector-corrupted jobs
// without checkpoints (must restart from scratch), and clean jobs — all on a
// shared worker pool. Every job must end verified, the split retry counters
// must add up, and the scheduler must wind down without leaking goroutines.
func TestChaosStormMixedRecovery(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{
		Workers: 3,
		Retry:   RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond},
		Seed:    99,
	})

	const rounds = 6
	handles := make([]*JobHandle, 0, 3*rounds)
	for i := 0; i < rounds; i++ {
		// Resumable: device loss with checkpoints in hand.
		spec := chaosSpec(uint64(300+i), map[int]ftla.FailStopPlan{
			3: {Mode: ftla.FailCrash, AfterOps: 20},
		})
		spec.Config.CheckpointEvery = 1
		h, err := s.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)

		// Non-resumable: detected-corrupt run with no checkpoint to fall
		// back on — the retry must restart from scratch.
		h, err = s.Submit(context.Background(), corruptibleSpec(corruptingInjector(t)))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)

		// Clean control.
		h, err = s.Submit(context.Background(), chaosSpec(uint64(400+i), nil))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}

	var wg sync.WaitGroup
	for i, h := range handles {
		wg.Add(1)
		go func(i int, h *JobHandle) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			res, err := h.Wait(ctx)
			if err != nil {
				t.Errorf("job %d failed: %v", i, err)
				return
			}
			if res.Residual > 1e-9 {
				t.Errorf("job %d: wrong result, residual %g", i, res.Residual)
			}
		}(i, h)
	}
	wg.Wait()
	s.Close()

	st := s.Stats()
	if got := int(st.Completed); got != 3*rounds {
		t.Fatalf("Completed = %d, want %d", got, 3*rounds)
	}
	if st.Resumed != rounds {
		t.Fatalf("Stats.Resumed = %d, want %d (every device-loss job must resume)", st.Resumed, rounds)
	}
	if st.Restarts != rounds {
		t.Fatalf("Stats.Restarts = %d, want %d (every corrupt job must restart)", st.Restarts, rounds)
	}
	if st.Retries != st.Restarts+st.Resumed {
		t.Fatalf("Retries %d != Restarts %d + Resumed %d", st.Retries, st.Restarts, st.Resumed)
	}
	if st.DeviceLost != rounds {
		t.Fatalf("Stats.DeviceLost = %d, want %d", st.DeviceLost, rounds)
	}

	// Goroutine-leak check, same settle loop as TestChaosStorm.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before storm, %d after settle", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosStorm is the randomized campaign: a fleet of jobs with random
// fail-stop faults (crash / hang / straggler / none) on random devices,
// random deadlines, and corrupting injectors, all racing on a small worker
// pool. Every job must reach a terminal state that is either a verified
// result or a typed error, and the scheduler must wind down without
// leaking goroutines.
func TestChaosStorm(t *testing.T) {
	before := runtime.NumGoroutine()

	// The attempt timeout must cut hang plans off without cutting off a
	// job that has no scripted doom, however loaded the host is: size it
	// from a clean attempt timed here, times the storm's concurrency and
	// a margin, never below the 250 ms the storm was designed around.
	const workers = 4
	attempt := max(250*time.Millisecond, 10*workers*timeCleanAttempt(t))
	t.Logf("attempt timeout %v", attempt)

	s := New(Config{
		Workers:        workers,
		Retry:          RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond},
		AttemptTimeout: attempt,
		Seed:           77,
	})

	rng := matrix.NewRNG(2026)
	const jobs = 24
	handles := make([]*JobHandle, 0, jobs)
	expectOK := make([]bool, 0, jobs) // jobs with no scripted doom must succeed
	for i := 0; i < jobs; i++ {
		var fs map[int]ftla.FailStopPlan
		doomed := false
		switch rng.Intn(4) {
		case 0: // clean
		case 1:
			fs = map[int]ftla.FailStopPlan{rng.Intn(4): {Mode: ftla.FailCrash, AfterOps: 1 + rng.Intn(8)}}
		case 2:
			fs = map[int]ftla.FailStopPlan{rng.Intn(4): {Mode: ftla.FailHang, AfterOps: 1 + rng.Intn(8)}}
		case 3:
			fs = map[int]ftla.FailStopPlan{rng.Intn(4): {Mode: ftla.FailStraggler, Slowdown: 4}}
		}
		spec := chaosSpec(uint64(100+i), fs)
		if rng.Intn(4) == 0 {
			spec.Deadline = time.Duration(20+rng.Intn(200)) * time.Millisecond
			doomed = true // a tight deadline may legitimately expire
		}
		h, err := s.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		expectOK = append(expectOK, !doomed)
	}

	var mu sync.Mutex
	outcomes := map[string]int{}
	var wg sync.WaitGroup
	for i, h := range handles {
		wg.Add(1)
		go func(i int, h *JobHandle) {
			defer wg.Done()
			// The harness-level liveness bound: no job may take longer
			// than this to reach a terminal state.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			res, err := h.Wait(ctx)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				if res.Residual > 1e-9 {
					t.Errorf("job %d: silently wrong result, residual %g", i, res.Residual)
				}
				outcomes["ok"]++
			case errors.Is(err, context.DeadlineExceeded) && ctx.Err() != nil:
				t.Errorf("job %d: never terminated (harness timeout)", i)
			default:
				var de *DeadlineError
				var fse *FailStopError
				var ce *CorruptError
				switch {
				case errors.As(err, &de):
					outcomes["deadline"]++
				case errors.As(err, &fse):
					outcomes["failstop"]++
				case errors.As(err, &ce):
					outcomes["corrupt"]++
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
					outcomes["ctx"]++
				default:
					t.Errorf("job %d: untyped terminal error %v", i, err)
				}
				if expectOK[i] {
					t.Errorf("job %d: no scripted doom but failed: %v", i, err)
				}
			}
		}(i, h)
	}
	wg.Wait()
	s.Close()

	st := s.Stats()
	if got := int(st.Completed + st.Failed + st.Canceled); got != jobs {
		t.Fatalf("terminal states %d != jobs %d (some job vanished)", got, jobs)
	}
	t.Logf("storm outcomes: %v; deviceLost=%d aborted=%d retries=%d",
		outcomes, st.DeviceLost, st.AbortedAttempts, st.Retries)

	// Goroutine-leak check: workers and per-job waiters must be gone.
	// Settle loop: the race detector and timer goroutines need a moment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before storm, %d after settle", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// timeCleanAttempt runs one fault-free storm-shaped job alone on a fresh
// scheduler and returns how long it took from submit to result.
func timeCleanAttempt(t *testing.T) time.Duration {
	t.Helper()
	s := New(Config{Workers: 1})
	defer s.Close()
	start := time.Now()
	h, err := s.Submit(context.Background(), chaosSpec(99, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatalf("clean timing job failed: %v", err)
	}
	return time.Since(start)
}

// TestChaosCrashedSystemRejoinsAtOnce: release repairs a crashed system
// (Reset revives its lost device and disarms its plans), so the pool
// shelves it like any other and the very next acquire on its platform
// gets it back, serving the job exactly as configured. Here GPU 1's crash
// aborts a 2-GPU attempt; the next 2-GPU job runs on that same system,
// builds no new one, and keeps the static layout: nothing rebalances,
// whichever GPU faulted.
func TestChaosCrashedSystemRejoinsAtOnce(t *testing.T) {
	s := New(Config{Workers: 1, Retry: RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond}})
	defer s.Close()

	crash := chaosSpec(3, map[int]ftla.FailStopPlan{1: {Mode: ftla.FailCrash}})
	crash.Config.GPUs = 2
	h, err := s.Submit(context.Background(), crash)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatalf("crash job failed: %v", err)
	}
	if st := s.Stats(); st.DeviceLost != 1 || st.Retries != 1 {
		t.Fatalf("DeviceLost/Retries = %d/%d, want 1/1", st.DeviceLost, st.Retries)
	}
	crashed := requireShelvedRepaired(t, s, crash.Config.SystemConfig())
	created := s.Stats().SystemsCreated

	inj := ftla.NewInjector(5)
	inj.Schedule(ftla.FaultSpec{Kind: ftla.FaultCompute, Op: ftla.OpPD, Iteration: 0, Row: -1, Col: -1})
	spec := JobSpec{
		Decomp:  Cholesky,
		A:       ftla.RandomSPD(128, 3),
		Config:  ftla.Config{GPUs: 2, NB: 32, Injector: inj},
		NoCache: true,
	}
	h, err = s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if len(inj.Events()) != 1 {
		t.Fatalf("injector fired %d faults, want 1", len(inj.Events()))
	}
	if got := s.Stats().SystemsCreated; got != created {
		t.Fatalf("job built %d new systems instead of reusing the repaired one", got-created)
	}
	if rep := res.Factors.Report(); rep.GPUs != 2 || rep.Rebalances != 0 || rep.MovedColumns != 0 {
		t.Fatalf("job on the repaired system: GPUs=%d rebalances=%d moved=%d, want 2/0/0",
			rep.GPUs, rep.Rebalances, rep.MovedColumns)
	}
	if requireShelvedRepaired(t, s, spec.Config.SystemConfig()) != crashed {
		t.Fatal("the repaired system left the shelf")
	}
}
