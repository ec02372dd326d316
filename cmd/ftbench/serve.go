package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"ftla"
	"ftla/internal/matrix"
	"ftla/internal/obs"
	"ftla/internal/service"
)

const (
	// workers, gpus and queueDepth configure the scheduler under test. The
	// deep queue keeps a host stall from turning into rejections: a
	// rejected job is a failed job.
	workers    = 2
	gpus       = 2
	queueDepth = 4096
	// burstFlight jobs stay in the system during the saturation burst.
	burstFlight = 64
	// openShare of the measured seconds carries the open-loop phase; the
	// rest is the saturation burst.
	openShare = 0.8
	// rhsPool right-hand sides are shared round-robin by all jobs.
	rhsPool = 64
)

// faultClass is the job class at position i of the serve-faults mix, per
// block of 12 jobs: 2 link-corrupt plans (absorbed by retransmission), 1
// TMU computation fault (corrected online), 1 crash after the first
// checkpoint (the retry resumes), 1 unrepairable double DRAM fault under
// single-side protection (the retry restarts), and 7 clean jobs on hot
// operators (cache hits).
func faultClass(i int) string {
	switch i % 12 {
	case 0, 6:
		return "link"
	case 3:
		return "tmu"
	case 9:
		return "crash"
	case 11:
		return "dram"
	}
	return "clean"
}

// serveRun holds one service workload's generated inputs.
type serveRun struct {
	p        serviceParams
	seed     uint64
	ops      [3][]*ftla.Matrix // operators per decomposition
	rhs      [][]float64
	crashOps [3]int // AfterOps landing a crash just after the first checkpoint
}

// jobPlan is the seed-derived identity of one job.
type jobPlan struct {
	d      decomp
	op     int
	rhs    int
	class  string
	draw   uint64 // seeds the job's fault draws
	phase  string // "open" or "burst"
	due    time.Time
	submit time.Time
}

func (r *serveRun) plan(i int) jobPlan {
	rng := matrix.NewRNG(r.seed*0x9e3779b97f4a7c15 + uint64(i))
	// Decompositions go round-robin, shifted every 12 jobs so each fault
	// class visits all three.
	j := jobPlan{d: decomps[(i+i/12)%3], op: rng.Intn(r.p.operators), rhs: i % len(r.rhs), class: "clean", draw: rng.Uint64()}
	if r.p.faults {
		j.class = faultClass(i)
	}
	if j.class == "dram" {
		j.d = lu // the double fault targets LU's pivoted first panel
	}
	return j
}

// spec builds the job the program receives.
func (r *serveRun) spec(j jobPlan) service.JobSpec {
	p := r.p
	s := service.JobSpec{
		Decomp:  j.d.service(),
		A:       r.ops[j.d][j.op],
		B:       r.rhs[j.rhs],
		Config:  ftla.Config{GPUs: gpus, NB: p.nb},
		NoCache: !p.faults || j.class != "clean",
	}
	rng := matrix.NewRNG(j.draw)
	switch j.class {
	case "link":
		s.Config.LinkFault = map[int]ftla.LinkFaultPlan{rng.Intn(gpus): {
			Mode: ftla.LinkCorrupt, AfterTransfers: rng.Intn(8), Every: 4 + rng.Intn(4)}}
	case "tmu":
		inj := ftla.NewInjector(j.draw)
		inj.Schedule(ftla.FaultSpec{Kind: ftla.FaultCompute, Op: ftla.OpTMU, Iteration: rng.Intn(p.n/p.nb - 1), Row: -1, Col: -1})
		s.Config.Injector = inj
	case "crash":
		s.Config.CheckpointEvery = 1
		s.Config.FailStop = map[int]ftla.FailStopPlan{gpus - 1: {Mode: ftla.FailCrash, AfterOps: r.crashOps[j.d]}}
	case "dram":
		inj := ftla.NewInjector(j.draw)
		for _, row := range []int{1, 2} {
			inj.Schedule(ftla.FaultSpec{Kind: ftla.FaultDRAM, Op: ftla.OpPD, Part: ftla.RefPart, Row: row})
		}
		s.Config.Protection, s.Config.Scheme = ftla.SingleSide, ftla.NewScheme
		s.Config.Injector = inj
	}
	return s
}

// crashAfter finds the first operation count at which crashing the last
// GPU lands after the run's first checkpoint, so the service's retry
// resumes from it rather than restarting.
func crashAfter(d decomp, a *ftla.Matrix, p serviceParams) (int, error) {
	for ops := 1; ops <= 1024; ops++ {
		cps := 0
		_, err := d.factor(a, ftla.Config{GPUs: gpus, NB: p.nb, CheckpointEvery: 1,
			OnCheckpoint: func(*ftla.Checkpoint) { cps++ },
			FailStop:     map[int]ftla.FailStopPlan{gpus - 1: {Mode: ftla.FailCrash, AfterOps: ops}}})
		var lost *ftla.DeviceLostError
		if !errors.As(err, &lost) {
			break
		}
		if cps > 0 {
			return ops, nil
		}
	}
	return 0, fmt.Errorf("%s: no crash point falls after the first checkpoint", d)
}

// newScheduler builds the scheduler under test and runs one warm-up job
// per (decomposition, class).
func (r *serveRun) newScheduler() (*service.Scheduler, error) {
	s := service.New(service.Config{Workers: workers, QueueDepth: queueDepth, Seed: r.seed})
	classes := []string{"clean"}
	if r.p.faults {
		classes = []string{"clean", "link", "tmu", "crash", "dram"}
	}
	for _, class := range classes {
		for _, d := range decomps {
			if class == "dram" && d != lu {
				continue
			}
			j := jobPlan{d: d, class: class, draw: r.seed}
			spec := r.spec(j)
			h, err := s.Submit(context.Background(), spec)
			if err == nil {
				var jr *service.JobResult
				if jr, err = h.Wait(context.Background()); err == nil {
					err = checkX(spec, jr)
				}
			}
			if err != nil {
				s.Close()
				return nil, fmt.Errorf("warm-up %s/%s: %w", d, class, err)
			}
		}
	}
	return s, nil
}

// checkX verifies the solution a job returned.
func checkX(spec service.JobSpec, jr *service.JobResult) error {
	if r := solveResidual(spec.A, jr.X, spec.B); !(r <= solveTol) {
		return fmt.Errorf("solve residual %.3g > %g", r, solveTol)
	}
	return nil
}

// collector records job outcomes from the waiter goroutines.
type collector struct {
	r     *serveRun
	sched *service.Scheduler
	res   *childResult
	tr    *tracer
	wg    sync.WaitGroup

	mu                sync.Mutex
	open, burst       []sample
	openAttempted     int
	submitUS          []float64
	queueMS, runMS    []float64
	completed         int
	coalesced, hits   int
	attempts, resumed int
}

// submit sends job i and starts a waiter for it. release, when non-nil,
// runs once the job is terminal.
func (c *collector) submit(i int, j jobPlan, release func()) {
	spec := c.r.spec(j)
	j.submit = time.Now()
	h, err := c.sched.Submit(context.Background(), spec)
	sub := time.Since(j.submit)
	c.mu.Lock()
	c.res.Attempted++
	if j.phase == "open" {
		c.openAttempted++
	}
	c.submitUS = append(c.submitUS, float64(sub)/float64(time.Microsecond))
	if err != nil {
		c.res.fail(fmt.Errorf("submit job %d: %w", i, err))
		c.mu.Unlock()
		if release != nil {
			release()
		}
		return
	}
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		if release != nil {
			defer release()
		}
		jr, err := h.Wait(context.Background())
		done := time.Now()
		if err == nil {
			err = checkX(spec, jr)
		}
		c.finish(i, j, sub, jr, err, done)
	}()
}

func (c *collector) finish(i int, j jobPlan, sub time.Duration, jr *service.JobResult, err error, done time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.res.fail(fmt.Errorf("job %d (%s/%s): %w", i, j.d, j.class, err))
		return
	}
	s := sample{latency: done.Sub(j.due), run: jr.Run}
	if !jr.CacheHit {
		rep := jr.Factors.Report()
		s.sim, s.checked = rep.SimMakespan, rep.Counter.TotalChecked()
		switch {
		case jr.Coalesced > 0 && jr.Attempts == 1:
			s.sim /= float64(jr.Coalesced) // the Report times the whole batched dispatch
		case j.class == "clean" && jr.Attempts == 1:
			s.group = j.d.String()
		}
	}
	if j.phase == "open" {
		c.open = append(c.open, s)
	} else {
		c.burst = append(c.burst, s)
	}
	c.completed++
	c.queueMS = append(c.queueMS, msOf(jr.Wait))
	c.runMS = append(c.runMS, msOf(jr.Run))
	c.attempts += jr.Attempts
	if jr.Coalesced > 0 {
		c.coalesced++
	}
	if jr.CacheHit {
		c.hits++
	}
	if jr.Resumed > 0 {
		c.resumed++
	}
	if c.tr != nil {
		root := c.tr.add(0, i+1, "bench", j.d.String()+"/"+j.class, j.due, done.Sub(j.due), nil)
		c.tr.add(root, i+1, "service", "submit", j.submit, sub, nil)
		c.tr.add(root, i+1, "service", "queue", j.submit.Add(sub), jr.Wait, nil)
		runStart := done.Add(-jr.Run)
		run := c.tr.add(root, i+1, "service", "run", runStart, jr.Run, nil)
		if !jr.CacheHit {
			rep := jr.Factors.Report()
			wall := rep.Wall
			if wall > jr.Run {
				wall = jr.Run // a batched item's Report times the whole dispatch
			}
			call := c.tr.add(run, i+1, "core", "factor", runStart, wall, nil)
			c.tr.addPhases(call, i+1, runStart, wall, rep)
		}
	}
}

// runService drives the scheduler with Poisson arrivals for the open phase
// of the measured seconds, then saturates it for the rest.
func runService(o options, name string, p serviceParams) (*childResult, error) {
	res := newResult()
	tr := newTracer(o.trace)

	genStart := time.Now()
	r := &serveRun{p: p, seed: o.seed}
	rng := matrix.NewRNG(o.seed)
	for _, d := range decomps {
		for k := 0; k < p.operators; k++ {
			r.ops[d] = append(r.ops[d], d.generate(p.n, rng.Uint64()))
		}
	}
	for k := 0; k < rhsPool; k++ {
		r.rhs = append(r.rhs, randomVector(p.n, rng.Uint64()))
	}
	if p.faults {
		for _, d := range decomps {
			ops, err := crashAfter(d, r.ops[d][0], p)
			if err != nil {
				return nil, err
			}
			r.crashOps[d] = ops
		}
	}
	total := time.Duration(o.seconds * float64(time.Second))
	openDur := time.Duration(openShare * float64(total))
	var arrivals []time.Duration
	for t := 0.0; ; {
		t += -math.Log(1-rng.Float64()) / p.rate
		if t >= openDur.Seconds() {
			break
		}
		arrivals = append(arrivals, time.Duration(t*float64(time.Second)))
	}
	res.Layers["bench.input_gen_s"] = time.Since(genStart).Seconds()

	var setup []float64
	var sched *service.Scheduler
	for t := time.Now(); o.moreSetup(len(setup), t); {
		if sched != nil {
			sched.Close()
		}
		t0 := time.Now()
		s, err := r.newScheduler()
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		sched = s
	}
	defer sched.Close()
	res.E2E["setup_s"] = median(setup)

	c := &collector{r: r, sched: sched, res: res, tr: tr}
	st0 := sched.Stats()
	before := obs.Default().Snapshot()

	// Open loop: each job is due at its arrival time whatever the service
	// is doing, and its latency runs from that due time.
	start := time.Now().Add(10 * time.Millisecond)
	late := make([]float64, 0, len(arrivals))
	for i, off := range arrivals {
		j := r.plan(i)
		j.phase, j.due = "open", start.Add(off)
		if d := time.Until(j.due); d > 0 {
			time.Sleep(d)
		}
		late = append(late, msOf(time.Since(j.due)))
		c.submit(i, j, nil)
	}
	c.wg.Wait()

	// Saturation burst: keep burstFlight jobs in the system until the
	// measured time is spent.
	flight := make(chan struct{}, burstFlight)
	burstStart := time.Now()
	for i := len(arrivals); time.Since(start) < total; i++ {
		flight <- struct{}{}
		j := r.plan(i)
		j.phase, j.due = "burst", time.Now()
		c.submit(i, j, func() { <-flight })
	}
	c.wg.Wait()
	res.Layers["bench.jobs_per_s"] = ratio(float64(len(c.burst)), time.Since(burstStart).Seconds())
	diff := obs.Default().Snapshot().Diff(before)
	st := sched.Stats()
	summarize(res, c.open)
	ok := 0
	for _, s := range c.open {
		if s.latency <= p.slo {
			ok++
		}
	}
	L := res.Layers
	L["bench.slo_ok_frac"] = ratio(float64(ok), float64(c.openAttempted)) // a failed job misses the SLO
	if tr == nil {
		return res, nil
	}
	all := append(append([]sample(nil), c.open...), c.burst...)
	layerCounters(res, diff, all, res.Attempted)
	L["service.submit_us_p50"] = median(c.submitUS)
	L["service.queue_ms_p50"] = median(c.queueMS)
	L["service.queue_ms_p90"] = quantile(c.queueMS, 0.9)
	L["service.run_ms_p50"] = median(c.runMS)
	L["service.run_ms_p90"] = quantile(c.runMS, 0.9)
	L["service.batch_size_mean"] = ratio(float64(st.JobsCoalesced-st0.JobsCoalesced), float64(st.BatchDispatches-st0.BatchDispatches))
	L["service.coalesced_frac"] = ratio(float64(c.coalesced), float64(c.completed))
	L["service.cache_hit_frac"] = ratio(float64(c.hits), float64(c.completed))
	L["service.attempts_per_job"] = ratio(float64(c.attempts), float64(c.completed))
	L["service.resumed_frac"] = ratio(float64(c.resumed), float64(c.completed))
	reused := float64(st.SystemsReused - st0.SystemsReused)
	L["service.pool_reuse_frac"] = ratio(reused, reused+float64(st.SystemsCreated-st0.SystemsCreated))
	L["service.rejected"] = float64(st.Rejected - st0.Rejected)
	L["bench.gen_late_ms_p99"] = quantile(late, 0.99)
	L["bench.gen_late_ms_max"] = quantile(late, 1)
	runSuites(res, tr, p.n, p.nb, gpus)
	res.Table = tr.table()
	return res, tr.write(o.traceDir, name)
}
