package main

import (
	"fmt"
	"strings"
	"time"

	"ftla"
	"ftla/internal/matrix"
	"ftla/internal/obs"
)

// libCase is one (decomposition, input, variant) the closed loop cycles
// through.
type libCase struct {
	d       decomp
	input   int
	variant string
	a       *ftla.Matrix
	b       []float64
	cfg     ftla.Config
	ref     uint64 // bit hash of the clean run of (d, input)
}

func (c *libCase) label() string { return fmt.Sprintf("%s/in%d/%s", c.d, c.input, c.variant) }

// nodeVariants are the fault variants every cluster input cycles through:
// clean, node 1 lost at epoch 2, and nodes 0 and 1 lost together at epoch
// 2. Both stay within redundancy 2, so every variant must reproduce the
// clean factor bit for bit. The lost nodes are fixed rather than drawn:
// which node dies moves the simulated clock, and sim_ms_p50 must compare
// across seeds.
var nodeVariants = []libVariant{
	{"clean", nil},
	{"loss", map[int]ftla.NodeFaultPlan{1: {AfterEpochs: 2}}},
	{"burst", map[int]ftla.NodeFaultPlan{0: {AfterEpochs: 2}, 1: {AfterEpochs: 2}}},
}

type libVariant struct {
	name  string
	plans map[int]ftla.NodeFaultPlan
}

// runLibrary drives one client calling ftla.{Cholesky,LU,QR} back to back.
func runLibrary(o options, name string, p libraryParams) (*childResult, error) {
	res := newResult()
	tr := newTracer(o.trace)
	rng := matrix.NewRNG(o.seed)

	genStart := time.Now()
	// Look-ahead is the schedule a throughput-minded caller picks.
	base := ftla.Config{GPUs: p.gpus, NB: p.nb, Lookahead: 1, Nodes: p.nodes, Redundancy: p.redundancy}
	var cases []*libCase
	for i := 0; i < p.inputs; i++ {
		for _, d := range decomps {
			a := d.generate(p.n, rng.Uint64())
			b := randomVector(p.n, rng.Uint64())
			vs := nodeVariants[:1]
			if p.nodes > 1 {
				vs = nodeVariants
			}
			for _, v := range vs {
				cfg := base
				cfg.NodeFault = v.plans
				cases = append(cases, &libCase{d: d, input: i, variant: v.name, a: a, b: b, cfg: cfg})
			}
		}
	}
	gen := time.Since(genStart)

	// Set-up: one warm-up factorization per (decomposition, variant).
	var setup []float64
	for t := time.Now(); o.moreSetup(len(setup), t); {
		t0 := time.Now()
		for _, c := range cases {
			if c.input > 0 {
				continue
			}
			if _, err := c.d.factor(c.a, c.cfg); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", c.label(), err)
			}
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	res.E2E["setup_s"] = median(setup)

	// References: every clean (decomposition, input) is solve-checked and
	// its factor bits hashed. Timed runs of every variant must reproduce
	// that hash, so node-loss runs are held to the clean bits.
	refStart := time.Now()
	type key struct {
		d     decomp
		input int
	}
	refs := map[key]uint64{}
	for _, c := range cases {
		if c.variant != "clean" {
			continue
		}
		f, err := c.d.factor(c.a, c.cfg)
		if err == nil {
			err = checkSolve(c.a, c.b, f.solve)
		}
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", c.label(), err)
		}
		refs[key{c.d, c.input}] = f.hash()
	}
	for _, c := range cases {
		c.ref = refs[key{c.d, c.input}]
	}
	res.Layers["bench.input_gen_s"] = (gen + time.Since(refStart)).Seconds()

	// The loop stops only after whole rounds — one call of every
	// (decomposition, variant) — so each class holds the same number of
	// samples and the pooled percentiles do not shift with where the clock
	// ran out.
	round := len(cases) / p.inputs
	dur := time.Duration(o.seconds * float64(time.Second))
	var samples []sample
	var flops float64
	var busy time.Duration
	before := obs.Default().Snapshot()
	start := time.Now()
	for i := 0; i%round != 0 || i == 0 || time.Since(start) < dur; i++ {
		c := cases[i%len(cases)]
		var snap obs.Snapshot
		if tr != nil {
			snap = obs.Default().Snapshot()
		}
		t0 := time.Now()
		f, err := c.d.factor(c.a, c.cfg)
		d := time.Since(t0)
		res.Attempted++
		if err == nil && f.hash() != c.ref {
			err = fmt.Errorf("factor bits differ from the clean reference")
		}
		if err != nil {
			res.fail(fmt.Errorf("%s: %w", c.label(), err))
			continue
		}
		samples = append(samples, sample{
			latency: d, run: d, sim: f.report.SimMakespan,
			checked: f.report.Counter.TotalChecked(), group: c.label(),
		})
		flops += c.d.flops(p.n)
		busy += d
		if tr != nil {
			job := i + 1
			root := tr.add(0, job, "bench", c.label(), t0, d, nil)
			call := tr.add(root, job, "core", "ftla."+strings.ToUpper(c.d.String()), t0, d, callArgs(snap))
			tr.addPhases(call, job, t0, d, f.report)
		}
	}
	res.Layers["bench.jobs_per_s"] = ratio(float64(len(samples)), time.Since(start).Seconds())
	diff := obs.Default().Snapshot().Diff(before)

	summarize(res, samples)
	res.Layers["bench.gflops"] = ratio(flops, busy.Seconds()) / 1e9
	if tr != nil {
		layerCounters(res, diff, samples, res.Attempted)
		runSuites(res, tr, p.n, p.nb, p.gpus)
		res.Table = tr.table()
		if err := tr.write(o.traceDir, name); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// callArgs is the per-call obs snapshot diff a traced library call carries.
func callArgs(before obs.Snapshot) map[string]float64 {
	d := obs.Default().Snapshot().Diff(before)
	return map[string]float64{
		"flops":       float64(d.CounterValue(obs.MetricBlasFlops)),
		"pcie_bytes":  float64(d.CounterValue(obs.MetricPCIeBytes)),
		"inter_bytes": float64(d.CounterValue(obs.MetricInternodeBytes)),
		"mismatches":  float64(d.CounterValue(obs.MetricChecksumMismatches)),
	}
}
