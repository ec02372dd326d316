package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the flags the parent passes on to each workload child.
type options struct {
	seed     uint64
	workload string
	seconds  float64
	trace    bool
	traceDir string
	scale    string
}

func (o options) tiny() bool { return o.scale == "tiny" }

// minSetupReps is the fewest times a run repeats its set-up.
const minSetupReps = 5

// moreSetup reports whether a set-up begun at start and repeated reps times
// runs again. It repeats at least minSetupReps times and for a fifth of the
// measured seconds, so a set-up of milliseconds and one of a second both
// sample the host for a while; setup_s is the median of the repetitions.
func (o options) moreSetup(reps int, start time.Time) bool {
	return reps < minSetupReps || time.Since(start).Seconds() < o.seconds/5
}

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 15

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("ftbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var child bool
	fs.Uint64Var(&o.seed, "seed", 1, "seed for every input, arrival time and fault draw")
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all, factor-large, cluster-loss, serve-small or serve-faults")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured seconds per workload")
	fs.IntVar(&trace, "trace", 0, "1 = also run each workload traced and report the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.traceDir, "trace-dir", "", "with -trace 1, write each traced run's spans to DIR/<workload>.spans.json")
	fs.StringVar(&o.scale, "scale", "full", "full, or tiny for a seconds-long smoke run at toy sizes")
	fs.BoolVar(&child, "child", false, "run one workload in this process and print its raw result (used by the parent)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	switch {
	case trace != 0 && trace != 1:
		fmt.Fprintln(stderr, "ftbench: -trace must be 0 or 1")
		return 2
	case o.scale != "full" && o.scale != "tiny":
		fmt.Fprintf(stderr, "ftbench: unknown -scale %q\n", o.scale)
		return 2
	case !(o.seconds > 0):
		fmt.Fprintln(stderr, "ftbench: -seconds must be positive")
		return 2
	}
	if _, ok := lookup(o.workload); !ok && (child || o.workload != "all") {
		fmt.Fprintf(stderr, "ftbench: unknown workload %q\n", o.workload)
		return 2
	}
	if child {
		return childMain(o, stdout, stderr)
	}
	return parentMain(o, stdout, stderr)
}

// childResult is what one workload process reports to the parent.
type childResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Samples   int                `json:"samples"`    // timed operations behind the percentiles
	BeyondP90 int                `json:"beyond_p90"` // samples above the p90 latency
	E2E       map[string]float64 `json:"e2e"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Table     []layerRow         `json:"table,omitempty"`
}

func newResult() *childResult {
	return &childResult{E2E: map[string]float64{}, Layers: map[string]float64{}}
}

// fail counts one failed, rejected or incorrect operation, keeping the
// first few messages for the report.
func (r *childResult) fail(err error) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

func childMain(o options, stdout, stderr io.Writer) int {
	w, _ := lookup(o.workload)
	res, err := w.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "ftbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "ftbench: %s: %v\n", o.workload, err)
		return 1
	}
	return 0
}

// value is one metric of the final result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func parentMain(o options, stdout, stderr io.Writer) int {
	names := []string{o.workload}
	if o.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	printHeader(stdout, o)
	final := resultLine{Metrics: map[string]value{}}
	for _, name := range names {
		plain, err := spawn(o, name, false)
		if err != nil {
			fmt.Fprintf(stderr, "ftbench: %v\n", err)
			return 1
		}
		final.Attempted += plain.Attempted
		final.Failed += plain.Failed
		metrics, values := endToEnd, plain.E2E
		var traced *childResult
		if o.trace {
			if traced, err = spawn(o, name, true); err != nil {
				fmt.Fprintf(stderr, "ftbench: %v\n", err)
				return 1
			}
			final.Attempted += traced.Attempted
			final.Failed += traced.Failed
			// Tracing overhead: how much the traced run's median latency
			// exceeds the untraced run's.
			p, t := plain.Layers["bench.latency_ms_p50"], traced.Layers["bench.latency_ms_p50"]
			traced.Layers["bench.trace_overhead_pct"] = 100 * ratio(t-p, p)
			traced.Layers["bench.error_rate"] = ratio(float64(traced.Failed), float64(traced.Attempted))
			// The wall-clock diagnostics come from the untraced run, like
			// the end-to-end metrics: tracing slows the traced one.
			for k, v := range plain.Layers {
				traced.Layers[k] = v
			}
			metrics, values = perLayer, traced.Layers
		}
		w, _ := lookup(name)
		printWorkload(stdout, w, plain, traced)
		for _, m := range metrics {
			key := m.name
			if len(names) > 1 {
				key = name + "/" + m.name
			}
			v := values[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				fmt.Fprintf(stderr, "ftbench: %s: %s is not finite\n", name, m.name)
				return 1
			}
			final.Metrics[key] = value{v, m.unit}
		}
	}
	final.Correct = final.Failed == 0
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "ftbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// spawn runs one workload in a child process and reads its result. The
// child's peak resident set is the workload's mem_mb.
func spawn(o options, name string, traced bool) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", name, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-scale", o.scale, "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
		args = append(args, "-trace-dir", o.traceDir)
	}
	// A workload process that overruns its measured time this far is hung:
	// kill it and fail the benchmark.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(3*o.seconds)*time.Second+2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			err = errors.Join(err, ctx.Err())
		}
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	var res childResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("workload %s: reading its result: %w", name, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, fmt.Errorf("workload %s: no resource usage for the child process", name)
	}
	res.E2E["mem_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return &res, nil
}

func printHeader(w io.Writer, o options) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					rev += "+dirty"
				}
			}
		}
	}
	fmt.Fprintf(w, "ftbench seed=%d GOMAXPROCS=%d nproc=%d go=%s rev=%s scale=%s seconds=%g trace=%v\n",
		o.seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), rev, o.scale, o.seconds, o.trace)
}

func printWorkload(w io.Writer, wl workload, plain, traced *childResult) {
	fmt.Fprintf(w, "== %s: %s\n", wl.name, wl.about)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-16s %14.6g %s\n", m.name, plain.E2E[m.name], m.unit)
	}
	fmt.Fprintf(w, "  %-16s %14.6g fraction (%d of %d failed, rejected or incorrect)\n", "error_rate",
		ratio(float64(plain.Failed), float64(plain.Attempted)), plain.Failed, plain.Attempted)
	for _, e := range plain.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	fmt.Fprintf(w, "  diagnostics over %d samples (%d beyond p90):\n", plain.Samples, plain.BeyondP90)
	if traced == nil {
		printLayers(w, plain.Layers)
		return
	}
	fmt.Fprintf(w, "  traced run: %d attempted, %d failed\n", traced.Attempted, traced.Failed)
	for _, e := range traced.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	printTable(w, traced.Table)
	printLayers(w, traced.Layers) // the untraced run's diagnostics included
}

// printLayers prints the per-layer metrics a run reported, skipping those
// of layers its workload does not reach.
func printLayers(w io.Writer, values map[string]float64) {
	for _, m := range perLayer {
		if v, ok := values[m.name]; ok {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.name, v, m.unit)
		}
	}
}
