package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json compare needs.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (map[string]specMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]specMetric{}
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		out[m.Name] = m
	}
	return out, nil
}

// readRuns collects every metric over the result lines in path — one line
// per run, as the benchmark prints them last; other lines are skipped, so
// whole run outputs can be appended to one file.
func readRuns(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line resultLine
		if json.Unmarshal(sc.Bytes(), &line) != nil || line.Metrics == nil {
			continue
		}
		for k, v := range line.Metrics {
			out[k] = append(out[k], v.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result lines", path)
	}
	return out, nil
}

// compareMain implements `ftbench compare A.json B.json`, A the parent's
// runs and B the change's, judged by the rule of choosing-metrics §8: a gain
// needs at least ten (A[i], B[i]) pairs, B winning nine tenths of them, and
// a median moved by more than A's own quartile spread; a metric regresses when
// B's median is worse than A's by more than the BENCHMARK.json bound, and
// is unresolved when A's spread is wider than that bound unless every B
// run beats every A run.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: ftbench compare [-spec BENCHMARK.json] A.json B.json")
		return 2
	}
	defs, err := readSpec(*specPath)
	if err == nil {
		var a, b map[string][]float64
		if a, err = readRuns(fs.Arg(0)); err == nil {
			if b, err = readRuns(fs.Arg(1)); err == nil {
				return printComparison(stdout, defs, a, b)
			}
		}
	}
	fmt.Fprintf(stderr, "ftbench compare: %v\n", err)
	return 1
}

func printComparison(w io.Writer, defs map[string]specMetric, a, b map[string][]float64) int {
	var keys []string
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%-26s %-13s %-30s %-30s %5s  %s\n", "metric", "workload", "A p25 / p50 / p75", "B p25 / p50 / p75", "won", "verdict")
	regressed := false
	for _, k := range keys {
		workload, name := "", k
		if i := strings.LastIndex(k, "/"); i >= 0 {
			workload, name = k[:i], k[i+1:]
		}
		def, ok := defs[name]
		if !ok {
			continue
		}
		won, v := verdict(a[k], b[k], def)
		regressed = regressed || v == "regressed"
		q := func(xs []float64) string {
			return fmt.Sprintf("%.4g / %.4g / %.4g", quantile(xs, 0.25), median(xs), quantile(xs, 0.75))
		}
		fmt.Fprintf(w, "%-26s %-13s %-30s %-30s %4.0f%%  %s\n", name, workload, q(a[k]), q(b[k]), 100*won, v)
	}
	if regressed {
		return 1
	}
	return 0
}

// verdict returns the share of pairs B won and the §8 verdict. Metrics
// without a bound (the per-layer ones) can only be improved or have no
// verdict.
func verdict(a, b []float64, def specMetric) (float64, string) {
	lower := def.Better == "lower"
	better := func(x, y float64) bool { // x better than y
		if lower {
			return x < y
		}
		return x > y
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	wins := 0
	for i := 0; i < n; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	won := ratio(float64(wins), float64(n))
	ma, mb := median(a), median(b)
	spread := quantile(a, 0.75) - quantile(a, 0.25)
	gain := mb - ma
	if lower {
		gain = -gain
	}
	if won >= 0.9 && gain > spread {
		if n < 10 {
			return won, "unresolved" // §8 claims a gain only over ten pairs or more
		}
		return won, "improved"
	}
	if def.Bound == nil {
		return won, "-"
	}
	bound := *def.Bound
	allBetter := true
	for _, y := range b {
		for _, x := range a {
			allBetter = allBetter && better(y, x)
		}
	}
	if ratio(spread, math.Abs(ma)) > bound && !allBetter {
		return won, "unresolved"
	}
	if ratio(-gain, math.Abs(ma)) > bound {
		return won, "regressed"
	}
	return won, "unchanged"
}
