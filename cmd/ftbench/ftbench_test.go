package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for ftbench: the benchmark runs
// each workload by re-executing its own binary with -child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// treeState maps every file of the repository to its size and modification
// time. It leaves out .git, the benchmark's build directory, and the
// BENCH_*.json files the root package's tests rewrite, which may run beside
// this test.
func treeState(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if ok, _ := filepath.Match(filepath.Join(root, "BENCH_*.json"), path); ok {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out[path] = fmt.Sprintf("%d %s", info.Size(), info.ModTime())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSmoke runs every workload at toy sizes, untraced and traced, and
// checks that every metric BENCHMARK.json names is emitted with its unit
// (every end-to-end metric nonzero), that nothing failed, and that the run
// wrote nothing into the tree.
func TestSmoke(t *testing.T) {
	root := filepath.Join("..", "..")
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def spec
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	before := treeState(t, root)
	for _, tc := range []struct {
		trace   string
		metrics []specMetric
	}{{"0", def.EndToEnd}, {"1", def.PerLayer}} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-scale", "tiny", "-seconds", "0.2", "-seed", "7", "-trace", tc.trace}, &stdout, &stderr)
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: exit %d, last line not a result: %v\n%s%s", tc.trace, code, err, stdout.String(), stderr.String())
		}
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("trace %s: exit %d, result %+v\n%s", tc.trace, code, res, stdout.String())
		}
		for _, w := range workloads {
			for _, m := range tc.metrics {
				v, ok := res.Metrics[w.name+"/"+m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("trace %s: %s/%s missing or unit %q != %q", tc.trace, w.name, m.Name, v.Unit, m.Unit)
				}
				if m.Bound != nil && !(v.Value > 0) {
					t.Errorf("%s/%s = %v, want > 0", w.name, m.Name, v.Value)
				}
			}
			if tc.trace == "1" && res.Metrics[w.name+"/bench.error_rate"].Value != 0 {
				t.Errorf("%s: error_rate %v", w.name, res.Metrics[w.name+"/bench.error_rate"].Value)
			}
		}
	}
	after := treeState(t, root)
	for p, s := range after {
		if before[p] != s {
			t.Errorf("benchmark run wrote %s", p)
		}
	}
	for p := range before {
		if _, ok := after[p]; !ok {
			t.Errorf("benchmark run removed %s", p)
		}
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	lower := specMetric{Better: "lower", Bound: &bound}
	for _, tc := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"improved", []float64{10, 10.1, 9.9, 10, 10.2, 10, 10.1, 9.9, 10, 10.2}, []float64{8, 8.1, 7.9, 8, 8.2, 8, 8.1, 7.9, 8, 8.2}, "improved"},
		{"too few pairs", []float64{10, 10.1, 9.9, 10, 10.2}, []float64{8, 8.1, 7.9, 8, 8.2}, "unresolved"},
		{"unchanged", []float64{10, 10.1, 9.9, 10, 10.2}, []float64{10.1, 10, 10.2, 9.9, 10}, "unchanged"},
		{"regressed", []float64{10, 10.1, 9.9, 10, 10.2}, []float64{12, 12.1, 11.9, 12, 12.2}, "regressed"},
		{"unresolved", []float64{5, 15, 8, 12, 10}, []float64{6, 14, 9, 11, 10}, "unresolved"},
	} {
		if _, got := verdict(tc.a, tc.b, lower); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
