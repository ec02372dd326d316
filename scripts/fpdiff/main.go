// Command fpdiff compares two fingerprint golden files row by row: the
// gate for a change that may move the simulated clock but nothing else.
// internal/core's ladder and layout fingerprint files pin, per row, the
// factor bits, counters, PCIe traffic, flops and the simulated makespan
// (the trailing sim= field, the hex bit pattern of a float64 in seconds).
// fpdiff fails on any row whose fields other than sim= differ, and on any
// row whose sim= grew; rows that only got faster pass.
//
// Usage (from the repository root):
//
//	go run ./scripts/fpdiff OLD NEW
//
// for example with OLD a copy of internal/core/testdata/ladder_fingerprints.txt
// taken before the change. It prints each offending row, then a summary
// line: rows compared, rows whose sim= changed, and the range of the
// new/old makespan ratios. Exit status 1 means an offending row or a
// differing row count; 2 means a usage or read error.
package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: fpdiff OLD NEW")
		os.Exit(2)
	}
	oldRows, err := readRows(os.Args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpdiff: %v\n", err)
		os.Exit(2)
	}
	newRows, err := readRows(os.Args[2])
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpdiff: %v\n", err)
		os.Exit(2)
	}
	if len(oldRows) != len(newRows) {
		fmt.Printf("fpdiff: %s has %d rows, %s has %d\n", os.Args[1], len(oldRows), os.Args[2], len(newRows))
		os.Exit(1)
	}
	bad, moved := 0, 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range oldRows {
		o, n := oldRows[i], newRows[i]
		if o.rest != n.rest {
			bad++
			fmt.Printf("row %d: fields other than sim= differ:\n  old %s\n  new %s\n", i, o.line, n.line)
			continue
		}
		if o.sim == n.sim {
			continue
		}
		moved++
		r := n.sim / o.sim
		lo, hi = min(lo, r), max(hi, r)
		if n.sim > o.sim {
			bad++
			fmt.Printf("row %d: sim= grew from %g to %g s (x%.4f):\n  %s\n", i, o.sim, n.sim, r, n.line)
		}
	}
	fmt.Printf("fpdiff: %d rows, %d with sim= changed", len(oldRows), moved)
	if moved > 0 {
		fmt.Printf(" (new/old %.3f-%.3f)", lo, hi)
	}
	fmt.Printf(", %d offending\n", bad)
	if bad > 0 {
		os.Exit(1)
	}
}

// row is one fingerprint line split into its simulated makespan and
// everything else.
type row struct {
	line string
	rest string  // the line without its sim= field
	sim  float64 // the sim= makespan in seconds; 0 when the row has none
}

// readRows reads a fingerprint file, one row per non-empty line.
func readRows(path string) ([]row, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []row
	for i, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
		r, err := parseRow(line)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, i+1, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// parseRow splits the sim= field off line. A row without one (a run that
// returned an error) compares as a whole.
func parseRow(line string) (row, error) {
	fields := strings.Fields(line)
	r := row{line: line, rest: line}
	for i, f := range fields {
		hex, ok := strings.CutPrefix(f, "sim=")
		if !ok {
			continue
		}
		bits, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			return row{}, fmt.Errorf("bad sim= field %q: %v", f, err)
		}
		r.sim = math.Float64frombits(bits)
		r.rest = strings.Join(append(fields[:i:i], fields[i+1:]...), " ")
		break
	}
	return r, nil
}
