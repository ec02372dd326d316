// Command fpdiff compares two fingerprint golden files row by row: the
// gate for a change that may move the simulated clock but nothing else.
// Rows pair by label, the text before " | ", so a file whose scenarios
// were added, removed or reordered still compares every row it shares.
// internal/core's ladder and layout fingerprint files pin, per row, the
// factor bits, counters, PCIe traffic, flops and the simulated makespan
// (the trailing sim= field, the hex bit pattern of a float64 in seconds).
// fpdiff fails on any row whose fields other than sim= differ, and on any
// row whose sim= grew; rows that only got faster pass.
//
// -allow names further fields a change may move: any of inter, pcie and
// flops, comma-separated. An allowed field may change, except that inter=
// and pcie= may only fall. Every other field — bits=, the Counter, the
// verdict and the layout events — must still match, and sim= still may
// not grow. Each row whose allowed fields moved is listed (flagged) with
// their old and new values and its new/old makespan ratio.
//
// Usage (from the repository root):
//
//	go run ./scripts/fpdiff [-allow inter,pcie,flops] OLD NEW
//
// for example with OLD a copy of internal/core/testdata/ladder_fingerprints.txt
// taken before the change. It prints each offending and each flagged row
// and each row found in only one file, then a summary line: rows paired,
// rows whose sim= changed, the range of the new/old makespan ratios, and
// the flagged, offending and one-sided counts. Exit status 1 means an
// offending or a one-sided row; 2 means a usage or read error, a label
// repeated within one file included.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// allowable are the fields -allow may name; falling marks those that may
// only fall.
var (
	allowable = map[string]bool{"inter": true, "pcie": true, "flops": true}
	falling   = map[string]bool{"inter": true, "pcie": true}
)

func main() {
	allowList := flag.String("allow", "", "comma-separated fields that may change: inter, pcie, flops")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fpdiff [-allow inter,pcie,flops] OLD NEW")
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	allow := map[string]bool{}
	for _, f := range strings.Split(*allowList, ",") {
		if f == "" {
			continue
		}
		if !allowable[f] {
			fmt.Fprintf(os.Stderr, "fpdiff: -allow: unknown field %q (want inter, pcie or flops)\n", f)
			os.Exit(2)
		}
		allow[f] = true
	}
	oldPath, newPath := flag.Arg(0), flag.Arg(1)
	oldRows, oldIdx, err := readRows(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpdiff: %v\n", err)
		os.Exit(2)
	}
	newRows, newIdx, err := readRows(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpdiff: %v\n", err)
		os.Exit(2)
	}
	paired, bad, moved, flagged, oneSided := 0, 0, 0, 0, 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, o := range oldRows {
		j, ok := newIdx[o.label]
		if !ok {
			oneSided++
			fmt.Printf("only in %s: %s\n", oldPath, o.line)
			continue
		}
		paired++
		n := newRows[j]
		changes, why := compare(o, n, allow)
		if why != "" {
			bad++
			fmt.Printf("%s: %s:\n  old %s\n  new %s\n", o.label, why, o.line, n.line)
			continue
		}
		r := n.sim / o.sim
		if len(changes) > 0 {
			flagged++
			if o.sim != n.sim {
				changes = append(changes, fmt.Sprintf("sim x%.3f", r))
			}
			fmt.Printf("%s: %s\n", o.label, strings.Join(changes, ", "))
		}
		if o.sim == n.sim {
			continue
		}
		moved++
		lo, hi = min(lo, r), max(hi, r)
		if n.sim > o.sim {
			bad++
			fmt.Printf("%s: sim= grew from %g to %g s (x%.4f):\n  %s\n", o.label, o.sim, n.sim, r, n.line)
		}
	}
	for _, n := range newRows {
		if _, ok := oldIdx[n.label]; !ok {
			oneSided++
			fmt.Printf("only in %s: %s\n", newPath, n.line)
		}
	}
	fmt.Printf("fpdiff: %d rows paired, %d with sim= changed", paired, moved)
	if moved > 0 {
		fmt.Printf(" (new/old %.3f-%.3f)", lo, hi)
	}
	if len(allow) > 0 {
		fmt.Printf(", %d flagged", flagged)
	}
	fmt.Printf(", %d offending, %d one-sided\n", bad, oneSided)
	if bad > 0 || oneSided > 0 {
		os.Exit(1)
	}
}

// compare checks new row n against old row o. It returns the allowed
// fields that moved, rendered "name old→new", or why the row offends.
func compare(o, n row, allow map[string]bool) (changes []string, why string) {
	if o.rest == n.rest {
		return nil, ""
	}
	if len(allow) == 0 || len(o.fields) != len(n.fields) {
		return nil, "fields other than sim= differ"
	}
	for i, of := range o.fields {
		nf := n.fields[i]
		if of == nf {
			continue
		}
		ok, ov := cutField(of)
		nk, nv := cutField(nf)
		if ok != nk || !allow[ok] {
			return nil, "fields other than sim= and -allow differ"
		}
		if falling[ok] {
			a, errA := strconv.ParseInt(ov, 10, 64)
			b, errB := strconv.ParseInt(nv, 10, 64)
			if errA != nil || errB != nil {
				return nil, ok + "= is not an integer"
			}
			if b > a {
				return nil, ok + "= grew"
			}
		}
		changes = append(changes, ok+" "+ov+"→"+nv)
	}
	return changes, ""
}

// cutField splits "name=value"; a field without "=" (the Counter) is all
// name.
func cutField(f string) (name, value string) {
	name, value, _ = strings.Cut(f, "=")
	return name, value
}

// row is one fingerprint line: its label, its fields other than sim=, and
// its simulated makespan.
type row struct {
	line   string
	label  string   // the text before " | "
	fields []string // the fields after " | " without sim=; a {...} Counter is one field
	rest   string   // the line without its sim= field
	sim    float64  // the sim= makespan in seconds; 0 when the row has none
}

// readRows reads a fingerprint file, one row per line, and indexes the
// rows by label; a label repeated within the file is an error.
func readRows(path string) ([]row, map[string]int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var rows []row
	idx := map[string]int{}
	for i, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
		r, err := parseRow(line)
		if err != nil {
			return nil, nil, fmt.Errorf("%s:%d: %v", path, i+1, err)
		}
		if j, dup := idx[r.label]; dup {
			return nil, nil, fmt.Errorf("%s:%d: label %q repeats line %d", path, i+1, r.label, j+1)
		}
		idx[r.label] = len(rows)
		rows = append(rows, r)
	}
	return rows, idx, nil
}

// parseRow splits line into its label, fields and sim= makespan. A row
// without a sim= field (a run that returned an error) compares as a whole.
func parseRow(line string) (row, error) {
	r := row{line: line, rest: line}
	label, body, _ := strings.Cut(line, " | ")
	r.label = label
	for _, f := range splitFields(body) {
		hex, ok := strings.CutPrefix(f, "sim=")
		if !ok {
			r.fields = append(r.fields, f)
			continue
		}
		bits, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			return row{}, fmt.Errorf("bad sim= field %q: %v", f, err)
		}
		r.sim = math.Float64frombits(bits)
	}
	if r.sim != 0 {
		r.rest = label + " | " + strings.Join(r.fields, " ")
	}
	return r, nil
}

// splitFields splits s at spaces outside braces, so a {...} Counter stays
// one field.
func splitFields(s string) []string {
	var out []string
	depth, start := 0, -1
	for i, c := range s {
		switch {
		case c == '{':
			depth++
		case c == '}':
			depth--
		case c == ' ' && depth == 0:
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}
