package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"ftla"
)

// span is one timed call at a layer boundary, recorded by the benchmark
// around its own calls into the program (the program itself carries no
// spans). Spans of one job share Job; Parent links a span to the span that
// caused it (0 for a root).
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Job    int                `json:"job"`
	Layer  string             `json:"layer"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_us"` // offset from the trace epoch
	Dur    float64            `json:"dur_us"`
	Args   map[string]float64 `json:"args,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs pay no tracing cost.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{epoch: time.Now()}
}

// add records one completed span and returns its id (0 on a nil tracer).
func (t *tracer) add(parent, job int, layer, name string, start time.Time, d time.Duration, args map[string]float64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Job: job, Layer: layer, Name: name,
		Start: float64(start.Sub(t.epoch)) / float64(time.Microsecond),
		Dur:   float64(d) / float64(time.Microsecond),
		Args:  args,
	})
	return id
}

// addPhases records the ABFT phases a Report timed inside one call
// (encode, verify, recover) as checksum-layer children of parent, laid end
// to end from start and clipped to limit: the Report gives their totals,
// not their positions, and self time only needs how much of the parent
// they cover.
func (t *tracer) addPhases(parent, job int, start time.Time, limit time.Duration, r *ftla.Report) {
	if t == nil {
		return
	}
	at := time.Duration(0)
	for _, p := range []struct {
		name string
		d    time.Duration
	}{{"encode", r.EncodeT}, {"verify", r.VerifyT}, {"recover", r.RecoverT}} {
		d := p.d
		if at+d > limit {
			d = limit - at
		}
		if d <= 0 {
			continue
		}
		t.add(parent, job, "checksum", p.name, start.Add(at), d, nil)
		at += d
	}
}

// layerRow is one line of the traced run's per-layer table.
type layerRow struct {
	Layer   string             `json:"layer"`
	Spans   int                `json:"spans"`
	TotalMS float64            `json:"total_ms"`
	SelfMS  float64            `json:"self_ms"`
	Share   float64            `json:"self_share"`
	Args    map[string]float64 `json:"args,omitempty"`
}

// table computes each layer's self time — a span's duration minus the part
// of its interval its children cover — and sums the per-call counter diffs
// carried in span args.
func (t *tracer) table() []layerRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	children := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.Start + s.Dur})
		}
	}
	rows := map[string]*layerRow{}
	var selfAll float64
	for _, s := range spans {
		r := rows[s.Layer]
		if r == nil {
			r = &layerRow{Layer: s.Layer, Args: map[string]float64{}}
			rows[s.Layer] = r
		}
		// A child that spans its whole parent leaves rounding error, not time.
		self := max(0, s.Dur-covered(children[s.ID], s.Start, s.Start+s.Dur))
		r.Spans++
		r.TotalMS += s.Dur / 1e3
		r.SelfMS += self / 1e3
		selfAll += self / 1e3
		for k, v := range s.Args {
			r.Args[k] += v
		}
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		r.Share = ratio(r.SelfMS, selfAll)
		if len(r.Args) == 0 {
			r.Args = nil
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// covered returns the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, end := 0.0, lo
	for _, x := range iv {
		a, b := x[0], x[1]
		if a < end {
			a = end
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// write stores the spans as a JSON array in dir/<workload>.spans.json.
func (t *tracer) write(dir, workload string) error {
	if t == nil || dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".spans.json"), b, 0o644)
}

// printTable renders the per-layer table.
func printTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "  %-9s %7s %12s %12s %7s  %s\n", "layer", "spans", "total_ms", "self_ms", "self%", "counters (sum of per-call obs diffs)")
	for _, r := range rows {
		keys := make([]string, 0, len(r.Args))
		for k := range r.Args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var c []string
		for _, k := range keys {
			c = append(c, fmt.Sprintf("%s=%.4g", k, r.Args[k]))
		}
		fmt.Fprintf(w, "  %-9s %7d %12.3f %12.3f %6.1f%%  %s\n", r.Layer, r.Spans, r.TotalMS, r.SelfMS, 100*r.Share, strings.Join(c, " "))
	}
}
