package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Fatalf("gauge = %d, want 2", g.Value())
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "help")
	b := r.Counter("c", "other help ignored")
	if a != b {
		t.Fatal("same name must return the same counter instance")
	}
	v1 := r.CounterVec("v", "h", "kind").With("x")
	v2 := r.CounterVec("v", "h", "kind").With("x")
	if v1 != v2 {
		t.Fatal("same name+label value must return the same series")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("m", "h")
}

func TestLabelKeyMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("m", "h", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on label-key mismatch")
		}
	}()
	r.CounterVec("m", "h", "b")
}

func TestCounterVecValues(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("outcomes_total", "h", "outcome")
	v.With("fault-free").Add(2)
	v.With("abft-fixed").Inc()
	got := v.Values()
	if got["fault-free"] != 2 || got["abft-fixed"] != 1 {
		t.Fatalf("Values = %v", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("ftla_jobs_total", "Jobs seen.").Add(7)
	r.Gauge("ftla_queue_depth", "Depth.").Set(2)
	r.CounterVec("ftla_outcomes_total", "Outcomes.", "outcome").With("fault-free").Add(3)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP ftla_jobs_total Jobs seen.",
		"# TYPE ftla_jobs_total counter",
		"ftla_jobs_total 7",
		"# TYPE ftla_queue_depth gauge",
		"ftla_queue_depth 2",
		`ftla_outcomes_total{outcome="fault-free"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must appear sorted by name for deterministic scrapes.
	if strings.Index(out, "ftla_jobs_total") > strings.Index(out, "ftla_queue_depth") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestPrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("m_total", "help with \\ backslash\nand newline", "k").
		With("a\\b\"c\nd").Inc()
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# HELP m_total help with \\ backslash\nand newline`) {
		t.Fatalf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `m_total{k="a\\b\"c\nd"} 1`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
	// A raw (unescaped) newline inside a series line would corrupt the
	// line-oriented format.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "m_total{") && !strings.HasSuffix(line, " 1") {
			t.Fatalf("series line split by raw newline: %q", line)
		}
	}
}

func TestHistogramPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "h", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 5.55",
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "h").Add(9)
	r.Gauge("g", "h").Set(-4)
	r.Histogram("h_seconds", "h", []float64{1}).Observe(0.5)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("Snapshot JSON does not parse: %v", err)
	}
	if s.Counters["c_total"] != 9 || s.Gauges["g"] != -4 {
		t.Fatalf("round-trip lost values: %+v", s)
	}
	if hs := s.Histograms["h_seconds"]; hs.Count != 1 || hs.Sum != 0.5 {
		t.Fatalf("histogram round-trip: %+v", hs)
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	g := r.Gauge("g", "h")
	h := r.Histogram("h_seconds", "h", []float64{1, 10})
	c.Add(3)
	g.Set(1)
	h.Observe(0.5)
	before := r.Snapshot()
	c.Add(4)
	g.Set(9)
	h.Observe(5)
	h.Observe(0.25)
	d := r.Snapshot().Diff(before)
	if d.Counters["c_total"] != 4 {
		t.Fatalf("counter diff = %d, want 4", d.Counters["c_total"])
	}
	if d.Gauges["g"] != 9 {
		t.Fatalf("gauge diff keeps current value; got %d", d.Gauges["g"])
	}
	hd := d.Histograms["h_seconds"]
	if hd.Count != 2 || hd.Sum != 5.25 {
		t.Fatalf("histogram diff = %+v", hd)
	}
	if hd.Counts[0] != 1 || hd.Counts[1] != 1 || hd.Counts[2] != 0 {
		t.Fatalf("bucket diff = %v", hd.Counts)
	}
	// A series that shrank (an older snapshot diffed against a newer
	// base) clamps to zero instead of underflowing.
	d2 := before.Diff(r.Snapshot())
	if v, ok := d2.Counters["c_total"]; ok && v != 0 {
		t.Fatalf("shrunk counter must clamp, got %d", v)
	}
}

func TestConcurrentRegistryAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c_total", "h").Inc()
				r.CounterVec("v_total", "h", "k").With(string(rune('a' + i%3))).Inc()
				r.Gauge("g", "h").Add(1)
				r.Histogram("h_seconds", "h", nil).Observe(float64(i) * 1e-4)
				if i%50 == 0 {
					r.Snapshot()
					var b bytes.Buffer
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c_total", "h").Value(); got != 8*500 {
		t.Fatalf("counter = %d, want %d", got, 8*500)
	}
	if got := r.Histogram("h_seconds", "h", nil).Count(); got != 8*500 {
		t.Fatalf("histogram count = %d, want %d", got, 8*500)
	}
	vals := r.CounterVec("v_total", "h", "k").Values()
	var sum uint64
	for _, v := range vals {
		sum += v
	}
	if sum != 8*500 {
		t.Fatalf("vec total = %d, want %d", sum, 8*500)
	}
}

func TestObservePhaseAndPhaseSeconds(t *testing.T) {
	before := Default().Snapshot()
	ObservePhase(PhaseVerify, 30*time.Millisecond)
	ObservePhase(PhaseVerify, 20*time.Millisecond)
	ObservePhaseSeconds(PhasePCIe, 0.25)
	ObservePhase("not-a-phase", time.Second) // dropped, not minted
	d := Default().Snapshot().Diff(before)
	if got := d.PhaseSeconds(PhaseVerify); got < 0.0499 || got > 0.0501 {
		t.Fatalf("verify seconds = %g, want 0.05", got)
	}
	if got := d.PhaseSeconds(PhasePCIe); got != 0.25 {
		t.Fatalf("pcie seconds = %g, want 0.25", got)
	}
	if _, ok := d.Histograms[Key(MetricPhaseSeconds, "phase", "not-a-phase")]; ok {
		t.Fatal("unknown phase must not mint a series")
	}
}

func TestKey(t *testing.T) {
	if Key("m", "", "") != "m" {
		t.Fatal("unlabeled key must be the bare name")
	}
	if got := Key("m", "k", `a"b`); got != `m{k="a\"b"}` {
		t.Fatalf("Key = %q", got)
	}
}
