package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricKind discriminates the three metric families a Registry holds.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric family: all series sharing a name, help
// string, kind, and (optional) label key.
type family struct {
	name    string
	help    string
	kind    metricKind
	label   string // label key for vec families, "" for plain metrics
	buckets []float64

	mu     sync.Mutex
	series map[string]any // label value -> *Counter | *Gauge | *Histogram
	order  []string       // label values in first-registration order
}

// Registry is a set of named metrics with atomic hot paths. Registration
// is idempotent: asking for an existing name returns the same instance,
// so packages can register at init or lazily without coordination.
// Registering one name as two different kinds (or with two different
// label keys) panics — that is a programming error, not a runtime state.
//
// The zero value is not usable; call NewRegistry, or use Default for the
// process-wide registry that the instrumented packages (blas, checksum,
// core, hetsim) share.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry; see Default.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Library instrumentation
// (flop counting, phase attribution, PCIe traffic) lands here; components
// with an isolated lifecycle (one service.Scheduler per test) construct
// their own Registry instead.
func Default() *Registry { return defaultRegistry }

// family returns (creating if needed) the named family, enforcing that
// the name is not reused with a different kind or label key.
func (r *Registry) family(name, help string, kind metricKind, label string, buckets []float64) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.families[name]; f == nil {
			f = &family{name: name, help: help, kind: kind, label: label,
				buckets: buckets, series: make(map[string]any)}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.kind, kind))
	}
	if f.label != label {
		panic(fmt.Sprintf("obs: metric %q registered with label %q, requested with %q", name, f.label, label))
	}
	return f
}

// with returns (creating if needed) the series for one label value.
func (f *family) with(value string, mk func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.series[value]
	if !ok {
		m = mk()
		f.series[value] = m
		f.order = append(f.order, value)
	}
	return m
}

// Counter is a monotonically increasing uint64 metric. All methods are
// safe for concurrent use; Add and Inc are single atomic operations.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter returns the registered counter for name, creating it on first
// use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, kindCounter, "", nil)
	return f.with("", func() any { return new(Counter) }).(*Counter)
}

// CounterVec is a family of counters keyed by the values of one or more
// labels.
type CounterVec struct {
	f *family
}

// CounterVec returns the registered counter family for name with the
// given label keys, creating it on first use. Multiple keys form a
// multi-label family; With then takes one value per key, in the same
// order. Label keys and values of multi-label families must not contain
// commas (the internal series key joins on them).
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, kindCounter, joinLabels("CounterVec", labels), nil)}
}

// With returns the counter for one label-value tuple, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.with(strings.Join(values, ","), func() any { return new(Counter) }).(*Counter)
}

// joinLabels validates and joins a vec family's label keys into the
// family's single label-key string.
func joinLabels(kind string, labels []string) string {
	if len(labels) == 0 {
		panic("obs: " + kind + " requires a label key")
	}
	for _, l := range labels {
		if l == "" || strings.Contains(l, ",") {
			panic(fmt.Sprintf("obs: %s label key %q invalid (empty or contains a comma)", kind, l))
		}
	}
	return strings.Join(labels, ",")
}

// Values snapshots every series of the family as labelValue -> count.
func (v *CounterVec) Values() map[string]uint64 {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	out := make(map[string]uint64, len(v.f.series))
	for val, m := range v.f.series {
		out[val] = m.(*Counter).Value()
	}
	return out
}

// Gauge is an int64 metric that can go up and down (queue depths, entry
// counts). All methods are single atomic operations.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add increments (or, negative n, decrements) the gauge.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Gauge returns the registered gauge for name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, kindGauge, "", nil)
	return f.with("", func() any { return new(Gauge) }).(*Gauge)
}

// FloatGauge is a float64 metric that can go up and down, for fractional
// instantaneous values (utilizations, ratios) that the integer Gauge
// cannot carry. All methods are single atomic operations on the float's
// bit pattern.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// FloatGaugeVec is a family of float gauges keyed by the value of one
// label.
type FloatGaugeVec struct {
	f *family
}

// FloatGaugeVec returns the registered float-gauge family for name with
// the given label key, creating it on first use.
func (r *Registry) FloatGaugeVec(name, help, label string) *FloatGaugeVec {
	if label == "" {
		panic("obs: FloatGaugeVec requires a label key")
	}
	return &FloatGaugeVec{f: r.family(name, help, kindGauge, label, nil)}
}

// With returns the gauge for one label value, creating it on first use.
func (v *FloatGaugeVec) With(value string) *FloatGauge {
	return v.f.with(value, func() any { return new(FloatGauge) }).(*FloatGauge)
}

// Histogram returns the registered histogram for name, creating it on
// first use with the given bucket upper bounds (nil selects DefBuckets).
// Buckets are fixed at first registration; later callers inherit them.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.family(name, help, kindHistogram, "", normBuckets(buckets))
	return f.with("", func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// Key renders the snapshot/exposition key of one series: the bare name
// for unlabeled metrics, name{label="value"} for labeled ones (with the
// value escaped by the Prometheus rules). A multi-label family stores its
// keys and values comma-joined; Key zips them back into the standard
// name{k1="v1",k2="v2"} form.
func Key(name, label, value string) string {
	if label == "" {
		return name
	}
	labels := strings.Split(label, ",")
	if len(labels) == 1 {
		return name + `{` + label + `="` + escapeLabelValue(value) + `"}`
	}
	values := strings.SplitN(value, ",", len(labels))
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format escaping for label
// values: backslash, double-quote, and line-feed.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp applies the Prometheus text-format escaping for HELP lines:
// backslash and line-feed (quotes are legal there).
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// sortedFamilies returns the registry's families ordered by name, for
// deterministic exposition.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries returns one family's (labelValue, metric) pairs ordered by
// label value.
func (f *family) sortedSeries() ([]string, []any) {
	f.mu.Lock()
	vals := append([]string(nil), f.order...)
	sort.Strings(vals)
	ms := make([]any, len(vals))
	for i, v := range vals {
		ms[i] = f.series[v]
	}
	f.mu.Unlock()
	return vals, ms
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, one # HELP / # TYPE
// header per family, histograms expanded into cumulative _bucket series
// plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		vals, ms := f.sortedSeries()
		for i, val := range vals {
			var err error
			switch m := ms[i].(type) {
			case *Counter:
				_, err = fmt.Fprintf(w, "%s %d\n", Key(f.name, f.label, val), m.Value())
			case *Gauge:
				_, err = fmt.Fprintf(w, "%s %d\n", Key(f.name, f.label, val), m.Value())
			case *FloatGauge:
				_, err = fmt.Fprintf(w, "%s %g\n", Key(f.name, f.label, val), m.Value())
			case *Histogram:
				err = m.writePrometheus(w, f.name, f.label, val)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Snapshot captures every series' current value, keyed by Key(name,
// label, value). Snapshots are plain data: JSON-serializable, diffable
// with Diff, and safe to retain after the registry moves on.
type Snapshot struct {
	// Counters holds every counter series' value.
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Gauges holds every gauge series' value.
	Gauges map[string]int64 `json:"gauges,omitempty"`
	// FloatGauges holds every float-gauge series' value.
	FloatGauges map[string]float64 `json:"float_gauges,omitempty"`
	// Histograms holds every histogram series' state.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the current value of every registered series.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:    make(map[string]uint64),
		Gauges:      make(map[string]int64),
		FloatGauges: make(map[string]float64),
		Histograms:  make(map[string]HistogramSnapshot),
	}
	for _, f := range r.sortedFamilies() {
		vals, ms := f.sortedSeries()
		for i, val := range vals {
			key := Key(f.name, f.label, val)
			switch m := ms[i].(type) {
			case *Counter:
				s.Counters[key] = m.Value()
			case *Gauge:
				s.Gauges[key] = m.Value()
			case *FloatGauge:
				s.FloatGauges[key] = m.Value()
			case *Histogram:
				s.Histograms[key] = m.snapshot()
			}
		}
	}
	return s
}

// Diff returns the change from base to s: counter and histogram series
// are subtracted (series absent from base count from zero; series that
// shrank — s older than base — clamp at zero), gauges keep s's current value
// (a gauge delta has no meaning). Taking a Snapshot before and after a
// region of interest and diffing yields exactly the work done in between.
func (s Snapshot) Diff(base Snapshot) Snapshot {
	out := Snapshot{
		Counters:    make(map[string]uint64, len(s.Counters)),
		Gauges:      make(map[string]int64, len(s.Gauges)),
		FloatGauges: make(map[string]float64, len(s.FloatGauges)),
		Histograms:  make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for k, v := range s.Counters {
		if b := base.Counters[k]; v >= b {
			out.Counters[k] = v - b
		}
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range s.FloatGauges {
		out.FloatGauges[k] = v
	}
	for k, h := range s.Histograms {
		out.Histograms[k] = h.diff(base.Histograms[k])
	}
	return out
}

// CounterValue returns the counter series under the exact key (see Key),
// zero when absent.
func (s Snapshot) CounterValue(key string) uint64 { return s.Counters[key] }
