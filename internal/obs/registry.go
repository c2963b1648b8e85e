// Package obs is the observability layer for the replica runtime: a
// dependency-free metrics registry (counters, gauges, histograms with
// atomic hot paths) rendered in Prometheus text exposition format, a
// bounded ring buffer of recent node events, and a per-update propagation
// tracker that turns infection timestamps into the paper's convergence
// observables — t_last, t_avg, and residue (§1.4, §3).
//
// The registry is deliberately small: no external dependencies, no
// label-cardinality explosion, no background goroutines. Hot-path metric
// updates are single atomic operations so instrumented protocol rounds pay
// nanoseconds, not locks.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Name, Value string
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use. Registering
// the same (name, labels) pair twice returns the existing collector, so
// instrumentation is idempotent.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	gen      atomic.Uint64 // bumped whenever a new family or series appears
}

// family is one metric name: help text, type, and its labelled series.
type family struct {
	name, help, typ string
	series          map[string]*seriesEntry // canonical label string -> entry
}

type seriesEntry struct {
	labels []Label
	metric any // *Counter | *Gauge | *Histogram | funcMetric
}

// funcMetric reads its value from a callback at render time; used to
// expose externally maintained counters (e.g. node.Stats) without copying
// them on every increment.
type funcMetric struct {
	fn func() float64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register fetches or creates the (name, labels) series. It panics on
// malformed names or on re-registration with a conflicting type — both are
// programming errors.
func (r *Registry) register(name, help, typ string, labels []Label, create func() any) any {
	if !metricNameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelNameRe.MatchString(l.Name) || strings.HasPrefix(l.Name, "__") {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l.Name, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*seriesEntry)}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s", name, typ, f.typ))
	}
	key := labelKey(labels)
	if e, ok := f.series[key]; ok {
		return e.metric
	}
	m := create()
	f.series[key] = &seriesEntry{labels: sortedLabels(labels), metric: m}
	r.gen.Add(1)
	return m
}

// Generation returns a counter that increases whenever a new series is
// registered. Samplers cache a walk of the registry and rebuild it only
// when the generation moves, keeping the steady-state read path
// allocation-free.
func (r *Registry) Generation() uint64 { return r.gen.Load() }

// SeriesView is one registered series as seen by VisitSeries. Exactly one
// of Counter, Gauge, Value, or Histogram is set, matching Type
// ("counter", "gauge", or "histogram" — func-backed series report the
// type they were registered under with Value set).
type SeriesView struct {
	ID        string // name + canonical label rendering, unique per registry
	Name      string
	Type      string
	Labels    []Label
	Counter   *Counter
	Gauge     *Gauge
	Value     func() float64
	Histogram *Histogram
}

// VisitSeries calls visit once per registered series, in name-then-label
// order. The registry lock is NOT held during callbacks, so visit may
// register further metrics; series added mid-walk are picked up on the
// next call.
func (r *Registry) VisitSeries(visit func(SeriesView)) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	views := make([]SeriesView, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			e := f.series[k]
			v := SeriesView{ID: f.name + k, Name: f.name, Type: f.typ, Labels: e.labels}
			switch m := e.metric.(type) {
			case *Counter:
				v.Counter = m
			case *Gauge:
				v.Gauge = m
			case funcMetric:
				v.Value = m.fn
			case *Histogram:
				v.Histogram = m
			}
			views = append(views, v)
		}
	}
	r.mu.Unlock()
	for _, v := range views {
		visit(v)
	}
}

// Counter registers (or fetches) a monotonically increasing counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.register(name, help, "counter", labels, func() any { return &Counter{} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %s%s is not a Counter", name, labelKey(labels)))
	}
	return c
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.register(name, help, "gauge", labels, func() any { return &Gauge{} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %s%s is not a Gauge", name, labelKey(labels)))
	}
	return g
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time. fn must be monotonic and safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	m := r.register(name, help, "counter", labels, func() any { return funcMetric{fn} })
	if _, ok := m.(funcMetric); !ok {
		panic(fmt.Sprintf("obs: metric %s%s is not a CounterFunc", name, labelKey(labels)))
	}
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	m := r.register(name, help, "gauge", labels, func() any { return funcMetric{fn} })
	if _, ok := m.(funcMetric); !ok {
		panic(fmt.Sprintf("obs: metric %s%s is not a GaugeFunc", name, labelKey(labels)))
	}
}

// Histogram registers (or fetches) a histogram with the given bucket upper
// bounds (sorted, strictly increasing; +Inf is implicit). A nil buckets
// slice selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	m := r.register(name, help, "histogram", labels, func() any { return newHistogram(buckets) })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %s%s is not a Histogram", name, labelKey(labels)))
	}
	return h
}

// WritePrometheus renders every registered family in text exposition
// format (version 0.0.4), families sorted by name and series by label set.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		r.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		entries := make([]*seriesEntry, len(keys))
		for i, k := range keys {
			entries[i] = f.series[k]
		}
		r.mu.Unlock()
		for _, e := range entries {
			writeSeries(&b, f.name, e)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

func writeSeries(b *strings.Builder, name string, e *seriesEntry) {
	switch m := e.metric.(type) {
	case *Counter:
		fmt.Fprintf(b, "%s%s %s\n", name, renderLabels(e.labels), formatFloat(float64(m.Value())))
	case *Gauge:
		fmt.Fprintf(b, "%s%s %s\n", name, renderLabels(e.labels), formatFloat(m.Value()))
	case funcMetric:
		fmt.Fprintf(b, "%s%s %s\n", name, renderLabels(e.labels), formatFloat(m.fn()))
	case *Histogram:
		cum := uint64(0)
		for i, upper := range m.upper {
			cum += m.counts[i].Load()
			le := append(append([]Label(nil), e.labels...), Label{"le", formatFloat(upper)})
			fmt.Fprintf(b, "%s_bucket%s %d\n", name, renderLabels(le), cum)
		}
		cum += m.counts[len(m.upper)].Load()
		le := append(append([]Label(nil), e.labels...), Label{"le", "+Inf"})
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, renderLabels(le), cum)
		fmt.Fprintf(b, "%s_sum%s %s\n", name, renderLabels(e.labels), formatFloat(m.Sum()))
		fmt.Fprintf(b, "%s_count%s %d\n", name, renderLabels(e.labels), cum)
	}
}

// Counter is a monotonically increasing integer counter. The zero value is
// ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down. The zero value is
// ready to use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + d
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// sortedLabels copies and sorts labels by name for canonical rendering.
func sortedLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// labelKey is the canonical map key for a label set.
func labelKey(labels []Label) string { return renderLabels(sortedLabels(labels)) }

// renderLabels renders `{a="b",c="d"}`, or "" for no labels.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
func escapeHelp(s string) string  { return helpEscaper.Replace(s) }

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
