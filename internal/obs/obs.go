// Package obs is a minimal metrics registry for the fleet control plane:
// counters, gauges, callback gauges and count/sum summaries (per-stage
// durations) with optional label pairs, rendered in the Prometheus text
// exposition format. It is stdlib-only and
// deliberately small — the fleet needs a handful of counters (windows
// processed, anomalies, shed windows, broker drops, registry cache
// hits/misses) and queue-depth gauges, not a client library.
//
// Output is deterministic: families are rendered in name order and series
// within a family in label order, so scrapes diff cleanly and tests can
// assert on exact lines.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a series.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (negative deltas are ignored — counters
// only go up).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Summary is a count+sum pair — enough to derive rates and mean durations
// from scrapes (the fleet's per-stage wall-clock metrics). It renders as a
// Prometheus summary with no quantiles: <name>_count and <name>_sum.
type Summary struct {
	mu    sync.Mutex
	count int64
	sum   float64
}

// Observe records one value (e.g. a stage duration in seconds).
func (s *Summary) Observe(v float64) {
	s.mu.Lock()
	s.count++
	s.sum += v
	s.mu.Unlock()
}

// Value returns the current observation count and sum.
func (s *Summary) Value() (count int64, sum float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count, s.sum
}

// series is one labelled time series inside a family.
type series struct {
	read    func() float64
	isInt   bool     // render as an integer (counters)
	summary *Summary // non-nil for summary families (renders two lines)
}

// family is one metric name with its type and series.
type family struct {
	name     string
	help     string
	typ      string // "counter" | "gauge"
	mu       sync.Mutex
	byLabel  map[string]*series
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// Registry holds metric families and renders them for scraping.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels builds the deterministic label block of a series.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// getFamily returns the family, creating it with the given type on first
// use. Re-registering a name with a different type panics — that is a
// programming error, not a runtime condition.
func (r *Registry) getFamily(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, typ: typ,
			byLabel:  make(map[string]*series),
			counters: make(map[string]*Counter),
			gauges:   make(map[string]*Gauge),
		}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as both %s and %s", name, f.typ, typ))
	}
	return f
}

// Counter returns the counter for name+labels, creating it on first use;
// repeated registrations return the same counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.getFamily(name, help, "counter")
	lb := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.counters[lb]; ok {
		return c
	}
	c := &Counter{}
	f.counters[lb] = c
	f.byLabel[lb] = &series{read: func() float64 { return float64(c.Value()) }, isInt: true}
	return c
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.getFamily(name, help, "gauge")
	lb := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if g, ok := f.gauges[lb]; ok {
		return g
	}
	g := &Gauge{}
	f.gauges[lb] = g
	f.byLabel[lb] = &series{read: g.Value}
	return g
}

// Summary returns the summary for name+labels, creating it on first use;
// repeated registrations return the same summary.
func (r *Registry) Summary(name, help string, labels ...Label) *Summary {
	f := r.getFamily(name, help, "summary")
	lb := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byLabel[lb]; ok && s.summary != nil {
		return s.summary
	}
	s := &Summary{}
	f.byLabel[lb] = &series{summary: s}
	return s
}

// CounterFunc registers a callback counter for cumulative values that
// already live elsewhere (a broker's drop count, a cache's hit count):
// fn is invoked at scrape time and must be monotonically non-decreasing.
// Re-registering the same name+labels replaces the callback.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.getFamily(name, help, "counter")
	lb := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.counters, lb)
	f.byLabel[lb] = &series{read: fn, isInt: true}
}

// GaugeFunc registers a callback gauge: fn is invoked at scrape time.
// Re-registering the same name+labels replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.getFamily(name, help, "gauge")
	lb := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.gauges, lb)
	f.byLabel[lb] = &series{read: fn}
}

// WritePrometheus renders every family in the text exposition format,
// deterministically ordered.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.mu.Lock()
		lbs := make([]string, 0, len(f.byLabel))
		for lb := range f.byLabel {
			lbs = append(lbs, lb)
		}
		sort.Strings(lbs)
		lines := make([]string, 0, len(lbs))
		for _, lb := range lbs {
			s := f.byLabel[lb]
			if s.summary != nil {
				count, sum := s.summary.Value()
				lines = append(lines,
					f.name+"_sum"+lb+" "+strconv.FormatFloat(sum, 'g', -1, 64),
					f.name+"_count"+lb+" "+strconv.FormatInt(count, 10))
				continue
			}
			v := s.read()
			var val string
			if s.isInt {
				val = strconv.FormatInt(int64(v), 10)
			} else {
				val = strconv.FormatFloat(v, 'g', -1, 64)
			}
			lines = append(lines, f.name+lb+" "+val)
		}
		f.mu.Unlock()

		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, line := range lines {
			if _, err := io.WriteString(w, line+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}
