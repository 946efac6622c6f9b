// Package metrics is a small, dependency-free instrumentation library for
// the janusd serving subsystem: monotonic counters and cumulative latency
// histograms, exposed in the Prometheus text format so any standard
// scraper can consume GET /metrics.
//
// All types are safe for concurrent use; the hot-path operations (Counter.Inc,
// Histogram.Observe) are lock-free atomics so instrumentation never
// serializes the sharded engine read path it measures.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// DefBuckets are the default latency buckets in seconds, spanning 100µs to
// ~10s — wide enough for both sub-millisecond synopsis queries and full
// re-initializations.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a cumulative histogram over fixed upper bounds, mirroring
// the Prometheus histogram type (per-bucket counts plus a running sum).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // one per bound, plus +Inf at the end
	sum    atomicFloat
}

// NewHistogram returns a histogram over the given upper bounds (ascending,
// in seconds). Nil bounds select DefBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	bounds = append([]float64(nil), bounds...)
	sort.Float64s(bounds)
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.add(v)
}

// ObserveSince records the elapsed time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// atomicFloat is a float64 accumulated with CAS on its bit pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		cur := math.Float64frombits(old)
		if f.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// HistogramVec is a family of histograms partitioned by one label. Series
// lookup is a sync.Map load — lock-free once a series exists — so With
// is safe on the query hot path.
type HistogramVec struct {
	label  string
	series sync.Map // label value -> *Histogram
}

// With returns the histogram for the given label value, creating the
// series (with DefBuckets) on first use.
func (v *HistogramVec) With(value string) *Histogram {
	if h, ok := v.series.Load(value); ok {
		return h.(*Histogram)
	}
	h, _ := v.series.LoadOrStore(value, NewHistogram(nil))
	return h.(*Histogram)
}

// escapeLabel escapes a label value per the Prometheus text format:
// backslash, double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Registry names and exposes a set of metrics.
type Registry struct {
	mu            sync.Mutex
	counters      map[string]*Counter
	gaugeFuncs    map[string]func() float64
	histograms    map[string]*Histogram
	histogramVecs map[string]*HistogramVec
	help          map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:      make(map[string]*Counter),
		gaugeFuncs:    make(map[string]func() float64),
		histograms:    make(map[string]*Histogram),
		histogramVecs: make(map[string]*HistogramVec),
		help:          make(map[string]string),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	r.help[name] = help
	return c
}

// Histogram returns the named histogram, creating it with DefBuckets on
// first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h := NewHistogram(nil)
	r.histograms[name] = h
	r.help[name] = help
	return h
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — for values the owner already maintains (archive rows, heap
// bytes), so the registry keeps no gauge state of its own. fn
// must be safe for concurrent calls. Re-registering a name replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
	r.help[name] = help
}

// HistogramVec returns the named histogram family with the given label
// name, creating it on first use.
func (r *Registry) HistogramVec(name, label, help string) *HistogramVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.histogramVecs[name]; ok {
		return v
	}
	v := &HistogramVec{label: label}
	r.histogramVecs[name] = v
	r.help[name] = help
	return v
}

// sortedValues returns the family's label values, sorted for stable
// exposition output.
func (v *HistogramVec) sortedValues() []string {
	var out []string
	v.series.Range(func(k, _ any) bool {
		out = append(out, k.(string))
		return true
	})
	sort.Strings(out)
	return out
}

// writeHistogramBody renders one histogram's bucket/sum/count lines.
// labels is the pre-rendered label block ("" or `{kind="sql"}`); bucket
// lines merge the le label into any existing block.
func writeHistogramBody(b *strings.Builder, name, labels string, h *Histogram) {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLe(labels, bound, false), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLe(labels, 0, true), cum)
	fmt.Fprintf(b, "%s_sum%s %g\n", name, labels, h.Sum())
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, cum)
}

// mergeLe builds the label block for a bucket line, folding le into an
// existing label set when present.
func mergeLe(labels string, bound float64, inf bool) string {
	le := fmt.Sprintf("%g", bound)
	if inf {
		le = "+Inf"
	}
	if labels == "" {
		return fmt.Sprintf("{le=%q}", le)
	}
	// labels is `{k="v"}` — splice le before the closing brace.
	return fmt.Sprintf("%s,le=%q}", labels[:len(labels)-1], le)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), sorted by name (and by label value
// within a family) for stable output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Snapshot the name tables under one lock; the metric values
	// themselves are read lock-free during rendering.
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gaugeFuncs := make(map[string]func() float64, len(r.gaugeFuncs))
	for n, f := range r.gaugeFuncs {
		gaugeFuncs[n] = f
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for n, h := range r.histograms {
		histograms[n] = h
	}
	histogramVecs := make(map[string]*HistogramVec, len(r.histogramVecs))
	for n, v := range r.histogramVecs {
		histogramVecs[n] = v
	}
	help := make(map[string]string, len(r.help))
	for n, h := range r.help {
		help[n] = h
	}
	r.mu.Unlock()

	var b strings.Builder
	header := func(name, typ string) {
		if h := help[name]; h != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, h)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
	}

	cnames := make([]string, 0, len(counters))
	for n := range counters {
		cnames = append(cnames, n)
	}
	sort.Strings(cnames)
	for _, n := range cnames {
		header(n, "counter")
		fmt.Fprintf(&b, "%s %d\n", n, counters[n].Value())
	}

	gnames := make([]string, 0, len(gaugeFuncs))
	for n := range gaugeFuncs {
		gnames = append(gnames, n)
	}
	sort.Strings(gnames)
	for _, n := range gnames {
		header(n, "gauge")
		fmt.Fprintf(&b, "%s %g\n", n, gaugeFuncs[n]())
	}

	hnames := make([]string, 0, len(histograms)+len(histogramVecs))
	for n := range histograms {
		hnames = append(hnames, n)
	}
	for n := range histogramVecs {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		header(n, "histogram")
		if h, ok := histograms[n]; ok {
			writeHistogramBody(&b, n, "", h)
			continue
		}
		v := histogramVecs[n]
		for _, value := range v.sortedValues() {
			labels := fmt.Sprintf("{%s=%q}", v.label, escapeLabel(value))
			writeHistogramBody(&b, n, labels, v.With(value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
