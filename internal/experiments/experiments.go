// Package experiments reproduces every table and figure of the JanusAQP
// evaluation (Section 6). Each Run* function regenerates one artifact and
// returns it as a printable Table; cmd/janusbench exposes them on the
// command line and bench_test.go wraps them as Go benchmarks.
//
// Absolute numbers differ from the paper (different hardware, synthetic
// data analogues, scaled row counts), but each runner preserves the shape
// the paper reports: which system wins, by roughly what factor, and where
// the crossovers fall. Each Table ends with a "shape check" note that states
// the paper's claim, or says that a quantity is not measured here; the
// shape tests in experiments_test.go assert looser variants of some notes.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"janusaqp/internal/core"
	"janusaqp/internal/data"
	"janusaqp/internal/stats"
	"janusaqp/internal/workload"

	janus "janusaqp"
)

// Options scales an experiment run.
type Options struct {
	// Rows is the full dataset size (default 120000; the paper uses 3-8M).
	Rows int
	// Queries is the evaluation workload size (default 400; paper: 2000).
	Queries int
	// Seed drives all data generation and sampling.
	Seed int64
	// Quick shrinks everything for unit tests and CI.
	Quick bool
}

func (o Options) withDefaults() Options {
	if o.Rows <= 0 {
		o.Rows = 120000
	}
	if o.Queries <= 0 {
		o.Queries = 400
	}
	if o.Quick {
		if o.Rows > 24000 {
			o.Rows = 24000
		}
		if o.Queries > 120 {
			o.Queries = 120
		}
	}
	return o
}

// Table is a printable experiment artifact.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes carry the reproduction commentary (shape checks, caveats).
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	line(underline(widths))
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	for len(s) < w {
		s += " "
	}
	return s
}

func underline(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// dsSpec describes how an experiment uses a dataset: which key attribute
// filters and which value attribute aggregates (Section 6.2's per-dataset
// choices).
type dsSpec struct {
	name     string
	keyDims  int   // dimensionality of the generated Key
	predDims []int // predicate projection for the 1-D experiments
	aggVal   int   // aggregation attribute index into Vals
}

var specs = []dsSpec{
	{name: workload.IntelWireless, keyDims: 1, predDims: []int{0}, aggVal: 0}, // time -> light
	{name: workload.NYCTaxi, keyDims: 3, predDims: []int{0}, aggVal: 0},       // pickupTime -> tripDistance
	{name: workload.ETFPrices, keyDims: 6, predDims: []int{5}, aggVal: 1},     // volume -> close
}

func specFor(name string) dsSpec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	panic("experiments: unknown dataset " + name)
}

// answerer is anything that can answer a query: the Janus engine or any
// baseline.
type answerer func(core.Query) (core.Result, error)

// engineAnswerer adapts one engine template to an answerer; a non-nil
// onKeys answers over those original key attributes (Section 5.5).
func engineAnswerer(eng *janus.Engine, template string, onKeys []int) answerer {
	return func(q core.Query) (core.Result, error) {
		resp, err := eng.Do(context.Background(), janus.Request{Template: template, Query: q, OnKeys: onKeys})
		return resp.Result, err
	}
}

// mustInsert streams one tuple: the per-update maintenance cost is what the
// experiments time, so they do not batch. The harness generates its own
// rows with fresh ids, so a rejection is a harness bug.
func mustInsert(eng *janus.Engine, tp data.Tuple) {
	if err := eng.InsertBatch([]data.Tuple{tp}); err != nil {
		panic(err)
	}
}

// mustDelete removes one row the harness knows to be live.
func mustDelete(eng *janus.Engine, id int64) {
	if _, err := eng.DeleteBatch([]int64{id}); err != nil {
		panic(err)
	}
}

// evalResult summarizes a workload evaluation.
type evalResult struct {
	MedianRE  float64 // median relative error
	P95RE     float64 // 95th percentile relative error
	AvgMillis float64 // average per-query latency in ms
	Scored    int     // queries with non-zero ground truth
}

// evaluate runs the workload against the system, scoring relative error
// against the exact truth engine.
func evaluate(ans answerer, queries []core.Query, truth *workload.Truth) evalResult {
	var errs []float64
	var elapsed time.Duration
	for _, q := range queries {
		start := time.Now()
		res, err := ans(q)
		elapsed += time.Since(start)
		if err != nil {
			continue
		}
		want := truth.Answer(q)
		if want == 0 {
			continue
		}
		errs = append(errs, stats.RelativeError(res.Estimate, want))
	}
	if len(errs) == 0 {
		return evalResult{}
	}
	return evalResult{
		MedianRE:  stats.Median(errs),
		P95RE:     stats.Percentile(errs, 0.95),
		AvgMillis: elapsed.Seconds() * 1000 / float64(len(queries)),
		Scored:    len(errs),
	}
}

// seedEngine builds a broker pre-loaded with the first `initial` tuples and
// an engine with one template over the spec's 1-D projection.
func seedEngine(spec dsSpec, tuples []data.Tuple, initial int, cfg janus.Config) (*janus.Engine, error) {
	b := janus.NewBroker()
	for _, tp := range tuples[:initial] {
		b.PublishInsert(tp)
	}
	eng := janus.NewEngine(cfg, b)
	err := eng.AddTemplate(janus.Template{
		Name:          "main",
		PredicateDims: spec.predDims,
		AggIndex:      spec.aggVal,
		Agg:           janus.Sum,
	})
	return eng, err
}

// newTruth builds a ground-truth engine for the spec's projection, loaded
// with the first `upto` tuples.
func newTruth(spec dsSpec, tuples []data.Tuple, upto int) *workload.Truth {
	tr := workload.NewTruth(spec.keyDims, spec.predDims, spec.aggVal)
	for _, tp := range tuples[:upto] {
		tr.Insert(tp)
	}
	return tr
}

func pct(v float64) string        { return fmt.Sprintf("%.2f%%", v*100) }
func ms(v float64) string         { return fmt.Sprintf("%.3fms", v) }
func secs(d time.Duration) string { return fmt.Sprintf("%.3fs", d.Seconds()) }

// workloadTuple aliases the shared tuple type for harness-local helpers.
type workloadTuple = data.Tuple

// newRng builds a deterministic random source for harness sampling.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
