package experiments

import (
	"fmt"
	"time"

	"janusaqp/internal/baselines"
	"janusaqp/internal/broker"
	"janusaqp/internal/core"
	"janusaqp/internal/workload"

	janus "janusaqp"
)

// RunFigure7 reproduces Figure 7: the effect of the catch-up goal (1% to
// 10% of the data) on accuracy (left plot: P95 relative error of
// JanusAQP(128, c, 1%) against an RS 1% reference) and on the catch-up
// phase's cost split into data loading (the broker sampler's simulated
// transfer time) and data processing (measured folding time).
func RunFigure7(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	spec := specFor(workload.IntelWireless)
	tuples, err := workload.Generate(spec.name, opts.Rows, 0, opts.Seed)
	if err != nil {
		return nil, err
	}
	truth := newTruth(spec, tuples, len(tuples))
	gen := workload.NewQueryGen(opts.Seed+1, tuples, spec.predDims)
	queries := gen.Workload(opts.Queries, core.FuncSum)

	// RS 1% reference line.
	rsSample := projectSample(tuples, spec, opts.Seed+2, len(tuples)/100)
	rs := baselines.NewRS(maxInt(len(rsSample)/2, 1), opts.Seed+3, rsSample, int64(len(tuples)), spec.aggVal, nil)
	rsRes := evaluate(rs.Answer, queries, truth)

	tbl := &Table{
		Title:  "Figure 7: catch-up goal vs P95 error and catch-up cost, Intel Wireless",
		Header: []string{"catch-up", "Janus P95", "RS P95", "loading", "processing"},
	}
	goals := []float64{0.01, 0.02, 0.04, 0.06, 0.08, 0.10}
	if opts.Quick {
		goals = []float64{0.01, 0.05, 0.10}
	}
	// Populate a broker once to model the sampler's loading cost.
	b := janus.NewBroker()
	for _, tp := range tuples {
		b.PublishInsert(tp)
	}
	cost := broker.DefaultCostModel()
	for _, c := range goals {
		eng, err := seedEngine(spec, tuples, len(tuples), janus.Config{
			LeafNodes: 128, SampleRate: 0.01, CatchUpRate: 0.001, // defer catch-up to measure it
			Seed: opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		// Loading cost: fetching c·N catch-up tuples through the broker.
		want := int(c * float64(len(tuples)))
		rng := newRng(opts.Seed + int64(c*1000))
		var loading float64
		if c >= 0.10 {
			// Section A: sequential samplers win at catch-up rates >= 10%.
			loading = broker.SequentialSample(b.Inserts, want, 10000, rng, cost).SimMillis
		} else {
			loading = broker.SingletonSample(b.Inserts, want, rng, cost).SimMillis
		}
		// Processing cost: folding the samples into node statistics.
		start := time.Now()
		for catchUpProgress(eng, "main") < c {
			if !pump(eng) {
				break
			}
		}
		processing := time.Since(start)
		res := evaluate(engineAnswerer(eng, "main", nil), queries, truth)
		tbl.AddRow(
			fmt.Sprintf("%.0f%%", c*100),
			pct(res.P95RE), pct(rsRes.P95RE),
			fmt.Sprintf("%.0fms(sim)", loading),
			fmt.Sprintf("%.0fms", float64(processing.Milliseconds())),
		)
	}
	tbl.Notes = append(tbl.Notes,
		"shape check: at a 1% catch-up goal Janus roughly matches RS; error falls as the goal grows; loading dominates processing")
	return tbl, nil
}

// pump drives one catch-up batch regardless of the engine's own target.
func pump(eng *janus.Engine) bool {
	return eng.ForceCatchUpBatch("main", 2048)
}
