package experiments

import (
	"fmt"
	"time"

	"janusaqp/internal/baselines"
	"janusaqp/internal/core"
	"janusaqp/internal/workload"
)

// RunFigure7 reproduces Figure 7: the effect of the catch-up goal (1% to
// 10% of the data) on accuracy (left plot: P95 relative error of
// JanusAQP(128, c, 1%) against an RS 1% reference) and on the catch-up
// phase's data processing cost (measured folding time). The paper's other
// cost, data loading from Kafka, is not measured: the broker here is in
// process. The last column is the catch-up progress the synopsis actually
// reached.
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
	rs := baselines.NewSRS(1, rsSample, int64(len(tuples)), spec.aggVal)
	rsRes := evaluate(rs.Answer, queries, truth)

	tbl := &Table{
		Title:  "Figure 7: catch-up goal vs P95 error and catch-up cost, Intel Wireless",
		Header: []string{"catch-up", "Janus P95", "RS P95", "processing", "reached"},
	}
	goals := []float64{0.01, 0.02, 0.04, 0.06, 0.08, 0.10}
	if opts.Quick {
		goals = []float64{0.01, 0.05, 0.10}
	}
	// JanusAQP(128, c, 1%): the engine's default pooled sample of 2m rows.
	m := max(len(tuples)/100, 256)
	pooled := projectSample(tuples, spec, opts.Seed+4, 2*m)
	for _, c := range goals {
		// Processing cost: folding samples into the node statistics of a
		// fresh synopsis until it reaches the goal. One seed gives every
		// goal the same partitioning and snapshot order.
		dpt := newSynopsis(nil, 128, pooled, tuples, spec, opts.Seed)
		start := time.Now()
		dpt.CatchUpTarget(c)
		processing := time.Since(start)
		res := evaluate(dpt.Answer, queries, truth)
		tbl.AddRow(
			fmt.Sprintf("%.0f%%", c*100),
			pct(res.P95RE), pct(rsRes.P95RE),
			fmt.Sprintf("%.0fms", float64(processing.Milliseconds())),
			pct(dpt.CatchUpProgress()),
		)
	}
	tbl.Notes = append(tbl.Notes,
		"shape check: at a 1% catch-up goal Janus roughly matches RS; error falls as the goal grows. The paper's loading cost (Kafka transfer) is not measured here: the broker is in process")
	return tbl, nil
}
