package experiments

import (
	"fmt"
	"time"

	"janusaqp/internal/baselines"
	"janusaqp/internal/core"
	"janusaqp/internal/workload"

	janus "janusaqp"
)

// RunFigure9 reproduces Figure 9: 5-dimensional query templates on the
// NASDAQ ETF dataset — volume aggregated under predicates over date and the
// four price attributes — comparing JanusAQP(256, 10%, 1%) with the learned
// baseline on median relative error and re-optimization cost as progress
// grows from 30% to 90%.
func RunFigure9(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	tuples, err := workload.Generate(workload.ETFPrices, opts.Rows, 0, opts.Seed)
	if err != nil {
		return nil, err
	}
	predDims := []int{0, 1, 2, 3, 4} // date, open, high, low, close
	const aggVal = 0                 // volume
	gen := workload.NewQueryGen(opts.Seed+1, tuples, predDims)
	gen.MinFrac, gen.MaxFrac = 0.3, 0.9 // 5-D queries need volume to hit
	queries := gen.Workload(opts.Queries*3, core.FuncSum)

	tbl := &Table{
		Title:  "Figure 9: 5-D templates on ETF — median error and re-optimization cost",
		Header: []string{"progress", "Janus", "Learned", "Janus re-opt", "Learned re-train", "scored"},
	}
	progress := []float64{0.3, 0.5, 0.7, 0.9}
	if opts.Quick {
		progress = []float64{0.3, 0.9}
	}
	leaves := 256
	if opts.Quick {
		leaves = 64
	}
	for _, p := range progress {
		upto := int(p * float64(len(tuples)))
		truth := workload.NewTruth(6, predDims, aggVal)
		for _, tp := range tuples[:upto] {
			truth.Insert(tp)
		}
		b := janus.NewBroker()
		for _, tp := range tuples[:upto] {
			b.PublishInsert(tp)
		}
		eng := janus.NewEngine(janus.Config{
			LeafNodes: leaves, SampleRate: 0.01, CatchUpRate: 0.10, Seed: opts.Seed,
		}, b)
		if err := eng.AddTemplate(janus.Template{
			Name: "fiveD", PredicateDims: predDims, AggIndex: aggVal, Agg: janus.Sum,
		}); err != nil {
			return nil, err
		}
		reopt, err := eng.Reinitialize("fiveD")
		if err != nil {
			return nil, err
		}
		jres := evaluate(engineAnswerer(eng, "fiveD", nil), queries, truth)

		learned := baselines.NewLearned(5, aggVal)
		train := projectSample(tuples[:upto], dsSpec{name: workload.ETFPrices, keyDims: 6, predDims: predDims, aggVal: aggVal}, opts.Seed+2, upto/10)
		trainStart := time.Now()
		learned.Train(train, int64(upto))
		trainCost := time.Since(trainStart)
		lres := evaluate(learned.Answer, queries, truth)

		tbl.AddRow(
			fmt.Sprintf("%.1f", p),
			pct(jres.MedianRE), pct(lres.MedianRE),
			secs(reopt), secs(trainCost),
			fmt.Sprintf("%d", jres.Scored),
		)
	}
	tbl.Notes = append(tbl.Notes,
		"shape check: Janus beats the learned model on error; both errors exceed the 1-D setting (multi-dimensional queries are more selective); Janus re-opt cost stays below learned re-training but above the 1-D case")
	return tbl, nil
}
