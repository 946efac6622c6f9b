package experiments

import (
	"fmt"

	"janusaqp/internal/core"
	"janusaqp/internal/workload"

	janus "janusaqp"
)

// RunFigure10 reproduces Figure 10: re-partitioning versus a static DPT in
// the two scenarios that unbalance a partition tree (Section 6.8).
//
// Left: insertions skewed by arrival order — the taxi stream arrives
// sorted by pickup time, so every new batch lands in the rightmost leaves.
// JanusAQP re-partitions after every 10% increment; the DPT baseline never
// does.
//
// Right: node-targeted deletions on the (uniform) time-of-day attribute —
// half the samples of a tenth of the leaves are deleted, then more data
// arrives; JanusAQP's triggers fire while the DPT baseline keeps its tree.
func RunFigure10(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	spec := specFor(workload.NYCTaxi)
	tuples, err := workload.Generate(spec.name, opts.Rows, 0, opts.Seed)
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		Title:  "Figure 10: P95 relative error — static DPT vs JanusAQP under skew",
		Header: []string{"progress", "DPT(skewed ins)", "Janus(skewed ins)", "DPT(deletes)", "Janus(deletes)"},
	}
	progress := []float64{0.3, 0.5, 0.7, 0.9}
	if opts.Quick {
		progress = []float64{0.5, 0.9}
	}

	// --- Left: skewed insertions (stream is pickup-time sorted). ---------
	tenth := len(tuples) / 10
	mk := func(seedOffset int64) (*janus.Engine, error) {
		return seedEngine(spec, tuples, tenth, janus.Config{
			LeafNodes: 128, SampleRate: 0.01, CatchUpRate: 0.10, Seed: opts.Seed + seedOffset,
		})
	}
	dptEng, err := mk(0) // never re-partitioned
	if err != nil {
		return nil, err
	}
	janusEng, err := mk(1) // re-partitioned every 10%
	if err != nil {
		return nil, err
	}
	// Queries span the full final domain so they probe the skewed region.
	gen := workload.NewQueryGen(opts.Seed+1, tuples, spec.predDims)
	queries := gen.Workload(opts.Queries, core.FuncSum)

	// --- Right: node-targeted deletions on time-of-day. ------------------
	const todDim = 2
	half := len(tuples) / 2
	mkTod := func(auto bool, seedOffset int64) (*janus.Engine, error) {
		b := janus.NewBroker()
		for _, tp := range tuples[:half] {
			b.PublishInsert(tp)
		}
		eng := janus.NewEngine(janus.Config{
			LeafNodes: 128, SampleRate: 0.01, CatchUpRate: 0.10,
			Beta: 3, AutoRepartition: auto, Seed: opts.Seed + seedOffset,
		}, b)
		err := eng.AddTemplate(janus.Template{
			Name: "main", PredicateDims: []int{todDim}, AggIndex: spec.aggVal, Agg: janus.Sum,
		})
		return eng, err
	}
	dptTod, err := mkTod(false, 10)
	if err != nil {
		return nil, err
	}
	janusTod, err := mkTod(true, 11)
	if err != nil {
		return nil, err
	}
	// Delete all tuples in a tenth of the time-of-day domain (hitting ~10%
	// of the leaves hard), from the first half of the data.
	rng := newRng(opts.Seed + 12)
	const day = 86400.0
	window := [2]float64{rng.Float64() * day * 0.9, 0}
	window[1] = window[0] + day*0.1
	deletedTod := map[int64]bool{}
	for _, tp := range tuples[:half] {
		tod := tp.Key[todDim]
		if tod >= window[0] && tod <= window[1] && rng.Float64() < 0.8 {
			mustDelete(dptTod, tp.ID)
			mustDelete(janusTod, tp.ID)
			deletedTod[tp.ID] = true
		}
	}
	genTod := workload.NewQueryGen(opts.Seed+13, tuples, []int{todDim})
	todQueries := genTod.Workload(opts.Queries, core.FuncSum)

	inserted := tenth
	insertedTod := half
	for _, p := range progress {
		upto := int(p * float64(len(tuples)))
		// Advance the skewed-insert scenario.
		for ; inserted < upto; inserted++ {
			mustInsert(dptEng, tuples[inserted])
			mustInsert(janusEng, tuples[inserted])
		}
		if _, err := janusEng.Reinitialize("main"); err != nil {
			return nil, err
		}
		truth := newTruth(spec, tuples, upto)
		dptRes := evaluate(engineAnswerer(dptEng, "main", nil), queries, truth)
		janusRes := evaluate(engineAnswerer(janusEng, "main", nil), queries, truth)

		// Advance the deletion scenario with fresh arrivals.
		for ; insertedTod < upto; insertedTod++ {
			mustInsert(dptTod, tuples[insertedTod])
			mustInsert(janusTod, tuples[insertedTod])
		}
		truthTod := workload.NewTruth(spec.keyDims, []int{todDim}, spec.aggVal)
		for _, tp := range tuples[:upto] {
			if !deletedTod[tp.ID] {
				truthTod.Insert(tp)
			}
		}
		dptTodRes := evaluate(engineAnswerer(dptTod, "main", nil), todQueries, truthTod)
		janusTodRes := evaluate(engineAnswerer(janusTod, "main", nil), todQueries, truthTod)

		tbl.AddRow(
			fmt.Sprintf("%.1f", p),
			pct(dptRes.P95RE), pct(janusRes.P95RE),
			pct(dptTodRes.P95RE), pct(janusTodRes.P95RE),
		)
	}
	tbl.Notes = append(tbl.Notes,
		"shape check: static DPT error climbs as skewed insertions unbalance the tree while JanusAQP stays flat; under node-targeted deletions JanusAQP's triggers restore accuracy")
	return tbl, nil
}
