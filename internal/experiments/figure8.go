package experiments

import (
	"fmt"

	"janusaqp/internal/core"
	"janusaqp/internal/workload"

	janus "janusaqp"
)

// RunFigure8 reproduces Figure 8: robustness of a single JanusAQP synopsis
// to query templates it was not built for (the heuristic multi-template
// mode of Section 5.5), on the NYC Taxi dataset:
//
//   - left: the predicate attribute changes. PickupOverPickup queries the
//     synopsis on its own attribute; DropoffOverPickup answers
//     dropoff-predicate queries by uniform estimation over the pooled
//     sample (heuristic ii); DropoffOverDropoff re-partitions on the new
//     attribute.
//   - middle: the aggregation attribute changes (tripDistance vs fare).
//   - right: the aggregation function changes (SUM / COUNT / AVG).
func RunFigure8(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	spec := specFor(workload.NYCTaxi)
	tuples, err := workload.Generate(spec.name, opts.Rows, 0, opts.Seed)
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		Title:  "Figure 8: dynamic query templates, NYC Taxi (P95 relative error)",
		Header: []string{"progress", "Pick/Pick", "Drop/Pick", "Drop/Drop", "aggAttr same", "aggAttr diff", "SUM", "CNT", "AVG"},
	}
	progress := []float64{0.3, 0.5, 0.7, 0.9}
	if opts.Quick {
		progress = []float64{0.5, 0.9}
	}
	const (
		pickupDim  = 0
		dropoffDim = 1
	)
	genPick := workload.NewQueryGen(opts.Seed+1, tuples, []int{pickupDim})
	genDrop := workload.NewQueryGen(opts.Seed+2, tuples, []int{dropoffDim})
	pickQs := genPick.Workload(opts.Queries, core.FuncSum)
	dropQs := genDrop.Workload(opts.Queries, core.FuncSum)

	for _, p := range progress {
		upto := int(p * float64(len(tuples)))
		// Synopsis on pickupTime.
		engPick, err := seedEngine(spec, tuples, upto, janus.Config{
			LeafNodes: 128, SampleRate: 0.01, CatchUpRate: 0.10, Seed: opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		// Synopsis re-partitioned on dropoffTime.
		bDrop := janus.NewBroker()
		for _, tp := range tuples[:upto] {
			bDrop.PublishInsert(tp)
		}
		engDrop := janus.NewEngine(janus.Config{
			LeafNodes: 128, SampleRate: 0.01, CatchUpRate: 0.10, Seed: opts.Seed,
		}, bDrop)
		if err := engDrop.AddTemplate(janus.Template{
			Name: "main", PredicateDims: []int{dropoffDim}, AggIndex: spec.aggVal, Agg: janus.Sum,
		}); err != nil {
			return nil, err
		}

		truthPick := newTruth(spec, tuples, upto)
		truthDrop := workload.NewTruth(spec.keyDims, []int{dropoffDim}, spec.aggVal)
		truthFare := workload.NewTruth(spec.keyDims, []int{pickupDim}, 1)
		for _, tp := range tuples[:upto] {
			truthDrop.Insert(tp)
			truthFare.Insert(tp)
		}

		pickOverPick := evaluate(engineAnswerer(engPick, "main", nil), pickQs, truthPick)
		dropOverPick := evaluate(engineAnswerer(engPick, "main", []int{dropoffDim}), dropQs, truthDrop)
		dropOverDrop := evaluate(engineAnswerer(engDrop, "main", nil), dropQs, truthDrop)

		// Middle plot: aggregation attribute same (tripDistance) vs
		// different (fare, Vals[1]) on the pickup synopsis.
		fareQs := make([]core.Query, len(pickQs))
		for i, q := range pickQs {
			q.AggIndex = 1
			fareQs[i] = q
		}
		aggSame := pickOverPick
		aggDiff := evaluate(engineAnswerer(engPick, "main", nil), fareQs, truthFare)

		// Right plot: aggregate functions on the same synopsis.
		cntQs := genPick.Workload(opts.Queries/2, core.FuncCount)
		avgQs := genPick.Workload(opts.Queries/2, core.FuncAvg)
		cntRes := evaluate(engineAnswerer(engPick, "main", nil), cntQs, truthPick)
		avgRes := evaluate(engineAnswerer(engPick, "main", nil), avgQs, truthPick)

		tbl.AddRow(
			fmt.Sprintf("%.1f", p),
			pct(pickOverPick.P95RE), pct(dropOverPick.P95RE), pct(dropOverDrop.P95RE),
			pct(aggSame.P95RE), pct(aggDiff.P95RE),
			pct(pickOverPick.P95RE), pct(cntRes.P95RE), pct(avgRes.P95RE),
		)
	}
	tbl.Notes = append(tbl.Notes,
		"shape check: Drop/Pick (wrong predicate attribute) has the highest error of the left plot; re-partitioning on the new attribute (Drop/Drop) restores accuracy; aggregation attribute/function changes barely matter")
	return tbl, nil
}
