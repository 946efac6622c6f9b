package experiments

import (
	"fmt"

	"janusaqp/internal/core"
	"janusaqp/internal/workload"

	janus "janusaqp"
)

// RunFigure6 reproduces Figure 6: median relative error while varying the
// deletion percentage from 1% to 9% over the three datasets. The system is
// built on the first 50% of each dataset; the last p% of that half is
// deleted; the workload is evaluated against ground truth reflecting the
// deletions.
func RunFigure6(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	tbl := &Table{
		Title:  "Figure 6: median relative error vs deletion percentage (1-9%)",
		Header: []string{"dataset", "1%", "3%", "5%", "7%", "9%"},
	}
	dels := []float64{0.01, 0.03, 0.05, 0.07, 0.09}
	for _, spec := range specs {
		tuples, err := workload.Generate(spec.name, opts.Rows, 0, opts.Seed)
		if err != nil {
			return nil, err
		}
		half := len(tuples) / 2
		eng, err := seedEngine(spec, tuples, half, janus.Config{
			LeafNodes: 128, SampleRate: 0.01, CatchUpRate: 0.10, Seed: opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		truth := newTruth(spec, tuples, half)
		gen := workload.NewQueryGen(opts.Seed+1, tuples[:half], spec.predDims)
		queries := gen.Workload(opts.Queries, core.FuncSum)
		row := []string{spec.name}
		deleted := 0
		for _, p := range dels {
			// Deletions are cumulative: extend the deleted suffix to p% of
			// the first half.
			target := int(p * float64(half))
			for deleted < target {
				id := tuples[half-1-deleted].ID
				mustDelete(eng, id)
				truth.Delete(id)
				deleted++
			}
			res := evaluate(engineAnswerer(eng, "main", nil), queries, truth)
			row = append(row, fmt.Sprintf("%.2f%%", res.MedianRE*100))
		}
		tbl.AddRow(row...)
	}
	tbl.Notes = append(tbl.Notes,
		"shape check: error stays roughly flat across deletion percentages (deletions here are spread over the predicate domain, matching Section 6.4)")
	return tbl, nil
}
