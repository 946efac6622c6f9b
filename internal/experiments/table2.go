package experiments

import (
	"fmt"

	"janusaqp/internal/baselines"
	"janusaqp/internal/core"
	"janusaqp/internal/workload"

	janus "janusaqp"
)

// RunTable2 reproduces Table 2: median relative error and average query
// latency of SUM workloads over the three datasets at 20%, 50%, and 90%
// progress, for JanusAQP, the learned baseline (DeepDB substitute), RS,
// and SRS.
//
// Protocol (Section 6.2): systems initialize on the first 10% of the data;
// the rest streams in; at each reported progress point JanusAQP is
// re-initialized and the learned model re-trained, then the 2000-query
// workload is evaluated against exact ground truth.
func RunTable2(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	tbl := &Table{
		Title:  "Table 2: median relative error (%) and avg query latency (ms/query), SUM workload",
		Header: []string{"dataset", "progress", "JanusAQP", "Learned", "RS", "SRS", "Janus ms", "Learned ms", "RS ms", "SRS ms"},
	}
	progress := []float64{0.2, 0.5, 0.9}
	for _, spec := range specs {
		tuples, err := workload.Generate(spec.name, opts.Rows, 0, opts.Seed)
		if err != nil {
			return nil, err
		}
		gen := workload.NewQueryGen(opts.Seed+1, tuples, spec.predDims)
		queries := gen.Workload(opts.Queries, core.FuncSum)
		for _, p := range progress {
			upto := int(p * float64(len(tuples)))
			truth := newTruth(spec, tuples, upto)

			res := map[string]evalResult{}

			// JanusAQP: initialize on 10%, stream to the progress point,
			// re-initialize (the paper's per-increment re-init), evaluate.
			eng, err := seedEngine(spec, tuples, len(tuples)/10, janus.Config{
				LeafNodes: 128, SampleRate: 0.01, CatchUpRate: 0.10, Seed: opts.Seed,
			})
			if err != nil {
				return nil, err
			}
			for _, tp := range tuples[len(tuples)/10 : upto] {
				mustInsert(eng, tp)
			}
			if _, err := eng.Reinitialize("main"); err != nil {
				return nil, err
			}
			res["janus"] = evaluate(engineAnswerer(eng, "main", nil), queries, truth)

			// Learned: re-train on a fresh 10% sample of the current data.
			learned := baselines.NewLearned(1, spec.aggVal)
			train := projectSample(tuples[:upto], spec, opts.Seed+2, upto/10)
			learned.Train(train, int64(upto))
			res["learned"] = evaluate(learned.Answer, queries, truth)

			// RS: 1% uniform sample of the current data.
			rsSample := projectSample(tuples[:upto], spec, opts.Seed+3, upto/100)
			rs := baselines.NewRS(maxInt(len(rsSample)/2, 1), opts.Seed+4, rsSample, int64(upto), spec.aggVal, nil)
			res["rs"] = evaluate(rs.Answer, queries, truth)

			// SRS: same budget, equal-depth strata.
			srs := baselines.NewSRS(16, maxInt(len(rsSample)/32, 1), opts.Seed+5, rsSample, int64(upto), spec.aggVal)
			res["srs"] = evaluate(srs.Answer, queries, truth)

			tbl.AddRow(
				spec.name, fmt.Sprintf("%.0f%%", p*100),
				pct(res["janus"].MedianRE), pct(res["learned"].MedianRE),
				pct(res["rs"].MedianRE), pct(res["srs"].MedianRE),
				ms(res["janus"].AvgMillis), ms(res["learned"].AvgMillis),
				ms(res["rs"].AvgMillis), ms(res["srs"].AvgMillis),
			)
		}
	}
	tbl.Notes = append(tbl.Notes,
		"shape check: JanusAQP should have the lowest error at every point; learned-model error stays flat with progress; RS/SRS error shrinks but latency grows with data size")
	return tbl, nil
}

// projectSample draws k tuples uniformly and projects their keys onto the
// spec's predicate dimensions (baselines operate directly in the projected
// space).
func projectSample(tuples []workloadTuple, spec dsSpec, seed int64, k int) []workloadTuple {
	if k < 64 {
		k = 64
	}
	rng := newRng(seed)
	idx := rng.Perm(len(tuples))
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]workloadTuple, k)
	for i := 0; i < k; i++ {
		t := tuples[idx[i]].Clone()
		t.Key = t.Project(spec.predDims)
		out[i] = t
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
