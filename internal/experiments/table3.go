package experiments

import (
	"fmt"
	"time"

	"janusaqp/internal/core"
	"janusaqp/internal/data"
	"janusaqp/internal/kdindex"
	"janusaqp/internal/maxvar"
	"janusaqp/internal/partition"
	"janusaqp/internal/workload"
)

// RunTable3 reproduces Table 3 (Section 6.9): the new binary-search (BS)
// partitioner versus the dynamic-programming (DP) partitioner of PASS on
// the Intel dataset — wall-clock partitioning time and the median relative
// error of COUNT/SUM/AVG workloads answered by a synopsis built on each
// partitioning, for k = 16, 32, 64, 128.
//
// As in the paper, the sample size grows with the partition count
// (m = 24·k here), which is what makes the DP's O(k·m²) blow up while BS
// stays near-linear in k.
func RunTable3(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	tuples, err := workload.Generate(workload.IntelWireless, opts.Rows, 0, opts.Seed)
	if err != nil {
		return nil, err
	}
	spec := specFor(workload.IntelWireless)
	gen := workload.NewQueryGen(opts.Seed+1, tuples, spec.predDims)
	truth := newTruth(spec, tuples, len(tuples))

	tbl := &Table{
		Title:  "Table 3: BS vs DP partitioning — build time and median relative error",
		Header: []string{"k", "DP time", "BS time", "DP CNT", "BS CNT", "DP SUM", "BS SUM", "DP AVG", "BS AVG"},
	}
	ks := []int{16, 32, 64, 128}
	if opts.Quick {
		ks = []int{16, 64}
	}
	for _, k := range ks {
		m := 24 * k
		if m > len(tuples)/2 {
			m = len(tuples) / 2
		}
		pooled := projectSample(tuples, spec, opts.Seed+int64(k), m)
		row := []string{fmt.Sprintf("%d", k)}
		times := map[string]time.Duration{}
		errs := map[string]map[core.Func]float64{}
		for _, method := range []string{"DP", "BS"} {
			errs[method] = map[core.Func]float64{}
			for _, focus := range []maxvar.Agg{maxvar.Count, maxvar.Sum, maxvar.Avg} {
				o := maxvar.New(focus, 1, 0.05)
				o.SetSamplingRate(float64(len(pooled)) / float64(len(tuples)))
				for _, s := range pooled {
					o.Insert(kdindex.Entry{Point: s.Key, Val: s.Val(0), ID: s.ID})
				}
				start := time.Now()
				var bp *partition.Blueprint
				if method == "DP" {
					bp = partition.DP1D(o, partition.Options{K: k, Population: int64(len(tuples))})
				} else {
					bp = partition.BinarySearch1D(o, partition.Options{K: k, Population: int64(len(tuples))})
				}
				if focus == maxvar.Sum { // report timing once per method (SUM column)
					times[method] = time.Since(start)
				}
				// A PASS-style synopsis: the pooled sample provides the strata and
				// full catch-up exact node statistics, isolating partitioning
				// quality as the only error source difference.
				dpt := newSynopsis(bp, bp.NumLeaves(), pooled, tuples, spec, opts.Seed)
				dpt.CatchUpTarget(1.0)
				var f core.Func
				switch focus {
				case maxvar.Count:
					f = core.FuncCount
				case maxvar.Sum:
					f = core.FuncSum
				default:
					f = core.FuncAvg
				}
				res := evaluate(func(q core.Query) (core.Result, error) {
					return dpt.Answer(q)
				}, gen.Workload(opts.Queries/2, f), truth)
				errs[method][f] = res.MedianRE
			}
		}
		row = append(row,
			secs(times["DP"]), secs(times["BS"]),
			pct(errs["DP"][core.FuncCount]), pct(errs["BS"][core.FuncCount]),
			pct(errs["DP"][core.FuncSum]), pct(errs["BS"][core.FuncSum]),
			pct(errs["DP"][core.FuncAvg]), pct(errs["BS"][core.FuncAvg]),
		)
		tbl.AddRow(row...)
	}
	tbl.Notes = append(tbl.Notes,
		"shape check: DP time grows sharply with k while BS stays near-flat; DP error is slightly lower but BS stays competitive (within a small factor)")
	return tbl, nil
}

// newSynopsis builds a synopsis over the spec's 1-D projection, before any
// catch-up beyond its pooled seed: pooled is a projected sample (as
// projectSample draws it), a projected copy of tuples is the catch-up
// snapshot, and a nil blueprint optimizes k leaves from the pooled sample.
func newSynopsis(bp *partition.Blueprint, k int, pooled []data.Tuple, tuples []data.Tuple, spec dsSpec, seed int64) *core.DPT {
	cfg := core.Config{
		Dims: 1, NumVals: spec.aggVal + 1, AggIndex: spec.aggVal, Agg: maxvar.Sum,
		K: k, SampleLowerBound: maxInt(len(pooled)/2, 1), Seed: seed,
	}
	return core.New(cfg, bp, pooled, int64(len(tuples)), projectAll(tuples, spec), nil)
}

// projectAll projects every tuple's key onto the spec's predicate dims.
func projectAll(tuples []workloadTuple, spec dsSpec) []workloadTuple {
	out := make([]workloadTuple, len(tuples))
	for i, t := range tuples {
		c := t.Clone()
		c.Key = c.Project(spec.predDims)
		out[i] = c
	}
	return out
}
