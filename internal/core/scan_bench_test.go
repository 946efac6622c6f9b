package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"janusaqp/internal/core"
	"janusaqp/internal/data"
	"janusaqp/internal/kdindex"
	"janusaqp/internal/maxvar"
	"janusaqp/internal/partition"
	"janusaqp/internal/workload"
)

// BenchmarkAnswerPartialScan3D times the estimator alone — one frontier
// walk plus the partial-leaf stratum scans, no engine lock, resolve or
// merge — over a synopsis shaped like the engine-scan3d workload's: 200k
// taxi rows, 20k pooled samples on the 3-D template {0,1,2}, 128 leaves,
// catch-up at 10%, and its SUM/COUNT/AVG/MIN/MAX 40/20/20/10/10 mix.
//
//	go test -run '^$' -bench AnswerPartialScan3D ./internal/core
func BenchmarkAnswerPartialScan3D(b *testing.B) {
	benchAnswerPartial(b, 200_000, 10_000, []int{0, 1, 2})
}

// BenchmarkAnswerPartialScan1D is the same over a synopsis shaped like the
// engine-sql1d workload's: 100k taxi rows, a 1% sample (2k pooled) on the
// 1-D template {0}, 128 leaves from the 1-D partitioner, the same mix.
//
//	go test -run '^$' -bench AnswerPartialScan1D ./internal/core
func BenchmarkAnswerPartialScan1D(b *testing.B) {
	benchAnswerPartial(b, 100_000, 1_000, []int{0})
}

// benchAnswerPartial builds a synopsis over rows taxi tuples with m as the
// sample lower bound (2m pooled), partitioned by the partitioner the
// engine uses for len(dims), and times AnswerPartial over generated
// queries.
func benchAnswerPartial(b *testing.B, rows, m int, dims []int) {
	tuples, err := workload.Generate(workload.NYCTaxi, rows, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{PredicateDims: dims, Dims: len(dims), NumVals: 3, Agg: maxvar.Sum, K: 128, SampleLowerBound: m, Seed: 1}
	rng := rand.New(rand.NewSource(2))
	pooled := make([]data.Tuple, 2*m)
	for i, j := range rng.Perm(rows)[:2*m] {
		pooled[i] = tuples[j]
	}
	o := maxvar.New(cfg.Agg, cfg.Dims, 0.05)
	o.SetSamplingRate(float64(len(pooled)) / float64(rows))
	for _, s := range pooled {
		o.Insert(kdindex.Entry{Point: s.Project(dims), Val: s.Val(0), ID: s.ID})
	}
	opts := partition.Options{K: cfg.K, Population: int64(rows)}
	var bp *partition.Blueprint
	if len(dims) == 1 {
		bp = partition.BinarySearch1D(o, opts)
	} else {
		bp = partition.KD(o, opts)
	}
	dpt := core.New(cfg, bp, pooled, int64(rows), slices.Clone(tuples), nil)
	dpt.CatchUpTarget(0.10)

	mix := []core.Func{core.FuncSum, core.FuncSum, core.FuncSum, core.FuncSum, core.FuncCount,
		core.FuncCount, core.FuncAvg, core.FuncAvg, core.FuncMin, core.FuncMax}
	gen := workload.NewQueryGen(3, tuples, dims)
	queries := make([]core.Query, 4096)
	for i := range queries {
		queries[i] = gen.Next(mix[i%len(mix)])
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := dpt.AnswerPartial(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}
