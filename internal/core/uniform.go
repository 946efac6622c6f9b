package core

import (
	"fmt"

	"janusaqp/internal/data"
	"janusaqp/internal/stats"
)

// AnswerUniformPartial answers, in mergeable form, a query whose predicate
// ranges over arbitrary *original* key attributes (dims indexes into
// Tuple.Key), rather than this synopsis's own predicate projection, by
// plain uniform estimation over the pooled sample — heuristic (ii) of
// Section 5.5 for queries from templates the tree was not built for. To
// the estimator the whole reservoir is one stratum of the whole
// population, with no covered nodes: it is AnswerSample over one stratum,
// the same code that answers the uniform-sampling (RS) baseline, so its
// accuracy is that baseline's. Re-partitioning on the new attribute
// restores DPT accuracy. It supports SUM, COUNT and AVG.
func (t *DPT) AnswerUniformPartial(q Query, dims []int) (Partial, error) {
	if q.Rect.Dims() != len(dims) {
		return Partial{}, fmt.Errorf("core: predicate dims %d, rect dims %d", len(dims), q.Rect.Dims())
	}
	aggIdx, err := t.aggIndex(q)
	if err != nil {
		return Partial{}, err
	}
	switch q.Func {
	case FuncSum, FuncCount, FuncAvg:
	default:
		return Partial{}, fmt.Errorf("core: uniform fallback does not support %v", q.Func)
	}
	return AnswerSample(q, aggIdx, dims, [][]data.Tuple{t.res.Items()}, []float64{float64(t.population)})
}

// AnswerSample answers q, in mergeable form, from static stratified
// samples: strata[i] is a uniform sample of a stratum of pops[i] rows, and
// a sample matches when its key projected onto dims (nil is the identity
// projection) falls inside q.Rect; aggIdx indexes Tuple.Vals. Each stratum
// is scanned once and fed to the estimator partial leaves use — the
// stratified Horvitz–Thompson estimator (Cochran, Sampling Techniques,
// ch. 5) — with AVG weight pops[i]/Σpops, or 1 for a single stratum. SUM,
// COUNT and AVG carry intervals; MIN and MAX return the matching samples'
// extreme, marked Outer, since a sample extreme bounds the true one only
// from inside.
func AnswerSample(q Query, aggIdx int, dims []int, strata [][]data.Tuple, pops []float64) (Partial, error) {
	var ext *stats.ExtremeMerge
	switch q.Func {
	case FuncSum, FuncCount, FuncAvg:
	case FuncMin, FuncMax:
		ext = stats.NewExtremeMerge(q.Func == FuncMax)
	default:
		return Partial{}, fmt.Errorf("core: sample estimator does not support %v", q.Func)
	}
	var nq float64
	for _, ni := range pops {
		nq += ni
	}
	weight := func(ni float64) float64 {
		switch {
		case len(strata) == 1:
			return 1
		case nq > 0:
			return ni / nq
		}
		return 0
	}
	var e terms
	for i, s := range strata {
		var matching stats.Moments
		for _, tp := range s {
			if containsKey(q.Rect, dims, tp) {
				fold(&matching, ext, tp.Val(aggIdx))
			}
		}
		e.addStratum(matching, int64(len(s)), pops[i], weight(pops[i]))
	}
	p := e.partial(q.Func)
	if ext != nil {
		p.Extreme, p.Seen = ext.Extreme()
		p.Outer = true
	}
	return p, nil
}
