package core

import (
	"fmt"

	"janusaqp/internal/stats"
)

// AnswerUniformPartial answers, in mergeable form, a query whose predicate
// ranges over arbitrary *original* key attributes (dims indexes into
// Tuple.Key), rather than this synopsis's own predicate projection, by
// plain uniform estimation over the pooled sample — heuristic (ii) of
// Section 5.5 for queries from templates the tree was not built for. To
// the estimator the whole reservoir is one partial stratum of the whole
// population, with no covered nodes. Accuracy and latency match uniform
// reservoir sampling; re-partitioning on the new attribute restores DPT
// accuracy. It supports SUM, COUNT and AVG.
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
	var matching stats.Moments
	for _, s := range t.res.Items() {
		if containsKey(q.Rect, dims, s) {
			fold(&matching, nil, s.Val(aggIdx))
		}
	}
	var e terms
	e.addStratum(matching, int64(t.res.Len()), float64(t.population), 1)
	return e.partial(q.Func), nil
}

// AnswerUniform is the local form of AnswerUniformPartial: its Partial,
// merged alone.
func (t *DPT) AnswerUniform(q Query, dims []int) (Result, error) {
	p, err := t.AnswerUniformPartial(q, dims)
	if err != nil {
		return Result{}, err
	}
	return MergePartials([]Partial{p}, q.Confidence)
}
