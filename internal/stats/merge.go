package stats

import "math"

// Mergeable accumulators for combining *independent* partial estimates —
// the statistical half of scatter-gather query answering over a
// hash-sharded engine group. Each shard holds a disjoint hash-partition of
// the data and answers over its own synopsis; because the shards' samples
// are drawn independently, the variance of a sum of shard estimates is the
// sum of their variances. (The pooled mean, which needs the combined
// population before it can weigh a shard, is composed in core.MergePartials.)

// SumMerge combines additive partial estimates (SUM or COUNT over disjoint
// shards): point estimates add, and so do the variances of independent
// estimators.
type SumMerge struct {
	// Est is the combined point estimate Σ est_i.
	Est float64
	// Var is the combined variance Σ ν_i.
	Var float64
}

// Add folds one shard's estimate and its variance ν = ν_c + ν_s.
func (a *SumMerge) Add(est, variance float64) {
	a.Est += est
	a.Var += variance
}

// Interval returns the combined confidence interval est ± z·sqrt(Σ ν_i).
func (a *SumMerge) Interval(z float64) Interval {
	return NewInterval(a.Est, a.Var, 0, z)
}

// ExtremeMerge combines per-shard MIN/MAX answers: the global extreme of a
// hash-partitioned table is the extreme of the shard extremes.
type ExtremeMerge struct {
	keepMax bool
	best    float64
	seen    bool
}

// NewExtremeMerge returns an accumulator tracking the maximum when keepMax
// is true, the minimum otherwise.
func NewExtremeMerge(keepMax bool) *ExtremeMerge {
	best := math.Inf(1)
	if keepMax {
		best = math.Inf(-1)
	}
	return &ExtremeMerge{keepMax: keepMax, best: best}
}

// Add folds one shard's extreme.
func (a *ExtremeMerge) Add(v float64) {
	a.seen = true
	if a.keepMax {
		if v > a.best {
			a.best = v
		}
	} else if v < a.best {
		a.best = v
	}
}

// Extreme returns the combined extreme and whether any shard contributed.
func (a *ExtremeMerge) Extreme() (float64, bool) { return a.best, a.seen }
