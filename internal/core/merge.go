package core

import (
	"fmt"
	"math"

	"janusaqp/internal/stats"
)

// Scatter-gather support: a Partial is the mergeable form of a synopsis's
// answer, and the only form the estimator produces. It keeps the sufficient
// statistics needed to combine K independent shard answers into one
// estimate with a valid combined confidence interval — per-shard sums,
// counts, and variances add across disjoint hash partitions, and AVG
// combines shard means with population weights (shards are strata one level
// above the paper's partitions). A single synopsis is the K = 1 case:
// Answer is MergePartials over its one Partial.

// Partial is one shard's contribution to a scatter-gather answer. The
// estimator fills Sum, Count, SumSq and their variances for every Func (one
// pass yields them all); Extreme and Seen only for MIN/MAX.
type Partial struct {
	// Func records which aggregate the partial answers; MergePartials
	// refuses to combine partials of different functions.
	Func Func

	// Sum and SumVar are the SUM estimate over matching rows and its
	// variance ν_c+ν_s.
	Sum    float64
	SumVar float64
	// Count and CountVar are the COUNT estimate and its variance. Sum and
	// Count are the *matching* estimates the shard AVG is the ratio of, so
	// the merged AVG telescopes to ΣSum/ΣCount and agrees with merging the
	// query's SUM and COUNT partials; weighting by the relevant-partition
	// population instead would skew the pooled mean toward shards whose
	// partial leaves match few rows.
	Count    float64
	CountVar float64
	// SumSq is the Σa² estimate the composed VARIANCE/STDDEV need.
	SumSq float64
	// AvgVar is the variance of the shard-local AVG estimate Sum/Count
	// (Appendix C, weights w_i = N̂_i/N̂_q).
	AvgVar float64

	// Extreme and Seen carry the MIN/MAX answer; Outer marks an answer that
	// is only an outer approximation (exhausted heap, sample extremes) or,
	// for the composed aggregates, one without a CI guarantee.
	Extreme float64
	Seen    bool
	Outer   bool

	// Covered and PartialLeaves count the decomposition sizes, summed into
	// the merged Result's metadata.
	Covered, PartialLeaves int
}

// MergePartials combines per-shard partials into one Result with a valid
// combined interval at the given confidence level — the one place a level
// becomes a normal quantile, and where zero means the default 0.95. All
// partials must answer the same Func; the slice must not be empty. Every
// answer leaves through here, a single synopsis's included, so merging one
// partial must (and does) reproduce its estimate and variance bit for bit.
func MergePartials(parts []Partial, confidence float64) (Result, error) {
	if len(parts) == 0 {
		return Result{}, fmt.Errorf("core: no partials to merge")
	}
	if confidence == 0 {
		confidence = 0.95
	}
	z := stats.ZForConfidence(confidence)
	f := parts[0].Func
	res := Result{}
	for _, p := range parts {
		if p.Func != f {
			return Result{}, fmt.Errorf("core: cannot merge partials of %v and %v", f, p.Func)
		}
		res.Covered += p.Covered
		res.Partial += p.PartialLeaves
	}
	switch f {
	case FuncSum:
		var acc stats.SumMerge
		for _, p := range parts {
			acc.Add(p.Sum, p.SumVar)
		}
		res.Estimate = acc.Est
		res.Interval = acc.Interval(z)
	case FuncCount:
		var acc stats.SumMerge
		for _, p := range parts {
			acc.Add(p.Count, p.CountVar)
		}
		res.Estimate = acc.Est
		res.Interval = acc.Interval(z)
	case FuncAvg:
		// The pooled mean of shard means Sum_i/Count_i under population
		// weights w_i = Count_i/ΣCount telescopes to ΣSum/ΣCount, with
		// variance Σ w_i²·ν_i. An empty shard carries no weight and no
		// information.
		var sum, cnt, v float64
		for _, p := range parts {
			if p.Count > 0 {
				sum += p.Sum
				cnt += p.Count
			}
		}
		if cnt > 0 {
			res.Estimate = sum / cnt
			for _, p := range parts {
				if p.Count > 0 {
					w := p.Count / cnt
					v += w * w * p.AvgVar
				}
			}
		}
		res.Interval = stats.NewInterval(res.Estimate, v, 0, z)
	case FuncMin, FuncMax:
		acc := stats.NewExtremeMerge(f == FuncMax)
		for _, p := range parts {
			if p.Seen {
				acc.Add(p.Extreme)
			}
			if p.Outer {
				res.Outer = true
			}
		}
		best, seen := acc.Extreme()
		if !seen {
			res.Outer = true
			return res, nil
		}
		res.Estimate = best
		res.Interval = stats.Interval{Estimate: best}
	case FuncVariance, FuncStdDev:
		// Pool the SUM, COUNT, and Σa² estimates, then take
		// VAR = Σa²/N − mean².
		var sum, cnt, sumsq float64
		for _, p := range parts {
			sum += p.Sum
			cnt += p.Count
			sumsq += p.SumSq
		}
		res.Outer = true // no CI guarantee for composed estimators
		if cnt <= 0 {
			return res, nil
		}
		mean := sum / cnt
		variance := sumsq/cnt - mean*mean
		if variance < 0 {
			variance = 0
		}
		if f == FuncStdDev {
			res.Estimate = math.Sqrt(variance)
		} else {
			res.Estimate = variance
		}
		res.Interval = stats.Interval{Estimate: res.Estimate}
	default:
		return Result{}, fmt.Errorf("core: unsupported aggregate %v", f)
	}
	return res, nil
}
