// Package maxvar implements the dynamic max-variance oracle M of the
// JanusAQP paper (Section 5.3.1 and Appendix D.1): a data structure over
// the pooled sample S that, given a query rectangle R, returns an
// approximation of V(R) — the variance of the rectangular query with the
// largest sample-estimate variance among all queries inside R.
//
// The oracle is the primitive every partitioning algorithm is built on:
// the 1-D binary-search partitioner uses it as the bucket feasibility
// test, the k-d partitioner uses it to pick which leaf to split next, and
// the re-partitioning triggers use it to detect variance drift.
//
// Per-aggregate strategies, following Appendix D.1:
//
//   - COUNT: the max-variance query in R selects exactly half of R's
//     samples, so M(R) = (N̂²/m³)·c·(m−c) with c = ⌊m/2⌋ — computed exactly
//     from the sample count alone.
//   - SUM: split R into two rectangles of equal sample count, return the
//     variance of the half with the larger Σa² — a ¼-approximation of
//     V(R). This implementation takes the best split over all dimensions.
//   - AVG: enumerate canonical index nodes inside R holding at most δ·m
//     samples, take the one maximizing Σa², expand it within R to the δ·m
//     support floor (valid AVG queries must contain at least that many
//     samples or their estimates are meaningless), and return its variance.
//
// Variances are expressed over the true population by scaling sample
// counts with the sampling rate α (N̂ = m/α); when only relative
// comparisons matter, α = 1 gives sample-unit variances.
package maxvar

import (
	"math"

	"janusaqp/internal/geom"
	"janusaqp/internal/kdindex"
	"janusaqp/internal/stats"
)

// Agg selects the focus aggregation function the oracle optimizes for.
type Agg int

const (
	// Count optimizes for COUNT query error.
	Count Agg = iota
	// Sum optimizes for SUM query error.
	Sum
	// Avg optimizes for AVG query error.
	Avg
)

// String returns the SQL name of the aggregate.
func (a Agg) String() string {
	switch a {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	}
	return "UNKNOWN"
}

// Oracle is the dynamic max-variance index. Create instances with New.
type Oracle struct {
	agg   Agg
	idx   *kdindex.Tree
	delta float64 // AVG support floor as a fraction of the rectangle's samples
	alpha float64 // sampling rate m/N used to scale to population units
}

// New returns an oracle for the given aggregate over d-dimensional samples.
// delta is the AVG support-floor fraction (ignored for COUNT/SUM); 0.05 is
// a reasonable default.
func New(agg Agg, dims int, delta float64) *Oracle {
	if delta <= 0 || delta >= 1 {
		delta = 0.05
	}
	return &Oracle{agg: agg, idx: kdindex.New(dims), delta: delta, alpha: 1}
}

// SetSamplingRate fixes the sampling rate α = m/N used to scale sample
// counts to population sizes. Rates outside (0, 1] are clamped to 1.
func (o *Oracle) SetSamplingRate(alpha float64) {
	if alpha <= 0 || alpha > 1 {
		alpha = 1
	}
	o.alpha = alpha
}

// Agg returns the focus aggregate.
func (o *Oracle) Agg() Agg { return o.agg }

// SamplingRate returns the configured rate α = m/N.
func (o *Oracle) SamplingRate() float64 { return o.alpha }

// Delta returns the AVG support-floor fraction.
func (o *Oracle) Delta() float64 { return o.delta }

// Index exposes the underlying range-aggregate index, which partitioners
// share for median searches and sample reporting.
func (o *Oracle) Index() *kdindex.Tree { return o.idx }

// Insert adds a sample point.
func (o *Oracle) Insert(e kdindex.Entry) { o.idx.Insert(e) }

// Delete removes the sample with the given id.
func (o *Oracle) Delete(id int64) bool { return o.idx.Delete(id) }

// Len returns the number of live samples.
func (o *Oracle) Len() int { return o.idx.Len() }

// MaxVariance returns M(R): an approximation (within the factors of
// Appendix D.1) of the maximum query variance inside rect.
func (o *Oracle) MaxVariance(rect geom.Rect) float64 {
	switch o.agg {
	case Count:
		return o.maxVarCount(rect)
	case Sum:
		return o.maxVarSum(rect)
	case Avg:
		return o.maxVarAvg(rect)
	}
	return 0
}

// MaxError returns sqrt(M(R)): the (approximate) longest confidence
// interval length, the unit the partitioning algorithms binary-search on.
func (o *Oracle) MaxError(rect geom.Rect) float64 {
	return math.Sqrt(o.MaxVariance(rect))
}

func (o *Oracle) maxVarCount(rect geom.Rect) float64 {
	m := o.idx.RangeMoments(rect).N
	if m < 2 {
		return 0
	}
	c := float64(m / 2)
	mf := float64(m)
	ni := mf / o.alpha
	return ni * ni / (mf * mf * mf) * c * (mf - c)
}

func (o *Oracle) maxVarSum(rect geom.Rect) float64 {
	whole := o.idx.RangeMoments(rect)
	if whole.N < 2 {
		return 0
	}
	// Appendix D.1 splits R into two equal-count rectangles along one
	// dimension; any dimension preserves the 1/4 bound, so pick the widest
	// finite side (the most informative cut) and fall back to dim 0.
	dim := widestFiniteDim(rect)
	half, ok := o.splitHalf(rect, dim, whole)
	if !ok {
		return 0
	}
	return o.sumVariance(half, whole.N)
}

// widestFiniteDim picks the dimension with the largest finite extent,
// defaulting to 0 when every side is unbounded.
func widestFiniteDim(rect geom.Rect) int {
	best, bestW := 0, -1.0
	for j := range rect.Min {
		w := rect.Extent(j)
		if !math.IsInf(w, 0) && w > bestW {
			best, bestW = j, w
		}
	}
	return best
}

// splitHalf returns the moments of the half of rect (split at the sample
// median along dim) with the larger Σa²; whole holds rect's moments.
func (o *Oracle) splitHalf(rect geom.Rect, dim int, whole stats.Moments) (stats.Moments, bool) {
	medianIdx := int(whole.N/2) - 1
	if medianIdx < 0 {
		return stats.Moments{}, false
	}
	x, ok := o.idx.SelectCoord(rect, dim, medianIdx)
	if !ok {
		return stats.Moments{}, false
	}
	left := rect.Clone()
	if x < left.Max[dim] {
		left.Max[dim] = x
	}
	lm := o.idx.RangeMoments(left)
	rm := whole
	rm.Unmerge(lm)
	if lm.SumSq >= rm.SumSq {
		return lm, true
	}
	return rm, true
}

// sumVariance computes the SUM variance contribution of a candidate query
// with moments q inside a bucket of m total samples:
//
//	(N̂²/m³)·(m·Σa² − (Σa)²),  N̂ = m/α.
func (o *Oracle) sumVariance(q stats.Moments, m int64) float64 {
	if m <= 0 {
		return 0
	}
	mf := float64(m)
	ni := mf / o.alpha
	raw := mf*q.SumSq - q.Sum*q.Sum
	if raw < 0 {
		raw = 0
	}
	return ni * ni / (mf * mf * mf) * raw
}

func (o *Oracle) maxVarAvg(rect geom.Rect) float64 {
	whole := o.idx.RangeMoments(rect)
	if whole.N < 2 {
		return 0
	}
	target := int64(o.delta * float64(whole.N))
	if target < 1 {
		target = 1
	}
	// Find the canonical node inside rect with at most `target` samples
	// maximizing Σa².
	var best kdindex.CanonicalNode
	found := false
	o.idx.CanonicalNodes(rect, target, func(c kdindex.CanonicalNode) bool {
		if !found || c.Agg.SumSq > best.Agg.SumSq {
			best = c
			found = true
		}
		return true
	})
	if !found {
		return 0
	}
	q := best.Agg
	// Expand the witness toward the support floor: valid AVG queries must
	// contain at least `target` samples (Appendix D.1), and expanding only
	// grows Σa², preserving the approximation bound.
	if q.N < target {
		q = o.expand(rect, best.Region, target)
	}
	return o.avgVariance(q, whole.N)
}

// expand grows seed within rect until it holds at least target samples,
// extending one boundary at a time toward rect's boundary and bisecting the
// final extension to land near the target count.
func (o *Oracle) expand(rect, seed geom.Rect, target int64) stats.Moments {
	cur := seed.Clone()
	count := func(r geom.Rect) int64 { return o.idx.RangeMoments(r).N }
	for dim := 0; dim < rect.Dims(); dim++ {
		for side := 0; side < 2; side++ {
			var lo, hi float64
			grown := cur.Clone()
			if side == 0 { // extend the max boundary
				lo, hi = cur.Max[dim], rect.Max[dim]
				grown.Max[dim] = hi
			} else { // extend the min boundary
				lo, hi = rect.Min[dim], cur.Min[dim]
				grown.Min[dim] = lo
			}
			if count(grown) < target {
				cur = grown
				continue
			}
			// The target lies within this extension: bisect the boundary.
			for i := 0; i < 100 && lo < hi; i++ {
				mid := lo + (hi-lo)/2
				if mid <= lo || mid >= hi {
					break
				}
				probe := cur.Clone()
				if side == 0 {
					probe.Max[dim] = mid
				} else {
					probe.Min[dim] = mid
				}
				if count(probe) < target {
					if side == 0 {
						lo = mid
					} else {
						hi = mid
					}
				} else {
					if side == 0 {
						hi = mid
					} else {
						lo = mid
					}
				}
			}
			if side == 0 {
				cur.Max[dim] = hi
			} else {
				cur.Min[dim] = lo
			}
			return o.idx.RangeMoments(cur)
		}
	}
	return o.idx.RangeMoments(cur)
}

// avgVariance computes the AVG variance of a candidate with moments q
// inside a bucket of m samples:
//
//	(m·Σa² − (Σa)²) / (m·c²),  c = |q ∩ S|.
func (o *Oracle) avgVariance(q stats.Moments, m int64) float64 {
	if m <= 0 || q.N <= 0 {
		return 0
	}
	mf := float64(m)
	c := float64(q.N)
	raw := mf*q.SumSq - q.Sum*q.Sum
	if raw < 0 {
		raw = 0
	}
	return raw / (mf * c * c)
}

// BruteForce1D computes the exact maximum query variance inside rect by
// enumerating every contiguous sample interval: the reference the tests
// compare MaxVariance against (it is O(m²) and only valid for d = 1).
func (o *Oracle) BruteForce1D(rect geom.Rect) float64 {
	var pts []kdindex.Entry
	o.idx.Report(rect, func(e kdindex.Entry) bool {
		pts = append(pts, e)
		return true
	})
	m := int64(len(pts))
	if m < 2 {
		return 0
	}
	// Sort by coordinate.
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && pts[j].Point[0] < pts[j-1].Point[0]; j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
	target := int64(o.delta * float64(m))
	if target < 1 {
		target = 1
	}
	best := 0.0
	for i := range pts {
		var q stats.Moments
		for j := i; j < len(pts); j++ {
			q.Add(pts[j].Val)
			var v float64
			switch o.agg {
			case Count:
				var cq stats.Moments
				cq.N = q.N
				cq.Sum = float64(q.N)
				cq.SumSq = float64(q.N)
				v = o.sumVariance(cq, m)
			case Sum:
				v = o.sumVariance(q, m)
			case Avg:
				if q.N < target {
					continue
				}
				v = o.avgVariance(q, m)
			}
			if v > best {
				best = v
			}
		}
	}
	return best
}
