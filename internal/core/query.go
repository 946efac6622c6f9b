package core

import (
	"fmt"

	"janusaqp/internal/geom"
	"janusaqp/internal/stats"
)

// Func is an aggregation function a query can request.
type Func int

const (
	// FuncSum is SUM(A).
	FuncSum Func = iota
	// FuncCount is COUNT(*).
	FuncCount
	// FuncAvg is AVG(A).
	FuncAvg
	// FuncMin is MIN(A).
	FuncMin
	// FuncMax is MAX(A).
	FuncMax
)

// String returns the SQL name of the function.
func (f Func) String() string {
	switch f {
	case FuncSum:
		return "SUM"
	case FuncCount:
		return "COUNT"
	case FuncAvg:
		return "AVG"
	case FuncMin:
		return "MIN"
	case FuncMax:
		return "MAX"
	}
	if name, ok := extendedFuncName(f); ok {
		return name
	}
	return "UNKNOWN"
}

// Query is an aggregate over a rectangular predicate in the synopsis's
// predicate space.
type Query struct {
	Func Func
	// AggIndex selects the aggregation attribute; -1 uses the synopsis's
	// primary attribute.
	AggIndex int
	Rect     geom.Rect
	// Confidence is the CI level (default 0.95 when zero).
	Confidence float64
}

// Result is an approximate answer with its confidence interval.
type Result struct {
	Estimate float64
	Interval stats.Interval
	// Covered and Partial count the R_cover nodes and R_partial leaves the
	// query decomposed into.
	Covered, Partial int
	// Outer reports that a MIN/MAX answer degraded to an outer
	// approximation because a heap was exhausted by deletions.
	Outer bool
}

// classify performs the frontier lookup of Section 2.3.2: it traverses the
// tree top-down collecting nodes fully covered by the predicate and leaves
// partially intersecting it.
func (t *DPT) classify(rect geom.Rect, n *node, cover *[]*node, partial *[]*node) {
	if !n.rect.Intersects(rect) {
		return
	}
	if rect.ContainsRect(n.rect) {
		*cover = append(*cover, n)
		return
	}
	if n.isLeaf {
		*partial = append(*partial, n)
		return
	}
	t.classify(rect, n.left, cover, partial)
	t.classify(rect, n.right, cover, partial)
}

// Answer estimates the query from the synopsis alone — the procedure never
// touches the base data (Section 4.4). A local answer is the K = 1 case of
// a scatter-gather answer: this synopsis's Partial, merged alone.
func (t *DPT) Answer(q Query) (Result, error) {
	p, err := t.AnswerPartial(q)
	if err != nil {
		return Result{}, err
	}
	return MergePartials([]Partial{p}, q.Confidence)
}

// aggIndex resolves the query's aggregation attribute (negative selects
// the synopsis's primary one) and checks that it is tracked.
func (t *DPT) aggIndex(q Query) (int, error) {
	aggIdx := q.AggIndex
	if aggIdx < 0 {
		aggIdx = t.cfg.AggIndex
	}
	if aggIdx >= t.cfg.NumVals {
		return 0, fmt.Errorf("core: aggregation attribute %d out of range (%d tracked)", aggIdx, t.cfg.NumVals)
	}
	return aggIdx, nil
}

// AnswerPartial answers q in mergeable form — the estimator of Section 4.4
// and Appendix C, run once: one frontier walk, one pass over the covered
// nodes (catch-up estimates corrected by the exact insert/delete deltas)
// and one scan of each partial leaf's stratum (stratified-sample
// estimates). Every aggregate is read off the same terms, so AVG is the
// ratio of exactly the SUM and COUNT a SUM and a COUNT query would report,
// and the composed VARIANCE/STDDEV (Section 6.6) pool the same three
// estimators.
func (t *DPT) AnswerPartial(q Query) (Partial, error) {
	if q.Rect.Dims() != t.cfg.Dims {
		return Partial{}, fmt.Errorf("core: query dimensionality %d, synopsis %d", q.Rect.Dims(), t.cfg.Dims)
	}
	aggIdx, err := t.aggIndex(q)
	if err != nil {
		return Partial{}, err
	}
	// ext folds the extremes of a MIN/MAX query: heap extremes of covered
	// nodes, then matching sample extremes of partial leaves.
	var ext *stats.ExtremeMerge
	switch q.Func {
	case FuncSum, FuncCount, FuncAvg, FuncVariance, FuncStdDev:
	case FuncMin, FuncMax:
		if aggIdx != t.cfg.AggIndex {
			return Partial{}, fmt.Errorf("core: MIN/MAX heaps track only the primary attribute %d", t.cfg.AggIndex)
		}
		ext = stats.NewExtremeMerge(q.Func == FuncMax)
	default:
		return Partial{}, fmt.Errorf("core: unsupported aggregate %v", q.Func)
	}

	var cover, partial []*node
	t.classify(q.Rect, t.root, &cover, &partial)

	// N̂_q, the denominator of the AVG variance weights w_i = N̂_i/N̂_q: the
	// estimated size of every partition the query touches. The pass below
	// weighs terms with it, so it is summed first (node statistics only —
	// no stratum is read).
	var nq float64
	for _, n := range cover {
		nq += t.liveCount(n)
	}
	for _, n := range partial {
		nq += t.liveCount(n)
	}
	weight := func(ni float64) float64 {
		if nq > 0 {
			return ni / nq
		}
		return 0
	}

	var e terms
	outer := len(partial) > 0 // sample extremes are inner bounds
	for _, n := range cover {
		sc := t.scaleOf(n)
		c := n.catchup[aggIdx]
		live := t.liveCount(n)
		e.sum += sc.base(c.Sum) + n.ins[aggIdx].Sum - n.del[aggIdx].Sum
		e.cnt += live
		e.sumSq += sc.base(c.SumSq)
		e.sumSq += n.ins[aggIdx].SumSq - n.del[aggIdx].SumSq
		if !sc.exact {
			if sc.h > 0 {
				e.sumNuC += stats.CatchupSumVarianceTerm(c, sc.base(float64(c.N)))
				// Multinomial variance of N̂_i = (h_i/h)·N_0; the literal
				// Appendix C formula vanishes for COUNT over covered nodes
				// (every sample matches), so the allocation uncertainty is
				// the honest term to report.
				p := float64(c.N) / sc.h
				e.cntNuC += sc.n0 * sc.n0 * p * (1 - p) / sc.h
			}
			e.avgNuC += stats.CatchupAvgVarianceTerm(c, weight(live))
		}
		if ext != nil {
			heap := n.minHeap
			if q.Func == FuncMax {
				heap = n.maxHeap
			}
			if v, ok := heap.Extreme(); ok {
				ext.Add(v)
				// A heap exhausted by deletions bounds the extreme only
				// from outside (Section 4.1).
				outer = outer || !heap.Exact()
			}
		}
	}
	for _, n := range partial {
		mi := int64(n.stratum.len())
		if mi == 0 {
			continue
		}
		ni := t.liveCount(n)
		e.addStratum(n.stratum.scan(q.Rect, aggIdx, ext), mi, ni, weight(ni))
	}

	p := e.partial(q.Func)
	p.Covered, p.PartialLeaves = len(cover), len(partial)
	switch q.Func {
	case FuncMin, FuncMax:
		p.Extreme, p.Seen = ext.Extreme()
		p.Outer = outer
	case FuncVariance, FuncStdDev:
		p.Outer = true // composed estimators carry no CI guarantee
	}
	return p, nil
}

// terms accumulates the estimator over a query's decomposition. Each
// accumulator is fed in decomposition order — covered nodes, then partial
// leaves, both in tree order — and the catch-up variance ν_c and the
// sample-estimate variance ν_s stay apart until the end: floating-point
// sums are order-sensitive, and answers are pinned bit for bit
// (testdata/answers.golden).
type terms struct {
	sum, sumNuC, sumNuS float64 // SUM estimate and its variance components
	cnt, cntNuC, cntNuS float64 // COUNT estimate and its variance components
	sumSq               float64 // Σa² estimate
	avgNuC, avgNuS      float64 // AVG variance components
}

// addStratum folds one sampled stratum: matching holds the moments of the
// aggregation values of its samples inside the predicate, mi is its sample
// count (matching or not), ni its estimated population and wi its AVG
// weight N̂_i/N̂_q. COUNT is SUM over the matching indicator, whose moments
// are all |S_i ∩ q|.
func (e *terms) addStratum(matching stats.Moments, mi int64, ni, wi float64) {
	c := float64(matching.N)
	ones := stats.Moments{N: matching.N, Sum: c, SumSq: c}
	e.sum += stats.SumEstimate(matching.Sum, mi, ni)
	e.sumNuS += stats.ScaledSumVarianceTerm(matching, mi, ni)
	e.cnt += stats.SumEstimate(ones.Sum, mi, ni)
	e.cntNuS += stats.ScaledSumVarianceTerm(ones, mi, ni)
	e.sumSq += stats.SumEstimate(matching.SumSq, mi, ni)
	e.avgNuS += stats.ScaledAvgVarianceTerm(matching, mi, matching.N, wi)
}

// partial reads the accumulated terms off into a Partial answering f.
func (e *terms) partial(f Func) Partial {
	return Partial{
		Func:     f,
		Sum:      e.sum,
		SumVar:   e.sumNuC + e.sumNuS,
		Count:    e.cnt,
		CountVar: e.cntNuC + e.cntNuS,
		SumSq:    e.sumSq,
		AvgVar:   e.avgNuC + e.avgNuS,
	}
}

// scanBlock is how many sample indices scan narrows at a time, in a
// candidate list that lives on the stack.
const scanBlock = 256

// scan is the one pass over a stratum's samples: it returns the moments of
// the aggIdx values of those whose projected key falls inside rect, folded
// in index order. The stratum's key bounds decide each dimension before any
// sample is read: a dimension rect misses ends the scan, one it spans needs
// no per-sample test, and the rest are cut dimensions. Block by block, the
// most selective cut dimension (the smallest overlap share of the bounds)
// seeds a candidate list, each other one compacts it in place, and the
// survivors are folded. Selection never reorders, so every floating-point
// sum matches a plain pass; the per-sample test !(v < lo) && !(v > hi) is
// the exact negation of that pass's reject, so ±Inf and NaN behave alike.
func (s *stratum) scan(rect geom.Rect, aggIdx int, ext *stats.ExtremeMerge) (matching stats.Moments) {
	d, nv := s.d, s.nv
	lo, hi := rect.Min[:d], rect.Max[:d]
	seed, share := -1, 0.0
	for j := range d {
		if s.hi[j] < lo[j] || s.lo[j] > hi[j] {
			return matching
		}
		if lo[j] <= s.lo[j] && s.hi[j] <= hi[j] {
			continue
		}
		f := (min(hi[j], s.hi[j]) - max(lo[j], s.lo[j])) / (s.hi[j] - s.lo[j])
		if seed < 0 || f < share {
			seed, share = j, f
		}
	}
	n := len(s.ids)
	var buf [scanBlock]int
	for base := 0; base < n; base += scanBlock {
		end := min(base+scanBlock, n)
		k := 0
		if seed < 0 {
			for i := base; i < end; i++ {
				buf[k] = i
				k++
			}
		} else {
			l, h := lo[seed], hi[seed]
			for i := base; i < end; i++ {
				v := s.keys[i*d+seed]
				buf[k] = i
				k += b2i(!(v < l)) & b2i(!(v > h))
			}
			for j := range d {
				l, h := lo[j], hi[j]
				if j == seed || l <= s.lo[j] && s.hi[j] <= h {
					continue
				}
				m := 0
				for _, i := range buf[:k] {
					v := s.keys[i*d+j]
					buf[m] = i
					m += b2i(!(v < l)) & b2i(!(v > h))
				}
				k = m
			}
		}
		for _, i := range buf[:k] {
			fold(&matching, ext, s.vals[i*nv+aggIdx])
		}
	}
	return matching
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag
// set, so the narrowing passes above do not branch per sample.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// fold adds a matching sample's value to the moments and, if wanted, ext.
func fold(matching *stats.Moments, ext *stats.ExtremeMerge, v float64) {
	matching.Add(v)
	if ext != nil {
		ext.Add(v)
	}
}
