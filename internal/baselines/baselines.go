// Package baselines implements the comparison systems of the paper's
// evaluation (Section 6.1.3):
//
//   - RS — uniform reservoir sampling with insertion/deletion support, the
//     AQUA-style variant.
//   - SRS — stratified reservoir sampling over an equal-depth partitioning
//     of the first predicate attribute.
//   - Learned — the DeepDB stand-in: a fixed-capacity learned density/sum
//     model trained offline on a sample; see learned.go for the
//     substitution rationale.
//
// The static-DPT baseline ("DPT-only": a JanusAQP synopsis with
// re-partitioning disabled) is configured through the public janus.Engine
// rather than duplicated here.
//
// All baselines answer the same core.Query type so the experiment harness
// can swap systems freely.
package baselines

import (
	"fmt"
	"math"

	"janusaqp/internal/core"
	"janusaqp/internal/data"
	"janusaqp/internal/reservoir"
	"janusaqp/internal/stats"
)

// System is the shared interface of all baseline synopses.
type System interface {
	Name() string
	Insert(t data.Tuple)
	Delete(t data.Tuple)
	Answer(q core.Query) (core.Result, error)
}

// --- RS: uniform reservoir sampling ---------------------------------------

// RS answers queries from a single uniform reservoir sample.
type RS struct {
	res      *reservoir.Sample
	aggIndex int
}

// NewRS builds the uniform-sample baseline: initial holds a uniform sample
// of the current population (target size = 2·lowerBound), resample supplies
// fresh draws from archival storage.
func NewRS(lowerBound int, seed int64, initial []data.Tuple, population int64, aggIndex int, resample reservoir.Resampler) *RS {
	r := &RS{res: reservoir.New(lowerBound, seed, resample), aggIndex: aggIndex}
	r.res.Init(initial, population)
	return r
}

// Name implements System.
func (r *RS) Name() string { return "RS" }

// Insert implements System.
func (r *RS) Insert(t data.Tuple) { r.res.Insert(t) }

// Delete implements System.
func (r *RS) Delete(t data.Tuple) { r.res.Delete(t.ID) }

// Answer estimates the query by scanning the sample — the classic
// Horvitz–Thompson estimator with normal CIs.
func (r *RS) Answer(q core.Query) (core.Result, error) {
	aggIdx := q.AggIndex
	if aggIdx < 0 {
		aggIdx = r.aggIndex
	}
	m := int64(r.res.Len())
	n := float64(r.res.Population())
	conf := q.Confidence
	if conf == 0 {
		conf = 0.95
	}
	z := stats.ZForConfidence(conf)
	var matching, matchingOnes stats.Moments
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, s := range r.res.Items() {
		if q.Rect.Contains(s.Key) {
			v := s.Val(aggIdx)
			matching.Add(v)
			matchingOnes.Add(1)
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
	}
	switch q.Func {
	case core.FuncSum:
		est := stats.SumEstimate(matching.Sum, m, n)
		nu := stats.ScaledSumVarianceTerm(matching, m, n)
		return core.Result{Estimate: est, Interval: stats.NewInterval(est, 0, nu, z)}, nil
	case core.FuncCount:
		est := stats.SumEstimate(matchingOnes.Sum, m, n)
		nu := stats.ScaledSumVarianceTerm(matchingOnes, m, n)
		return core.Result{Estimate: est, Interval: stats.NewInterval(est, 0, nu, z)}, nil
	case core.FuncAvg:
		est := matching.Mean()
		nu := stats.ScaledAvgVarianceTerm(matching, m, matching.N, 1)
		return core.Result{Estimate: est, Interval: stats.NewInterval(est, 0, nu, z)}, nil
	case core.FuncMin:
		return core.Result{Estimate: minV, Outer: true}, nil
	case core.FuncMax:
		return core.Result{Estimate: maxV, Outer: true}, nil
	}
	return core.Result{}, fmt.Errorf("baselines: unsupported aggregate %v", q.Func)
}

// --- SRS: stratified reservoir sampling ------------------------------------

// SRS stratifies on the first predicate attribute with equal-depth
// boundaries fixed at construction, holding one reservoir per stratum.
type SRS struct {
	bounds   []float64 // k-1 ascending stratum boundaries
	strata   []*reservoir.Sample
	aggIndex int
}

// NewSRS builds the stratified baseline: boundaries are the equal-depth
// quantiles of initial's first key attribute, and initial is distributed
// to per-stratum reservoirs proportionally.
func NewSRS(k, lowerBoundPerStratum int, seed int64, initial []data.Tuple, population int64, aggIndex int) *SRS {
	if k < 1 {
		k = 1
	}
	coords := make([]float64, len(initial))
	for i, t := range initial {
		coords[i] = t.Key[0]
	}
	s := &SRS{aggIndex: aggIndex}
	for q := 1; q < k; q++ {
		s.bounds = append(s.bounds, stats.Percentile(coords, float64(q)/float64(k)))
	}
	for i := 0; i < k; i++ {
		r := reservoir.New(lowerBoundPerStratum, seed+int64(i), nil)
		r.Init(nil, 0)
		s.strata = append(s.strata, r)
	}
	for _, t := range initial {
		s.strata[s.stratumOf(t)].Insert(t)
	}
	// Fix populations: Insert above counted only sampled tuples; reset the
	// per-stratum populations proportionally from the real population.
	counts := make([]int64, k)
	for _, t := range initial {
		counts[s.stratumOf(t)]++
	}
	total := int64(len(initial))
	for i, r := range s.strata {
		pop := int64(0)
		if total > 0 {
			pop = population * counts[i] / total
		}
		r.Init(r.Items(), pop)
	}
	return s
}

func (s *SRS) stratumOf(t data.Tuple) int {
	x := t.Key[0]
	for i, b := range s.bounds {
		if x <= b {
			return i
		}
	}
	return len(s.strata) - 1
}

// Name implements System.
func (s *SRS) Name() string { return "SRS" }

// Insert implements System.
func (s *SRS) Insert(t data.Tuple) { s.strata[s.stratumOf(t)].Insert(t) }

// Delete implements System.
func (s *SRS) Delete(t data.Tuple) { s.strata[s.stratumOf(t)].Delete(t.ID) }

// Answer combines per-stratum estimates with the standard stratified
// formulas.
func (s *SRS) Answer(q core.Query) (core.Result, error) {
	aggIdx := q.AggIndex
	if aggIdx < 0 {
		aggIdx = s.aggIndex
	}
	conf := q.Confidence
	if conf == 0 {
		conf = 0.95
	}
	z := stats.ZForConfidence(conf)
	var sumEst, cntEst, nuSum, nuCnt float64
	var nq float64
	minV, maxV := math.Inf(1), math.Inf(-1)
	type stratumView struct {
		matching stats.Moments
		mi       int64
		ni       float64
	}
	views := make([]stratumView, 0, len(s.strata))
	for _, r := range s.strata {
		var matching, ones stats.Moments
		for _, t := range r.Items() {
			if q.Rect.Contains(t.Key) {
				v := t.Val(aggIdx)
				matching.Add(v)
				ones.Add(1)
				if v < minV {
					minV = v
				}
				if v > maxV {
					maxV = v
				}
			}
		}
		mi := int64(r.Len())
		ni := float64(r.Population())
		sumEst += stats.SumEstimate(matching.Sum, mi, ni)
		cntEst += stats.SumEstimate(ones.Sum, mi, ni)
		nuSum += stats.ScaledSumVarianceTerm(matching, mi, ni)
		nuCnt += stats.ScaledSumVarianceTerm(ones, mi, ni)
		nq += ni
		views = append(views, stratumView{matching: matching, mi: mi, ni: ni})
	}
	switch q.Func {
	case core.FuncSum:
		return core.Result{Estimate: sumEst, Interval: stats.NewInterval(sumEst, 0, nuSum, z)}, nil
	case core.FuncCount:
		return core.Result{Estimate: cntEst, Interval: stats.NewInterval(cntEst, 0, nuCnt, z)}, nil
	case core.FuncAvg:
		var est float64
		if cntEst > 0 {
			est = sumEst / cntEst
		}
		var nu float64
		for _, v := range views {
			if nq > 0 {
				nu += stats.ScaledAvgVarianceTerm(v.matching, v.mi, v.matching.N, v.ni/nq)
			}
		}
		return core.Result{Estimate: est, Interval: stats.NewInterval(est, 0, nu, z)}, nil
	case core.FuncMin:
		return core.Result{Estimate: minV, Outer: true}, nil
	case core.FuncMax:
		return core.Result{Estimate: maxV, Outer: true}, nil
	}
	return core.Result{}, fmt.Errorf("baselines: unsupported aggregate %v", q.Func)
}
