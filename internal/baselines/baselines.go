// Package baselines implements the comparison systems of the paper's
// evaluation (Section 6.1.3):
//
//   - SRS — stratified sampling over an equal-depth partitioning of the
//     first predicate attribute.
//   - RS — uniform sampling, which is SRS with one stratum: NewSRS(1, …).
//   - Learned — the DeepDB stand-in: a fixed-capacity learned density/sum
//     model trained offline on a sample; see learned.go for the
//     substitution rationale.
//
// RS and SRS are static: they answer from the sample they were built on,
// and the experiments rebuild them wherever the paper re-samples. Their
// budget is that sample — the strata together keep every row of it — and
// they answer through core.AnswerSample, the estimator JanusAQP's partial
// leaves and its on-keys fallback use.
//
// The static-DPT baseline ("DPT-only": a JanusAQP synopsis with
// re-partitioning disabled) is configured through the public janus.Engine
// rather than duplicated here.
//
// All baselines answer the same core.Query type so the experiment harness
// can swap systems freely.
package baselines

import (
	"janusaqp/internal/core"
	"janusaqp/internal/data"
	"janusaqp/internal/stats"
)

// SRS answers queries from a sample split into strata on the first key
// attribute, with equal-depth boundaries fixed at construction.
type SRS struct {
	strata   [][]data.Tuple
	pops     []float64 // estimated population of each stratum
	aggIndex int
}

// NewSRS builds the stratified baseline over sample, a uniform sample of a
// population of the given size: the k-1 stratum boundaries are the
// equal-depth quantiles of the sample's first key attribute, every sample
// goes to its stratum, and stratum i is credited population·count_i/
// len(sample) rows.
func NewSRS(k int, sample []data.Tuple, population int64, aggIndex int) *SRS {
	k = max(k, 1)
	coords := make([]float64, len(sample))
	for i, t := range sample {
		coords[i] = t.Key[0]
	}
	bounds := make([]float64, 0, k-1)
	for q := 1; q < k; q++ {
		bounds = append(bounds, stats.Percentile(coords, float64(q)/float64(k)))
	}
	s := &SRS{strata: make([][]data.Tuple, k), pops: make([]float64, k), aggIndex: aggIndex}
	for _, t := range sample {
		i := 0
		for i < len(bounds) && !(t.Key[0] <= bounds[i]) {
			i++
		}
		s.strata[i] = append(s.strata[i], t)
	}
	for i, st := range s.strata {
		if len(st) > 0 {
			s.pops[i] = float64(population * int64(len(st)) / int64(len(sample)))
		}
	}
	return s
}

// Answer estimates the query from the strata.
func (s *SRS) Answer(q core.Query) (core.Result, error) {
	aggIdx := q.AggIndex
	if aggIdx < 0 {
		aggIdx = s.aggIndex
	}
	p, err := core.AnswerSample(q, aggIdx, nil, s.strata, s.pops)
	if err != nil {
		return core.Result{}, err
	}
	return core.MergePartials([]core.Partial{p}, q.Confidence)
}
