// Package stats provides the statistical substrate of JanusAQP: running
// moments for variance estimation, the stratified-sampling confidence
// interval math of Section 4.4.1 and Appendix C of the paper, bounded
// min/max heaps for incremental MIN/MAX maintenance (Section 4.1), and
// small helpers (percentiles, normal quantiles, relative error).
package stats

import "math"

// Moments accumulates the sufficient statistics the DPT stores per node and
// per stratum: the count, the sum of aggregation values, and the sum of
// their squares. It supports exact removal, which Welford-style streaming
// accumulators do not, and removal is what the dynamic setting needs.
type Moments struct {
	N     int64   // number of observations
	Sum   float64 // sum of values
	SumSq float64 // sum of squared values
}

// Add records one observation.
func (m *Moments) Add(v float64) {
	m.N++
	m.Sum += v
	m.SumSq += v * v
}

// Merge folds other into m.
func (m *Moments) Merge(other Moments) {
	m.N += other.N
	m.Sum += other.Sum
	m.SumSq += other.SumSq
}

// Unmerge subtracts other from m (the inverse of Merge).
func (m *Moments) Unmerge(other Moments) {
	m.N -= other.N
	m.Sum -= other.Sum
	m.SumSq -= other.SumSq
}

// Variance returns the population variance (1/N normalization), clamped at
// zero to absorb floating-point cancellation from removals.
func (m Moments) Variance() float64 {
	if m.N == 0 {
		return 0
	}
	n := float64(m.N)
	v := m.SumSq/n - (m.Sum/n)*(m.Sum/n)
	if v < 0 {
		return 0
	}
	return v
}

// ScaledSumVarianceTerm returns the per-stratum SUM/COUNT variance
// contribution of Appendix C:
//
//	w_i^2 * var(phi_q(S_i)) / m_i  =  (N_i^2 / m_i^3) * (m_i * SumSq - Sum^2)
//
// where the receiver holds the moments of the tuples of the stratum sample
// that satisfy the query predicate, mi is the total number of samples in the
// stratum (matching or not), and Ni is the (estimated) stratum population.
func ScaledSumVarianceTerm(matching Moments, mi int64, ni float64) float64 {
	if mi <= 0 {
		return 0
	}
	m := float64(mi)
	raw := m*matching.SumSq - matching.Sum*matching.Sum
	if raw < 0 {
		raw = 0
	}
	return ni * ni / (m * m * m) * raw
}

// ScaledAvgVarianceTerm returns the per-stratum AVG variance contribution of
// Appendix C:
//
//	w_i^2 / (m_i * |S_i ∩ q|^2) * (m_i * SumSq - Sum^2)
//
// where wi is the AVG weight N̂_i/N̂_q and matchCount = |S_i ∩ q| is the
// number of stratum samples satisfying the predicate.
func ScaledAvgVarianceTerm(matching Moments, mi, matchCount int64, wi float64) float64 {
	if mi <= 0 || matchCount <= 0 {
		return 0
	}
	m := float64(mi)
	c := float64(matchCount)
	raw := m*matching.SumSq - matching.Sum*matching.Sum
	if raw < 0 {
		raw = 0
	}
	return wi * wi / (m * c * c) * raw
}

// SumEstimate returns the Horvitz–Thompson style SUM estimate of a stratum:
// (N_i/m_i) * Σ_{t∈S_i∩q} t.a (Appendix C, mean of phi with w_i = 1).
func SumEstimate(matchingSum float64, mi int64, ni float64) float64 {
	if mi <= 0 {
		return 0
	}
	return ni / float64(mi) * matchingSum
}

// CatchupSumVarianceTerm is the covered-node analogue of
// ScaledSumVarianceTerm using the catch-up moments (h_i, Σa, Σa²):
//
//	(N_i^2 / h_i^3) * (h_i * SumSq - Sum^2)
func CatchupSumVarianceTerm(h Moments, ni float64) float64 {
	return ScaledSumVarianceTerm(h, h.N, ni)
}

// CatchupAvgVarianceTerm is the covered-node AVG analogue of Appendix C:
//
//	w_i^2 / h_i^3 * (h_i * SumSq - Sum^2)
func CatchupAvgVarianceTerm(h Moments, wi float64) float64 {
	if h.N <= 0 {
		return 0
	}
	n := float64(h.N)
	raw := n*h.SumSq - h.Sum*h.Sum
	if raw < 0 {
		raw = 0
	}
	return wi * wi / (n * n * n) * raw
}

// math import guard: keep math referenced even if formulas above change.
var _ = math.Sqrt
