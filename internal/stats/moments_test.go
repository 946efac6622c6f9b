package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// one is the Moments of the single observation v, so that Unmerge(one(v))
// removes v.
func one(v float64) Moments {
	var m Moments
	m.Add(v)
	return m
}

func TestMomentsAddRemove(t *testing.T) {
	var m Moments
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	for _, v := range vals {
		m.Add(v)
	}
	if m.N != 8 {
		t.Fatalf("N = %d, want 8", m.N)
	}
	if got, want := m.Sum, 31.0; got != want {
		t.Errorf("Sum = %g, want %g", got, want)
	}
	// Remove everything; moments should return to zero (within epsilon).
	for _, v := range vals {
		m.Unmerge(one(v))
	}
	if m.N != 0 || math.Abs(m.Sum) > 1e-9 || math.Abs(m.SumSq) > 1e-9 {
		t.Errorf("after removal: %+v, want zeroed", m)
	}
}

func TestMomentsVarianceMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var m Moments
	var vals []float64
	for i := 0; i < 500; i++ {
		v := rng.NormFloat64()*10 + 3
		vals = append(vals, v)
		m.Add(v)
	}
	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	direct := 0.0
	for _, v := range vals {
		direct += (v - mean) * (v - mean)
	}
	direct /= float64(len(vals))
	if math.Abs(m.Variance()-direct) > 1e-6*direct {
		t.Errorf("Variance = %g, direct = %g", m.Variance(), direct)
	}
}

func TestMomentsMergeUnmergeProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		var ma, mb, merged Moments
		for _, v := range append(append([]float64(nil), a...), b...) {
			if math.IsNaN(v) || math.Abs(v) > 1e150 {
				return true
			}
		}
		for _, v := range a {
			ma.Add(v)
			merged.Add(v)
		}
		for _, v := range b {
			mb.Add(v)
			merged.Add(v)
		}
		var combined Moments
		combined.Merge(ma)
		combined.Merge(mb)
		if combined.N != merged.N {
			return false
		}
		combined.Unmerge(mb)
		return combined.N == ma.N && math.Abs(combined.Sum-ma.Sum) < 1e-6*(1+math.Abs(ma.Sum))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVarianceNeverNegative(t *testing.T) {
	f := func(vals []float64) bool {
		var m Moments
		for _, v := range vals {
			// Squaring values near MaxFloat64 overflows to +Inf; restrict
			// the property to the finite-arithmetic domain.
			if math.IsNaN(v) || math.Abs(v) > 1e150 {
				return true
			}
			m.Add(v)
		}
		// Remove half to stress cancellation.
		for i, v := range vals {
			if i%2 == 0 {
				m.Unmerge(one(v))
			}
		}
		return m.Variance() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestScaledSumVarianceTermMatchesDefinition(t *testing.T) {
	// For a SUM query over a stratum with samples S_i, the paper defines
	// the contribution (N_i^2/m_i^3)(m_i*Σa² − (Σa)²) over matching tuples.
	var matching Moments
	matching.Add(2)
	matching.Add(4)
	mi := int64(10)
	ni := 100.0
	want := ni * ni / 1000.0 * (10.0*(4+16) - 36)
	got := ScaledSumVarianceTerm(matching, mi, ni)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("ScaledSumVarianceTerm = %g, want %g", got, want)
	}
	if ScaledSumVarianceTerm(matching, 0, ni) != 0 {
		t.Error("zero samples must produce zero variance term")
	}
}

func TestScaledAvgVarianceTerm(t *testing.T) {
	var matching Moments
	matching.Add(1)
	matching.Add(3)
	got := ScaledAvgVarianceTerm(matching, 8, 2, 0.5)
	// w^2/(m*c^2) * (m*SumSq - Sum^2) = 0.25/(8*4) * (8*10 - 16) = 0.25/32*64
	want := 0.25 / 32.0 * 64.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("ScaledAvgVarianceTerm = %g, want %g", got, want)
	}
}

func TestSumEstimate(t *testing.T) {
	if got := SumEstimate(6, 3, 300); got != 600 {
		t.Errorf("SumEstimate = %g, want 600", got)
	}
	if got := SumEstimate(6, 0, 300); got != 0 {
		t.Errorf("SumEstimate with mi=0 = %g, want 0", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	var m Moments
	if m.Mean() != 0 {
		t.Error("empty Mean should be 0")
	}
}
