package stats

import "math"

// ZForConfidence returns the two-sided standard-normal quantile for the
// given confidence level (e.g. 0.95 -> 1.959964...). It inverts the normal
// CDF with a bisection over erf, which is exact enough for interval
// construction and avoids shipping a rational approximation table.
func ZForConfidence(level float64) float64 {
	if level == 0.95 {
		return z95
	}
	return bisectZ(level)
}

// z95 is the quantile at the default level, which nearly every answer asks
// for: bisected once.
var z95 = bisectZ(0.95)

func bisectZ(level float64) float64 {
	if level <= 0 {
		return 0
	}
	if level >= 1 {
		return math.Inf(1)
	}
	// Want z with  erf(z/sqrt2) = level. The bracket keeps
	// erf(lo/sqrt2) < level <= erf(hi/sqrt2), so once the midpoint rounds
	// onto an end (some 60-80 halvings in, for any level an interval is
	// asked at) every further step would re-assign that end to itself: the
	// bisection has converged. Levels within ~1e-59 of zero bracket a
	// subnormal and run into the step budget instead.
	lo, hi := 0.0, 40.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break
		}
		if math.Erf(mid/math.Sqrt2) < level {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Interval is a symmetric confidence interval around a point estimate.
type Interval struct {
	Estimate  float64
	HalfWidth float64 // the ± part: z * sqrt(nu_c + nu_s)
}

// Lo returns the lower end of the interval.
func (iv Interval) Lo() float64 { return iv.Estimate - iv.HalfWidth }

// Hi returns the upper end of the interval.
func (iv Interval) Hi() float64 { return iv.Estimate + iv.HalfWidth }

// Covers reports whether truth lies inside the interval.
func (iv Interval) Covers(truth float64) bool {
	return truth >= iv.Lo() && truth <= iv.Hi()
}

// NewInterval combines the catch-up variance nu_c and the sample-estimate
// variance nu_s into the overall confidence interval of Section 4.4.1:
// estimate ± z*sqrt(nu_c + nu_s).
func NewInterval(estimate, nuC, nuS, z float64) Interval {
	v := nuC + nuS
	if v < 0 {
		v = 0
	}
	return Interval{Estimate: estimate, HalfWidth: z * math.Sqrt(v)}
}

// RelativeError returns |est-truth| / |truth|. When truth is zero the
// convention of the paper's harness applies: zero estimate is a perfect
// answer, any other estimate counts as 100% error.
func RelativeError(est, truth float64) float64 {
	if truth == 0 {
		if est == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(est-truth) / math.Abs(truth)
}
