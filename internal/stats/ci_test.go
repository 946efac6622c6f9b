package stats

import (
	"fmt"
	"math"
	"testing"
)

func TestZForConfidence(t *testing.T) {
	cases := []struct {
		level float64
		want  float64
	}{
		{0.95, 1.959964},
		{0.99, 2.575829},
		{0.90, 1.644854},
		{0.6827, 1.0}, // one sigma
	}
	for _, c := range cases {
		got := ZForConfidence(c.level)
		if math.Abs(got-c.want) > 1e-3 {
			t.Errorf("ZForConfidence(%g) = %g, want %g", c.level, got, c.want)
		}
	}
	if ZForConfidence(0) != 0 {
		t.Error("level 0 should give z=0")
	}
	if !math.IsInf(ZForConfidence(1), 1) {
		t.Error("level 1 should give +Inf")
	}
}

// zReference is the bisection ZForConfidence ran before it learned to stop
// at its fixed point: 200 halvings, most of them no-ops.
func zReference(level float64) float64 {
	if level <= 0 {
		return 0
	}
	if level >= 1 {
		return math.Inf(1)
	}
	lo, hi := 0.0, 40.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if math.Erf(mid/math.Sqrt2) < level {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// TestZForConfidenceMatchesFullBisection pins the early stop to the full
// 200-step loop bit for bit: over a dense sweep of (0,1), at levels hugging
// both ends, at the ends themselves, and at the levels the answer golden
// (internal/core/testdata/answers.golden) was recorded with.
func TestZForConfidenceMatchesFullBisection(t *testing.T) {
	levels := []float64{0, 1, -1, 2, 0.80, 0.95, 0.99,
		math.SmallestNonzeroFloat64, 1e-300, 1e-16, math.Nextafter(1, 0), 1 - 1e-9}
	const sweep = 20000
	for i := 1; i < sweep; i++ {
		levels = append(levels, float64(i)/sweep)
	}
	for _, level := range levels {
		got, want := ZForConfidence(level), zReference(level)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ZForConfidence(%g) = %x, 200-step bisection gives %x", level, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

func TestIntervalCovers(t *testing.T) {
	iv := NewInterval(100, 4, 5, 2) // ±2*3 = ±6
	if math.Abs(iv.HalfWidth-6) > 1e-12 {
		t.Fatalf("HalfWidth = %g, want 6", iv.HalfWidth)
	}
	if !iv.Covers(94) || !iv.Covers(106) || !iv.Covers(100) {
		t.Error("interval must cover its endpoints and center")
	}
	if iv.Covers(93.9) || iv.Covers(106.1) {
		t.Error("interval must not cover points outside")
	}
	if iv.Lo() != 94 || iv.Hi() != 106 {
		t.Errorf("Lo/Hi = %g/%g", iv.Lo(), iv.Hi())
	}
}

func TestNewIntervalClampsNegativeVariance(t *testing.T) {
	iv := NewInterval(0, -1, 0.5, 1)
	if math.IsNaN(iv.HalfWidth) {
		t.Error("negative combined variance must not produce NaN")
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelativeError = %g, want 0.1", got)
	}
	if got := RelativeError(0, 0); got != 0 {
		t.Errorf("RelativeError(0,0) = %g, want 0", got)
	}
	if got := RelativeError(5, 0); got != 1 {
		t.Errorf("RelativeError(5,0) = %g, want 1", got)
	}
	if got := RelativeError(-90, -100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelativeError negative truth = %g, want 0.1", got)
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	if got := Median(vals); got != 3 {
		t.Errorf("Median = %g, want 3", got)
	}
	if got := Percentile(vals, 0); got != 1 {
		t.Errorf("P0 = %g, want 1", got)
	}
	if got := Percentile(vals, 1); got != 5 {
		t.Errorf("P100 = %g, want 5", got)
	}
	if got := Percentile(vals, 0.25); got != 2 {
		t.Errorf("P25 = %g, want 2", got)
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{0, 10}, 0.5); got != 5 {
		t.Errorf("interpolated P50 = %g, want 5", got)
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %g, want 0", got)
	}
	// Input must be untouched.
	if vals[0] != 5 {
		t.Error("Percentile must not mutate its input")
	}
}

func TestMeanHelper(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %g, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g, want 0", got)
	}
}

// BenchmarkZForConfidence times the quantile at the default level, which
// every answer asking for no level takes, and at a level that bisects.
//
//	go test -run '^$' -bench ZForConfidence ./internal/stats
func BenchmarkZForConfidence(b *testing.B) {
	for _, level := range []float64{0.95, 0.99} {
		b.Run(fmt.Sprintf("level=%g", level), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				ZForConfidence(level)
			}
		})
	}
}
