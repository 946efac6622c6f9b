package stats

import (
	"math"
	"testing"
)

func TestSumMergeAddsEstimatesAndVariances(t *testing.T) {
	var acc SumMerge
	acc.Add(100, 4)
	acc.Add(50, 9)
	acc.Add(25, 0)
	if acc.Est != 175 {
		t.Fatalf("Est = %g, want 175", acc.Est)
	}
	if acc.Var != 13 {
		t.Fatalf("Var = %g, want 13", acc.Var)
	}
	iv := acc.Interval(2)
	if want := 2 * math.Sqrt(13); math.Abs(iv.HalfWidth-want) > 1e-12 {
		t.Fatalf("HalfWidth = %g, want %g", iv.HalfWidth, want)
	}
	if iv.Estimate != 175 {
		t.Fatalf("Interval.Estimate = %g, want 175", iv.Estimate)
	}
}

func TestExtremeMerge(t *testing.T) {
	minAcc := NewExtremeMerge(false)
	maxAcc := NewExtremeMerge(true)
	if _, seen := minAcc.Extreme(); seen {
		t.Fatal("fresh accumulator must report nothing seen")
	}
	for _, v := range []float64{3, -7, 12, 0} {
		minAcc.Add(v)
		maxAcc.Add(v)
	}
	if v, seen := minAcc.Extreme(); !seen || v != -7 {
		t.Fatalf("min = %g/%v, want -7/true", v, seen)
	}
	if v, seen := maxAcc.Extreme(); !seen || v != 12 {
		t.Fatalf("max = %g/%v, want 12/true", v, seen)
	}
}
