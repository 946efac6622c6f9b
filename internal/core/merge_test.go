package core

import (
	"math"
	"math/rand"
	"testing"

	"janusaqp/internal/geom"
)

// TestAnswerPartialConsistentWithAnswer pins the local answer to the
// mergeable form: a single synopsis's Partial, merged alone, must reproduce
// Answer's estimate and interval bit for bit — the 1-shard group answers
// byte-for-byte like a bare engine.
func TestAnswerPartialConsistentWithAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tuples := makeTuples(rng, 12000, 0)
	dpt, _ := buildDPT(t, tuples, defaultCfg())

	rects := []geom.Rect{
		geom.Universe(1),
		geom.NewRect(geom.Point{100}, geom.Point{600}),
		geom.NewRect(geom.Point{0}, geom.Point{333}),
	}
	for _, rect := range rects {
		for _, f := range []Func{FuncSum, FuncCount, FuncAvg, FuncMin, FuncMax, FuncVariance, FuncStdDev} {
			q := Query{Func: f, AggIndex: -1, Rect: rect}
			want, err := dpt.Answer(q)
			if err != nil {
				t.Fatalf("%v: Answer: %v", f, err)
			}
			p, err := dpt.AnswerPartial(q)
			if err != nil {
				t.Fatalf("%v: AnswerPartial: %v", f, err)
			}
			got, err := MergePartials([]Partial{p}, 0.95)
			if err != nil {
				t.Fatalf("%v: MergePartials: %v", f, err)
			}
			if math.Float64bits(got.Estimate) != math.Float64bits(want.Estimate) {
				t.Errorf("%v over %v: merged estimate %g, Answer %g", f, rect, got.Estimate, want.Estimate)
			}
			if math.Float64bits(got.Interval.HalfWidth) != math.Float64bits(want.Interval.HalfWidth) {
				t.Errorf("%v over %v: merged half-width %g, Answer %g", f, rect, got.Interval.HalfWidth, want.Interval.HalfWidth)
			}
			if got.Outer != want.Outer {
				t.Errorf("%v over %v: merged Outer %v, Answer %v", f, rect, got.Outer, want.Outer)
			}
			if got.Covered != want.Covered || got.Partial != want.Partial {
				t.Errorf("%v over %v: merged decomposition %d/%d, Answer %d/%d",
					f, rect, got.Covered, got.Partial, want.Covered, want.Partial)
			}
		}
	}
}

// levelFor returns the confidence level whose two-sided normal quantile is
// z, so the hand-computed half-widths below can keep their round z.
func levelFor(z float64) float64 { return math.Erf(z / math.Sqrt2) }

func TestMergePartialsSumAndCountAdd(t *testing.T) {
	parts := []Partial{
		{Func: FuncSum, Sum: 100, SumVar: 4, Covered: 2},
		{Func: FuncSum, Sum: 50, SumVar: 9, PartialLeaves: 1},
	}
	res, err := MergePartials(parts, levelFor(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 150 {
		t.Fatalf("SUM estimate = %g, want 150", res.Estimate)
	}
	if want := 2 * math.Sqrt(13); math.Abs(res.Interval.HalfWidth-want) > 1e-12 {
		t.Fatalf("SUM half-width = %g, want %g", res.Interval.HalfWidth, want)
	}
	if res.Covered != 2 || res.Partial != 1 {
		t.Fatalf("decomposition = %d/%d, want 2/1", res.Covered, res.Partial)
	}
}

func TestMergePartialsAvgIsRatioOfPooledSums(t *testing.T) {
	// Shard A: 100 rows averaging 10; shard B: 300 rows averaging 40.
	parts := []Partial{
		{Func: FuncAvg, Sum: 1000, Count: 100, AvgVar: 1},
		{Func: FuncAvg, Sum: 12000, Count: 300, AvgVar: 2},
	}
	res, err := MergePartials(parts, levelFor(1))
	if err != nil {
		t.Fatal(err)
	}
	if want := 13000.0 / 400; math.Abs(res.Estimate-want) > 1e-12 {
		t.Fatalf("AVG estimate = %g, want %g", res.Estimate, want)
	}
	wantVar := (100.0*100*1 + 300.0*300*2) / (400.0 * 400)
	if want := math.Sqrt(wantVar); math.Abs(res.Interval.HalfWidth-want) > 1e-12 {
		t.Fatalf("AVG half-width = %g, want %g", res.Interval.HalfWidth, want)
	}
}

// TestMergePartialsAvgIgnoresEmptyShards: a shard matching no rows carries
// no weight and no information, whatever its other fields say, and a merge
// of only such shards answers zero with zero width.
func TestMergePartialsAvgIgnoresEmptyShards(t *testing.T) {
	parts := []Partial{
		{Func: FuncAvg, Sum: 123, Count: 0, AvgVar: 456}, // must not poison the pool
		{Func: FuncAvg, Sum: 500, Count: 50, AvgVar: 1},
	}
	res, err := MergePartials(parts, levelFor(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 10 || math.Abs(res.Interval.HalfWidth-1) > 1e-12 {
		t.Fatalf("AVG = %g ± %g, want 10 ± 1", res.Estimate, res.Interval.HalfWidth)
	}
	empty, err := MergePartials(parts[:1], levelFor(1))
	if err != nil {
		t.Fatal(err)
	}
	if empty.Estimate != 0 || empty.Interval.HalfWidth != 0 {
		t.Fatalf("all-empty AVG must answer zeros, got %g ± %g", empty.Estimate, empty.Interval.HalfWidth)
	}
}

// TestMergedAvgTelescopesAcrossRealShards pins the AVG merge weights to
// the *matching* count estimates: over two synopses with very different
// selectivities under the same predicate, the merged AVG must equal the
// ratio of the merged SUM and COUNT partials (weighting by the relevant-
// partition population instead would drag the pooled mean toward the
// low-selectivity shard).
func TestMergedAvgTelescopesAcrossRealShards(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Shard A's keys concentrate in [0,300); shard B's in [600,1000) — the
	// probe rectangle [0,500] matches most of A and almost none of B.
	shardA := makeTuples(rng, 8000, 0)
	for i := range shardA {
		shardA[i].Key[0] *= 0.3
	}
	shardB := makeTuples(rng, 8000, 100000)
	for i := range shardB {
		shardB[i].Key[0] = 600 + shardB[i].Key[0]*0.4
	}
	dptA, _ := buildDPT(t, shardA, defaultCfg())
	dptB, _ := buildDPT(t, shardB, defaultCfg())

	rect := geom.NewRect(geom.Point{0}, geom.Point{500})
	var avgParts, sumParts, cntParts []Partial
	for _, d := range []*DPT{dptA, dptB} {
		pa, err := d.AnswerPartial(Query{Func: FuncAvg, AggIndex: -1, Rect: rect})
		if err != nil {
			t.Fatal(err)
		}
		ps, err := d.AnswerPartial(Query{Func: FuncSum, AggIndex: -1, Rect: rect})
		if err != nil {
			t.Fatal(err)
		}
		pc, err := d.AnswerPartial(Query{Func: FuncCount, AggIndex: -1, Rect: rect})
		if err != nil {
			t.Fatal(err)
		}
		avgParts = append(avgParts, pa)
		sumParts = append(sumParts, ps)
		cntParts = append(cntParts, pc)
	}
	avg, err := MergePartials(avgParts, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := MergePartials(sumParts, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := MergePartials(cntParts, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	want := sum.Estimate / cnt.Estimate
	if math.Abs(avg.Estimate-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("merged AVG %g, want merged SUM/COUNT %g", avg.Estimate, want)
	}
	// The pooled mean must sit near shard A's mean (it holds nearly all
	// matching rows), not halfway to shard B's.
	aOnly, err := MergePartials(avgParts[:1], 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avg.Estimate-aOnly.Estimate) > 0.25*math.Abs(aOnly.Estimate) {
		t.Fatalf("merged AVG %g strays from the dominant shard's %g", avg.Estimate, aOnly.Estimate)
	}
}

func TestMergePartialsMinMax(t *testing.T) {
	parts := []Partial{
		{Func: FuncMin, Extreme: 5, Seen: true},
		{Func: FuncMin, Extreme: -2, Seen: true, Outer: true},
		{Func: FuncMin}, // empty shard
	}
	res, err := MergePartials(parts, levelFor(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != -2 || !res.Outer {
		t.Fatalf("MIN = %g outer=%v, want -2 outer=true", res.Estimate, res.Outer)
	}
	none, err := MergePartials([]Partial{{Func: FuncMax}}, levelFor(1))
	if err != nil {
		t.Fatal(err)
	}
	if !none.Outer || none.Estimate != 0 {
		t.Fatalf("empty MAX must answer zero with Outer set, got %g/%v", none.Estimate, none.Outer)
	}
}

func TestMergePartialsVarianceComposes(t *testing.T) {
	// Two shards of a population whose pooled variance differs from both
	// shard-local variances: values {0,0} and {10,10}.
	parts := []Partial{
		{Func: FuncVariance, Sum: 0, Count: 2, SumSq: 0},
		{Func: FuncVariance, Sum: 20, Count: 2, SumSq: 200},
	}
	res, err := MergePartials(parts, levelFor(1))
	if err != nil {
		t.Fatal(err)
	}
	// mean 5, E[a²] 50 → var 25.
	if math.Abs(res.Estimate-25) > 1e-12 {
		t.Fatalf("VARIANCE = %g, want 25", res.Estimate)
	}
	if !res.Outer {
		t.Fatal("composed estimators must report Outer (no CI guarantee)")
	}
}

func TestMergePartialsRejectsMismatchAndEmpty(t *testing.T) {
	if _, err := MergePartials(nil, levelFor(1)); err == nil {
		t.Fatal("empty merge must error")
	}
	parts := []Partial{{Func: FuncSum}, {Func: FuncCount}}
	if _, err := MergePartials(parts, levelFor(1)); err == nil {
		t.Fatal("mixed-function merge must error")
	}
}
