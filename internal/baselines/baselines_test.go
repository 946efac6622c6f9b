package baselines

import (
	"math"
	"math/rand"
	"testing"

	"janusaqp/internal/core"
	"janusaqp/internal/data"
	"janusaqp/internal/geom"
	"janusaqp/internal/stats"
)

func genTuples(rng *rand.Rand, n int, start int64) []data.Tuple {
	out := make([]data.Tuple, n)
	for i := range out {
		out[i] = data.Tuple{
			ID:   start + int64(i),
			Key:  geom.Point{rng.Float64() * 100},
			Vals: []float64{math.Abs(rng.NormFloat64())*10 + 1},
		}
	}
	return out
}

func truth(tuples []data.Tuple, live map[int64]bool, f core.Func, rect geom.Rect) float64 {
	var sum, cnt float64
	for _, t := range tuples {
		if live != nil && !live[t.ID] {
			continue
		}
		if rect.Contains(t.Key) {
			sum += t.Vals[0]
			cnt++
		}
	}
	switch f {
	case core.FuncSum:
		return sum
	case core.FuncCount:
		return cnt
	case core.FuncAvg:
		if cnt == 0 {
			return 0
		}
		return sum / cnt
	}
	return 0
}

func sample(rng *rand.Rand, tuples []data.Tuple, k int) []data.Tuple {
	idx := rng.Perm(len(tuples))[:k]
	out := make([]data.Tuple, k)
	for i, j := range idx {
		out[i] = tuples[j]
	}
	return out
}

func TestRSEstimatesAndIntervals(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tuples := genTuples(rng, 50000, 0)
	rs := NewRS(1000, 2, sample(rng, tuples, 2000), int64(len(tuples)), 0, nil)
	coveredTrials, coveredHits := 0, 0
	var errs []float64
	for trial := 0; trial < 100; trial++ {
		lo := rng.Float64() * 80
		rect := geom.NewRect(geom.Point{lo}, geom.Point{lo + 10 + rng.Float64()*15})
		want := truth(tuples, nil, core.FuncSum, rect)
		if want == 0 {
			continue
		}
		res, err := rs.Answer(core.Query{Func: core.FuncSum, AggIndex: -1, Rect: rect})
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, stats.RelativeError(res.Estimate, want))
		coveredTrials++
		if res.Interval.Covers(want) {
			coveredHits++
		}
	}
	if med := stats.Median(errs); med > 0.15 {
		t.Errorf("RS median relative error %.3f too high for 4%% sample", med)
	}
	if rate := float64(coveredHits) / float64(coveredTrials); rate < 0.8 {
		t.Errorf("RS 95%% CI coverage only %.0f%%", rate*100)
	}
}

func TestRSSupportsAllAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tuples := genTuples(rng, 5000, 0)
	rs := NewRS(500, 3, sample(rng, tuples, 1000), int64(len(tuples)), 0, nil)
	all := geom.Universe(1)
	for _, f := range []core.Func{core.FuncSum, core.FuncCount, core.FuncAvg, core.FuncMin, core.FuncMax} {
		res, err := rs.Answer(core.Query{Func: f, AggIndex: -1, Rect: all})
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if math.IsNaN(res.Estimate) {
			t.Errorf("%v: NaN estimate", f)
		}
	}
}

func TestSRSBeatsRSOnSkewedStrata(t *testing.T) {
	// Data with region-dependent variance: stratification should cut error.
	rng := rand.New(rand.NewSource(3))
	var tuples []data.Tuple
	id := int64(0)
	for i := 0; i < 30000; i++ {
		x := rng.Float64() * 100
		v := 1.0
		if x > 80 { // a fifth of the domain carries wild values
			v = rng.Float64() * 1000
		}
		tuples = append(tuples, data.Tuple{ID: id, Key: geom.Point{x}, Vals: []float64{v}})
		id++
	}
	init := sample(rng, tuples, 3000)
	rs := NewRS(1500, 4, init, int64(len(tuples)), 0, nil)
	srs := NewSRS(16, 94, 5, init, int64(len(tuples)), 0) // ~same total budget
	var rsErrs, srsErrs []float64
	for trial := 0; trial < 200; trial++ {
		lo := rng.Float64() * 90
		rect := geom.NewRect(geom.Point{lo}, geom.Point{lo + 10})
		want := truth(tuples, nil, core.FuncSum, rect)
		if want == 0 {
			continue
		}
		r1, _ := rs.Answer(core.Query{Func: core.FuncSum, AggIndex: -1, Rect: rect})
		r2, _ := srs.Answer(core.Query{Func: core.FuncSum, AggIndex: -1, Rect: rect})
		rsErrs = append(rsErrs, stats.RelativeError(r1.Estimate, want))
		srsErrs = append(srsErrs, stats.RelativeError(r2.Estimate, want))
	}
	rsMed, srsMed := stats.Median(rsErrs), stats.Median(srsErrs)
	if srsMed > rsMed*1.5 {
		t.Errorf("SRS (%.3f) should not be much worse than RS (%.3f) on skewed data", srsMed, rsMed)
	}
}

func TestSRSInsertDeleteRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tuples := genTuples(rng, 2000, 0)
	srs := NewSRS(4, 100, 6, sample(rng, tuples, 800), 2000, 0)
	size := func() (n int) {
		for _, r := range srs.strata {
			n += r.Len()
		}
		return n
	}
	before := size()
	fresh := genTuples(rng, 100, 10_000)
	for _, tp := range fresh {
		srs.Insert(tp)
	}
	if size() < before {
		t.Error("inserts should not shrink the stratified sample")
	}
	for _, tp := range fresh {
		srs.Delete(tp)
	}
	// Deleting unseen tuples is harmless.
	srs.Delete(data.Tuple{ID: 999_999, Key: geom.Point{50}})
}

func TestLearnedModelAccuracyAndStaleness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tuples := genTuples(rng, 40000, 0)
	l := NewLearned(1, 0)
	if _, err := l.Answer(core.Query{Func: core.FuncSum, Rect: geom.Universe(1)}); err == nil {
		t.Fatal("untrained model must refuse to answer")
	}
	l.Train(sample(rng, tuples, 4000), int64(len(tuples)))
	if !l.trained {
		t.Fatal("model should be trained")
	}
	var errs []float64
	for trial := 0; trial < 100; trial++ {
		lo := rng.Float64() * 80
		rect := geom.NewRect(geom.Point{lo}, geom.Point{lo + 10 + rng.Float64()*10})
		want := truth(tuples, nil, core.FuncSum, rect)
		if want == 0 {
			continue
		}
		res, err := l.Answer(core.Query{Func: core.FuncSum, AggIndex: -1, Rect: rect})
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, stats.RelativeError(res.Estimate, want))
	}
	if med := stats.Median(errs); med > 0.2 {
		t.Errorf("learned model median error %.3f too high right after training", med)
	}
	// Dynamic updates are ignored: estimates go stale as data doubles.
	before, _ := l.Answer(core.Query{Func: core.FuncCount, AggIndex: -1, Rect: geom.Universe(1)})
	for _, tp := range genTuples(rng, 40000, 100_000) {
		l.Insert(tp)
	}
	after, _ := l.Answer(core.Query{Func: core.FuncCount, AggIndex: -1, Rect: geom.Universe(1)})
	if before.Estimate != after.Estimate {
		t.Error("learned model must ignore dynamic updates (fixed resolution)")
	}
}

func TestLearnedModelMultiDim(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var tuples []data.Tuple
	for i := 0; i < 20000; i++ {
		tuples = append(tuples, data.Tuple{
			ID:   int64(i),
			Key:  geom.Point{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10},
			Vals: []float64{rng.Float64()*4 + 1},
		})
	}
	l := NewLearned(3, 0)
	l.Train(sample(rng, tuples, 2000), int64(len(tuples)))
	rect := geom.NewRect(geom.Point{2, 2, 2}, geom.Point{8, 8, 8})
	res, err := l.Answer(core.Query{Func: core.FuncCount, AggIndex: -1, Rect: rect})
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, tp := range tuples {
		if rect.Contains(tp.Key) {
			want++
		}
	}
	if re := stats.RelativeError(res.Estimate, want); re > 0.25 {
		t.Errorf("3-d learned COUNT error %.3f too high (est %g want %g)", re, res.Estimate, want)
	}
}

func TestLearnedRejectsMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tuples := genTuples(rng, 1000, 0)
	l := NewLearned(1, 0)
	l.Train(tuples, 1000)
	if _, err := l.Answer(core.Query{Func: core.FuncMin, Rect: geom.Universe(1)}); err == nil {
		t.Error("learned model should reject MIN")
	}
}

func TestSystemsImplementInterface(t *testing.T) {
	var _ System = (*RS)(nil)
	var _ System = (*SRS)(nil)
	var _ System = (*Learned)(nil)
}
