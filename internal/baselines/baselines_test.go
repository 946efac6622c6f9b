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
	rs := NewSRS(1, sample(rng, tuples, 2000), int64(len(tuples)), 0)
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
	rs := NewSRS(1, sample(rng, tuples, 1000), int64(len(tuples)), 0)
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
	rs := NewSRS(1, init, int64(len(tuples)), 0)
	srs := NewSRS(16, init, int64(len(tuples)), 0) // the same sample
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

// TestSRSKeepsTheWholeSample pins the stratified baseline's budget: its
// strata together hold every row of the sample it is built on, so SRS
// answers from as many rows as RS over the same sample.
func TestSRSKeepsTheWholeSample(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tuples := genTuples(rng, 24000, 0)
	srs := NewSRS(16, sample(rng, tuples, 240), int64(len(tuples)), 0)
	held := 0
	for _, st := range srs.strata {
		held += len(st)
	}
	if held != 240 {
		t.Errorf("16 strata hold %d of a 240-row sample", held)
	}
}

// referenceSRSAnswer is the stratified estimator as SRS computed it with a
// reservoir per stratum, over given strata and their populations: the
// reference the shared estimator must reproduce bit for bit whenever every
// stratum fits its reservoir, which then holds exactly the routed rows.
func referenceSRSAnswer(strata [][]data.Tuple, pops []float64, aggIdx int, q core.Query) core.Result {
	conf := q.Confidence
	if conf == 0 {
		conf = 0.95
	}
	z := stats.ZForConfidence(conf)
	var sumEst, cntEst, nuSum, nuCnt, nq float64
	type stratumView struct {
		matching stats.Moments
		mi       int64
		ni       float64
	}
	var views []stratumView
	for i, st := range strata {
		var matching, ones stats.Moments
		for _, t := range st {
			if q.Rect.Contains(t.Key) {
				matching.Add(t.Val(aggIdx))
				ones.Add(1)
			}
		}
		mi, ni := int64(len(st)), pops[i]
		sumEst += stats.SumEstimate(matching.Sum, mi, ni)
		cntEst += stats.SumEstimate(ones.Sum, mi, ni)
		nuSum += stats.ScaledSumVarianceTerm(matching, mi, ni)
		nuCnt += stats.ScaledSumVarianceTerm(ones, mi, ni)
		nq += ni
		views = append(views, stratumView{matching: matching, mi: mi, ni: ni})
	}
	switch q.Func {
	case core.FuncSum:
		return core.Result{Estimate: sumEst, Interval: stats.NewInterval(sumEst, 0, nuSum, z)}
	case core.FuncCount:
		return core.Result{Estimate: cntEst, Interval: stats.NewInterval(cntEst, 0, nuCnt, z)}
	}
	var est, nu float64
	if cntEst > 0 {
		est = sumEst / cntEst
	}
	for _, v := range views {
		if nq > 0 {
			nu += stats.ScaledAvgVarianceTerm(v.matching, v.mi, v.matching.N, v.ni/nq)
		}
	}
	return core.Result{Estimate: est, Interval: stats.NewInterval(est, 0, nu, z)}
}

// TestSRSMatchesReservoirEstimator checks that answering the strata through
// core.AnswerSample changed no bit of SUM, COUNT or AVG: estimates and
// half-widths at k = 16 equal referenceSRSAnswer's.
func TestSRSMatchesReservoirEstimator(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tuples := genTuples(rng, 30000, 0)
	srs := NewSRS(16, sample(rng, tuples, 1600), int64(len(tuples)), 0)
	rects := []geom.Rect{geom.Universe(1), geom.NewRect(geom.Point{200}, geom.Point{300})}
	for range 200 {
		lo := rng.Float64()*120 - 10
		rects = append(rects, geom.NewRect(geom.Point{lo}, geom.Point{lo + rng.Float64()*40}))
	}
	for _, rect := range rects {
		for _, f := range []core.Func{core.FuncSum, core.FuncCount, core.FuncAvg} {
			for _, conf := range []float64{0, 0.9, 0.99} {
				q := core.Query{Func: f, AggIndex: -1, Rect: rect, Confidence: conf}
				got, err := srs.Answer(q)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceSRSAnswer(srs.strata, srs.pops, 0, q)
				if math.Float64bits(got.Estimate) != math.Float64bits(want.Estimate) ||
					math.Float64bits(got.Interval.HalfWidth) != math.Float64bits(want.Interval.HalfWidth) {
					t.Fatalf("%v over %v at %g: got %v ± %v, reference %v ± %v", f, rect, conf,
						got.Estimate, got.Interval.HalfWidth, want.Estimate, want.Interval.HalfWidth)
				}
			}
		}
	}
}

// referenceLearnedEstimate is Learned.Answer as it stood with a rectangle
// built, and intersected with the query, for every non-empty cell: the
// reference the per-dimension overlaps must reproduce bit for bit.
func referenceLearnedEstimate(l *Learned, q core.Query) float64 {
	cellRect := func(idx int) geom.Rect {
		min := make(geom.Point, l.dims)
		max := make(geom.Point, l.dims)
		for j := l.dims - 1; j >= 0; j-- {
			k := idx % l.perDim
			idx /= l.perDim
			w := (l.bounds.Max[j] - l.bounds.Min[j]) / float64(l.perDim)
			min[j] = l.bounds.Min[j] + float64(k)*w
			max[j] = min[j] + w
		}
		return geom.Rect{Min: min, Max: max}
	}
	var cnt, sum float64
	for i, c := range l.cells {
		if c.count == 0 {
			continue
		}
		rect := cellRect(i)
		inter, ok := rect.Intersection(q.Rect)
		if !ok {
			continue
		}
		frac := 1.0
		for j := 0; j < l.dims; j++ {
			w := rect.Extent(j)
			if w > 0 {
				frac *= inter.Extent(j) / w
			}
		}
		if frac <= 0 {
			frac = 1e-9
		}
		cnt += frac * c.count
		sum += frac * c.sum
	}
	cnt *= l.scale
	sum *= l.scale
	switch q.Func {
	case core.FuncSum:
		return sum
	case core.FuncCount:
		return cnt
	}
	if cnt > 0 {
		return sum / cnt
	}
	return 0
}

// TestLearnedMatchesPerCellReference checks the per-dimension overlap walk
// against referenceLearnedEstimate over random rectangles in 1, 3 and 5
// dimensions, mixing per dimension ranges inside the bounds, point
// predicates (on and off grid lines), ranges that only touch a grid line
// or the bounds, and ranges wholly outside them.
func TestLearnedMatchesPerCellReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dims := range []int{1, 3, 5} {
		train := make([]data.Tuple, 5000)
		for i := range train {
			key := make(geom.Point, dims)
			for j := range key {
				key[j] = float64(j+1) * (rng.NormFloat64()*3 + 10)
			}
			train[i] = data.Tuple{ID: int64(i), Key: key, Vals: []float64{rng.Float64()*100 - 20}}
		}
		l := NewLearned(dims, 0)
		l.Train(train, 123457)
		for trial := range 300 {
			lo, hi := make(geom.Point, dims), make(geom.Point, dims)
			for j := range dims {
				bmin, bmax := l.bounds.Min[j], l.bounds.Max[j]
				span := bmax - bmin
				w := span / float64(l.perDim)
				line := bmin + float64(rng.Intn(l.perDim+1))*w
				switch rng.Intn(7) {
				case 0: // a point on a grid line
					lo[j], hi[j] = line, line
				case 1: // a point anywhere
					lo[j] = bmin + rng.Float64()*span
					hi[j] = lo[j]
				case 2: // touches a grid line from below
					lo[j], hi[j] = line-rng.Float64()*span/3, line
				case 3: // touches the bounds from outside
					if rng.Intn(2) == 0 {
						lo[j], hi[j] = bmin-1-rng.Float64()*span, bmin
					} else {
						lo[j], hi[j] = bmax, bmax+1+rng.Float64()*span
					}
				case 4: // wholly outside the bounds
					lo[j] = bmax + 1 + rng.Float64()*span
					hi[j] = lo[j] + rng.Float64()*span
				case 5: // unbounded
					lo[j], hi[j] = math.Inf(-1), math.Inf(1)
				default:
					lo[j] = bmin - span/10 + rng.Float64()*span*1.2
					hi[j] = lo[j] + rng.Float64()*span/2
				}
			}
			for _, f := range []core.Func{core.FuncSum, core.FuncCount, core.FuncAvg} {
				q := core.Query{Func: f, AggIndex: -1, Rect: geom.Rect{Min: lo, Max: hi}}
				got, err := l.Answer(q)
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceLearnedEstimate(l, q); math.Float64bits(got.Estimate) != math.Float64bits(want) {
					t.Fatalf("%d-D trial %d %v over %v: got %v, reference %v", dims, trial, f, q.Rect, got.Estimate, want)
				}
			}
		}
	}
}

// TestLearnedAnswerAllocsIndependentOfCells pins Answer at zero
// allocations, for a model trained on a few rows and for one with nearly
// every cell filled.
func TestLearnedAnswerAllocsIndependentOfCells(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tuples := genTuples(rng, 40000, 0)
	q := core.Query{Func: core.FuncSum, AggIndex: -1, Rect: geom.NewRect(geom.Point{20}, geom.Point{60})}
	measure := func(n int) (allocs float64, filled int) {
		l := NewLearned(1, 0)
		l.Train(tuples[:n], int64(len(tuples)))
		for _, c := range l.cells {
			if c.count > 0 {
				filled++
			}
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := l.Answer(q); err != nil {
				t.Fatal(err)
			}
		}), filled
	}
	sparse, nSparse := measure(16)
	dense, nDense := measure(len(tuples))
	if nDense < 100*nSparse {
		t.Fatalf("%d and %d non-empty cells are too close to show growth", nSparse, nDense)
	}
	if sparse != 0 || dense != 0 {
		t.Fatalf("Answer allocates %.0f/op over %d non-empty cells and %.0f/op over %d; want 0", sparse, nSparse, dense, nDense)
	}
	t.Logf("Answer: %.0f allocs/op over %d and %d non-empty cells", dense, nSparse, nDense)
}
