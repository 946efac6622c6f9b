package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"janusaqp/internal/data"
	"janusaqp/internal/geom"
	"janusaqp/internal/kdindex"
	"janusaqp/internal/maxvar"
	"janusaqp/internal/partition"
	"janusaqp/internal/stats"
)

// testDB is a brute-force ground-truth engine mirroring every update.
type testDB struct {
	live map[int64]data.Tuple
}

func newTestDB() *testDB { return &testDB{live: make(map[int64]data.Tuple)} }

func (db *testDB) insert(t data.Tuple) { db.live[t.ID] = t }
func (db *testDB) delete(id int64)     { delete(db.live, id) }

func (db *testDB) truth(f Func, aggIdx int, rect geom.Rect) float64 {
	var sum, cnt float64
	min, max := math.Inf(1), math.Inf(-1)
	for _, t := range db.live {
		if !rect.Contains(t.Key) {
			continue
		}
		v := t.Val(aggIdx)
		sum += v
		cnt++
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	switch f {
	case FuncSum:
		return sum
	case FuncCount:
		return cnt
	case FuncAvg:
		if cnt == 0 {
			return 0
		}
		return sum / cnt
	case FuncMin:
		return min
	case FuncMax:
		return max
	}
	return 0
}

// makeTuples generates n 1-D tuples with two aggregation attributes.
func makeTuples(rng *rand.Rand, n int, startID int64) []data.Tuple {
	out := make([]data.Tuple, n)
	for i := range out {
		out[i] = data.Tuple{
			ID:  startID + int64(i),
			Key: geom.Point{rng.Float64() * 1000},
			Vals: []float64{
				math.Abs(rng.NormFloat64()*20) + 1,
				rng.Float64() * 5,
			},
		}
	}
	return out
}

// buildDPT constructs a DPT over the tuples with a KD blueprint derived
// from a fresh pooled sample.
func buildDPT(t *testing.T, tuples []data.Tuple, cfg Config) (*DPT, *testDB) {
	t.Helper()
	db := newTestDB()
	for _, tp := range tuples {
		db.insert(tp)
	}
	rng := rand.New(rand.NewSource(99))
	// Pooled sample: 2m uniform tuples.
	perm := rng.Perm(len(tuples))
	want := 2 * cfg.SampleLowerBound
	if want > len(tuples) {
		want = len(tuples)
	}
	pooled := make([]data.Tuple, want)
	for i := 0; i < want; i++ {
		pooled[i] = tuples[perm[i]]
	}
	// Blueprint from an oracle over the pooled sample.
	o := maxvar.New(cfg.Agg, cfg.Dims, cfg.Delta)
	for _, s := range pooled {
		o.Insert(kdindex.Entry{Point: s.Key, Val: s.Val(cfg.AggIndex), ID: s.ID})
	}
	bp := partition.KD(o, partition.Options{K: cfg.K})
	resample := func(n int) []data.Tuple {
		p := rng.Perm(len(db.live))
		_ = p
		out := make([]data.Tuple, 0, n)
		for _, tp := range db.live {
			out = append(out, tp)
			if len(out) == n {
				break
			}
		}
		return out
	}
	return New(cfg, bp, pooled, int64(len(tuples)), slices.Clone(tuples), resample), db
}

func defaultCfg() Config {
	return Config{
		Dims: 1, NumVals: 2, AggIndex: 0, Agg: maxvar.Sum,
		K: 16, SampleLowerBound: 400, Seed: 7,
	}
}

func TestFullCatchupGivesExactCoveredAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tuples := makeTuples(rng, 20000, 0)
	dpt, db := buildDPT(t, tuples, defaultCfg())
	dpt.CatchUpTarget(1.0)
	if !dpt.exactStats {
		t.Fatal("full catch-up must mark statistics exact")
	}
	// A query covering everything decomposes into covered nodes only.
	all := geom.Universe(1)
	for _, f := range []Func{FuncSum, FuncCount} {
		res, err := dpt.Answer(Query{Func: f, AggIndex: -1, Rect: all})
		if err != nil {
			t.Fatal(err)
		}
		truth := db.truth(f, 0, all)
		if re := stats.RelativeError(res.Estimate, truth); re > 1e-9 {
			t.Errorf("%v over universe: est %g truth %g (rel %g)", f, res.Estimate, truth, re)
		}
		if res.Partial != 0 {
			t.Errorf("%v: universe query hit %d partial leaves, want 0", f, res.Partial)
		}
	}
}

func TestPartialQueriesApproximate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tuples := makeTuples(rng, 30000, 0)
	dpt, db := buildDPT(t, tuples, defaultCfg())
	dpt.CatchUpTarget(0.2)
	var errs []float64
	for trial := 0; trial < 100; trial++ {
		lo := rng.Float64() * 800
		hi := lo + 50 + rng.Float64()*150
		rect := geom.NewRect(geom.Point{lo}, geom.Point{hi})
		truth := db.truth(FuncSum, 0, rect)
		if truth == 0 {
			continue
		}
		res, err := dpt.Answer(Query{Func: FuncSum, AggIndex: -1, Rect: rect})
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, stats.RelativeError(res.Estimate, truth))
	}
	med := stats.Median(errs)
	if med > 0.10 {
		t.Errorf("median relative error %.3f too high for 20%% catch-up + stratified samples", med)
	}
}

func TestConfidenceIntervalCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tuples := makeTuples(rng, 20000, 0)
	dpt, db := buildDPT(t, tuples, defaultCfg())
	dpt.CatchUpTarget(0.1)
	covered, total := 0, 0
	for trial := 0; trial < 200; trial++ {
		lo := rng.Float64() * 800
		hi := lo + 30 + rng.Float64()*200
		rect := geom.NewRect(geom.Point{lo}, geom.Point{hi})
		truth := db.truth(FuncSum, 0, rect)
		if truth == 0 {
			continue
		}
		res, err := dpt.Answer(Query{Func: FuncSum, AggIndex: -1, Rect: rect, Confidence: 0.95})
		if err != nil {
			t.Fatal(err)
		}
		total++
		if res.Interval.Covers(truth) {
			covered++
		}
	}
	if total < 50 {
		t.Fatal("too few valid trials")
	}
	rate := float64(covered) / float64(total)
	if rate < 0.80 {
		t.Errorf("95%% CI covered truth only %.1f%% of the time", rate*100)
	}
}

func TestInsertDeleteKeepExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tuples := makeTuples(rng, 10000, 0)
	dpt, db := buildDPT(t, tuples, defaultCfg())
	dpt.CatchUpTarget(1.0)
	// Stream updates: inserts of new tuples and deletes of old ones.
	fresh := makeTuples(rng, 3000, 1_000_000)
	for i, tp := range fresh {
		dpt.Insert(tp)
		db.insert(tp)
		if i%3 == 0 {
			victim := tuples[rng.Intn(len(tuples))]
			if _, ok := db.live[victim.ID]; ok {
				dpt.Delete(victim)
				db.delete(victim.ID)
			}
		}
	}
	all := geom.Universe(1)
	for _, f := range []Func{FuncSum, FuncCount} {
		res, err := dpt.Answer(Query{Func: f, AggIndex: -1, Rect: all})
		if err != nil {
			t.Fatal(err)
		}
		truth := db.truth(f, 0, all)
		if re := stats.RelativeError(res.Estimate, truth); re > 1e-9 {
			t.Errorf("%v after updates: est %g truth %g", f, res.Estimate, truth)
		}
	}
	if dpt.Population() != int64(len(db.live)) {
		t.Errorf("population %d, want %d", dpt.Population(), len(db.live))
	}
}

func TestSecondaryAggregationAttribute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tuples := makeTuples(rng, 15000, 0)
	dpt, db := buildDPT(t, tuples, defaultCfg())
	dpt.CatchUpTarget(1.0)
	all := geom.Universe(1)
	res, err := dpt.Answer(Query{Func: FuncSum, AggIndex: 1, Rect: all})
	if err != nil {
		t.Fatal(err)
	}
	truth := db.truth(FuncSum, 1, all)
	if re := stats.RelativeError(res.Estimate, truth); re > 1e-9 {
		t.Errorf("secondary attribute SUM: est %g truth %g", res.Estimate, truth)
	}
	if _, err := dpt.Answer(Query{Func: FuncSum, AggIndex: 5, Rect: all}); err == nil {
		t.Error("out-of-range aggregation attribute must error")
	}
}

func TestAvgQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tuples := makeTuples(rng, 20000, 0)
	dpt, db := buildDPT(t, tuples, defaultCfg())
	dpt.CatchUpTarget(0.3)
	var errs []float64
	for trial := 0; trial < 60; trial++ {
		lo := rng.Float64() * 700
		rect := geom.NewRect(geom.Point{lo}, geom.Point{lo + 100 + rng.Float64()*200})
		truth := db.truth(FuncAvg, 0, rect)
		if truth == 0 {
			continue
		}
		res, err := dpt.Answer(Query{Func: FuncAvg, AggIndex: -1, Rect: rect})
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, stats.RelativeError(res.Estimate, truth))
	}
	if med := stats.Median(errs); med > 0.08 {
		t.Errorf("AVG median relative error %.3f too high", med)
	}
}

func TestMinMaxQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tuples := makeTuples(rng, 10000, 0)
	dpt, db := buildDPT(t, tuples, defaultCfg())
	dpt.CatchUpTarget(1.0)
	all := geom.Universe(1)
	for _, f := range []Func{FuncMin, FuncMax} {
		res, err := dpt.Answer(Query{Func: f, AggIndex: -1, Rect: all})
		if err != nil {
			t.Fatal(err)
		}
		truth := db.truth(f, 0, all)
		if res.Estimate != truth {
			t.Errorf("%v: est %g truth %g (full catch-up pushes all values through heaps)", f, res.Estimate, truth)
		}
	}
	// MIN/MAX on a non-primary attribute is rejected.
	if _, err := dpt.Answer(Query{Func: FuncMin, AggIndex: 1, Rect: all}); err == nil {
		t.Error("MIN on secondary attribute should error")
	}
}

func TestStrataConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tuples := makeTuples(rng, 8000, 0)
	cfg := defaultCfg()
	cfg.SampleLowerBound = 200
	dpt, db := buildDPT(t, tuples, cfg)
	check := func(when string) {
		t.Helper()
		total := 0
		for _, l := range dpt.leaves {
			for _, s := range dpt.stratumTuples(l) {
				id := s.ID
				if !l.rect.Contains(s.Key) {
					t.Fatalf("%s: stratum sample %d outside its leaf", when, id)
				}
				if !dpt.res.Contains(id) {
					t.Fatalf("%s: stratum sample %d not in reservoir", when, id)
				}
				total++
			}
		}
		if total != dpt.res.Len() {
			t.Fatalf("%s: strata hold %d samples, reservoir %d", when, total, dpt.res.Len())
		}
		if dpt.oracle.Len() != dpt.res.Len() {
			t.Fatalf("%s: oracle holds %d samples, reservoir %d", when, dpt.oracle.Len(), dpt.res.Len())
		}
		checkFlatStrata(t, dpt, when)
	}
	check("after build")
	fresh := makeTuples(rng, 4000, 2_000_000)
	for _, tp := range fresh {
		dpt.Insert(tp)
		db.insert(tp)
	}
	check("after inserts")
	// Delete aggressively to force reservoir re-draws.
	deleted := 0
	for _, tp := range tuples {
		if deleted > 7000 {
			break
		}
		dpt.Delete(tp)
		db.delete(tp.ID)
		deleted++
	}
	check("after heavy deletes")
	if dpt.res.Resamples == 0 {
		t.Log("note: no reservoir re-draw occurred (deletions missed the sample)")
	}
	// A delete-driven re-draw rebuilds every stratum from the reservoir.
	for dpt.res.Resamples == 0 {
		tp := dpt.res.Items()[0]
		dpt.Delete(tp)
		db.delete(tp.ID)
	}
	check("after a re-draw")
	if err := dpt.partialRepartition(geom.Point{500}, 2); err != nil {
		t.Fatal(err)
	}
	check("after a partial repartition")
	// Decode rebuilds the strata from the image in the order they were
	// saved.
	var buf bytes.Buffer
	if err := dpt.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	saved := dpt
	restored, err := Decode(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	dpt = restored
	check("after Encode and Decode")
	for i, l := range dpt.leaves {
		if !slices.Equal(l.stratum.ids, saved.leaves[i].stratum.ids) {
			t.Fatalf("leaf %d decoded in order %v, saved %v", i, l.stratum.ids, saved.leaves[i].stratum.ids)
		}
	}
}

func TestTriggerFiresOnSkewedInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tuples := makeTuples(rng, 10000, 0)
	cfg := defaultCfg()
	cfg.Beta = 4
	cfg.TriggerEvery = 16
	dpt, _ := buildDPT(t, tuples, cfg)
	dpt.CatchUpTarget(0.5)
	// Hammer one narrow region with huge values: variance in that leaf
	// explodes past beta.
	id := int64(5_000_000)
	for i := 0; i < 5000; i++ {
		dpt.Insert(data.Tuple{
			ID:   id,
			Key:  geom.Point{500 + rng.Float64()},
			Vals: []float64{100000 + rng.Float64()*50000, 1},
		})
		id++
		if dpt.TriggerPending() != TriggerNone {
			return
		}
	}
	t.Error("variance-drift trigger never fired under extreme skew")
}

func TestTriggerResets(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tuples := makeTuples(rng, 5000, 0)
	dpt, _ := buildDPT(t, tuples, defaultCfg())
	dpt.trigger, dpt.pendingLeaf = triggerVarianceDrift, dpt.leaves[0]
	dpt.ResetTrigger()
	if reason := dpt.TriggerPending(); reason != TriggerNone || dpt.pendingLeaf != nil {
		t.Error("ResetTrigger did not clear state")
	}
}

func TestCatchUpImprovesAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tuples := makeTuples(rng, 30000, 0)
	cfg := defaultCfg()
	cfg.SampleLowerBound = 150
	measure := func(target float64) float64 {
		dpt, db := buildDPT(t, tuples, cfg)
		dpt.CatchUpTarget(target)
		qrng := rand.New(rand.NewSource(42)) // same queries for both runs
		var errs []float64
		for trial := 0; trial < 150; trial++ {
			lo := qrng.Float64() * 800
			rect := geom.NewRect(geom.Point{lo}, geom.Point{lo + 100})
			truth := db.truth(FuncSum, 0, rect)
			if truth == 0 {
				continue
			}
			res, _ := dpt.Answer(Query{Func: FuncSum, AggIndex: -1, Rect: rect})
			errs = append(errs, stats.RelativeError(res.Estimate, truth))
		}
		return stats.Percentile(errs, 0.95)
	}
	early := measure(0.02)
	late := measure(0.6)
	if late > early {
		t.Errorf("catch-up made things worse: P95 error %.4f at 2%% vs %.4f at 60%%", early, late)
	}
}

func TestCatchUpProgressMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tuples := makeTuples(rng, 10000, 0)
	cfg := defaultCfg()
	cfg.SampleLowerBound = 100
	dpt, _ := buildDPT(t, tuples, cfg)
	prev := dpt.CatchUpProgress()
	for i := 0; i < 50; i++ {
		_, done := dpt.CatchUp(200)
		cur := dpt.CatchUpProgress()
		if cur < prev {
			t.Fatalf("progress went backwards: %g -> %g", prev, cur)
		}
		prev = cur
		if done {
			break
		}
	}
	if prev < 1.0-1e-9 {
		t.Errorf("catch-up finished at progress %g, want 1.0", prev)
	}
}

// TestCatchUpProgressOneIsExact pins "progress 1 implies exact statistics":
// CatchUpTarget(1.0) stops once every base row is folded, which can leave
// the snapshot's unread tail holding only rows the pooled seed already
// folded. Exactness must not wait for a call that drains that tail.
func TestCatchUpProgressOneIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	tuples := makeTuples(rng, 1100, 0)
	cfg := defaultCfg()
	cfg.SampleLowerBound = 545 // a 1,090-row pooled sample: ten rows left to fold
	cfg.Seed = 5               // a shuffle that puts all ten in the first batch
	dpt, db := buildDPT(t, tuples, cfg)
	dpt.CatchUpTarget(1.0)
	if dpt.CatchUpProgress() != 1 || dpt.consumed >= len(dpt.snapshot) {
		t.Fatalf("precondition: progress %g with %d of %d snapshot rows read, want progress 1 with the snapshot not drained",
			dpt.CatchUpProgress(), dpt.consumed, len(dpt.snapshot))
	}
	rect := dpt.leaves[len(dpt.leaves)/2].rect
	res, err := dpt.Answer(Query{Func: FuncSum, AggIndex: -1, Rect: rect})
	if err != nil {
		t.Fatal(err)
	}
	if want := db.truth(FuncSum, 0, rect); res.Partial != 0 || res.Interval.HalfWidth != 0 || !closeTo(res.Estimate, want) {
		t.Errorf("SUM over a whole leaf at progress 1 = %g ± %g (%d partial), want exactly %g",
			res.Estimate, res.Interval.HalfWidth, res.Partial, want)
	}
}

// TestEndCatchUp pins what ending catch-up keeps and drops: the snapshot
// and the folded-ID set go, the statistics, progress and every answer stay
// bit for bit, and CatchUp folds nothing more.
func TestEndCatchUp(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	tuples := makeTuples(rng, 3000, 0)
	dpt, _ := buildDPT(t, tuples, defaultCfg())
	dpt.CatchUpTarget(0.3)
	answers := func() []Result {
		var out []Result
		for _, l := range dpt.leaves {
			for _, f := range []Func{FuncSum, FuncCount, FuncMax} {
				res, err := dpt.Answer(Query{Func: f, AggIndex: -1, Rect: geom.NewRect(geom.Point{l.rect.Min[0] / 2}, l.rect.Max)})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, res)
			}
		}
		return out
	}
	progress, before := dpt.CatchUpProgress(), answers()
	dpt.EndCatchUp()
	if dpt.snapshot != nil || dpt.seen != nil {
		t.Fatal("EndCatchUp kept the snapshot or the folded-ID set")
	}
	if n, done := dpt.CatchUp(1024); n != 0 || !done {
		t.Errorf("CatchUp after EndCatchUp folded %d (done %v), want 0 (done)", n, done)
	}
	if got := dpt.CatchUpProgress(); got != progress {
		t.Errorf("progress %g after EndCatchUp, %g before", got, progress)
	}
	if after := answers(); !reflect.DeepEqual(after, before) {
		t.Errorf("answers changed across EndCatchUp:\n before %v\n after  %v", before, after)
	}
}

func TestQueryDimensionMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tuples := makeTuples(rng, 1000, 0)
	dpt, _ := buildDPT(t, tuples, defaultCfg())
	if _, err := dpt.Answer(Query{Func: FuncSum, AggIndex: -1, Rect: geom.Universe(2)}); err == nil {
		t.Error("dimension mismatch must error")
	}
}

func TestEmptyRegionQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	tuples := makeTuples(rng, 5000, 0)
	dpt, _ := buildDPT(t, tuples, defaultCfg())
	dpt.CatchUpTarget(1.0)
	rect := geom.NewRect(geom.Point{5000}, geom.Point{6000}) // no data there
	res, err := dpt.Answer(Query{Func: FuncSum, AggIndex: -1, Rect: rect})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 {
		t.Errorf("empty region SUM = %g, want 0", res.Estimate)
	}
	res, err = dpt.Answer(Query{Func: FuncMin, AggIndex: -1, Rect: rect})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outer {
		t.Error("MIN over empty region should be flagged as outer/unknown")
	}
}

func TestMemoryFootprintScalesWithSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	tuples := makeTuples(rng, 5000, 0)
	small, _ := buildDPT(t, tuples, Config{Dims: 1, NumVals: 2, Agg: maxvar.Sum, K: 8, SampleLowerBound: 50, Seed: 1})
	big, _ := buildDPT(t, tuples, Config{Dims: 1, NumVals: 2, Agg: maxvar.Sum, K: 8, SampleLowerBound: 800, Seed: 1})
	if small.MemoryFootprint() >= big.MemoryFootprint() {
		t.Errorf("footprint should grow with sample size: %d vs %d", small.MemoryFootprint(), big.MemoryFootprint())
	}
}

func TestVarianceAndStdDevQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	tuples := makeTuples(rng, 20000, 0)
	dpt, db := buildDPT(t, tuples, defaultCfg())
	dpt.CatchUpTarget(1.0)
	for trial := 0; trial < 40; trial++ {
		lo := rng.Float64() * 700
		rect := geom.NewRect(geom.Point{lo}, geom.Point{lo + 200})
		// Ground truth variance by brute force.
		var m stats.Moments
		for _, tp := range db.live {
			if rect.Contains(tp.Key) {
				m.Add(tp.Vals[0])
			}
		}
		if m.N < 500 {
			continue
		}
		res, err := dpt.Answer(Query{Func: FuncVariance, AggIndex: -1, Rect: rect})
		if err != nil {
			t.Fatal(err)
		}
		// Composed from three estimators, the variance inherits the partial
		// leaves' Σa² noise; allow a wider band than the direct aggregates.
		if re := stats.RelativeError(res.Estimate, m.Variance()); re > 0.35 {
			t.Errorf("VARIANCE rel error %.3f (est %g want %g)", re, res.Estimate, m.Variance())
		}
		sd, err := dpt.Answer(Query{Func: FuncStdDev, AggIndex: -1, Rect: rect})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sd.Estimate-math.Sqrt(res.Estimate)) > 1e-9 {
			t.Error("STDDEV must be the square root of VARIANCE")
		}
		if !sd.Outer {
			t.Error("composed estimators carry no CI guarantee; Outer must be set")
		}
	}
	if FuncVariance.String() != "VARIANCE" || FuncStdDev.String() != "STDDEV" {
		t.Error("extended function names wrong")
	}
}

func TestVarianceEmptyRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tuples := makeTuples(rng, 2000, 0)
	dpt, _ := buildDPT(t, tuples, defaultCfg())
	dpt.CatchUpTarget(1.0)
	res, err := dpt.Answer(Query{Func: FuncVariance, AggIndex: -1,
		Rect: geom.NewRect(geom.Point{90000}, geom.Point{90001})})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outer || res.Estimate != 0 {
		t.Errorf("empty-region VARIANCE = %+v, want outer zero", res)
	}
}
