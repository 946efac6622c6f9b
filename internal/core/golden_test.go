package core

import (
	"bufio"
	"cmp"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"janusaqp/internal/data"
	"janusaqp/internal/geom"
	"janusaqp/internal/kdindex"
	"janusaqp/internal/maxvar"
	"janusaqp/internal/partition"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/answers.golden from the current estimator")

// goldenMaxAvgUlps is the one movement the fixture tolerates: an on-keys
// AVG estimate may sit this many ulps from the recorded one, because a
// ratio of two scaled sums and a plain sample mean round differently.
// Everything else — every half-width included — is compared bit for bit.
const goldenMaxAvgUlps = 4

// goldenHistory drives one fixed-seed synopsis through the states an
// estimator has to be right in and calls snap at each: partial catch-up,
// post-initialization inserts, a reservoir drained to a re-draw, an
// Appendix E subtree rebuild, full catch-up. Tuples carry a 2-D key the
// synopsis projects onto its first attribute, so the tree path exercises
// the projecting containment test and the on-keys path has a second
// attribute to range over.
func goldenHistory(t *testing.T, snap func(stage string, dpt *DPT)) {
	t.Helper()
	rng := rand.New(rand.NewSource(20260))
	mk := func(id int64, x float64) data.Tuple {
		return data.Tuple{
			ID:   id,
			Key:  geom.Point{x, rng.Float64() * 100},
			Vals: []float64{math.Abs(rng.NormFloat64()*20) + 1, rng.Float64() * 5},
		}
	}
	tuples := make([]data.Tuple, 8000)
	for i := range tuples {
		tuples[i] = mk(int64(i), rng.Float64()*1000)
	}
	live := make(map[int64]data.Tuple, len(tuples))
	for _, tp := range tuples {
		live[tp.ID] = tp
	}
	cfg := Config{
		PredicateDims: []int{0}, Dims: 1, NumVals: 2, AggIndex: 0, Agg: maxvar.Sum,
		K: 16, SampleLowerBound: 200, TriggerEvery: 16, Seed: 7,
	}
	pooled := make([]data.Tuple, 2*cfg.SampleLowerBound)
	for i, j := range rng.Perm(len(tuples))[:len(pooled)] {
		pooled[i] = tuples[j]
	}
	o := maxvar.New(cfg.Agg, cfg.Dims, cfg.Delta)
	for _, s := range pooled {
		o.Insert(kdindex.Entry{Point: geom.Point{s.Key[0]}, Val: s.Val(cfg.AggIndex), ID: s.ID})
	}
	bp := partition.KD(o, partition.Options{K: cfg.K})
	// A re-draw must be a deterministic function of the history: sorted
	// live ids, permuted by the test's own generator.
	resample := func(n int) []data.Tuple {
		ids := make([]int64, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		out := make([]data.Tuple, 0, n)
		for _, j := range rng.Perm(len(ids)) {
			if len(out) == n {
				break
			}
			out = append(out, live[ids[j]])
		}
		return out
	}
	dpt := New(cfg, bp, pooled, int64(len(tuples)), slices.Clone(tuples), resample)

	dpt.CatchUpTarget(0.10)
	snap("catchup10", dpt)

	for i := 0; i < 1500; i++ {
		tp := mk(int64(100_000+i), rng.Float64()*1000)
		live[tp.ID] = tp
		dpt.Insert(tp)
	}
	dpt.CatchUpTarget(0.50)
	snap("inserts+catchup50", dpt)

	// Delete sampled tuples until the reservoir falls through its lower
	// bound and re-draws itself; every stratum is rebuilt.
	for dpt.res.Resamples == 0 {
		tp := dpt.res.Items()[0]
		delete(live, tp.ID)
		dpt.Delete(tp)
	}
	snap("redraw", dpt)

	// Skewed, high-variance inserts into one narrow band until a leaf
	// trigger fires, then the Appendix E rebuild around that leaf.
	dpt.ResetTrigger()
	for i := 0; dpt.pendingLeaf == nil; i++ {
		if i == 20_000 {
			t.Fatal("no leaf trigger fired")
		}
		tp := mk(int64(200_000+i), 400+rng.Float64()*20)
		tp.Vals[0] *= 50
		live[tp.ID] = tp
		dpt.Insert(tp)
	}
	if err := dpt.RepartitionPendingLeaf(1); err != nil {
		t.Fatal(err)
	}
	if dpt.PartialRepartitions != 1 {
		t.Fatalf("PartialRepartitions = %d, want 1", dpt.PartialRepartitions)
	}
	// Updates through the rebuilt subtree put exact deltas on anchored
	// nodes; deleting the largest live values drains MAX heaps, so some
	// extremes degrade to outer approximations.
	var churn []data.Tuple
	for i := 0; i < 300; i++ {
		tp := mk(int64(300_000+i), 380+rng.Float64()*100)
		churn = append(churn, tp)
		live[tp.ID] = tp
		dpt.Insert(tp)
	}
	for _, tp := range churn[:100] {
		delete(live, tp.ID)
		dpt.Delete(tp)
	}
	top := make([]data.Tuple, 0, len(live))
	for _, tp := range live {
		top = append(top, tp)
	}
	slices.SortFunc(top, func(a, b data.Tuple) int {
		if c := cmp.Compare(b.Vals[0], a.Vals[0]); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	for _, tp := range top[:40] {
		delete(live, tp.ID)
		dpt.Delete(tp)
	}
	snap("anchored", dpt)

	dpt.CatchUpTarget(1.0)
	if !dpt.exactStats {
		t.Fatal("full catch-up must mark statistics exact")
	}
	snap("catchup100", dpt)
}

// goldenRects returns the tree-path predicates for the synopsis's current
// shape: the universe, one whole leaf, one whole internal node, rects
// cutting through leaves, and regions matching nothing.
func goldenRects(dpt *DPT) []geom.Rect {
	leaf := dpt.leaves[len(dpt.leaves)/2]
	return []geom.Rect{
		geom.Universe(1),
		leaf.rect.Clone(),
		dpt.root.left.rect.Clone(),
		geom.NewRect(geom.Point{100}, geom.Point{600}),
		geom.NewRect(geom.Point{400}, geom.Point{460}),
		geom.NewRect(geom.Point{37.5}, geom.Point{913.25}),
		geom.NewRect(geom.Point{700}, geom.Point{730}),
		geom.NewRect(geom.Point{5000}, geom.Point{6000}),
	}
}

// goldenKeyRects returns the on-keys predicates over the two original key
// attributes, with the dims each ranges over.
func goldenKeyRects() (dims [][]int, rects []geom.Rect) {
	add := func(d []int, r geom.Rect) { dims, rects = append(dims, d), append(rects, r) }
	add([]int{1}, geom.Universe(1))
	add([]int{1}, geom.NewRect(geom.Point{20}, geom.Point{45.5}))
	add([]int{0, 1}, geom.NewRect(geom.Point{100, 10}, geom.Point{600, 90}))
	add([]int{0, 1}, geom.NewRect(geom.Point{5000, 0}, geom.Point{6000, 100}))
	return dims, rects
}

// goldenLines answers the whole query table against dpt and renders one
// line per query: "key => estimate-bits halfwidth-bits outer covered
// partial", or "key => err <text>" for a query the estimator refuses.
func goldenLines(stage string, dpt *DPT) []string {
	funcs := []Func{FuncSum, FuncCount, FuncAvg, FuncMin, FuncMax, FuncVariance, FuncStdDev}
	// The secondary aggregation attribute rides along at the default level
	// only: it selects other moments, not another interval rule.
	type variant struct {
		agg  int
		conf float64
	}
	variants := []variant{{-1, 0}, {-1, 0.80}, {-1, 0.99}, {1, 0}}
	render := func(key string, res Result, err error) string {
		if err != nil {
			return fmt.Sprintf("%s => err %v", key, err)
		}
		return fmt.Sprintf("%s => %016x %016x %v %d %d", key,
			math.Float64bits(res.Estimate), math.Float64bits(res.Interval.HalfWidth),
			res.Outer, res.Covered, res.Partial)
	}
	var out []string
	for _, rect := range goldenRects(dpt) {
		for _, f := range funcs {
			for _, v := range variants {
				key := fmt.Sprintf("%s tree %v agg=%d conf=%g %v", stage, f, v.agg, v.conf, rect)
				res, err := dpt.Answer(Query{Func: f, AggIndex: v.agg, Rect: rect, Confidence: v.conf})
				out = append(out, render(key, res, err))
			}
		}
	}
	dims, rects := goldenKeyRects()
	for i, rect := range rects {
		for _, f := range funcs {
			for _, v := range variants {
				key := fmt.Sprintf("%s keys%v %v agg=%d conf=%g %v", stage, dims[i], f, v.agg, v.conf, rect)
				var res Result
				p, err := dpt.AnswerUniformPartial(Query{Func: f, AggIndex: v.agg, Rect: rect, Confidence: v.conf}, dims[i])
				if err == nil {
					res, err = MergePartials([]Partial{p}, v.conf)
				}
				out = append(out, render(key, res, err))
			}
		}
	}
	return out
}

// ulpDistance returns how many representable float64 values separate the
// two bit patterns (same sign assumed; a sign flip is "far").
func ulpDistance(a, b uint64) uint64 {
	if a>>63 != b>>63 {
		return math.MaxUint64
	}
	if a > b {
		return a - b
	}
	return b - a
}

// TestAnswersGolden pins the estimator bit for bit: every answer of the
// query table over goldenHistory must reproduce testdata/answers.golden,
// which was recorded on the two-path estimator (Answer/AnswerUniform
// collapsing straight to a Result) before the mergeable form became the
// only one. Regenerate with -update only for a deliberate estimator change.
func TestAnswersGolden(t *testing.T) {
	var got []string
	goldenHistory(t, func(stage string, dpt *DPT) { got = append(got, goldenLines(stage, dpt)...) })
	path := filepath.Join("testdata", "answers.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d answers to %s", len(got), path)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("query table has %d answers, golden %d", len(got), len(want))
	}
	mismatches := 0
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		if goldenWithinAvgUlps(got[i], want[i]) {
			continue
		}
		if mismatches++; mismatches <= 20 {
			t.Errorf("answer %d moved:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
	if mismatches > 20 {
		t.Errorf("... and %d more", mismatches-20)
	}
}

// goldenWithinAvgUlps reports whether two differing lines are the same
// on-keys AVG query whose estimate moved by at most goldenMaxAvgUlps and
// whose every other field is unchanged.
func goldenWithinAvgUlps(got, want string) bool {
	gk, gv, ok1 := strings.Cut(got, " => ")
	wk, wv, ok2 := strings.Cut(want, " => ")
	if !ok1 || !ok2 || gk != wk || !strings.Contains(gk, " keys[") || !strings.Contains(gk, " AVG ") {
		return false
	}
	var ge, we uint64
	if _, err := fmt.Sscanf(gv, "%016x", &ge); err != nil {
		return false
	}
	if _, err := fmt.Sscanf(wv, "%016x", &we); err != nil {
		return false
	}
	return gv[16:] == wv[16:] && ulpDistance(ge, we) <= goldenMaxAvgUlps
}
