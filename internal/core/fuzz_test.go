package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"janusaqp/internal/data"
	"janusaqp/internal/geom"
	"janusaqp/internal/kdindex"
	"janusaqp/internal/maxvar"
	"janusaqp/internal/partition"
	"janusaqp/internal/stats"
)

// fuzzSeedSynopsis encodes a small but fully featured synopsis (catch-up
// partially run, inserts, deletes) to seed the corpus with structurally
// valid bytes the fuzzer can mutate.
func fuzzSeedSynopsis() []byte {
	rng := rand.New(rand.NewSource(5))
	tuples := makeTuples(rng, 600, 0)
	cfg := Config{Dims: 1, NumVals: 2, AggIndex: 0, Agg: maxvar.Sum, K: 4, SampleLowerBound: 32, Seed: 9}
	o := maxvar.New(cfg.Agg, cfg.Dims, cfg.Delta)
	pooled := tuples[:64]
	for _, s := range pooled {
		o.Insert(kdindex.Entry{Point: s.Key, Val: s.Val(cfg.AggIndex), ID: s.ID})
	}
	bp := partition.KD(o, partition.Options{K: cfg.K})
	dpt := New(cfg, bp, pooled, int64(len(tuples)), slices.Clone(tuples), nil)
	dpt.CatchUp(128)
	for _, tp := range makeTuples(rng, 40, 10_000) {
		dpt.Insert(tp)
	}
	dpt.Delete(tuples[0])
	var buf bytes.Buffer
	if err := dpt.Encode(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// mutateSeed re-encodes fuzzSeedSynopsis's image after mutate edits its
// decoded form: a checkpoint corrupted past the gob layer.
func mutateSeed(mutate func(p *persistDPT)) []byte {
	var p persistDPT
	if err := gob.NewDecoder(bytes.NewReader(fuzzSeedSynopsis())).Decode(&p); err != nil {
		panic(err)
	}
	mutate(&p)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&p); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// persistedLeaves returns the persisted tree's leaves, left to right.
func persistedLeaves(n *persistNode) []*persistNode {
	if n.IsLeaf {
		return []*persistNode{n}
	}
	return append(persistedLeaves(n.Left), persistedLeaves(n.Right)...)
}

// sharedSampleImage is the seed image with one sample in two strata.
func sharedSampleImage() []byte {
	return mutateSeed(func(p *persistDPT) {
		l := persistedLeaves(p.Root)
		l[1].Stratum = append(l[1].Stratum, l[0].Stratum[0])
	})
}

// FuzzDecode asserts the crash-recovery trust boundary: Decode over
// arbitrary bytes — corrupted or truncated checkpoint images included —
// must return an error or a synopsis that answers queries, and must never
// panic. Checked-in corpus lives in testdata/fuzz/FuzzDecode.
func FuzzDecode(f *testing.F) {
	seed := fuzzSeedSynopsis()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:1])
	f.Add([]byte{})
	flipped := append([]byte(nil), seed...)
	for i := 20; i < len(flipped); i += 97 {
		flipped[i] ^= 0x5a
	}
	f.Add(flipped)
	f.Add(sharedSampleImage())
	f.Fuzz(func(t *testing.T, raw []byte) {
		dpt, err := Decode(bytes.NewReader(raw), nil)
		if err != nil {
			if dpt != nil {
				t.Fatal("Decode returned both a synopsis and an error")
			}
			return
		}
		// A synopsis that decoded cleanly must serve the read and update
		// paths without panicking — recovery puts it straight into traffic.
		d := dpt.Config().Dims
		for _, fn := range []Func{FuncSum, FuncCount, FuncAvg, FuncMin, FuncMax} {
			_, _ = dpt.Answer(Query{Func: fn, AggIndex: -1, Rect: geom.Universe(d)})
		}
		key := make(geom.Point, maxKeyArity(dpt.Config()))
		dpt.Insert(data.Tuple{ID: 1 << 60, Key: key, Vals: make([]float64, dpt.Config().NumVals)})
	})
}

// TestDecodeRejectsShortValsTuples pins the restore-side mirror of live
// ingest admission: a persisted stratum or reservoir tuple with fewer
// aggregation attributes than the config tracks must fail validation —
// estimators read Val(i) for every tracked column, and a short slice
// silently yields zeros, skewing SUM/AVG with no error.
func TestDecodeRejectsShortValsTuples(t *testing.T) {
	shortenReservoir := mutateSeed(func(p *persistDPT) {
		p.Reservoir[0].Vals = p.Reservoir[0].Vals[:1] // config tracks 2
	})
	if _, err := Decode(bytes.NewReader(shortenReservoir), nil); err == nil {
		t.Fatal("reservoir tuple with short Vals decoded without error")
	}
	shortenStratum := mutateSeed(func(p *persistDPT) {
		n := p.Root
		for !n.IsLeaf {
			n = n.Left
		}
		if len(n.Stratum) == 0 {
			t.Fatal("test setup: first leaf has an empty stratum")
		}
		n.Stratum[0].Vals = nil
	})
	if _, err := Decode(bytes.NewReader(shortenStratum), nil); err == nil {
		t.Fatal("stratum tuple with short Vals decoded without error")
	}
}

// TestDecodeRejectsStrataNotPartitioningReservoir pins that the strata of
// a restored image are a partition of its reservoir. A stratum sample the
// reservoir lacks would be scanned until the next re-draw, since no
// eviction ever reports it; one in two strata would be scanned twice; and
// one whose key or values differ from the reservoir's copy would change
// when re-seeded or re-encoded from the reservoir.
func TestDecodeRejectsStrataNotPartitioningReservoir(t *testing.T) {
	if _, err := Decode(bytes.NewReader(mutateSeed(func(*persistDPT) {})), nil); err != nil {
		t.Fatalf("the unmutated seed image: %v", err)
	}
	first := func(p *persistDPT) *data.Tuple { return &persistedLeaves(p.Root)[0].Stratum[0] }
	for _, c := range []struct {
		name  string
		image []byte
		want  string
	}{
		{"absent from the reservoir", mutateSeed(func(p *persistDPT) {
			id := first(p).ID
			p.Reservoir = slices.DeleteFunc(p.Reservoir, func(s data.Tuple) bool { return s.ID == id })
		}), "not in the reservoir"},
		{"in two strata", sharedSampleImage(), "in two strata"},
		{"beyond a reservoir over capacity, whose tail Init drops", mutateSeed(func(p *persistDPT) {
			p.Cfg.SampleLowerBound = len(p.Reservoir)/2 - 1
		}), "capacity"},
		{"values differ", mutateSeed(func(p *persistDPT) {
			s := first(p)
			s.Vals = slices.Clone(s.Vals)
			s.Vals[1] += 0.5
		}), "differs from its reservoir copy"},
		{"key differs", mutateSeed(func(p *persistDPT) {
			s := first(p)
			s.Key = geom.Point{math.Nextafter(s.Key[0], math.Inf(1))}
		}), "differs from its reservoir copy"},
	} {
		_, err := Decode(bytes.NewReader(c.image), nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("stratum sample %s: Decode error %v, want one saying %q", c.name, err, c.want)
		}
	}
}

// maxKeyArity returns the tuple key arity the synopsis's projection reads.
func maxKeyArity(cfg Config) int {
	n := cfg.Dims
	for _, d := range cfg.PredicateDims {
		if d+1 > n {
			n = d + 1
		}
	}
	return n
}

// algebraShards is the K of the hash-split identity in FuzzAnswerAlgebra.
const algebraShards = 3

// algebraSynopsis is one synopsis of FuzzAnswerAlgebra with the brute-force
// live table its answers are checked against.
type algebraSynopsis struct {
	dpt  *DPT
	live map[int64]data.Tuple
}

func newAlgebraSynopsis(base []data.Tuple, seed int64) *algebraSynopsis {
	a := &algebraSynopsis{live: make(map[int64]data.Tuple, len(base))}
	for _, tp := range base {
		a.live[tp.ID] = tp
	}
	cfg := Config{Dims: 1, NumVals: 2, AggIndex: 0, Agg: maxvar.Sum, K: 8, SampleLowerBound: 24, Seed: seed}
	pooled := base[:min(len(base), 2*cfg.SampleLowerBound)]
	o := maxvar.New(cfg.Agg, cfg.Dims, cfg.Delta)
	for _, s := range pooled {
		o.Insert(kdindex.Entry{Point: s.Key, Val: s.Val(cfg.AggIndex), ID: s.ID})
	}
	bp := partition.KD(o, partition.Options{K: cfg.K})
	// Re-draws take the lowest live ids: deterministic, and the identities
	// below hold for any sample, uniform or not.
	resample := func(n int) []data.Tuple {
		ids := make([]int64, 0, len(a.live))
		for id := range a.live {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		out := make([]data.Tuple, 0, n)
		for _, id := range ids[:min(n, len(ids))] {
			out = append(out, a.live[id])
		}
		return out
	}
	a.dpt = New(cfg, bp, pooled, int64(len(base)), slices.Clone(base), resample)
	return a
}

func (a *algebraSynopsis) insert(tp data.Tuple) {
	a.live[tp.ID] = tp
	a.dpt.Insert(tp)
}

func (a *algebraSynopsis) delete(tp data.Tuple) {
	delete(a.live, tp.ID)
	a.dpt.Delete(tp)
}

// truth returns the exact SUM and COUNT of attribute 0 over rect.
func (a *algebraSynopsis) truth(rect geom.Rect) (sum, cnt float64) {
	ids := make([]int64, 0, len(a.live))
	for id := range a.live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if tp := a.live[id]; rect.Contains(tp.Key) {
			sum += tp.Val(0)
			cnt++
		}
	}
	return sum, cnt
}

func closeTo(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

// checkComposition asserts the identities that hold for any rect in any
// synopsis state, anchored subtrees included: how the aggregates are
// composed from one another and how an interval scales with its level.
func checkComposition(t *testing.T, d *DPT, rect geom.Rect) {
	t.Helper()
	answer := func(f Func, conf float64) Result {
		res, err := d.Answer(Query{Func: f, AggIndex: -1, Rect: rect, Confidence: conf})
		if err != nil {
			t.Fatalf("%v over %v: %v", f, rect, err)
		}
		return res
	}
	sum, cnt, avg := answer(FuncSum, 0), answer(FuncCount, 0), answer(FuncAvg, 0)
	var ratio float64
	if cnt.Estimate > 0 {
		ratio = sum.Estimate / cnt.Estimate
	}
	if math.Float64bits(avg.Estimate) != math.Float64bits(ratio) {
		t.Errorf("AVG over %v = %x, SUM/COUNT = %x", rect, math.Float64bits(avg.Estimate), math.Float64bits(ratio))
	}
	z80, z99 := stats.ZForConfidence(0.80), stats.ZForConfidence(0.99)
	for _, f := range []Func{FuncSum, FuncCount, FuncAvg} {
		lo, hi := answer(f, 0.80), answer(f, 0.99)
		if lo.Estimate != hi.Estimate {
			t.Errorf("%v over %v: estimate moves with the level: %g vs %g", f, rect, lo.Estimate, hi.Estimate)
		}
		if !closeTo(hi.Interval.HalfWidth, lo.Interval.HalfWidth*z99/z80) {
			t.Errorf("%v over %v: half-width %g at 0.99, %g at 0.80: not in the ratio z99/z80", f, rect, hi.Interval.HalfWidth, lo.Interval.HalfWidth)
		}
	}
	variance, stddev := answer(FuncVariance, 0), answer(FuncStdDev, 0)
	if variance.Estimate < 0 || !closeTo(stddev.Estimate*stddev.Estimate, variance.Estimate) {
		t.Errorf("over %v: VARIANCE %g, STDDEV %g", rect, variance.Estimate, stddev.Estimate)
	}
	lo, err := d.AnswerPartial(Query{Func: FuncMin, AggIndex: -1, Rect: rect})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := d.AnswerPartial(Query{Func: FuncMax, AggIndex: -1, Rect: rect})
	if err != nil {
		t.Fatal(err)
	}
	if lo.Seen != hi.Seen || (lo.Seen && lo.Extreme > hi.Extreme) {
		t.Errorf("over %v: MIN %g (seen %v) above MAX %g (seen %v)", rect, lo.Extreme, lo.Seen, hi.Extreme, hi.Seen)
	}
}

// checkRootSplit asserts that SUM, COUNT, Σa² and the two variances are
// additive over a split of [a,c] at the root's boundary: a bounded rect
// never covers the root, so the two halves decompose into exactly the
// covered nodes and partial leaves of the whole. (Not for anchored trees:
// an anchor root and its re-seeded children are different estimators.)
func checkRootSplit(t *testing.T, d *DPT, a, c float64) {
	t.Helper()
	if d.root.isLeaf {
		return
	}
	leftMax, rightMin := d.root.left.rect.Max[0], d.root.right.rect.Min[0]
	if a > leftMax || c < rightMin {
		return
	}
	partial := func(lo, hi float64) Partial {
		p, err := d.AnswerPartial(Query{Func: FuncSum, AggIndex: -1, Rect: geom.NewRect(geom.Point{lo}, geom.Point{hi})})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	whole, left, right := partial(a, c), partial(a, leftMax), partial(rightMin, c)
	for _, v := range []struct {
		name          string
		whole, halves float64
	}{
		{"SUM", whole.Sum, left.Sum + right.Sum},
		{"SUM variance", whole.SumVar, left.SumVar + right.SumVar},
		{"COUNT", whole.Count, left.Count + right.Count},
		{"COUNT variance", whole.CountVar, left.CountVar + right.CountVar},
		{"SUMSQ", whole.SumSq, left.SumSq + right.SumSq},
	} {
		if !closeTo(v.whole, v.halves) {
			t.Errorf("%s over [%g,%g] = %g, halves split at the root add to %g", v.name, a, c, v.whole, v.halves)
		}
	}
	if whole.Covered != left.Covered+right.Covered || whole.PartialLeaves != left.PartialLeaves+right.PartialLeaves {
		t.Errorf("decomposition of [%g,%g] is not the union of its halves'", a, c)
	}
}

// stateOutside renders, with every float as its exact hex form, the
// statistics of each node of the tree at n that lies outside the subtree
// rooted at skip: counts and moments, heaps, stratum, and the trigger and
// anchor state.
func stateOutside(n, skip *node) string {
	if n == nil || n == skip {
		return ""
	}
	s := fmt.Sprintf("[%x %x %x %x %x %v %x %v %v %x %x %v %x %x",
		n.rect, n.catchup, n.ins, n.del, n.minHeap.Values(), n.minHeap.Exact(), n.maxHeap.Values(), n.maxHeap.Exact(),
		n.isLeaf, n.m0, n.updates, n.isAnchor, n.anchorBase, n.localSeen)
	if n.stratum != nil {
		s += fmt.Sprintf(" %x %x %x", n.stratum.ids, n.stratum.keys, n.stratum.vals)
	}
	return s + stateOutside(n.left, skip) + stateOutside(n.right, skip) + "]"
}

// checkDecodedLikeSource asserts that the synopsis Encode → Decode restores
// answers like its source: the same estimate and half-width bits and the
// same Outer/Covered/Partial for every aggregate over the universe, each
// leaf and rect, on the tree path and (for SUM/COUNT/AVG) on-keys.
func checkDecodedLikeSource(t *testing.T, d *DPT, rect geom.Rect) {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	rects := []geom.Rect{geom.Universe(1), rect}
	for _, l := range d.leaves {
		rects = append(rects, l.rect)
	}
	same := func(path string, q Query, answer func(*DPT) (Result, error)) {
		want, werr := answer(d)
		got, gerr := answer(decoded)
		if (werr == nil) != (gerr == nil) ||
			math.Float64bits(want.Estimate) != math.Float64bits(got.Estimate) ||
			math.Float64bits(want.Interval.HalfWidth) != math.Float64bits(got.Interval.HalfWidth) ||
			want.Outer != got.Outer || want.Covered != got.Covered || want.Partial != got.Partial {
			t.Errorf("%s %v over %v: source answers %+v (%v), decoded %+v (%v)", path, q.Func, q.Rect, want, werr, got, gerr)
		}
	}
	for _, r := range rects {
		for _, f := range []Func{FuncSum, FuncCount, FuncAvg, FuncMin, FuncMax, FuncVariance, FuncStdDev} {
			q := Query{Func: f, AggIndex: -1, Rect: r}
			same("tree", q, func(s *DPT) (Result, error) { return s.Answer(q) })
			if f == FuncSum || f == FuncCount || f == FuncAvg {
				same("on-keys", q, func(s *DPT) (Result, error) {
					p, err := s.AnswerUniformPartial(q, []int{0})
					if err != nil {
						return Result{}, err
					}
					return MergePartials([]Partial{p}, q.Confidence)
				})
			}
		}
	}
}

// FuzzAnswerAlgebra drives a synopsis, and the same rows hash-split over
// algebraShards more, through an op history read off the fuzz bytes and
// asserts the estimator identities that need no statistics: they hold for
// every history, exactly or to rounding.
//
// Each op is three bytes (kind, x, y): insert a row keyed by x, delete the
// x-th live row, run x catch-up steps, or check the composition and split
// identities over a rect from (x, y) in the state reached so far. At the
// end the decoded image must answer like the synopsis, then every synopsis
// catches up fully, where whole-leaf SUM/COUNT must be exact with zero
// half-width, MIN/MAX must bracket every matching sample, and the merged
// shards must agree with the single synopsis; a final partial
// re-partition re-checks composition, and the decoded image, over an
// anchored subtree.
func FuzzAnswerAlgebra(f *testing.F) {
	f.Add([]byte{}) // the untouched synopsis; histories live in testdata/fuzz/FuzzAnswerAlgebra
	f.Fuzz(func(t *testing.T, raw []byte) {
		rng := rand.New(rand.NewSource(17))
		base := makeTuples(rng, 300, 0)
		one := newAlgebraSynopsis(base, 5)
		split := make([][]data.Tuple, algebraShards)
		for _, tp := range base {
			split[tp.ID%algebraShards] = append(split[tp.ID%algebraShards], tp)
		}
		shards := make([]*algebraSynopsis, algebraShards)
		for i := range shards {
			shards[i] = newAlgebraSynopsis(split[i], int64(6+i))
		}
		order := make([]int64, len(base)) // live ids in insertion order, for delete-by-index
		for i, tp := range base {
			order[i] = tp.ID
		}
		rectOf := func(x, y byte) (lo, hi float64) {
			lo, hi = float64(x)*4, float64(y)*4
			if lo > hi {
				lo, hi = hi, lo
			}
			return lo, hi
		}

		const maxOps = 200
		nextID := int64(1 << 20)
		for i := 0; i+3 <= len(raw) && i < 3*maxOps; i += 3 {
			kind, x, y := raw[i]%4, raw[i+1], raw[i+2]
			switch kind {
			case 0:
				tp := data.Tuple{ID: nextID, Key: geom.Point{float64(x)*4 + float64(y)/64}, Vals: []float64{float64(y)/4 + 0.5, float64(x)}}
				nextID++
				order = append(order, tp.ID)
				one.insert(tp)
				shards[tp.ID%algebraShards].insert(tp)
			case 1:
				if len(order) == 0 {
					continue
				}
				j := (int(x)<<8 | int(y)) % len(order)
				tp := one.live[order[j]]
				order = slices.Delete(order, j, j+1)
				one.delete(tp)
				shards[tp.ID%algebraShards].delete(tp)
			case 2:
				one.dpt.CatchUp(int(x))
				for _, s := range shards {
					s.dpt.CatchUp(int(x))
				}
			case 3:
				lo, hi := rectOf(x, y)
				checkComposition(t, one.dpt, geom.NewRect(geom.Point{lo}, geom.Point{hi}))
				checkRootSplit(t, one.dpt, lo, hi)
			}
		}

		var ends [4]byte
		copy(ends[:], raw[min(len(raw), 3*maxOps):])
		if len(raw) >= 4 {
			copy(ends[:], raw[len(raw)-4:])
		}
		lo, hi := rectOf(ends[2], ends[3])
		rect := geom.NewRect(geom.Point{lo}, geom.Point{hi})
		checkDecodedLikeSource(t, one.dpt, rect)

		all := append([]*algebraSynopsis{one}, shards...)
		for _, s := range all {
			s.dpt.CatchUpTarget(1.0)
			if !s.dpt.exactStats {
				t.Fatal("full catch-up must mark statistics exact")
			}
		}

		// Whole leaves at full catch-up: exact, zero half-width.
		d := one.dpt
		i, j := int(ends[0])%len(d.leaves), int(ends[1])%len(d.leaves)
		if i > j {
			i, j = j, i
		}
		leaves := geom.NewRect(d.leaves[i].rect.Min, d.leaves[j].rect.Max)
		wantSum, wantCnt := one.truth(leaves)
		for _, c := range []struct {
			f    Func
			want float64
		}{{FuncSum, wantSum}, {FuncCount, wantCnt}} {
			res, err := d.Answer(Query{Func: c.f, AggIndex: -1, Rect: leaves})
			if err != nil {
				t.Fatal(err)
			}
			if res.Partial != 0 || res.Interval.HalfWidth != 0 || !closeTo(res.Estimate, c.want) {
				t.Errorf("%v over leaves %d..%d at full catch-up = %g ± %g (%d partial), want exactly %g",
					c.f, i, j, res.Estimate, res.Interval.HalfWidth, res.Partial, c.want)
			}
		}

		// Any rect at full catch-up: composition, the split, and extremes
		// that bracket every matching sample (every live value has been
		// through the heaps by now).
		checkComposition(t, d, rect)
		checkRootSplit(t, d, lo, hi)
		minP, err := d.AnswerPartial(Query{Func: FuncMin, AggIndex: -1, Rect: rect})
		if err != nil {
			t.Fatal(err)
		}
		maxP, err := d.AnswerPartial(Query{Func: FuncMax, AggIndex: -1, Rect: rect})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range d.res.Items() {
			if !rect.Contains(s.Key) {
				continue
			}
			if v := s.Val(0); !minP.Seen || !maxP.Seen || minP.Extreme > v || maxP.Extreme < v {
				t.Errorf("sample %d = %g inside %v escapes MIN %g / MAX %g", s.ID, v, rect, minP.Extreme, maxP.Extreme)
			}
		}

		// K hash-split synopses merge to the single synopsis's exact
		// universe SUM and COUNT.
		for _, fn := range []Func{FuncSum, FuncCount} {
			q := Query{Func: fn, AggIndex: -1, Rect: geom.Universe(1)}
			parts := make([]Partial, len(shards))
			for k, s := range shards {
				if parts[k], err = s.dpt.AnswerPartial(q); err != nil {
					t.Fatal(err)
				}
			}
			merged, err := MergePartials(parts, 0)
			if err != nil {
				t.Fatal(err)
			}
			single, err := d.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			if !closeTo(merged.Estimate, single.Estimate) || merged.Interval.HalfWidth != 0 || single.Interval.HalfWidth != 0 {
				t.Errorf("%v over the universe: %d shards merge to %g ± %g, one synopsis answers %g ± %g",
					fn, len(shards), merged.Estimate, merged.Interval.HalfWidth, single.Estimate, single.Interval.HalfWidth)
			}
		}

		// An Appendix E rebuild around the rect's low end: every node
		// outside the rebuilt subtree keeps its statistics bit for bit, and
		// composition must survive anchored scaling.
		psi := 1 + int(ends[0])%3
		u := rebuildRoot(d.route(geom.Point{lo}), psi)
		before := stateOutside(d.root, u)
		if err := d.partialRepartition(geom.Point{lo}, psi); err != nil {
			t.Fatal(err)
		}
		if after := stateOutside(d.root, u); after != before {
			t.Errorf("rebuilding the subtree at %v changed nodes outside it:\nbefore %s\nafter  %s", u.rect, before, after)
		}
		checkComposition(t, d, rect)
		checkComposition(t, d, geom.Universe(1))
		checkDecodedLikeSource(t, d, rect)
	})
}
