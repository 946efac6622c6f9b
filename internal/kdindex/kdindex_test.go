package kdindex

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"janusaqp/internal/geom"
)

func randomEntries(rng *rand.Rand, n, d int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = rng.Float64() * 100
		}
		out[i] = Entry{Point: p, Val: rng.NormFloat64() * 10, ID: int64(i)}
	}
	return out
}

func bruteMoments(entries []Entry, live map[int64]bool, rect geom.Rect) (n int64, sum, sumsq float64) {
	for _, e := range entries {
		if !live[e.ID] {
			continue
		}
		if rect.Contains(e.Point) {
			n++
			sum += e.Val
			sumsq += e.Val * e.Val
		}
	}
	return
}

func TestRangeMomentsMatchesBruteForce(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5} {
		rng := rand.New(rand.NewSource(int64(d)))
		entries := randomEntries(rng, 800, d)
		tr := New(d)
		live := map[int64]bool{}
		for _, e := range entries {
			tr.Insert(e)
			live[e.ID] = true
		}
		// Delete a third.
		for _, e := range entries {
			if rng.Float64() < 0.33 {
				if !tr.Delete(e.ID) {
					t.Fatalf("d=%d: delete %d failed", d, e.ID)
				}
				live[e.ID] = false
			}
		}
		for trial := 0; trial < 100; trial++ {
			min := make(geom.Point, d)
			max := make(geom.Point, d)
			for j := 0; j < d; j++ {
				a, b := rng.Float64()*100, rng.Float64()*100
				min[j], max[j] = math.Min(a, b), math.Max(a, b)
			}
			rect := geom.Rect{Min: min, Max: max}
			got := tr.RangeMoments(rect)
			wantN, wantSum, wantSq := bruteMoments(entries, live, rect)
			if got.N != wantN {
				t.Fatalf("d=%d trial=%d: N=%d want %d", d, trial, got.N, wantN)
			}
			if math.Abs(got.Sum-wantSum) > 1e-6*(1+math.Abs(wantSum)) {
				t.Fatalf("d=%d trial=%d: Sum=%g want %g", d, trial, got.Sum, wantSum)
			}
			if math.Abs(got.SumSq-wantSq) > 1e-6*(1+wantSq) {
				t.Fatalf("d=%d trial=%d: SumSq=%g want %g", d, trial, got.SumSq, wantSq)
			}
		}
	}
}

func TestReportFindsExactSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	entries := randomEntries(rng, 500, 2)
	tr := New(2)
	for _, e := range entries {
		tr.Insert(e)
	}
	rect := geom.NewRect(geom.Point{20, 30}, geom.Point{70, 80})
	got := map[int64]bool{}
	tr.Report(rect, func(e Entry) bool {
		got[e.ID] = true
		return true
	})
	for _, e := range entries {
		want := rect.Contains(e.Point)
		if got[e.ID] != want {
			t.Fatalf("entry %d reported=%v want %v", e.ID, got[e.ID], want)
		}
	}
}

func TestReportEarlyStop(t *testing.T) {
	tr := New(1)
	for i := 0; i < 100; i++ {
		tr.Insert(Entry{Point: geom.Point{float64(i)}, ID: int64(i)})
	}
	n := 0
	tr.Report(geom.Universe(1), func(Entry) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop visited %d, want 5", n)
	}
}

func TestDeleteAndReinsert(t *testing.T) {
	tr := New(2)
	e := Entry{Point: geom.Point{1, 2}, Val: 3, ID: 42}
	tr.Insert(e)
	if !tr.Delete(42) {
		t.Fatal("delete failed")
	}
	if tr.Delete(42) {
		t.Fatal("double delete must fail")
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
	tr.Insert(e) // same ID may be reused after deletion
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	if n, ok := tr.byID[42]; !ok || n.e.Val != 3 {
		t.Errorf("entry 42 missing or stale after reinsert (found=%v)", ok)
	}
}

func TestDuplicateIDPanics(t *testing.T) {
	tr := New(1)
	tr.Insert(Entry{Point: geom.Point{1}, ID: 7})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate live ID")
		}
	}()
	tr.Insert(Entry{Point: geom.Point{2}, ID: 7})
}

func TestSelectCoordMatchesSort(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5} {
		rng := rand.New(rand.NewSource(int64(9 + d)))
		entries := randomEntries(rng, 300, d)
		for i := range entries {
			if i%3 == 0 { // a third of the points share coarse coordinates
				for j := range entries[i].Point {
					entries[i].Point[j] = math.Floor(entries[i].Point[j] / 10)
				}
			}
		}
		tr := New(d)
		for _, e := range entries {
			tr.Insert(e)
		}
		live := make(map[int64]bool, len(entries))
		for _, e := range entries {
			live[e.ID] = true
		}
		for _, e := range entries[:len(entries)/4] { // tombstones, below the rebuild limit
			tr.Delete(e.ID)
			delete(live, e.ID)
		}
		// The universe, a rect with one infinite side per dimension, and
		// two finite ones.
		rects := []geom.Rect{geom.Universe(d), geom.Universe(d)}
		for j := 0; j < d; j++ {
			if j%2 == 0 {
				rects[1].Max[j] = 90
			} else {
				rects[1].Min[j] = 5
			}
		}
		for _, side := range [][2]float64{{10, 90}, {20, 40}} {
			r := geom.Universe(d)
			for j := 0; j < d; j++ {
				r.Min[j], r.Max[j] = side[0], side[1]
			}
			rects = append(rects, r)
		}
		for _, rect := range rects {
			for dim := 0; dim < d; dim++ {
				var coords []float64
				for _, e := range entries {
					if live[e.ID] && rect.Contains(e.Point) {
						coords = append(coords, e.Point[dim])
					}
				}
				sort.Float64s(coords)
				for k, want := range coords {
					got, ok := tr.SelectCoord(rect, dim, k)
					if !ok || got != want {
						t.Fatalf("d=%d %v dim=%d: SelectCoord(k=%d) = %g ok=%v, want %g",
							d, rect, dim, k, got, ok, want)
					}
				}
				if _, ok := tr.SelectCoord(rect, dim, len(coords)); ok {
					t.Fatalf("d=%d %v dim=%d: SelectCoord past the end must fail", d, rect, dim)
				}
			}
		}
	}
}

// TestSelectCoordReturnsStoredCoordinate pins a median hundreds of binary
// orders of magnitude from its neighbours: a hundred steps of bisecting
// float values stop short of it, on a float no entry holds. The answer is
// the stored 1e-200 exactly.
func TestSelectCoordReturnsStoredCoordinate(t *testing.T) {
	tr := New(2)
	for i, x := range []float64{-1, 1e-200, 1} {
		tr.Insert(Entry{Point: geom.Point{x, 0}, ID: int64(i)})
	}
	rect := geom.NewRect(geom.Point{-1, -1}, geom.Point{1, 1})
	if got, ok := tr.SelectCoord(rect, 0, 1); !ok || got != 1e-200 {
		t.Errorf("SelectCoord(k=1) = %v ok=%v, want 1e-200", got, ok)
	}
}

func TestSelectCoordOnUniverse(t *testing.T) {
	tr := New(1)
	for i, v := range []float64{5, 3, 9, 1, 7} {
		tr.Insert(Entry{Point: geom.Point{v}, ID: int64(i)})
	}
	got, ok := tr.SelectCoord(geom.Universe(1), 0, 2)
	if !ok || got != 5 {
		t.Errorf("SelectCoord median = %g ok=%v, want 5", got, ok)
	}
}

func TestCanonicalNodesCoverExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	entries := randomEntries(rng, 600, 2)
	tr := New(2)
	for _, e := range entries {
		tr.Insert(e)
	}
	rect := geom.NewRect(geom.Point{25, 25}, geom.Point{75, 75})
	maxCount := int64(40)
	var totalN int64
	var totalSum float64
	tr.CanonicalNodes(rect, maxCount, func(c CanonicalNode) bool {
		if c.Agg.N > maxCount {
			t.Fatalf("canonical node with %d > %d entries", c.Agg.N, maxCount)
		}
		if !rect.ContainsRect(c.Region) {
			t.Fatalf("canonical region %v escapes query %v", c.Region, rect)
		}
		totalN += c.Agg.N
		totalSum += c.Agg.Sum
		return true
	})
	wantN, wantSum, _ := bruteMoments(entries, allLive(entries), rect)
	if totalN != wantN {
		t.Errorf("canonical nodes cover %d entries, want %d", totalN, wantN)
	}
	if math.Abs(totalSum-wantSum) > 1e-6*(1+math.Abs(wantSum)) {
		t.Errorf("canonical sum %g, want %g", totalSum, wantSum)
	}
}

func allLive(entries []Entry) map[int64]bool {
	m := make(map[int64]bool, len(entries))
	for _, e := range entries {
		m[e.ID] = true
	}
	return m
}

func TestSequentialInsertStaysBalanced(t *testing.T) {
	// Sorted insertion is the degenerate case for a naive k-d tree; the
	// scapegoat rebuilds must keep query cost sane. We check the tree can
	// answer 1000 queries quickly by bounding the node count visited via
	// depth of recursion — proxy: total time is covered by the test
	// timeout, structural balance via root size vs depth estimate.
	tr := New(1)
	n := 1 << 12
	for i := 0; i < n; i++ {
		tr.Insert(Entry{Point: geom.Point{float64(i)}, Val: 1, ID: int64(i)})
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	d := depth(tr.root)
	if d > 40 { // log2(4096)=12; alpha=0.7 gives ~ log_{1/0.7} = 2*log2; allow slack
		t.Errorf("depth = %d after sorted insertion; rebalancing is broken", d)
	}
	got := tr.RangeMoments(geom.NewRect(geom.Point{100}, geom.Point{199}))
	if got.N != 100 {
		t.Errorf("range count = %d, want 100", got.N)
	}
}

func TestTombstoneCompaction(t *testing.T) {
	tr := New(2)
	rng := rand.New(rand.NewSource(10))
	entries := randomEntries(rng, 2000, 2)
	for _, e := range entries {
		tr.Insert(e)
	}
	for _, e := range entries[:1900] {
		tr.Delete(e.ID)
	}
	// After deleting 95%, the rebuild threshold must have fired: structural
	// size should be close to live size.
	if tr.root.size > 4*tr.root.live {
		t.Errorf("structural size %d vs live %d: tombstones not compacted", tr.root.size, tr.root.live)
	}
	// Remaining entries must all still be findable.
	for _, e := range entries[1900:] {
		if _, ok := tr.byID[e.ID]; !ok {
			t.Fatalf("entry %d lost after compaction", e.ID)
		}
	}
}

func depth(n *node) int {
	if n == nil {
		return 0
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

func TestDuplicateCoordinatesSurviveRebuild(t *testing.T) {
	// Many entries share coordinates; rebuilds must preserve the region
	// invariant so degenerate-rectangle queries still find everything.
	tr := New(2)
	id := int64(0)
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			tr.Insert(Entry{Point: geom.Point{float64(i % 4), float64(j % 4)}, Val: 1, ID: id})
			id++
		}
	}
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			rect := geom.PointRect(geom.Point{float64(x), float64(y)})
			if got := tr.CountInRange(rect); got != 100 {
				t.Fatalf("point query (%d,%d) found %d, want 100", x, y, got)
			}
		}
	}
}

// BenchmarkSelectCoord3D measures the median search of the k-d partitioner
// and the SUM oracle over a 1k-point 3-D tree, on a leaf-sized and a
// root-sized rectangle.
func BenchmarkSelectCoord3D(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tr := New(3)
	for _, e := range randomEntries(rng, 1000, 3) {
		tr.Insert(e)
	}
	for _, bc := range []struct {
		name string
		rect geom.Rect
	}{
		{"leaf", geom.NewRect(geom.Point{40, 40, 40}, geom.Point{60, 60, 60})},
		{"root", geom.Universe(3)},
	} {
		k := int(tr.CountInRange(bc.rect)/2) - 1
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := tr.SelectCoord(bc.rect, i%3, k); !ok {
					b.Fatal("SelectCoord failed")
				}
			}
		})
	}
}
