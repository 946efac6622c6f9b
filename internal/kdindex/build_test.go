package kdindex

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"janusaqp/internal/geom"
)

// refBuildAt is the sort-based build buildAt replaced: a full sort by
// (coordinate, ID) per level, the median advanced past its duplicates,
// and a fresh node per entry. The selection-based build, which relinks
// the existing nodes, must produce the identical tree.
func (t *Tree) refBuildAt(entries []Entry, dim int, parent *node) *node {
	if len(entries) == 0 {
		return nil
	}
	mid := len(entries) / 2
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Point[dim] != entries[j].Point[dim] {
			return entries[i].Point[dim] < entries[j].Point[dim]
		}
		return entries[i].ID < entries[j].ID
	})
	for mid+1 < len(entries) && entries[mid+1].Point[dim] == entries[mid].Point[dim] {
		mid++
	}
	n := &node{e: entries[mid], dim: dim, parent: parent}
	t.byID[n.e.ID] = n
	next := (dim + 1) % t.dims
	n.left = t.refBuildAt(entries[:mid], next, n)
	n.right = t.refBuildAt(entries[mid+1:], next, n)
	n.recompute()
	return n
}

// refCollect appends the live entries under n in order, as the rebuilds
// refBuildAt served did.
func refCollect(n *node, out *[]Entry) {
	if n == nil {
		return
	}
	refCollect(n.left, out)
	if !n.dead {
		*out = append(*out, n.e)
	}
	refCollect(n.right, out)
}

// refInsert and refDelete are Insert and Delete with every rebuild going
// through refBuildAt, so a grown reference tree can be compared with one
// grown by the production code.
func (t *Tree) refInsert(e Entry) {
	e.Point = e.Point.Clone()
	if t.root == nil {
		t.root = &node{e: e, dim: 0}
		t.root.recompute()
		t.byID[e.ID] = t.root
		return
	}
	n := t.root
	for {
		var next **node
		if e.Point[n.dim] <= n.e.Point[n.dim] {
			next = &n.left
		} else {
			next = &n.right
		}
		if *next == nil {
			nn := &node{e: e, dim: (n.dim + 1) % t.dims, parent: n}
			nn.recompute()
			*next = nn
			t.byID[e.ID] = nn
			t.bubbleUp(nn)
			var scapegoat *node
			for p := nn.parent; p != nil; p = p.parent {
				if float64(structSize(p.left)) > t.alpha*float64(p.size) ||
					float64(structSize(p.right)) > t.alpha*float64(p.size) {
					scapegoat = p
				}
			}
			if scapegoat != nil {
				t.refRebuildSubtree(scapegoat)
			}
			return
		}
		n = *next
	}
}

func (t *Tree) refRebuildSubtree(s *node) {
	entries := make([]Entry, 0, s.live)
	refCollect(s, &entries)
	parent := s.parent
	dim := 0
	if parent != nil {
		dim = (parent.dim + 1) % t.dims
	}
	nn := t.refBuildAt(entries, dim, parent)
	switch {
	case parent == nil:
		t.root = nn
	case parent.left == s:
		parent.left = nn
	default:
		parent.right = nn
	}
	t.bubbleUp(parent)
}

func (t *Tree) refDelete(id int64) bool {
	n, ok := t.byID[id]
	if !ok {
		return false
	}
	delete(t.byID, id)
	n.dead = true
	t.bubbleUp(n)
	if t.root != nil && t.root.size > 8 &&
		float64(t.root.size-t.root.live) > t.deadLimit*float64(t.root.size) {
		entries := make([]Entry, 0, t.root.live)
		refCollect(t.root, &entries)
		t.root = t.refBuildAt(entries, 0, nil)
	}
	return true
}

// shape is a tree's pre-order (ID, dim, size, live, dead) sequence plus
// every node's aggregate bits: equal shapes mean equal trees, and equal
// Moments merge orders.
func shape(n *node, out *[]string) {
	if n == nil {
		*out = append(*out, "-")
		return
	}
	*out = append(*out, fmt.Sprintf("%d/%d/%d/%d/%v/%d:%x:%x", n.e.ID, n.dim, n.size, n.live, n.dead,
		n.agg.N, math.Float64bits(n.agg.Sum), math.Float64bits(n.agg.SumSq)))
	shape(n.left, out)
	shape(n.right, out)
}

func requireSameTree(t *testing.T, label string, got, want *Tree) {
	t.Helper()
	var g, w []string
	shape(got.root, &g)
	shape(want.root, &w)
	if len(g) != len(w) {
		t.Fatalf("%s: %d shape tokens, reference %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: pre-order token %d is %s, reference %s", label, i, g[i], w[i])
		}
	}
	if len(got.byID) != len(want.byID) {
		t.Fatalf("%s: %d ids indexed, reference %d", label, len(got.byID), len(want.byID))
	}
}

// sharedEntries draws n entries with shuffled IDs; a third of all
// coordinates come from four shared values, so median duplicates are
// common at every level.
func sharedEntries(rng *rand.Rand, n, d int) []Entry {
	ids := rng.Perm(n)
	out := make([]Entry, n)
	for i := range out {
		p := make(geom.Point, d)
		for j := range p {
			if rng.Intn(3) == 0 {
				p[j] = float64(rng.Intn(4) * 25)
			} else {
				p[j] = rng.Float64() * 100
			}
		}
		out[i] = Entry{Point: p, Val: rng.NormFloat64() * 10, ID: int64(ids[i])}
	}
	return out
}

func TestBuildMatchesSortReference(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5} {
		rng := rand.New(rand.NewSource(int64(100 + d)))
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 16, 31, 100, 257, 1000, 2000} {
			entries := sharedEntries(rng, n, d)
			got, want := New(d), New(d)
			es := append([]Entry(nil), entries...)
			nodes := make([]*node, len(es))
			for i, e := range es {
				nodes[i] = &node{e: e}
				got.byID[e.ID] = nodes[i]
			}
			got.root = got.buildAt(nodes, make([]float64, len(nodes)), 0, nil)
			// The reference sees the entries in another order: a build
			// depends on the entry set alone.
			rs := append([]Entry(nil), entries...)
			rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
			want.root = want.refBuildAt(rs, 0, nil)
			requireSameTree(t, fmt.Sprintf("d=%d n=%d", d, n), got, want)
		}
	}
}

func TestGrownTreeMatchesSortReference(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5} {
		rng := rand.New(rand.NewSource(int64(200 + d)))
		entries := sharedEntries(rng, 2000, d)
		// Monotone along dim 0, as rows arriving in time order: every
		// insert lands on the right spine and scapegoat rebuilds run.
		sort.SliceStable(entries, func(i, j int) bool { return entries[i].Point[0] < entries[j].Point[0] })
		got, want := New(d), New(d)
		for i, e := range entries {
			got.Insert(e)
			want.refInsert(e)
			if i%97 == 0 {
				requireSameTree(t, fmt.Sprintf("d=%d after insert %d", d, i), got, want)
			}
		}
		requireSameTree(t, fmt.Sprintf("d=%d after inserts", d), got, want)
		// Delete past the tombstone limit so full rebuilds run too.
		rebuilt := false
		for i, e := range entries {
			if rng.Intn(4) == 0 {
				continue
			}
			before := got.root.size
			if got.Delete(e.ID) != want.refDelete(e.ID) {
				t.Fatalf("d=%d: Delete(%d) disagrees with the reference", d, e.ID)
			}
			rebuilt = rebuilt || got.root.size < before
			if i%97 == 0 {
				requireSameTree(t, fmt.Sprintf("d=%d after delete %d", d, i), got, want)
			}
		}
		requireSameTree(t, fmt.Sprintf("d=%d after deletes", d), got, want)
		if !rebuilt {
			t.Fatalf("d=%d: no tombstone rebuild ran", d)
		}
	}
}

// TestNaNCoordinatesKeepTreeTotal builds and queries over points with NaN
// coordinates, which nothing upstream of the index rules out: selection
// must stay total (NaN orders first, as in sort.Float64s), never panic and
// never lose an entry.
func TestNaNCoordinatesKeepTreeTotal(t *testing.T) {
	for _, d := range []int{1, 3} {
		for _, nanShare := range []float64{0.1, 0.6, 1} {
			rng := rand.New(rand.NewSource(int64(d*10) + int64(nanShare*10)))
			tr := New(d)
			entries := sharedEntries(rng, 600, d)
			for i := range entries {
				for j := range entries[i].Point {
					if rng.Float64() < nanShare {
						entries[i].Point[j] = math.NaN()
					}
				}
				tr.Insert(entries[i])
			}
			if tr.Len() != len(entries) {
				t.Fatalf("d=%d nan=%g: Len = %d after inserts, want %d", d, nanShare, tr.Len(), len(entries))
			}
			for _, e := range entries[:400] {
				if !tr.Delete(e.ID) {
					t.Fatalf("d=%d nan=%g: Delete(%d) lost the entry", d, nanShare, e.ID)
				}
			}
			live := entries[400:]
			if tr.Len() != len(live) {
				t.Fatalf("d=%d nan=%g: Len = %d after deletes, want %d", d, nanShare, tr.Len(), len(live))
			}
			seen := 0
			tr.Report(geom.Universe(d), func(Entry) bool { seen++; return true })
			if seen != len(live) {
				t.Fatalf("d=%d nan=%g: universe reports %d entries, want %d", d, nanShare, seen, len(live))
			}
			if d == 1 {
				// The 1-D order-statistic walk ranks NaN keys inside every
				// rectangle, so its answer is not defined here; it must
				// only return.
				tr.SelectCoord(geom.Universe(d), 0, len(live)/2)
				continue
			}
			for dim := 0; dim < d; dim++ {
				coords := make([]float64, len(live))
				for i, e := range live {
					coords[i] = e.Point[dim]
				}
				sort.Float64s(coords)
				for _, k := range []int{0, len(live) / 2, len(live) - 1} {
					got, ok := tr.SelectCoord(geom.Universe(d), dim, k)
					if !ok || math.Float64bits(got) != math.Float64bits(coords[k]) &&
						!(math.IsNaN(got) && math.IsNaN(coords[k])) {
						t.Fatalf("d=%d nan=%g dim=%d: SelectCoord k=%d = %g,%v, want %g", d, nanShare, dim, k, got, ok, coords[k])
					}
				}
			}
		}
	}
}

// BenchmarkInsertMonotone3D inserts points in increasing dim-0 order into
// a 20k-entry 3-D tree: rows arriving in time order, the scapegoat rebuild
// path of the oracle's index.
func BenchmarkInsertMonotone3D(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	tr := New(3)
	for _, e := range randomEntries(rng, 20000, 3) {
		tr.Insert(e)
	}
	fresh := make([]Entry, b.N)
	for i := range fresh {
		fresh[i] = Entry{
			Point: geom.Point{100 + float64(i), rng.Float64() * 100, rng.Float64() * 100},
			Val:   rng.NormFloat64(),
			ID:    int64(20000 + i),
		}
	}
	b.ResetTimer()
	for i := range fresh {
		tr.Insert(fresh[i])
	}
}
