// Package kdindex implements the dynamic multi-dimensional range-aggregate
// index that JanusAQP's partitioning algorithms are built on (the "dynamic
// range tree" of Section 5.3.1 and Appendix D.1 of the paper).
//
// A nested d-level range tree has Θ(m·log^{d-1} m) space, which is
// impractical at d = 5 even over sample sets; this package substitutes a
// k-d tree with subtree aggregates, tombstoned deletions, and
// scapegoat-style partial rebuilding. A rebuild relinks the subtree's live
// nodes level by level around a median found by selection, O(s log s) for
// s entries, so time-ordered inserts that keep rebuilding the right spine
// stay cheap. It supports the same oracle operations the paper's
// algorithms require, with amortized logarithmic updates:
//
//   - range aggregates: COUNT, Σa, Σa² of all points inside a rectangle,
//   - the k-th smallest coordinate along any dimension within a rectangle
//     (used for the median splits of the k-d partitioner and the
//     split-in-half max-variance oracle): an order-statistic walk in one
//     dimension, one point report plus a quickselect in more,
//   - enumeration of canonical nodes (maximal subtrees fully inside a query
//     rectangle), used by the AVG max-variance oracle,
//   - point reporting inside a rectangle (used to materialize per-leaf
//     strata from the single pooled sample in multi-template mode, §5.5).
package kdindex

import (
	"fmt"
	"math"

	"janusaqp/internal/geom"
	"janusaqp/internal/stats"
)

// Entry is a weighted point: Point is the location in predicate space, Val
// the aggregation value contributing to Σa and Σa², and ID a unique handle
// used for deletion.
type Entry struct {
	Point geom.Point
	Val   float64
	ID    int64
}

type node struct {
	e      Entry
	dim    int // split dimension at this node
	dead   bool
	left   *node
	right  *node
	parent *node

	size int           // structural size: live + dead descendants + self
	live int           // live entries in subtree
	agg  stats.Moments // aggregates over live entries in subtree
}

func (n *node) recompute() {
	n.size = 1
	n.live = 0
	n.agg = stats.Moments{}
	if !n.dead {
		n.live = 1
		n.agg.Add(n.e.Val)
	}
	for _, c := range [2]*node{n.left, n.right} {
		if c != nil {
			n.size += c.size
			n.live += c.live
			n.agg.Merge(c.agg)
		}
	}
}

func structSize(n *node) int {
	if n == nil {
		return 0
	}
	return n.size
}

// Tree is a dynamic k-d range-aggregate index. Create trees with New.
type Tree struct {
	dims int
	root *node
	byID map[int64]*node

	// alpha is the scapegoat weight-balance parameter: a subtree is
	// rebuilt when one child holds more than alpha of its structural size.
	alpha float64
	// deadLimit is the tombstone fraction that triggers a full rebuild.
	deadLimit float64
}

// New returns an empty index over d-dimensional points.
func New(dims int) *Tree {
	if dims < 1 {
		panic("kdindex: dimensionality must be >= 1")
	}
	return &Tree{dims: dims, byID: make(map[int64]*node), alpha: 0.70, deadLimit: 0.5}
}

// Dims returns the dimensionality of indexed points.
func (t *Tree) Dims() int { return t.dims }

// Len returns the number of live entries.
func (t *Tree) Len() int {
	if t.root == nil {
		return 0
	}
	return t.root.live
}

// Insert adds e to the index. IDs must be unique among live entries; it
// panics on a duplicate live ID because that indicates a bookkeeping bug in
// the caller.
func (t *Tree) Insert(e Entry) {
	if len(e.Point) != t.dims {
		panic(fmt.Sprintf("kdindex: point dimensionality %d, index %d", len(e.Point), t.dims))
	}
	if _, dup := t.byID[e.ID]; dup {
		panic(fmt.Sprintf("kdindex: duplicate live id %d", e.ID))
	}
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
			t.rebalanceFrom(nn)
			return
		}
		n = *next
	}
}

// Delete removes the live entry with the given id, returning false when no
// such entry exists. Deletion tombstones the node and triggers a full
// rebuild when tombstones exceed the configured fraction.
func (t *Tree) Delete(id int64) bool {
	n, ok := t.byID[id]
	if !ok {
		return false
	}
	delete(t.byID, id)
	n.dead = true
	t.bubbleUp(n)
	if t.root != nil && t.root.size > 8 &&
		float64(t.root.size-t.root.live) > t.deadLimit*float64(t.root.size) {
		t.rebuildAll()
	}
	return true
}

func (t *Tree) bubbleUp(n *node) {
	for ; n != nil; n = n.parent {
		n.recompute()
	}
}

// rebalanceFrom walks from a freshly inserted node to the root and rebuilds
// the highest weight-unbalanced subtree, if any (scapegoat insertion).
func (t *Tree) rebalanceFrom(n *node) {
	var scapegoat *node
	for p := n.parent; p != nil; p = p.parent {
		if float64(structSize(p.left)) > t.alpha*float64(p.size) ||
			float64(structSize(p.right)) > t.alpha*float64(p.size) {
			scapegoat = p
		}
	}
	if scapegoat != nil {
		t.rebuildSubtree(scapegoat)
	}
}

func (t *Tree) rebuildAll() {
	if t.root == nil {
		return
	}
	t.root = t.rebuild(t.root, 0, nil)
}

func (t *Tree) rebuildSubtree(s *node) {
	parent := s.parent
	dim := 0
	if parent != nil {
		dim = (parent.dim + 1) % t.dims
	}
	nn := t.rebuild(s, dim, parent)
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

// rebuild relinks the live nodes of the subtree at s into a balanced
// subtree whose root splits on dim, dropping its tombstones. Live nodes
// are reused, so byID stays valid and a rebuild allocates only its two
// scratch slices.
func (t *Tree) rebuild(s *node, dim int, parent *node) *node {
	nodes := appendLive(make([]*node, 0, s.live), s)
	return t.buildAt(nodes, make([]float64, len(nodes)), dim, parent)
}

func appendLive(out []*node, n *node) []*node {
	if n == nil {
		return out
	}
	if !n.dead {
		out = append(out, n)
	}
	return appendLive(appendLive(out, n.left), n.right)
}

// buildAt links nodes into a balanced subtree whose root splits on dim,
// cycling dimensions below it. keys is scratch parallel to nodes.
//
// The root is the node of largest ID among those whose dim coordinate
// equals c, the coordinate of rank len/2; every other node at or below c
// goes left and every node above c goes right. That keeps the region
// invariant "left subtree <= split < right subtree", and it is exactly the
// split a sort by (coordinate, ID) would pick, so the tree is a function of
// the entry set alone. One selection per level instead of a sort makes a
// rebuild of s entries O(s log s).
func (t *Tree) buildAt(nodes []*node, keys []float64, dim int, parent *node) *node {
	if len(nodes) == 0 {
		return nil
	}
	for i, n := range nodes {
		keys[i] = n.e.Point[dim]
	}
	lt, gt := selectRank(keys, nodes, len(nodes)/2)
	top := lt
	for i := lt + 1; i < gt; i++ {
		if nodes[i].e.ID > nodes[top].e.ID {
			top = i
		}
	}
	mid := gt - 1
	nodes[top], nodes[mid] = nodes[mid], nodes[top]
	n := nodes[mid]
	n.dim, n.parent = dim, parent
	next := (dim + 1) % t.dims
	n.left = t.buildAt(nodes[:mid], keys[:mid], next, n)
	n.right = t.buildAt(nodes[gt:], keys[gt:], next, n)
	n.recompute()
	return n
}

// selectRank partially orders keys, moving nodes in step when it is not
// nil, so that with c the k-th smallest key (0-based), keys[:lt] < c,
// keys[lt:gt] == c and keys[gt:] > c, where lt <= k < gt. The order is
// sort.Float64s's, NaN before every number, so it is total on any input.
// It is a quickselect with three-way partitioning: expected O(len(keys)).
func selectRank(keys []float64, nodes []*node, k int) (lt, gt int) {
	swap := func(i, j int) {
		keys[i], keys[j] = keys[j], keys[i]
		if nodes != nil {
			nodes[i], nodes[j] = nodes[j], nodes[i]
		}
	}
	lo, hi := 0, len(keys)
	for {
		p := medianOf3(keys[lo], keys[lo+(hi-lo)/2], keys[hi-1])
		lt, gt = lo, hi
		for i := lo; i < gt; {
			switch {
			case keyLess(keys[i], p):
				swap(lt, i)
				lt++
				i++
			case keyLess(p, keys[i]):
				gt--
				swap(i, gt)
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return lt, gt
		}
	}
}

// keyLess is sort.Float64s's order: NaN sorts before every number.
func keyLess(a, b float64) bool { return a < b || (a != a && b == b) }

func medianOf3(a, b, c float64) float64 {
	if keyLess(b, a) {
		a, b = b, a
	}
	if keyLess(c, b) {
		b = c
		if keyLess(b, a) {
			b = a
		}
	}
	return b
}

// RangeMoments returns the aggregates (count, Σval, Σval²) of live entries
// inside rect.
func (t *Tree) RangeMoments(rect geom.Rect) stats.Moments {
	var m stats.Moments
	t.rangeMoments(t.root, geom.Universe(t.dims), rect, &m)
	return m
}

func (t *Tree) rangeMoments(n *node, region, rect geom.Rect, m *stats.Moments) {
	if n == nil || n.live == 0 || !region.Intersects(rect) {
		return
	}
	if rect.ContainsRect(region) {
		m.Merge(n.agg)
		return
	}
	if !n.dead && rect.Contains(n.e.Point) {
		m.Add(n.e.Val)
	}
	// Narrow the region in place while descending and restore afterwards:
	// this traversal is the system's hottest loop, and cloning rectangles
	// per node (two allocations each) dominates re-initialization cost.
	split := n.e.Point[n.dim]
	oldMax := region.Max[n.dim]
	if split < oldMax {
		region.Max[n.dim] = split
	}
	t.rangeMoments(n.left, region, rect, m)
	region.Max[n.dim] = oldMax
	oldMin := region.Min[n.dim]
	if r := math.Nextafter(split, math.Inf(1)); r > oldMin {
		region.Min[n.dim] = r
	}
	t.rangeMoments(n.right, region, rect, m)
	region.Min[n.dim] = oldMin
}

// Report calls fn for every live entry inside rect until fn returns false.
func (t *Tree) Report(rect geom.Rect, fn func(Entry) bool) {
	t.report(t.root, geom.Universe(t.dims), rect, fn)
}

func (t *Tree) report(n *node, region, rect geom.Rect, fn func(Entry) bool) bool {
	if n == nil || n.live == 0 || !region.Intersects(rect) {
		return true
	}
	split := n.e.Point[n.dim]
	oldMax := region.Max[n.dim]
	if split < oldMax {
		region.Max[n.dim] = split
	}
	ok := t.report(n.left, region, rect, fn)
	region.Max[n.dim] = oldMax
	if !ok {
		return false
	}
	if !n.dead && rect.Contains(n.e.Point) {
		if !fn(n.e) {
			return false
		}
	}
	oldMin := region.Min[n.dim]
	if r := math.Nextafter(split, math.Inf(1)); r > oldMin {
		region.Min[n.dim] = r
	}
	ok = t.report(n.right, region, rect, fn)
	region.Min[n.dim] = oldMin
	return ok
}

// CountInRange returns the number of live entries inside rect.
func (t *Tree) CountInRange(rect geom.Rect) int64 {
	return t.RangeMoments(rect).N
}

// SelectCoord returns the k-th smallest (0-based) coordinate along dim among
// live entries inside rect. ok is false when rect holds fewer than k+1
// entries. In one dimension it is an order-statistic walk over subtree live
// counts, O(depth + query). Otherwise it reports the r entries inside rect
// once and selects among their stored coordinates, O(query + r) expected.
func (t *Tree) SelectCoord(rect geom.Rect, dim, k int) (float64, bool) {
	if k < 0 {
		return 0, false
	}
	if t.dims == 1 {
		if int64(k) >= t.CountInRange(rect) {
			return 0, false
		}
		// One dimension: the k-d tree is an ordinary BST on the coordinate,
		// so the k-th coordinate in [lo,hi] is the (rank(lo)+k)-th smallest
		// overall.
		below := geom.Rect{Min: geom.Point{math.Inf(-1)},
			Max: geom.Point{math.Nextafter(rect.Min[0], math.Inf(-1))}}
		lowRank := t.CountInRange(below)
		return t.selectGlobal1D(int(lowRank) + k)
	}
	var coords []float64
	t.Report(rect, func(e Entry) bool {
		coords = append(coords, e.Point[dim])
		return true
	})
	if k >= len(coords) {
		return 0, false
	}
	selectRank(coords, nil, k)
	return coords[k], true
}

// selectGlobal1D returns the k-th smallest (0-based) live coordinate of a
// one-dimensional index by descending on subtree live counts.
func (t *Tree) selectGlobal1D(k int) (float64, bool) {
	n := t.root
	for n != nil {
		leftLive := 0
		if n.left != nil {
			leftLive = n.left.live
		}
		if k < leftLive {
			n = n.left
			continue
		}
		k -= leftLive
		if !n.dead {
			if k == 0 {
				return n.e.Point[0], true
			}
			k--
		}
		n = n.right
	}
	return 0, false
}

// CanonicalNode is a maximal subtree region fully inside a query rectangle.
type CanonicalNode struct {
	Region geom.Rect
	Agg    stats.Moments
}

// CanonicalNodes enumerates a decomposition of the live entries inside rect
// into subtree regions, splitting any region holding more than maxCount
// live entries into its children. This realizes the canonical-rectangle
// enumeration the AVG max-variance oracle of Appendix D.1 performs on the
// range tree T': every reported region lies inside rect and holds at most
// maxCount entries (single points always qualify).
func (t *Tree) CanonicalNodes(rect geom.Rect, maxCount int64, fn func(CanonicalNode) bool) {
	t.canonical(t.root, geom.Universe(t.dims), rect, maxCount, fn)
}

func (t *Tree) canonical(n *node, region, rect geom.Rect, maxCount int64, fn func(CanonicalNode) bool) bool {
	if n == nil || n.live == 0 || !region.Intersects(rect) {
		return true
	}
	if rect.ContainsRect(region) && int64(n.live) <= maxCount {
		clipped, _ := region.Intersection(rect)
		return fn(CanonicalNode{Region: clipped, Agg: n.agg})
	}
	if !n.dead && rect.Contains(n.e.Point) {
		var m stats.Moments
		m.Add(n.e.Val)
		if !fn(CanonicalNode{Region: geom.PointRect(n.e.Point), Agg: m}) {
			return false
		}
	}
	split := n.e.Point[n.dim]
	oldMax := region.Max[n.dim]
	if split < oldMax {
		region.Max[n.dim] = split
	}
	ok := t.canonical(n.left, region, rect, maxCount, fn)
	region.Max[n.dim] = oldMax
	if !ok {
		return false
	}
	oldMin := region.Min[n.dim]
	if r := math.Nextafter(split, math.Inf(1)); r > oldMin {
		region.Min[n.dim] = r
	}
	ok = t.canonical(n.right, region, rect, maxCount, fn)
	region.Min[n.dim] = oldMin
	return ok
}
