// Package partition implements JanusAQP's partition optimizers: the
// algorithms that turn a pooled sample into the hierarchical rectangular
// partitioning (the blueprint of a DPT).
//
// Four optimizers are provided:
//
//   - BinarySearch1D — the paper's new BS-based algorithm (Section 5.2,
//     Appendix D.2): binary search over a geometric error grid E = {ρ^t},
//     testing each error budget with a greedy maximal-bucket cover whose
//     feasibility oracle is the max-variance index M.
//   - DP1D — the dynamic-programming optimizer of PASS [30], reproduced as
//     the baseline of Table 3: exact minimax bucketing in O(k·m²) oracle
//     calls.
//   - EqualDepth1D — equal-sample-count buckets, the optimum for COUNT in
//     one dimension and the stratification the SRS baseline uses.
//   - KD — the higher-dimensional constructor of Section 5.3.2: a k-d tree
//     grown by repeatedly splitting the leaf with the maximum oracle
//     variance at its sample median, cycling through dimensions.
//
// All optimizers emit a Blueprint: the leaf rectangles tiling the full
// space plus the binary hierarchy above them.
package partition

import (
	"container/heap"
	"math"
	"sort"

	"janusaqp/internal/geom"
	"janusaqp/internal/kdindex"
	"janusaqp/internal/maxvar"
)

// Node is one node of a partition hierarchy blueprint.
type Node struct {
	Rect        geom.Rect
	Left, Right *Node
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Blueprint is the output of a partition optimizer: a hierarchy whose
// leaves tile the entire predicate space (every possible tuple routes to
// exactly one leaf).
type Blueprint struct {
	Root   *Node
	Leaves []*Node
	// MaxError is the oracle error (longest-CI approximation) of the worst
	// leaf at construction time.
	MaxError float64
}

// NumLeaves returns the number of leaf partitions.
func (b *Blueprint) NumLeaves() int { return len(b.Leaves) }

// singleLeaf returns the trivial blueprint: one leaf covering everything.
func singleLeaf(dims int, err float64) *Blueprint {
	root := &Node{Rect: geom.Universe(dims)}
	return &Blueprint{Root: root, Leaves: []*Node{root}, MaxError: err}
}

// buildHierarchy assembles a balanced binary hierarchy over ordered 1-D
// leaves; internal rectangles are the unions of their children.
func buildHierarchy(leaves []*Node) *Node {
	if len(leaves) == 1 {
		return leaves[0]
	}
	mid := len(leaves) / 2
	left := buildHierarchy(leaves[:mid])
	right := buildHierarchy(leaves[mid:])
	rect := left.Rect.Clone()
	for j := range rect.Min {
		rect.Min[j] = math.Min(rect.Min[j], right.Rect.Min[j])
		rect.Max[j] = math.Max(rect.Max[j], right.Rect.Max[j])
	}
	return &Node{Rect: rect, Left: left, Right: right}
}

// leaves1D converts sorted bucket boundaries (the *upper* sample coordinate
// of every bucket except the last) into leaf rectangles tiling (-inf, +inf).
func leaves1D(boundaries []float64) []*Node {
	leaves := make([]*Node, 0, len(boundaries)+1)
	lo := math.Inf(-1)
	for _, b := range boundaries {
		leaves = append(leaves, &Node{Rect: geom.Rect{Min: geom.Point{lo}, Max: geom.Point{b}}})
		lo = math.Nextafter(b, math.Inf(1))
	}
	leaves = append(leaves, &Node{Rect: geom.Rect{Min: geom.Point{lo}, Max: geom.Point{math.Inf(1)}}})
	return leaves
}

// sortedCoords extracts the sorted sample coordinates and values from a
// 1-dimensional oracle index.
func sortedCoords(idx *kdindex.Tree) (coords, vals []float64) {
	idx.Report(geom.Universe(1), func(e kdindex.Entry) bool {
		coords = append(coords, e.Point[0])
		vals = append(vals, e.Val)
		return true
	})
	sort.Sort(&coordSorter{coords, vals})
	return coords, vals
}

type coordSorter struct{ c, v []float64 }

func (s *coordSorter) Len() int           { return len(s.c) }
func (s *coordSorter) Less(i, j int) bool { return s.c[i] < s.c[j] }
func (s *coordSorter) Swap(i, j int) {
	s.c[i], s.c[j] = s.c[j], s.c[i]
	s.v[i], s.v[j] = s.v[j], s.v[i]
}

// errorGrid builds the discretized error range E = {ρ^t : lo <= ρ^t <= hi}
// of Section 5.2, ascending, with 0 prepended.
func errorGrid(lo, hi, rho float64) []float64 {
	if rho <= 1 {
		rho = 2
	}
	if lo <= 0 {
		lo = 1e-12
	}
	if hi < lo {
		hi = lo
	}
	grid := []float64{0}
	t := math.Floor(math.Log(lo) / math.Log(rho))
	for v := math.Pow(rho, t); v <= hi*rho; v *= rho {
		grid = append(grid, v)
	}
	return grid
}

// bucketRect is the 1-D rectangle spanning two sample coordinates.
func bucketRect(lo, hi float64) geom.Rect {
	return geom.Rect{Min: geom.Point{lo}, Max: geom.Point{hi}}
}

// Options configures the optimizers.
type Options struct {
	// K is the number of leaf partitions to produce.
	K int
	// Rho is the geometric spacing of the BS error grid (default 2).
	Rho float64
	// Population is the database size N used for the Lemma D.2 error
	// bounds; when zero the sample count is used.
	Population int64
	// Domain restricts the partitioning to a sub-rectangle of the space
	// (used by partial re-partitioning, Appendix E); nil means all of R^d.
	Domain *geom.Rect
}

// domain resolves the partitioning domain for d dimensions.
func (o Options) domain(dims int) geom.Rect {
	if o.Domain != nil {
		return o.Domain.Clone()
	}
	return geom.Universe(dims)
}

// BinarySearch1D runs the paper's binary-search partitioner over the
// oracle's samples. The oracle must be one-dimensional.
func BinarySearch1D(o *maxvar.Oracle, opts Options) *Blueprint {
	coords, vals := sortedCoords(o.Index())
	m := len(coords)
	if m == 0 || opts.K <= 1 {
		return singleLeaf(1, o.MaxError(geom.Universe(1)))
	}
	k := opts.K
	if k > m {
		k = m
	}
	// Lemma D.2 bounds on the longest confidence interval.
	n := float64(opts.Population)
	if n <= 0 {
		n = float64(m)
	}
	lBound, uBound := valueBounds(vals)
	var lo, hi float64
	if o.Agg() == maxvar.Avg {
		lo, hi = lBound/(math.Sqrt2*n), math.Sqrt(n)*uBound
	} else {
		lo, hi = lBound/math.Sqrt2, n*uBound
	}
	grid := errorGrid(lo, hi, opts.Rho)

	feasible := func(e float64) ([]float64, bool) {
		return greedyCover(o, coords, k, e)
	}
	// Binary search for the smallest feasible error in the grid.
	loIdx, hiIdx := 0, len(grid)-1
	var bestBounds []float64
	found := false
	for loIdx <= hiIdx {
		mid := (loIdx + hiIdx) / 2
		if b, ok := feasible(grid[mid]); ok {
			bestBounds = b
			found = true
			hiIdx = mid - 1
		} else {
			loIdx = mid + 1
		}
	}
	if !found {
		// The top of the grid always admits a cover in theory; if the
		// approximation misses, fall back to equal depth.
		return EqualDepth1D(o, opts)
	}
	leaves := leaves1D(bestBounds)
	bp := &Blueprint{Root: buildHierarchy(leaves), Leaves: leaves}
	bp.MaxError = maxLeafError(o, leaves)
	return bp
}

// greedyCover tries to cover all samples with at most k buckets whose
// oracle error is at most e; it returns the bucket upper boundaries
// (excluding the final open bucket) on success.
func greedyCover(o *maxvar.Oracle, coords []float64, k int, e float64) ([]float64, bool) {
	m := len(coords)
	var bounds []float64
	start := 0
	for b := 0; b < k && start < m; b++ {
		if b == k-1 {
			// Last bucket must take everything that remains.
			if o.MaxError(bucketRect(coords[start], coords[m-1])) <= e {
				start = m
			}
			break
		}
		// Binary search for the maximal j with error(start..j) <= e.
		lo, hi := start, m-1
		best := -1
		for lo <= hi {
			mid := (lo + hi) / 2
			if o.MaxError(bucketRect(coords[start], coords[mid])) <= e {
				best = mid
				lo = mid + 1
			} else {
				hi = mid - 1
			}
		}
		if best < 0 {
			// Even the single sample overflows the budget: for SUM/COUNT a
			// singleton has zero variance, so this means e is below the
			// floor; infeasible.
			return nil, false
		}
		// Pull every duplicate of the boundary coordinate into this bucket.
		for best+1 < m && coords[best+1] == coords[best] {
			best++
		}
		if best == m-1 {
			start = m
			break
		}
		bounds = append(bounds, coords[best])
		start = best + 1
	}
	if start < m {
		return nil, false
	}
	return bounds, true
}

func maxLeafError(o *maxvar.Oracle, leaves []*Node) float64 {
	worst := 0.0
	for _, l := range leaves {
		if e := o.MaxError(l.Rect); e > worst {
			worst = e
		}
	}
	return worst
}

// valueBounds returns the smallest non-zero |v| and the largest |v|.
func valueBounds(vals []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), 0
	for _, v := range vals {
		a := math.Abs(v)
		if a > hi {
			hi = a
		}
		if a > 0 && a < lo {
			lo = a
		}
	}
	if math.IsInf(lo, 1) {
		lo = 1
	}
	if hi == 0 {
		hi = 1
	}
	return lo, hi
}

// EqualDepth1D produces k buckets holding equal numbers of samples.
func EqualDepth1D(o *maxvar.Oracle, opts Options) *Blueprint {
	coords, _ := sortedCoords(o.Index())
	m := len(coords)
	if m == 0 || opts.K <= 1 {
		return singleLeaf(1, o.MaxError(geom.Universe(1)))
	}
	k := opts.K
	if k > m {
		k = m
	}
	var bounds []float64
	for b := 1; b < k; b++ {
		idx := b*m/k - 1
		// Respect duplicates: a boundary must not split equal coordinates.
		for idx+1 < m && coords[idx+1] == coords[idx] {
			idx++
		}
		if idx >= m-1 {
			break
		}
		c := coords[idx]
		if len(bounds) == 0 || c > bounds[len(bounds)-1] {
			bounds = append(bounds, c)
		}
	}
	leaves := leaves1D(bounds)
	bp := &Blueprint{Root: buildHierarchy(leaves), Leaves: leaves}
	bp.MaxError = maxLeafError(o, leaves)
	return bp
}

// DP1D is the dynamic-programming minimax partitioner used by PASS [30],
// kept as the Table 3 baseline. It computes, exactly over the sample
// boundaries, the k-bucket partitioning minimizing the maximum oracle
// error, in O(k · m²) oracle probes with memoized bucket errors.
func DP1D(o *maxvar.Oracle, opts Options) *Blueprint {
	coords, vals := sortedCoords(o.Index())
	m := len(coords)
	if m == 0 || opts.K <= 1 {
		return singleLeaf(1, o.MaxError(geom.Universe(1)))
	}
	k := opts.K
	if k > m {
		k = m
	}
	// Deduplicate boundary positions: buckets end at the last occurrence of
	// a coordinate.
	var ends []int // candidate bucket end indexes (inclusive)
	for i := 0; i < m; i++ {
		if i == m-1 || coords[i+1] != coords[i] {
			ends = append(ends, i)
		}
	}
	u := len(ends)
	if k > u {
		k = u
	}
	pre := newPrefix1D(o, vals)
	// Memoize bucket errors: the DP probes each (start, end) pair once per
	// bucket count j, and the AVG oracle pays a sliding window per probe.
	var cache []float64
	cacheable := m*u <= 1<<24
	if cacheable {
		cache = make([]float64, m*u)
		for i := range cache {
			cache[i] = -1
		}
	}
	bucketErr := func(startIdx, endPos int) float64 {
		if !cacheable {
			return pre.maxErr(startIdx, ends[endPos])
		}
		key := startIdx*u + endPos
		if v := cache[key]; v >= 0 {
			return v
		}
		v := pre.maxErr(startIdx, ends[endPos])
		cache[key] = v
		return v
	}
	const inf = math.MaxFloat64
	// dp[j][p]: minimal max-error covering samples [0..ends[p]] with j+1 buckets.
	prev := make([]float64, u)
	choice := make([][]int, k)
	for j := range choice {
		choice[j] = make([]int, u)
	}
	for p := 0; p < u; p++ {
		prev[p] = bucketErr(0, p)
	}
	cur := make([]float64, u)
	for j := 1; j < k; j++ {
		for p := 0; p < u; p++ {
			cur[p] = inf
			for q := j - 1; q <= p-1; q++ {
				start := ends[q] + 1
				if start > ends[p] {
					continue
				}
				cand := math.Max(prev[q], bucketErr(start, p))
				if cand < cur[p] {
					cur[p] = cand
					choice[j][p] = q
				}
			}
			if cur[p] == inf {
				cur[p] = prev[p] // fewer buckets suffice
				choice[j][p] = -1
			}
		}
		prev, cur = cur, prev
	}
	// Recover boundaries.
	var bounds []float64
	p := u - 1
	for j := k - 1; j > 0; j-- {
		q := choice[j][p]
		if q < 0 {
			break
		}
		bounds = append(bounds, coords[ends[q]])
		p = q
	}
	sort.Float64s(bounds)
	leaves := leaves1D(bounds)
	bp := &Blueprint{Root: buildHierarchy(leaves), Leaves: leaves}
	bp.MaxError = maxLeafError(o, leaves)
	return bp
}

// --- k-d construction (Section 5.3.2) -------------------------------------

type heapItem struct {
	node *Node
	err  float64
	seq  int
}

type leafHeap []heapItem

func (h leafHeap) Len() int { return len(h) }
func (h leafHeap) Less(i, j int) bool {
	if h[i].err != h[j].err {
		return h[i].err > h[j].err // max-heap on error
	}
	return h[i].seq < h[j].seq
}
func (h leafHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *leafHeap) Push(x any)   { *h = append(*h, x.(heapItem)) }
func (h *leafHeap) Pop() (x any) { old := *h; n := len(old); x = old[n-1]; *h = old[:n-1]; return }

// KD builds a partition tree for any dimensionality by repeatedly splitting
// the leaf with the largest oracle variance at its sample median, cycling
// split dimensions in a fixed order (Section 5.3.2).
func KD(o *maxvar.Oracle, opts Options) *Blueprint {
	dims := o.Index().Dims()
	root := &Node{Rect: opts.domain(dims)}
	bp := &Blueprint{Root: root, Leaves: []*Node{root}}
	if opts.K <= 1 || o.Len() < 2 {
		bp.MaxError = o.MaxError(root.Rect)
		return bp
	}
	depths := map[*Node]int{root: 0}
	h := &leafHeap{{node: root, err: o.MaxError(root.Rect), seq: 0}}
	seq := 1
	for bp.NumLeaves() < opts.K && h.Len() > 0 {
		item := heap.Pop(h).(heapItem)
		leaf := item.node
		depth := depths[leaf]
		split, ok := splitAtMedian(o.Index(), leaf.Rect, depth%dims)
		if !ok {
			// Try remaining dimensions before giving up on this leaf.
			for dd := 1; dd < dims && !ok; dd++ {
				split, ok = splitAtMedian(o.Index(), leaf.Rect, (depth+dd)%dims)
			}
			if !ok {
				continue // degenerate leaf: all samples identical
			}
		}
		left := &Node{Rect: split.left}
		right := &Node{Rect: split.right}
		leaf.Left, leaf.Right = left, right
		depths[left] = depth + 1
		depths[right] = depth + 1
		heap.Push(h, heapItem{node: left, err: o.MaxError(left.Rect), seq: seq})
		heap.Push(h, heapItem{node: right, err: o.MaxError(right.Rect), seq: seq + 1})
		seq += 2
		// Refresh the leaf list.
		bp.Leaves = replaceLeaf(bp.Leaves, leaf, left, right)
	}
	bp.MaxError = maxLeafError(o, bp.Leaves)
	return bp
}

type splitResult struct {
	left, right geom.Rect
}

// splitAtMedian cuts rect at the sample median along dim, requiring both
// halves to be non-empty. The left half holds the median's point, so only
// the right one needs counting.
func splitAtMedian(idx *kdindex.Tree, rect geom.Rect, dim int) (splitResult, bool) {
	n := idx.CountInRange(rect)
	if n < 2 {
		return splitResult{}, false
	}
	med, ok := idx.SelectCoord(rect, dim, int(n/2)-1)
	if !ok {
		return splitResult{}, false
	}
	left, right := rect.SplitAt(dim, med)
	if idx.CountInRange(right) == 0 {
		return splitResult{}, false
	}
	return splitResult{left: left, right: right}, true
}

func replaceLeaf(leaves []*Node, old, a, b *Node) []*Node {
	out := make([]*Node, 0, len(leaves)+1)
	for _, l := range leaves {
		if l == old {
			out = append(out, a, b)
		} else {
			out = append(out, l)
		}
	}
	return out
}
