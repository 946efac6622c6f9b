package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"slices"

	"janusaqp/internal/data"
	"janusaqp/internal/geom"
	"janusaqp/internal/kdindex"
	"janusaqp/internal/maxvar"
	"janusaqp/internal/reservoir"
	"janusaqp/internal/stats"
)

// newOracleFor builds an empty max-variance oracle matching a config.
func newOracleFor(cfg Config) *maxvar.Oracle {
	return maxvar.New(cfg.Agg, cfg.Dims, cfg.Delta)
}

// oracleEntryFor adapts a pooled tuple to the oracle's entry type.
func oracleEntryFor(t *DPT, s data.Tuple) kdindex.Entry {
	return kdindex.Entry{Point: t.project(s), Val: s.Val(t.cfg.AggIndex), ID: s.ID}
}

// Synopsis persistence: a DPT can be written to a stream and restored in a
// different process, preserving node statistics, strata, MIN/MAX heap
// contents, and anchor scaling. The catch-up snapshot is deliberately not
// persisted — it is cold-storage data by definition; a restored synopsis
// reports its saved catch-up progress and resumes refinement only after
// the next re-initialization.

// persistNode is the exported on-disk form of a tree node.
type persistNode struct {
	Rect       persistRect
	Catchup    []stats.Moments
	Ins        []stats.Moments
	Del        []stats.Moments
	MinVals    []float64
	MaxVals    []float64
	IsLeaf     bool
	Stratum    []data.Tuple
	M0         float64
	IsAnchor   bool
	AnchorBase float64
	LocalSeen  []stats.Moments
	Left       *persistNode
	Right      *persistNode
}

type persistRect struct {
	Min, Max []float64
}

// persistDPT is the exported on-disk form of a synopsis.
type persistDPT struct {
	Version    int
	Cfg        Config
	SnapshotN  int64
	ExactStats bool
	Population int64
	Consumed   int64 // catch-up samples folded (root h), for progress reporting
	Reservoir  []data.Tuple
	ResPop     int64
	Root       *persistNode
}

const persistVersion = 1

// Encode writes the synopsis to w in gob format.
func (t *DPT) Encode(w io.Writer) error {
	p := persistDPT{
		Version:    persistVersion,
		Cfg:        t.cfg,
		SnapshotN:  t.snapshotN,
		ExactStats: t.exactStats,
		Population: t.population,
		Consumed:   t.totalCatchup(),
		Reservoir:  append([]data.Tuple(nil), t.res.Items()...),
		ResPop:     t.res.Population(),
		Root:       t.exportNode(t.root),
	}
	return gob.NewEncoder(w).Encode(&p)
}

func (t *DPT) exportNode(n *node) *persistNode {
	if n == nil {
		return nil
	}
	p := &persistNode{
		Rect:       persistRect{Min: n.rect.Min, Max: n.rect.Max},
		Catchup:    append([]stats.Moments(nil), n.catchup...),
		Ins:        append([]stats.Moments(nil), n.ins...),
		Del:        append([]stats.Moments(nil), n.del...),
		IsLeaf:     n.isLeaf,
		M0:         n.m0,
		IsAnchor:   n.isAnchor,
		AnchorBase: n.anchorBase,
		LocalSeen:  append([]stats.Moments(nil), n.localSeen...),
		Left:       t.exportNode(n.left),
		Right:      t.exportNode(n.right),
	}
	// Heap contents: persist the retained multiset; re-pushing restores an
	// equivalent heap.
	p.MinVals = heapValues(n.minHeap)
	p.MaxVals = heapValues(n.maxHeap)
	if n.stratum != nil {
		// The stratum's live order is persisted as-is: restoring it
		// reproduces the leaf's iteration order exactly, so a recovered
		// synopsis computes bitwise-identical floating-point sums to the
		// one that was saved (and to any engine with the same operation
		// history). The stratum holds only projections, so the full tuples
		// are read back from the reservoir by id, which keeps the image in
		// the format existing checkpoints use.
		p.Stratum = t.stratumTuples(n)
	}
	return p
}

func heapValues(h *stats.BoundedHeap) []float64 {
	return h.Values()
}

// Decode restores a synopsis previously written with Encode. resample
// plays the same role as in New (reservoir re-draws); it may be nil.
//
// Decode is the trust boundary of crash recovery: checkpoint bytes come
// off a disk that may have torn, bit-rotted, or been written by a
// different build, so corrupted or truncated input must come back as an
// error — never a panic, and never a synopsis that panics later on its
// first query. validatePersisted enforces every structural invariant the
// query and update paths assume; a recover backstop converts anything it
// misses into an error as well.
func Decode(r io.Reader, resample reservoir.Resampler) (t *DPT, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			t, err = nil, fmt.Errorf("core: decoding synopsis: invalid image: %v", rec)
		}
	}()
	var p persistDPT
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("core: decoding synopsis: %w", err)
	}
	if p.Version != persistVersion {
		return nil, fmt.Errorf("core: unsupported synopsis version %d", p.Version)
	}
	if err := validatePersisted(&p); err != nil {
		return nil, fmt.Errorf("core: decoding synopsis: %w", err)
	}
	t = &DPT{
		cfg:        p.Cfg,
		snapshotN:  p.SnapshotN,
		exactStats: p.ExactStats,
		population: p.Population,
		seen:       make(map[int64]bool),
	}
	t.root = t.importNode(p.Root, nil)
	t.res = reservoir.New(p.Cfg.SampleLowerBound, p.Cfg.Seed+1, resample)
	t.res.Init(p.Reservoir, p.ResPop)
	t.oracle = newOracleFor(p.Cfg)
	t.refreshOracleRate()
	// Rebuild the oracle from the restored strata (membership was saved).
	for _, l := range t.leaves {
		for _, s := range t.stratumTuples(l) {
			t.oracle.Insert(oracleEntryFor(t, s))
		}
	}
	return t, nil
}

// maxPersistDim bounds the shape fields of a decoded synopsis. Real
// configurations are orders of magnitude below it; a corrupted image
// declaring more is rejected before it can drive huge allocations (the
// per-node stat slices are O(NumVals), the heaps O(HeapK)).
const maxPersistDim = 1 << 20

// validatePersisted checks the structural invariants of a decoded image:
// a config the constructors accept, a well-formed binary tree with at
// least one leaf, per-node statistics of the configured arity,
// reservoir/stratum tuples whose attributes cover the projection, and
// strata that partition the reservoir — every property a later Answer,
// Insert, or Delete relies on without checking.
func validatePersisted(p *persistDPT) error {
	cfg := &p.Cfg
	switch {
	case p.Root == nil:
		return fmt.Errorf("synopsis has no tree")
	case cfg.Dims < 1 || cfg.Dims > maxPersistDim:
		return fmt.Errorf("config has %d dimensions", cfg.Dims)
	case cfg.NumVals < 1 || cfg.NumVals > maxPersistDim:
		return fmt.Errorf("config tracks %d aggregation attributes", cfg.NumVals)
	case cfg.AggIndex < 0 || cfg.AggIndex >= cfg.NumVals:
		return fmt.Errorf("aggregation index %d outside the %d tracked attributes", cfg.AggIndex, cfg.NumVals)
	case cfg.SampleLowerBound < 1 || cfg.SampleLowerBound > maxPersistDim:
		return fmt.Errorf("reservoir lower bound %d", cfg.SampleLowerBound)
	case cfg.HeapK < 1 || cfg.HeapK > maxPersistDim:
		return fmt.Errorf("heap capacity %d", cfg.HeapK)
	case cfg.PredicateDims != nil && len(cfg.PredicateDims) != cfg.Dims:
		return fmt.Errorf("%d predicate dims for a %d-dimensional synopsis", len(cfg.PredicateDims), cfg.Dims)
	}
	// The minimum tuple key arity the projection reads.
	minKey := cfg.Dims
	for _, d := range cfg.PredicateDims {
		if d < 0 {
			return fmt.Errorf("negative predicate dimension %d", d)
		}
		if d+1 > minKey {
			minKey = d + 1
		}
	}
	checkTuple := func(t data.Tuple, where string) error {
		if len(t.Key) < minKey {
			return fmt.Errorf("%s tuple %d has %d key attributes; the projection reads %d", where, t.ID, len(t.Key), minKey)
		}
		// Estimators read all NumVals aggregation attributes; a short Vals
		// slice would silently aggregate zeros (Tuple.Val returns 0 out of
		// range), exactly the live-ingest admission this mirrors.
		if len(t.Vals) < cfg.NumVals {
			return fmt.Errorf("%s tuple %d has %d aggregation attributes; config tracks %d", where, t.ID, len(t.Vals), cfg.NumVals)
		}
		return nil
	}
	if len(p.Reservoir) > 2*cfg.SampleLowerBound {
		return fmt.Errorf("reservoir holds %d samples, capacity %d", len(p.Reservoir), 2*cfg.SampleLowerBound)
	}
	// The strata must partition the reservoir, whose copy of each sample is
	// what re-seeds and encodes read: a stratum tuple claims its slot (-1).
	slot, claimed := make(map[int64]int, len(p.Reservoir)), 0
	for i, s := range p.Reservoir {
		if err := checkTuple(s, "reservoir"); err != nil {
			return err
		}
		slot[s.ID] = i
	}
	leaves := 0
	var walk func(n *persistNode, depth int) error
	walk = func(n *persistNode, depth int) error {
		if depth > maxPersistDim {
			return fmt.Errorf("tree deeper than %d", maxPersistDim)
		}
		if len(n.Catchup) != cfg.NumVals || len(n.Ins) != cfg.NumVals || len(n.Del) != cfg.NumVals {
			return fmt.Errorf("node statistics have arity %d/%d/%d, config tracks %d",
				len(n.Catchup), len(n.Ins), len(n.Del), cfg.NumVals)
		}
		if len(n.Rect.Min) != cfg.Dims || len(n.Rect.Max) != cfg.Dims {
			return fmt.Errorf("node rectangle has %dx%d bounds in a %d-dimensional synopsis",
				len(n.Rect.Min), len(n.Rect.Max), cfg.Dims)
		}
		if n.IsAnchor && len(n.LocalSeen) != cfg.NumVals {
			return fmt.Errorf("anchor local statistics have arity %d, config tracks %d", len(n.LocalSeen), cfg.NumVals)
		}
		if n.IsLeaf {
			leaves++
			if n.Left != nil || n.Right != nil {
				return fmt.Errorf("leaf node has children")
			}
			for _, s := range n.Stratum {
				if err := checkTuple(s, "stratum"); err != nil {
					return err
				}
				i, ok := slot[s.ID]
				switch {
				case !ok:
					return fmt.Errorf("stratum tuple %d is not in the reservoir", s.ID)
				case i < 0:
					return fmt.Errorf("tuple %d is in two strata", s.ID)
				case !sameBits(s.Key, p.Reservoir[i].Key) || !sameBits(s.Vals, p.Reservoir[i].Vals):
					return fmt.Errorf("stratum tuple %d differs from its reservoir copy", s.ID)
				}
				slot[s.ID] = -1
				claimed++
			}
			return nil
		}
		if n.Left == nil || n.Right == nil {
			return fmt.Errorf("interior node is missing a child")
		}
		if len(n.Stratum) != 0 {
			return fmt.Errorf("interior node carries a stratum")
		}
		if err := checkSplit(n, cfg.Dims); err != nil {
			return err
		}
		if err := walk(n.Left, depth+1); err != nil {
			return err
		}
		return walk(n.Right, depth+1)
	}
	if err := walk(p.Root, 0); err != nil {
		return err
	}
	if leaves == 0 {
		return fmt.Errorf("tree has no leaves")
	}
	if claimed != len(p.Reservoir) {
		return fmt.Errorf("strata hold %d of the reservoir's %d samples", claimed, len(p.Reservoir))
	}
	// The root must span the whole predicate space (blueprints are built
	// over the universe). Together with checkSplit's tiling this makes the
	// routing descent total: no restored tuple or later insert can "escape
	// the partitioning" — a panic on the update path — out of a corrupted
	// tree. Rect lengths were validated by the walk above.
	for j := 0; j < cfg.Dims; j++ {
		if !math.IsInf(p.Root.Rect.Min[j], -1) || !math.IsInf(p.Root.Rect.Max[j], 1) {
			return fmt.Errorf("root rectangle does not span the predicate space")
		}
	}
	return nil
}

// checkSplit verifies one interior node's children tile its rectangle the
// way every partitioner splits: identical to the parent on all axes except
// one, where the left child keeps the lower part, the right child the rest,
// and the boundary leaves no representable point uncovered (right.Min is
// left.Max or its successor — geom.Rect.SplitAt cuts with Nextafter). NaN
// bounds fail every comparison and are rejected with the same error. The
// children's rect lengths are validated by the caller's walk before their
// own visit, so guard them here before indexing.
func checkSplit(n *persistNode, dims int) error {
	l, r := n.Left.Rect, n.Right.Rect
	if len(l.Min) != dims || len(l.Max) != dims || len(r.Min) != dims || len(r.Max) != dims {
		return fmt.Errorf("child rectangle dimensionality mismatch")
	}
	for d := 0; d < dims; d++ {
		covers := func(a, b persistRect) bool {
			for j := 0; j < dims; j++ {
				if j == d {
					continue
				}
				if a.Min[j] != n.Rect.Min[j] || a.Max[j] != n.Rect.Max[j] ||
					b.Min[j] != n.Rect.Min[j] || b.Max[j] != n.Rect.Max[j] {
					return false
				}
			}
			return a.Min[d] == n.Rect.Min[d] && b.Max[d] == n.Rect.Max[d] &&
				(b.Min[d] == a.Max[d] || b.Min[d] == math.Nextafter(a.Max[d], math.Inf(1)))
		}
		if covers(l, r) {
			return nil
		}
	}
	return fmt.Errorf("interior node's children do not tile its rectangle")
}

// sameBits reports whether a and b hold the same floats, bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func (t *DPT) importNode(p *persistNode, parent *node) *node {
	if p == nil {
		return nil
	}
	n := &node{
		rect:       geom.Rect{Min: p.Rect.Min, Max: p.Rect.Max},
		parent:     parent,
		catchup:    append([]stats.Moments(nil), p.Catchup...),
		ins:        append([]stats.Moments(nil), p.Ins...),
		del:        append([]stats.Moments(nil), p.Del...),
		isLeaf:     p.IsLeaf,
		m0:         p.M0,
		isAnchor:   p.IsAnchor,
		anchorBase: p.AnchorBase,
		localSeen:  append([]stats.Moments(nil), p.LocalSeen...),
	}
	n.minHeap = stats.NewBoundedHeap(stats.KeepMin, t.cfg.HeapK)
	n.maxHeap = stats.NewBoundedHeap(stats.KeepMax, t.cfg.HeapK)
	for _, v := range p.MinVals {
		n.minHeap.Push(v)
	}
	for _, v := range p.MaxVals {
		n.maxHeap.Push(v)
	}
	if n.isLeaf {
		n.stratum = newStratum(t.cfg)
		for _, s := range p.Stratum {
			n.stratum.add(s, t.project(s))
		}
		t.leaves = append(t.leaves, n)
	}
	n.left = t.importNode(p.Left, n)
	n.right = t.importNode(p.Right, n)
	return n
}
