// Package core implements the Dynamic Partition Tree (DPT), the primary
// contribution of the JanusAQP paper (Section 4): a two-layer synopsis
// combining
//
//  1. a hierarchical rectangular partitioning of the predicate space where
//     every node carries incrementally maintained statistics — exact
//     SUM/COUNT deltas for post-initialization insertions and deletions,
//     bounded top-k/bottom-k heaps for MIN/MAX, and unbiased catch-up
//     moments (h_i, Σa, Σa²) estimating the base population — and
//  2. stratified samples over the leaf partitions, realized as virtual
//     strata of one pooled reservoir sample (Section 4.2).
//
// Queries decompose into exact partial aggregates over fully covered nodes
// plus sample-based estimates over partially covered leaves (Sections 2.3.2
// and 4.4), with confidence intervals combining the catch-up variance ν_c
// and the sample-estimate variance ν_s (Section 4.4.1, Appendix C). The
// estimator runs once per query — one frontier walk, one scan of each
// partial stratum — into a mergeable Partial (AnswerPartial, and
// AnswerUniformPartial for the Section 5.5 on-keys fallback), and every
// Result is MergePartials over partials: a local Answer is the K = 1 merge
// of the scatter-gather a sharded deployment runs over K.
//
// The package also provides catch-up processing (Section 4.3) and the
// re-partitioning triggers (Section 5.4, Appendix E); orchestration across
// re-initializations lives in the public janus package.
package core

import (
	"fmt"
	"math/rand"
	"slices"

	"janusaqp/internal/data"
	"janusaqp/internal/geom"
	"janusaqp/internal/kdindex"
	"janusaqp/internal/maxvar"
	"janusaqp/internal/partition"
	"janusaqp/internal/reservoir"
	"janusaqp/internal/stats"
)

// Config describes one DPT synopsis.
type Config struct {
	// PredicateDims projects incoming tuple keys onto this synopsis's
	// predicate attributes; nil means the identity projection.
	PredicateDims []int
	// Dims is the dimensionality after projection.
	Dims int
	// NumVals is the number of aggregation attributes tracked per node
	// (statistics are maintained for all of them, enabling the
	// multi-template heuristic of Section 5.5).
	NumVals int
	// AggIndex selects the primary aggregation attribute.
	AggIndex int
	// Agg is the focus aggregate the partitioner optimizes for.
	Agg maxvar.Agg
	// K is the number of leaf partitions.
	K int
	// SampleLowerBound is the reservoir lower bound m (capacity 2m).
	SampleLowerBound int
	// HeapK bounds the MIN/MAX heaps (default 16).
	HeapK int
	// Delta is the AVG support-floor fraction for the max-variance oracle.
	Delta float64
	// Beta is the variance-drift trigger threshold of Section 5.4
	// (default 10).
	Beta float64
	// TriggerEvery rate-limits per-leaf oracle probes: the drift check runs
	// once per this many updates to a leaf (default 64).
	TriggerEvery int
	// Seed drives all randomized components.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Dims <= 0 {
		c.Dims = 1
	}
	if c.NumVals <= 0 {
		c.NumVals = 1
	}
	if c.K <= 0 {
		c.K = 128
	}
	if c.SampleLowerBound <= 0 {
		c.SampleLowerBound = 512
	}
	if c.HeapK <= 0 {
		c.HeapK = 16
	}
	if c.Delta <= 0 {
		c.Delta = 0.05
	}
	if c.Beta <= 1 {
		c.Beta = 10
	}
	if c.TriggerEvery <= 0 {
		c.TriggerEvery = 64
	}
	return c
}

// node is one partition of the DPT.
type node struct {
	rect        geom.Rect
	left, right *node
	parent      *node

	// Catch-up estimates: moments of the catch-up samples H_i that landed
	// in this node, one accumulator per aggregation attribute. catchup[a].N
	// is h_i for every attribute.
	catchup []stats.Moments
	// Exact post-initialization deltas (Section 4.1): statistics of tuples
	// inserted into / deleted from this partition since the snapshot.
	ins []stats.Moments
	del []stats.Moments
	// MIN/MAX heaps over the primary aggregation attribute (Section 4.1).
	minHeap *stats.BoundedHeap
	maxHeap *stats.BoundedHeap

	// Leaf-only state.
	isLeaf  bool
	stratum *stratum // the leaf's virtual stratum of the pooled sample
	m0      float64  // oracle variance at construction (trigger baseline)
	updates int      // updates since the last drift probe

	// Anchor state for partial re-partitioning (Appendix E): an anchor
	// root freezes its population estimate and scales the subtree-local
	// sample moments of its descendants.
	isAnchor   bool
	anchorBase float64         // frozen N̂_u at re-partition time
	localSeen  []stats.Moments // local samples folded into the subtree
}

// stratum is one leaf's virtual partition of the pooled sample, stored
// flat so the partial-leaf scan (the query hot path) reads contiguous
// floats: sample i is ids[i], its key projected onto the predicate dims at
// add time is keys[i*d:(i+1)*d], its values are vals[i*nv:(i+1)*nv]
// (Tuple.Val, so a missing attribute reads 0). add and remove are O(1) by
// id and swap-delete all three slices in lockstep, so iteration order — and
// with it every floating-point sum — is a deterministic function of the
// operation history; persistence keeps it, so a recovered engine answers
// byte-identically. The full tuples live in the reservoir (stratumTuples).
type stratum struct {
	d, nv      int
	ids        []int64
	keys, vals []float64
	pos        map[int64]int
}

func newStratum(cfg Config) *stratum {
	return &stratum{d: cfg.Dims, nv: cfg.NumVals, pos: make(map[int64]int)}
}

// add stores tp under key, its projection onto the predicate dims,
// overwriting any resident sample with the same id in place.
func (s *stratum) add(tp data.Tuple, key geom.Point) {
	i, ok := s.pos[tp.ID]
	if !ok {
		i = len(s.ids)
		s.pos[tp.ID] = i
		s.ids = append(s.ids, tp.ID)
		s.keys = slices.Grow(s.keys, s.d)[:len(s.keys)+s.d]
		s.vals = slices.Grow(s.vals, s.nv)[:len(s.vals)+s.nv]
	}
	copy(s.keys[i*s.d:], key[:s.d])
	for a := range s.nv {
		s.vals[i*s.nv+a] = tp.Val(a)
	}
}

// remove drops the sample with the given id, reporting whether it was held.
func (s *stratum) remove(id int64) bool {
	i, ok := s.pos[id]
	if !ok {
		return false
	}
	last := len(s.ids) - 1
	delete(s.pos, id)
	if i != last {
		s.ids[i] = s.ids[last]
		copy(s.keys[i*s.d:(i+1)*s.d], s.keys[last*s.d:])
		copy(s.vals[i*s.nv:(i+1)*s.nv], s.vals[last*s.nv:])
		s.pos[s.ids[i]] = i
	}
	s.ids, s.keys, s.vals = s.ids[:last], s.keys[:last*s.d], s.vals[:last*s.nv]
	return true
}

func (s *stratum) len() int { return len(s.ids) }

func (n *node) initStats(cfg Config) {
	n.catchup = make([]stats.Moments, cfg.NumVals)
	n.ins = make([]stats.Moments, cfg.NumVals)
	n.del = make([]stats.Moments, cfg.NumVals)
	n.minHeap = stats.NewBoundedHeap(stats.KeepMin, cfg.HeapK)
	n.maxHeap = stats.NewBoundedHeap(stats.KeepMax, cfg.HeapK)
}

// DPT is a dynamic partition tree synopsis. Build instances with New.
// DPT methods are not safe for concurrent use; the public janus.Engine
// serializes access.
type DPT struct {
	cfg    Config
	root   *node
	leaves []*node

	res    *reservoir.Sample
	oracle *maxvar.Oracle
	rng    *rand.Rand

	// Catch-up state (Section 4.3): a shuffled snapshot of the base
	// population, consumed incrementally in random order, until EndCatchUp.
	snapshot   []data.Tuple
	snapshotN  int64 // N_0: base population size
	consumed   int   // snapshot tuples already folded into node statistics
	seen       map[int64]bool
	exactStats bool // true once the entire snapshot has been consumed

	// Trigger state.
	pendingTrigger bool
	triggerReason  string
	pendingLeaf    *node

	// PartialRepartitions counts Appendix E subtree rebuilds.
	PartialRepartitions int

	population int64 // current |D| tracked through updates
}

// New builds a DPT from a partition blueprint, a pooled uniform sample of
// the current data (which seeds both the reservoir and, per step 2 of the
// re-initialization procedure, the approximate node statistics), the base
// population size, and a snapshot of the base population for catch-up
// (may be nil: statistics then rest on the pooled sample alone). A nil
// blueprint means "optimize one from the pooled sample" (step 1 of
// re-initialization, Section 4.3). The pooled rows must come from the
// snapshot: catch-up counts them as already folded, and marks the
// statistics exact once the fold count reaches the population. New takes
// ownership of snapshot and shuffles it in place — a caller that goes on
// using its slice passes a copy — and holds it until EndCatchUp; folding
// is left to CatchUp/CatchUpTarget. resample provides fresh uniform
// samples from archival storage for reservoir re-draws.
func New(cfg Config, bp *partition.Blueprint, pooled []data.Tuple, population int64, snapshot []data.Tuple, resample reservoir.Resampler) *DPT {
	cfg = cfg.withDefaults()
	t := &DPT{
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		snapshotN:  population,
		population: population,
		seen:       make(map[int64]bool),
	}
	// Pooled reservoir and the max-variance oracle over it, which the
	// optimizer partitions when no blueprint was given.
	t.res = reservoir.New(cfg.SampleLowerBound, cfg.Seed+1, resample)
	t.res.Init(pooled, population)
	t.oracle = newOracleFor(cfg)
	t.refreshOracleRate()
	for _, s := range t.res.Items() {
		t.oracle.Insert(oracleEntryFor(t, s))
	}
	if bp == nil {
		bp = t.optimize()
	}
	t.root = t.cloneBlueprint(bp.Root, nil)
	if len(t.leaves) == 0 {
		panic("core: blueprint produced no leaves")
	}
	for _, s := range t.res.Items() {
		p := t.project(s)
		t.route(p).stratum.add(s, p)
	}
	// Step 2 of re-initialization: populate approximate node statistics
	// from the pooled sample (these tuples are uniform over the base
	// population, so they double as the first catch-up samples).
	for _, s := range pooled {
		t.foldCatchup(s)
	}
	// Prepare the shuffled snapshot for catch-up, which skips tuples
	// already folded via the pooled sample.
	if snapshot != nil {
		t.snapshot = snapshot
		t.rng.Shuffle(len(t.snapshot), func(i, j int) {
			t.snapshot[i], t.snapshot[j] = t.snapshot[j], t.snapshot[i]
		})
	}
	// Record per-leaf trigger baselines.
	for _, l := range t.leaves {
		l.m0 = t.oracle.MaxVariance(l.rect)
	}
	if int64(len(pooled)) >= population {
		t.exactStats = true
	}
	return t
}

func (t *DPT) cloneBlueprint(src *partition.Node, parent *node) *node {
	n := &node{rect: src.Rect.Clone(), parent: parent}
	n.initStats(t.cfg)
	if src.IsLeaf() {
		n.isLeaf = true
		n.stratum = newStratum(t.cfg)
		t.leaves = append(t.leaves, n)
		return n
	}
	n.left = t.cloneBlueprint(src.Left, n)
	n.right = t.cloneBlueprint(src.Right, n)
	return n
}

// Config returns the synopsis configuration (with defaults applied).
func (t *DPT) Config() Config { return t.cfg }

// NumLeaves returns the number of leaf partitions.
func (t *DPT) NumLeaves() int { return len(t.leaves) }

// SampleSize returns the pooled sample size |S|.
func (t *DPT) SampleSize() int { return t.res.Len() }

// Population returns the tracked database size |D|.
func (t *DPT) Population() int64 { return t.population }

// project maps a tuple key onto this synopsis's predicate space.
func (t *DPT) project(tp data.Tuple) geom.Point {
	if t.cfg.PredicateDims == nil {
		return tp.Key
	}
	return tp.Project(t.cfg.PredicateDims)
}

// containsKey reports whether the tuple's key, projected onto dims (nil
// is the identity projection), falls inside rect — without materializing
// the projected point. The on-keys scan calls this once per reservoir
// sample per query; going through Tuple.Project would allocate per sample
// on the answer path.
func containsKey(rect geom.Rect, dims []int, tp data.Tuple) bool {
	if dims == nil {
		return rect.Contains(tp.Key)
	}
	for i, d := range dims {
		if v := tp.Key[d]; v < rect.Min[i] || v > rect.Max[i] {
			return false
		}
	}
	return true
}

// route descends from the root to the leaf containing p. Blueprint leaves
// tile the space, so routing always succeeds; a miss indicates corruption
// and panics.
func (t *DPT) route(p geom.Point) *node {
	n := t.root
	for !n.isLeaf {
		switch {
		case n.left.rect.Contains(p):
			n = n.left
		case n.right.rect.Contains(p):
			n = n.right
		default:
			panic(fmt.Sprintf("core: point %v escaped partitioning at %v", p, n.rect))
		}
	}
	return n
}

// path returns the root-to-leaf chain of nodes containing p.
func (t *DPT) path(p geom.Point) []*node {
	out := make([]*node, 0, 12)
	n := t.root
	for {
		out = append(out, n)
		if n.isLeaf {
			return out
		}
		if n.left.rect.Contains(p) {
			n = n.left
		} else {
			n = n.right
		}
	}
}

func (t *DPT) refreshOracleRate() {
	if t.population > 0 {
		t.oracle.SetSamplingRate(float64(t.res.Len()) / float64(t.population))
	}
}

// addToStratum registers a pooled-sample tuple with its leaf and the oracle.
func (t *DPT) addToStratum(tp data.Tuple) {
	p := t.project(tp)
	leaf := t.route(p)
	leaf.stratum.add(tp, p)
	t.oracle.Insert(kdindex.Entry{Point: p, Val: tp.Val(t.cfg.AggIndex), ID: tp.ID})
}

// dropFromStratum removes a pooled-sample tuple from its leaf and the
// oracle.
func (t *DPT) dropFromStratum(tp data.Tuple) {
	leaf := t.route(t.project(tp))
	leaf.stratum.remove(tp.ID)
	t.oracle.Delete(tp.ID)
}

// stratumTuples returns leaf l's samples as the reservoir's full tuples,
// in stratum order.
func (t *DPT) stratumTuples(l *node) []data.Tuple {
	out := make([]data.Tuple, len(l.stratum.ids))
	for i, id := range l.stratum.ids {
		out[i], _ = t.res.Get(id)
	}
	return out
}

// rebuildStrata re-derives every leaf stratum and the oracle from the
// current reservoir contents (needed after a reservoir re-draw).
func (t *DPT) rebuildStrata() {
	for _, l := range t.leaves {
		for _, id := range l.stratum.ids {
			t.oracle.Delete(id)
		}
		l.stratum = newStratum(t.cfg)
	}
	for _, s := range t.res.Items() {
		t.addToStratum(s)
	}
	t.refreshOracleRate()
}

// scale is what a node's catch-up moments are scaled against: the
// population estimate n0 and the catch-up sample total h. exact is set
// when the moments are complete (full catch-up, global nodes only).
type scale struct {
	n0, h float64
	exact bool
}

// scaleOf returns node n's scale: the global snapshot accounting normally,
// or the anchor's frozen estimate and local sample count inside a
// partially re-partitioned subtree.
func (t *DPT) scaleOf(n *node) scale {
	if a := anchorOf(n); a != nil {
		return scale{n0: a.anchorBase, h: float64(a.localSeen[t.cfg.AggIndex].N)}
	}
	return scale{n0: float64(t.snapshotN), h: float64(t.totalCatchup()), exact: t.exactStats}
}

// base scales a total over a node's catch-up samples H_i — their count h_i,
// Σa or Σa² — to its base-population estimate (N_0/h)·v, which is v itself
// once the snapshot was fully consumed.
func (s scale) base(v float64) float64 {
	if s.h == 0 {
		return 0
	}
	if s.exact {
		return v
	}
	return v / s.h * s.n0
}

// totalCatchup returns h, the number of catch-up samples consumed so far
// (including the pooled seed).
func (t *DPT) totalCatchup() int64 {
	return t.root.catchup[t.cfg.AggIndex].N
}

// liveCount returns the estimated live tuple count of node n: the base
// estimate N̂_i = (h_i/h)·N_0 corrected by the exact insert/delete deltas.
func (t *DPT) liveCount(n *node) float64 {
	a := t.cfg.AggIndex
	c := t.scaleOf(n).base(float64(n.catchup[a].N)) + float64(n.ins[a].N) - float64(n.del[a].N)
	if c < 0 {
		return 0
	}
	return c
}

// MemoryFootprint returns an estimate of the synopsis size in bytes:
// pooled samples plus per-node statistics. Archival storage and catch-up
// snapshots are excluded — they live in cold storage by design.
func (t *DPT) MemoryFootprint() int64 {
	perTuple := int64(16 + 8*t.cfg.Dims + 8*t.cfg.NumVals)
	perNode := int64(8*4*t.cfg.NumVals*3 + 16*t.cfg.HeapK + 64)
	nodes := int64(2*len(t.leaves) - 1)
	return int64(t.res.Len())*perTuple + nodes*perNode
}
