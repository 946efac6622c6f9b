package core

import (
	"fmt"

	"janusaqp/internal/data"
	"janusaqp/internal/geom"
	"janusaqp/internal/partition"
	"janusaqp/internal/stats"
)

// Partial re-partitioning (Appendix E): instead of rebuilding the whole
// tree, only the subtree around a problematic leaf is re-optimized. Nodes
// outside the subtree keep their statistics, so queries elsewhere lose
// nothing; the rebuilt subtree re-estimates its statistics from the pooled
// samples inside its region.
//
// Estimation bookkeeping: the rebuilt subtree's root u becomes an *anchor*.
// Its own (preserved) statistics provide the frozen population estimate
// N̂_u; descendants carry subtree-local sample moments, scaled by
// N̂_u / h_u^local — a two-stage stratified estimate. Global catch-up stops
// below anchors (the eras would otherwise mix); the exact insert/delete
// deltas of new updates accumulate on the fresh nodes as usual.

// PartialRepartition rebuilds the subtree psi levels above the leaf
// containing p, re-optimizing its partitioning over the pooled samples in
// that region. psi <= 0 rebuilds just the leaf's parent region; large psi
// clamps at the root.
func (t *DPT) PartialRepartition(p geom.Point, psi int) error {
	if len(p) != t.cfg.Dims {
		return fmt.Errorf("core: point dimensionality %d, synopsis %d", len(p), t.cfg.Dims)
	}
	leaf := t.route(p)
	u := leaf
	for i := 0; i < psi && u.parent != nil; i++ {
		u = u.parent
	}
	if u.isLeaf && u.parent != nil {
		u = u.parent
	}
	return t.repartitionSubtree(u)
}

// RepartitionPendingLeaf partially re-partitions around the leaf whose
// trigger fired most recently; it is a no-op without a pending trigger.
func (t *DPT) RepartitionPendingLeaf(psi int) error {
	if t.pendingLeaf == nil {
		return nil
	}
	leaf := t.pendingLeaf
	t.pendingLeaf = nil
	u := leaf
	for i := 0; i < psi && u.parent != nil; i++ {
		u = u.parent
	}
	if u.isLeaf && u.parent != nil {
		u = u.parent
	}
	return t.repartitionSubtree(u)
}

func (t *DPT) repartitionSubtree(u *node) error {
	// Gather the subtree's current shape and samples.
	oldLeaves := collectLeaves(u)
	lu := len(oldLeaves)
	var pooled []data.Tuple
	for _, l := range oldLeaves {
		pooled = append(pooled, t.stratumTuples(l)...)
	}
	// Freeze the anchor population estimate before touching anything.
	anchorBase := t.liveCount(u)

	// Optimize the region with the same criterion as a full build,
	// restricted to R_u with the same leaf budget.
	domain := u.rect.Clone()
	bp := partition.KD(t.oracle, partition.Options{K: lu, Domain: &domain})

	// Splice the new subtree under u.
	if bp.Root.IsLeaf() {
		u.left, u.right = nil, nil
		u.isLeaf = true
		u.stratum = newStratum(t.cfg)
	} else {
		u.isLeaf = false
		u.stratum = nil
		u.left = t.cloneSubtree(bp.Root.Left, u)
		u.right = t.cloneSubtree(bp.Root.Right, u)
	}
	// The rebuilt subtree's statistics were reset, so its root must anchor
	// the scaling even when it is the tree root: descendants are estimated
	// from the local seed samples against the frozen N̂_u.
	u.isAnchor = true
	u.localSeen = make([]stats.Moments, t.cfg.NumVals)

	// Rebuild the global leaf list.
	t.leaves = t.leaves[:0]
	t.collectGlobalLeaves(t.root)

	// Re-seed the subtree: pooled samples inside R_u populate strata,
	// local catch-up moments, and heaps.
	for _, s := range pooled {
		t.seedAnchored(u, s)
	}
	u.anchorBase = anchorBase

	// Refresh trigger baselines for the new leaves.
	for _, l := range collectLeaves(u) {
		l.m0 = t.oracle.MaxVariance(l.rect)
	}
	t.PartialRepartitions++
	return nil
}

// cloneSubtree materializes blueprint nodes as fresh (anchored) tree nodes.
func (t *DPT) cloneSubtree(src *partition.Node, parent *node) *node {
	n := &node{rect: src.Rect.Clone(), parent: parent}
	n.initStats(t.cfg)
	if src.IsLeaf() {
		n.isLeaf = true
		n.stratum = newStratum(t.cfg)
		return n
	}
	n.left = t.cloneSubtree(src.Left, n)
	n.right = t.cloneSubtree(src.Right, n)
	return n
}

// seedAnchored folds one pooled sample into the rebuilt subtree: stratum
// membership, local catch-up moments along the subtree path, and heaps.
func (t *DPT) seedAnchored(u *node, tp data.Tuple) {
	p := t.project(tp)
	primary := tp.Val(t.cfg.AggIndex)
	for a := 0; a < t.cfg.NumVals; a++ {
		u.localSeen[a].Add(tp.Val(a))
	}
	n := u
	for !n.isLeaf {
		if n.left.rect.Contains(p) {
			n = n.left
		} else {
			n = n.right
		}
		for a := 0; a < t.cfg.NumVals; a++ {
			n.catchup[a].Add(tp.Val(a))
		}
		n.minHeap.Push(primary)
		n.maxHeap.Push(primary)
	}
	n.stratum.add(tp, p)
}

func collectLeaves(n *node) []*node {
	var out []*node
	var walk func(*node)
	walk = func(x *node) {
		if x.isLeaf {
			out = append(out, x)
			return
		}
		walk(x.left)
		walk(x.right)
	}
	walk(n)
	return out
}

func (t *DPT) collectGlobalLeaves(n *node) {
	if n.isLeaf {
		t.leaves = append(t.leaves, n)
		return
	}
	t.collectGlobalLeaves(n.left)
	t.collectGlobalLeaves(n.right)
}

// anchorOf returns the nearest strict ancestor that is an anchor root, or
// nil when the node's statistics are globally scaled.
func anchorOf(n *node) *node {
	for a := n.parent; a != nil; a = a.parent {
		if a.isAnchor {
			return a
		}
	}
	return nil
}
