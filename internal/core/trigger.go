package core

import (
	"math"

	"janusaqp/internal/partition"
)

// noteUpdate is called on a leaf after each insert/delete affecting it. It
// rate-limits the trigger probes of Section 5.4: every TriggerEvery updates
// it re-checks (a) stratum under-representation and (b) β-drift of the
// leaf's max-variance relative to its value at construction.
func (t *DPT) noteUpdate(leaf *node) {
	leaf.updates++
	if leaf.updates < t.cfg.TriggerEvery {
		return
	}
	leaf.updates = 0
	t.checkLeafTriggers(leaf)
}

// TriggerReason names the Section 5.4 test that fired a leaf's trigger.
type TriggerReason uint8

const (
	// TriggerNone means no trigger is pending.
	TriggerNone TriggerReason = iota
	// triggerUnderRepresented: the stratum holds far fewer samples than
	// the leaf's population calls for.
	triggerUnderRepresented
	// triggerVarianceDrift: the leaf's max variance left [M_i/β, β·M_i].
	triggerVarianceDrift
	// triggerFlatLeafVariance: a leaf built with no measurable variance
	// has some now.
	triggerFlatLeafVariance
)

func (r TriggerReason) String() string {
	switch r {
	case TriggerNone:
		return "none"
	case triggerUnderRepresented:
		return "under-represented"
	case triggerVarianceDrift:
		return "variance-drift"
	case triggerFlatLeafVariance:
		return "flat-leaf-variance"
	}
	return "unknown"
}

func (t *DPT) checkLeafTriggers(leaf *node) {
	if t.trigger != TriggerNone {
		return
	}
	// Under-representation: |S_i| << log(m)/α means the stratum cannot
	// support robust estimates (Section 5.4). The paper's "much less than"
	// is implemented as a factor-4 shortfall.
	m := t.res.Len()
	if m > 1 && t.population > 0 {
		alpha := float64(m) / float64(t.population)
		want := math.Log(float64(m)) / alpha
		if float64(leaf.stratum.len()) < want/4 && t.liveCount(leaf) > want {
			t.trigger, t.pendingLeaf = triggerUnderRepresented, leaf
			return
		}
	}
	// β-drift: the leaf's current max variance moved outside
	// [M_i/β, β·M_i].
	cur := t.oracle.MaxVariance(leaf.rect)
	beta := t.cfg.Beta
	if leaf.m0 > 0 {
		if cur > beta*leaf.m0 || cur < leaf.m0/beta {
			t.trigger, t.pendingLeaf = triggerVarianceDrift, leaf
		}
		return
	}
	if cur > 0 && leaf.stratum.len() > 4 {
		// The leaf had no measurable variance at construction but has some
		// now; treat any significant mass as drift.
		t.trigger, t.pendingLeaf = triggerFlatLeafVariance, leaf
	}
}

// TriggerPending reports why a trigger fired since the last reset, or
// TriggerNone.
func (t *DPT) TriggerPending() TriggerReason {
	return t.trigger
}

// ResetTrigger clears the pending trigger (called after the engine decided
// whether to adopt a new partitioning).
func (t *DPT) ResetTrigger() {
	t.trigger = TriggerNone
	t.pendingLeaf = nil
}

// optimize partitions the pooled sample the oracle holds into K leaves:
// the binary-search partitioner in one dimension, KD above (Section 5).
func (t *DPT) optimize() *partition.Blueprint {
	opts := partition.Options{K: t.cfg.K, Population: t.population}
	if t.cfg.Dims == 1 {
		return partition.BinarySearch1D(t.oracle, opts)
	}
	return partition.KD(t.oracle, opts)
}

// Reoptimize runs the Section 5.4 accept test for a fired trigger: it
// optimizes a candidate partitioning of the current pooled sample and
// returns it when its maximum leaf variance improves on the current
// partitioning's M(R) by more than β (or M(R) is 0), and nil when the
// candidate should be turned down.
func (t *DPT) Reoptimize() *partition.Blueprint {
	current, candVar := 0.0, 0.0
	for _, l := range t.leaves {
		if v := t.oracle.MaxVariance(l.rect); v > current {
			current = v
		}
	}
	cand := t.optimize()
	for _, l := range cand.Leaves {
		if v := t.oracle.MaxVariance(l.Rect); v > candVar {
			candVar = v
		}
	}
	if current > 0 && candVar >= current/t.cfg.Beta {
		return nil
	}
	return cand
}

// RefreshBaselines re-records every leaf's trigger baseline M_i from the
// current sample (used when the engine decides to keep the partitioning).
func (t *DPT) RefreshBaselines() {
	for _, l := range t.leaves {
		l.m0 = t.oracle.MaxVariance(l.rect)
	}
}
