package core

import "janusaqp/internal/data"

// foldCatchup folds one uniform base-population sample into the catch-up
// statistics along its root-to-leaf path, deduplicating by tuple ID so that
// the pooled seed and the snapshot stream never double count.
func (t *DPT) foldCatchup(tp data.Tuple) {
	if t.seen[tp.ID] {
		return
	}
	t.seen[tp.ID] = true
	primary := tp.Val(t.cfg.AggIndex)
	for _, n := range t.path(t.project(tp)) {
		for a := 0; a < t.cfg.NumVals; a++ {
			n.catchup[a].Add(tp.Val(a))
		}
		// Catch-up samples also feed the MIN/MAX heaps so extremes reflect
		// the base population, not just post-initialization inserts.
		n.minHeap.Push(primary)
		n.maxHeap.Push(primary)
		if n.isAnchor {
			// Partially re-partitioned subtrees are scaled by their own
			// local samples (see partial.go); global catch-up stops here
			// so estimation eras do not mix.
			break
		}
	}
}

// CatchUp consumes up to batch tuples from the shuffled base-population
// snapshot, improving node statistics (step 5 of the re-initialization
// procedure, Section 4.3). It returns the number of tuples processed and
// whether the snapshot is exhausted; after EndCatchUp, or on a decoded
// synopsis, there is no snapshot and it folds nothing.
//
// Because the snapshot is consumed in random order, the partially caught-up
// statistics are unbiased estimates of the base population at every point
// in time; queries issued mid-catch-up simply see wider intervals.
func (t *DPT) CatchUp(batch int) (processed int, done bool) {
	for processed < batch && t.consumed < len(t.snapshot) {
		t.foldCatchup(t.snapshot[t.consumed])
		t.consumed++
		processed++
	}
	if t.totalCatchup() >= t.snapshotN {
		// Every base tuple has been folded — even when the snapshot's unread
		// tail holds only pooled rows, which were folded first: node
		// statistics are now exact (the DPT degenerates to an SPT over the
		// base population, plus the exact insert/delete deltas).
		t.exactStats = true
	}
	return processed, t.consumed >= len(t.snapshot)
}

// CatchUpProgress returns the fraction of the base population folded into
// node statistics, in [0, 1].
func (t *DPT) CatchUpProgress() float64 {
	if t.snapshotN == 0 {
		return 1
	}
	p := float64(t.totalCatchup()) / float64(t.snapshotN)
	if p > 1 {
		return 1
	}
	return p
}

// CatchUpTarget runs catch-up until the given fraction of the base
// population has been consumed (the user-specified catch-up time of
// Section 4.3); it returns the number of tuples processed.
func (t *DPT) CatchUpTarget(fraction float64) int {
	total := 0
	for t.CatchUpProgress() < fraction {
		n, done := t.CatchUp(1024)
		total += n
		if done || n == 0 {
			break
		}
	}
	return total
}

// EndCatchUp ends catch-up for good, in the state Decode restores: it
// drops the snapshot's unread tail and the folded-ID set, so the synopsis
// holds no copy of the table, and keeps the node statistics and progress.
func (t *DPT) EndCatchUp() {
	t.snapshot, t.seen = nil, nil
}
