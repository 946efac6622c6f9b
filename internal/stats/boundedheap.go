package stats

// BoundedHeap keeps the k most extreme values seen so far, supporting the
// MIN/MAX maintenance protocol of Section 4.1: insertions push a value and
// evict the least extreme one beyond capacity k; deletions remove a value if
// present, but never below one remaining element (the paper stops removing
// at a single element, at which point the reported extreme becomes an outer
// approximation).
//
// A BoundedHeap with kind=KeepMin tracks candidate minima (its Extreme is
// the smallest retained value); kind=KeepMax tracks candidate maxima.
//
// The retained values live in a plain binary heap whose root is the
// eviction candidate. Push costs O(log k), Remove O(k) (a scan for the
// value, then a sift), and neither allocates once the heap has reached
// capacity. Both follow container/heap's sift sequence exactly: Values
// feeds checkpoint images, whose bytes must not depend on which build
// maintained the heap.
type BoundedHeap struct {
	kind  HeapKind
	cap   int
	vals  []float64
	exact bool // true while no eviction has discarded information
}

// HeapKind selects whether a BoundedHeap retains the smallest or the
// largest values.
type HeapKind int

const (
	// KeepMin retains the k smallest values; Extreme() is the minimum.
	KeepMin HeapKind = iota
	// KeepMax retains the k largest values; Extreme() is the maximum.
	KeepMax
)

// NewBoundedHeap returns a heap retaining at most k values. k must be >= 1.
func NewBoundedHeap(kind HeapKind, k int) *BoundedHeap {
	if k < 1 {
		panic("stats: bounded heap capacity must be >= 1")
	}
	return &BoundedHeap{kind: kind, cap: k, exact: true}
}

// Len returns the number of retained values.
func (b *BoundedHeap) Len() int { return len(b.vals) }

// Exact reports whether Extreme() is still guaranteed to equal the true
// extreme of all values ever inserted minus those deleted. It turns false
// once a deletion empties the retained set down to the last element while
// information had already been evicted.
func (b *BoundedHeap) Exact() bool { return b.exact }

// Push inserts v, evicting the least extreme retained value if capacity is
// exceeded.
func (b *BoundedHeap) Push(v float64) {
	b.vals = append(b.vals, v)
	b.up(len(b.vals) - 1)
	if n := len(b.vals) - 1; n >= b.cap {
		// Pop the root: swap it with the last value, sift down over the
		// rest, drop it.
		b.vals[0], b.vals[n] = b.vals[n], b.vals[0]
		b.vals = b.vals[:n]
		b.down(0)
	}
}

// Remove deletes one occurrence of v if it is retained. Following the
// paper, removal stops when only one value remains: the heap never empties,
// and from that moment the reported extreme is an outer approximation.
// It returns true if a value was removed.
func (b *BoundedHeap) Remove(v float64) bool {
	i := 0
	for i < len(b.vals) && b.vals[i] != v {
		i++
	}
	if i == len(b.vals) {
		return false
	}
	if len(b.vals) <= 1 {
		// Keep the last element; the estimate degrades to an outer bound.
		b.exact = false
		return false
	}
	n := len(b.vals) - 1
	if i != n {
		b.vals[i], b.vals[n] = b.vals[n], b.vals[i]
		b.vals = b.vals[:n]
		if !b.down(i) {
			b.up(i)
		}
	} else {
		b.vals = b.vals[:n]
	}
	return true
}

// Extreme returns the current extreme value: the minimum of the retained
// set for KeepMin, the maximum for KeepMax. ok is false when empty.
func (b *BoundedHeap) Extreme() (v float64, ok bool) {
	if len(b.vals) == 0 {
		return 0, false
	}
	// The heap root is the *least* extreme retained value (the eviction
	// candidate); the true extreme is at the other end. Scan for it: the
	// retained set is at most k elements, and k is small (default 16).
	v = b.vals[0]
	for _, x := range b.vals[1:] {
		if (b.kind == KeepMin && x < v) || (b.kind == KeepMax && x > v) {
			v = x
		}
	}
	return v, true
}

// Values returns a copy of the retained multiset (in no particular order),
// used for persistence: re-pushing the values into a fresh heap of the same
// capacity restores an equivalent heap.
func (b *BoundedHeap) Values() []float64 {
	return append([]float64(nil), b.vals...)
}

// less orders the heap so that the root is the eviction candidate: for
// KeepMin the root is the largest retained value, for KeepMax the smallest.
func (b *BoundedHeap) less(i, j int) bool {
	if b.kind == KeepMin {
		return b.vals[i] > b.vals[j]
	}
	return b.vals[i] < b.vals[j]
}

// up and down are container/heap's sifts over b.vals.
func (b *BoundedHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !b.less(j, i) {
			break
		}
		b.vals[i], b.vals[j] = b.vals[j], b.vals[i]
		j = i
	}
}

func (b *BoundedHeap) down(i0 int) bool {
	n := len(b.vals)
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && b.less(j2, j1) {
			j = j2 // right child
		}
		if !b.less(j, i) {
			break
		}
		b.vals[i], b.vals[j] = b.vals[j], b.vals[i]
		i = j
	}
	return i > i0
}
