package stats

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestBoundedHeapTracksMin(t *testing.T) {
	h := NewBoundedHeap(KeepMin, 3)
	for _, v := range []float64{5, 2, 8, 1, 9, 3} {
		h.Push(v)
	}
	if got, ok := h.Extreme(); !ok || got != 1 {
		t.Fatalf("Extreme = %g ok=%v, want 1", got, ok)
	}
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	// Retained should be the 3 smallest: 1, 2, 3. Deleting 1 exposes 2.
	if !h.Remove(1) {
		t.Fatal("Remove(1) should succeed")
	}
	if got, _ := h.Extreme(); got != 2 {
		t.Errorf("after removing min, Extreme = %g, want 2", got)
	}
	// 5 was evicted, so Remove(5) is a no-op.
	if h.Remove(5) {
		t.Error("Remove of evicted value should fail")
	}
}

func TestBoundedHeapTracksMax(t *testing.T) {
	h := NewBoundedHeap(KeepMax, 2)
	for _, v := range []float64{5, 2, 8, 1, 9, 3} {
		h.Push(v)
	}
	if got, _ := h.Extreme(); got != 9 {
		t.Fatalf("Extreme = %g, want 9", got)
	}
	h.Remove(9)
	if got, _ := h.Extreme(); got != 8 {
		t.Errorf("after removing max, Extreme = %g, want 8", got)
	}
}

func TestBoundedHeapNeverEmpties(t *testing.T) {
	h := NewBoundedHeap(KeepMin, 4)
	h.Push(7)
	h.Push(3)
	h.Remove(3)
	// Only one element left; further removes are refused.
	if h.Remove(7) {
		t.Error("last element must not be removable")
	}
	if h.Len() != 1 {
		t.Errorf("Len = %d, want 1", h.Len())
	}
	if got, ok := h.Extreme(); !ok || got != 7 {
		t.Errorf("Extreme = %g, want 7 (outer approximation)", got)
	}
	if h.Exact() {
		t.Error("heap should report inexact after refusing a removal")
	}
}

func TestBoundedHeapDuplicates(t *testing.T) {
	h := NewBoundedHeap(KeepMin, 5)
	h.Push(2)
	h.Push(2)
	h.Push(2)
	if !h.Remove(2) || !h.Remove(2) {
		t.Fatal("duplicates must be individually removable")
	}
	if got, _ := h.Extreme(); got != 2 {
		t.Errorf("Extreme = %g, want 2", got)
	}
}

func TestBoundedHeapMatchesSortUnderRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewBoundedHeap(KeepMin, 16)
	var live []float64
	for i := 0; i < 2000; i++ {
		if len(live) > 0 && rng.Float64() < 0.3 {
			j := rng.Intn(len(live))
			h.Remove(live[j])
			live = append(live[:j], live[j+1:]...)
		} else {
			v := float64(rng.Intn(1000))
			h.Push(v)
			live = append(live, v)
		}
		if len(live) == 0 {
			continue
		}
		sorted := append([]float64(nil), live...)
		sort.Float64s(sorted)
		trueMin := sorted[0]
		got, ok := h.Extreme()
		if !ok {
			t.Fatalf("step %d: heap empty while %d live values", i, len(live))
		}
		// While the heap is exact it must match the true minimum exactly;
		// once inexact it must be an outer approximation (<= any live min
		// is not guaranteed; the paper's guarantee is estimate <= true MIN
		// is *lost*, becoming estimate >= true MIN bound from retained).
		if h.Exact() && len(live) <= 16 && got != trueMin {
			t.Fatalf("step %d: Extreme = %g, true min = %g", i, got, trueMin)
		}
	}
}

func TestBoundedHeapPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k=0")
		}
	}()
	NewBoundedHeap(KeepMin, 0)
}

// refHeap is the container/heap implementation BoundedHeap replaced, kept
// verbatim as the reference its sift sequence must reproduce: Values feeds
// checkpoint encoding, so equal multisets in a different order would move
// checkpoint bytes.
type refHeap struct {
	kind  HeapKind
	cap   int
	items refInnerHeap
	count map[float64]int
	exact bool
}

func newRefHeap(kind HeapKind, k int) *refHeap {
	return &refHeap{kind: kind, cap: k, items: refInnerHeap{kind: kind}, count: make(map[float64]int), exact: true}
}

func (b *refHeap) Push(v float64) {
	heap.Push(&b.items, v)
	b.count[v]++
	if len(b.items.vals) > b.cap {
		evicted := heap.Pop(&b.items).(float64)
		b.decCount(evicted)
	}
}

func (b *refHeap) Remove(v float64) bool {
	if b.count[v] == 0 {
		return false
	}
	if len(b.items.vals) <= 1 {
		b.exact = false
		return false
	}
	for i, x := range b.items.vals {
		if x == v {
			heap.Remove(&b.items, i)
			b.decCount(v)
			return true
		}
	}
	return false
}

func (b *refHeap) decCount(v float64) {
	if b.count[v] <= 1 {
		delete(b.count, v)
	} else {
		b.count[v]--
	}
}

type refInnerHeap struct {
	kind HeapKind
	vals []float64
}

func (h refInnerHeap) Len() int { return len(h.vals) }
func (h refInnerHeap) Less(i, j int) bool {
	if h.kind == KeepMin {
		return h.vals[i] > h.vals[j]
	}
	return h.vals[i] < h.vals[j]
}
func (h refInnerHeap) Swap(i, j int) { h.vals[i], h.vals[j] = h.vals[j], h.vals[i] }
func (h *refInnerHeap) Push(x any)   { h.vals = append(h.vals, x.(float64)) }
func (h *refInnerHeap) Pop() any {
	old := h.vals
	n := len(old)
	v := old[n-1]
	h.vals = old[:n-1]
	return v
}

// TestBoundedHeapMatchesContainerHeap drives BoundedHeap and the
// container/heap reference through the same seeded Push/Remove sequences
// and requires the same retained array, in order, and the same Exact after
// every operation.
func TestBoundedHeapMatchesContainerHeap(t *testing.T) {
	for _, kind := range []HeapKind{KeepMin, KeepMax} {
		// At k = 5 a push onto a full heap sifts through the root's right
		// child, where container/heap's tie-breaking decides the order.
		for _, k := range []int{1, 2, 5, 16} {
			// distinct is the value range: 8 makes nearly every value a
			// duplicate, 1000 few.
			for _, distinct := range []int{8, 1000} {
				rng := rand.New(rand.NewSource(int64(k*7919 + distinct + int(kind))))
				got, want := NewBoundedHeap(kind, k), newRefHeap(kind, k)
				var pushed []float64
				for step := 0; step < 5000; step++ {
					var op string
					remove := func(v float64) {
						op = fmt.Sprintf("Remove(%g)", v)
						if g, w := got.Remove(v), want.Remove(v); g != w {
							t.Fatalf("kind=%d k=%d step %d: %s = %v, reference %v", kind, k, step, op, g, w)
						}
					}
					switch r := rng.Float64(); {
					case r < 0.70 || len(pushed) == 0:
						v := float64(rng.Intn(distinct))
						op = fmt.Sprintf("Push(%g)", v)
						got.Push(v)
						want.Push(v)
						pushed = append(pushed, v)
					case r < 0.90:
						// A value pushed earlier: retained, evicted or
						// already removed.
						remove(pushed[rng.Intn(len(pushed))])
					case r < 0.98:
						// A value never pushed.
						remove(float64(distinct) + 0.5)
					default:
						// Drain toward, and into, the last element. Rare,
						// so the heap spends most steps full and pushes
						// exercise the evicting sift.
						for n := -1; n != len(want.items.vals) && rng.Float64() < 0.9; {
							n = len(want.items.vals)
							remove(want.items.vals[rng.Intn(n)])
						}
					}
					if !slices.Equal(got.Values(), want.items.vals) {
						t.Fatalf("kind=%d k=%d step %d after %s: Values %v, reference %v", kind, k, step, op, got.Values(), want.items.vals)
					}
					if got.Exact() != want.exact {
						t.Fatalf("kind=%d k=%d step %d after %s: Exact %v, reference %v", kind, k, step, op, got.Exact(), want.exact)
					}
				}
			}
		}
	}
}

// TestBoundedHeapAllocs pins the update path's heap work at zero
// allocations once a heap is full: every insert into a synopsis pushes
// into two heaps per node on its root-to-leaf path.
func TestBoundedHeapAllocs(t *testing.T) {
	for _, kind := range []HeapKind{KeepMin, KeepMax} {
		h := NewBoundedHeap(kind, 16)
		for i := 0; i < 64; i++ {
			h.Push(float64(i))
		}
		v := 0.0
		if n := testing.AllocsPerRun(1000, func() { v++; h.Push(v) }); n != 0 {
			t.Errorf("kind=%d: Push on a full heap allocates %g, want 0", kind, n)
		}
		retained := h.Values()
		i := 0
		if n := testing.AllocsPerRun(100, func() {
			x := retained[i%len(retained)]
			i++
			if !h.Remove(x) {
				t.Fatalf("Remove(%g) of a retained value failed", x)
			}
			h.Push(x)
		}); n != 0 {
			t.Errorf("kind=%d: Remove of a retained value (and its re-push) allocates %g, want 0", kind, n)
		}
	}
}
