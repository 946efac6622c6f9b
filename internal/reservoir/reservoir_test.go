package reservoir

import (
	"math"
	"testing"

	"janusaqp/internal/data"
	"janusaqp/internal/geom"
)

func tup(id int64) data.Tuple {
	return data.Tuple{ID: id, Key: geom.Point{float64(id)}, Vals: []float64{float64(id)}}
}

func TestFillsToCapacity(t *testing.T) {
	s := New(10, 1, nil)
	for i := int64(0); i < 20; i++ {
		ev := s.Insert(tup(i))
		if !ev.Admitted || ev.Evicted != nil {
			t.Fatalf("insert %d below capacity: %+v", i, ev)
		}
	}
	if s.Len() != 20 {
		t.Fatalf("Len = %d, want 20", s.Len())
	}
	// At capacity, admissions must evict.
	sawAdmit := false
	for i := int64(20); i < 200; i++ {
		ev := s.Insert(tup(i))
		if ev.Admitted {
			sawAdmit = true
			if ev.Evicted == nil {
				t.Fatal("admission at capacity must evict")
			}
		}
		if s.Len() != 20 {
			t.Fatalf("Len drifted to %d", s.Len())
		}
	}
	if !sawAdmit {
		t.Error("expected at least one admission past capacity")
	}
	if s.Population() != 200 {
		t.Errorf("Population = %d, want 200", s.Population())
	}
}

func TestInclusionProbabilityIsUniform(t *testing.T) {
	// After streaming N tuples through a reservoir of capacity 2m, each
	// tuple should be retained with probability ~2m/N. Run many trials and
	// check early vs late tuples are retained at statistically similar
	// rates.
	const trials = 300
	const n = 500
	const m = 10 // capacity 20
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		s := New(m, int64(trial), nil)
		for i := int64(0); i < n; i++ {
			s.Insert(tup(i))
		}
		for _, it := range s.Items() {
			counts[it.ID]++
		}
	}
	expected := float64(trials) * float64(2*m) / float64(n) // 12
	firstHalf, secondHalf := 0, 0
	for i, c := range counts {
		if i < n/2 {
			firstHalf += c
		} else {
			secondHalf += c
		}
	}
	fh := float64(firstHalf) / float64(n/2)
	sh := float64(secondHalf) / float64(n/2)
	if math.Abs(fh-expected) > 0.25*expected || math.Abs(sh-expected) > 0.25*expected {
		t.Errorf("retention rates skewed: first half %.2f, second half %.2f, expected %.2f", fh, sh, expected)
	}
}

func TestDeleteOutsideSample(t *testing.T) {
	s := New(5, 2, nil)
	s.Init([]data.Tuple{tup(1), tup(2)}, 100)
	ev := s.Delete(50)
	if ev.Removed || ev.Resampled {
		t.Errorf("delete outside sample: %+v", ev)
	}
	if s.Population() != 99 {
		t.Errorf("Population = %d, want 99", s.Population())
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestDeleteInsideSampleAboveLowerBound(t *testing.T) {
	s := New(2, 3, nil)
	s.Init([]data.Tuple{tup(1), tup(2), tup(3)}, 10)
	ev := s.Delete(2)
	if !ev.Removed || ev.Resampled {
		t.Fatalf("delete inside sample: %+v", ev)
	}
	if s.Contains(2) {
		t.Error("tuple 2 should be gone")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestDeleteAtLowerBoundTriggersResample(t *testing.T) {
	fresh := []data.Tuple{tup(100), tup(101), tup(102), tup(103)}
	resampler := func(n int) []data.Tuple {
		if n > len(fresh) {
			n = len(fresh)
		}
		return fresh[:n]
	}
	s := New(2, 4, resampler)
	s.Init([]data.Tuple{tup(1), tup(2)}, 1000) // |S| == m == 2
	ev := s.Delete(1)
	if !ev.Removed || !ev.Resampled {
		t.Fatalf("expected resample, got %+v", ev)
	}
	if s.Resamples != 1 {
		t.Errorf("Resamples = %d, want 1", s.Resamples)
	}
	if s.Len() != 4 { // re-drew 2m = 4
		t.Errorf("Len = %d, want 4", s.Len())
	}
	for _, id := range []int64{100, 101, 102, 103} {
		if !s.Contains(id) {
			t.Errorf("fresh tuple %d missing after resample", id)
		}
	}
}

func TestInvariantUnderMixedWorkload(t *testing.T) {
	// Maintain a shadow population so the resampler can return real tuples.
	population := map[int64]data.Tuple{}
	var order []int64
	resampler := func(n int) []data.Tuple {
		out := make([]data.Tuple, 0, n)
		for _, id := range order {
			if t, ok := population[id]; ok {
				out = append(out, t)
				if len(out) == n {
					break
				}
			}
		}
		return out
	}
	const m = 20
	s := New(m, 5, resampler)
	id := int64(0)
	// Build up.
	for ; id < 500; id++ {
		tpl := tup(id)
		population[id] = tpl
		order = append(order, id)
		s.Insert(tpl)
	}
	// Heavy deletions interleaved with occasional inserts.
	for step := 0; step < 2000; step++ {
		if step%5 == 0 {
			tpl := tup(id)
			population[id] = tpl
			order = append(order, id)
			s.Insert(tpl)
			id++
		} else if len(population) > 0 {
			// delete some existing id (prefer sampled ones to stress eviction)
			var victim int64 = -1
			for _, it := range s.Items() {
				victim = it.ID
				break
			}
			if victim < 0 || step%3 == 0 {
				for k := range population {
					victim = k
					break
				}
			}
			s.Delete(victim)
			delete(population, victim)
		}
		if int64(s.Len()) > int64(2*m) {
			t.Fatalf("step %d: |S| = %d exceeds 2m = %d", step, s.Len(), 2*m)
		}
		if len(population) >= 2*m && s.Len() < m {
			t.Fatalf("step %d: |S| = %d below m = %d with population %d", step, s.Len(), m, len(population))
		}
		// Every sampled tuple must exist in the population.
		for _, it := range s.Items() {
			if _, ok := population[it.ID]; !ok {
				t.Fatalf("step %d: sample contains deleted tuple %d", step, it.ID)
			}
		}
	}
}

func TestInitTruncatesToCapacity(t *testing.T) {
	s := New(2, 7, nil)
	var many []data.Tuple
	for i := int64(0); i < 10; i++ {
		many = append(many, tup(i))
	}
	s.Init(many, 10)
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4 (2m)", s.Len())
	}
}
