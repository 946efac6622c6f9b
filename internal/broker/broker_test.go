package broker

import (
	"math/rand"
	"sync"
	"testing"

	"janusaqp/internal/data"
	"janusaqp/internal/geom"
)

func tup(id int64) data.Tuple {
	return data.Tuple{ID: id, Key: geom.Point{float64(id)}, Vals: []float64{float64(id)}}
}

func TestTopicAppendPoll(t *testing.T) {
	tp := &Topic{}
	for i := int64(0); i < 10; i++ {
		off := tp.Append(Record{Kind: KindInsert, Tuple: tup(i)})
		if off != i {
			t.Fatalf("offset = %d, want %d", off, i)
		}
	}
	recs, next := tp.Poll(3, 4)
	if len(recs) != 4 || next != 7 {
		t.Fatalf("Poll(3,4) returned %d records next=%d", len(recs), next)
	}
	if recs[0].Tuple.ID != 3 {
		t.Errorf("first record id = %d, want 3", recs[0].Tuple.ID)
	}
	// Poll past the end.
	recs, next = tp.Poll(100, 5)
	if len(recs) != 0 || next != 10 {
		t.Errorf("poll past end: %d records next=%d", len(recs), next)
	}
	// Poll overshooting the end is clamped.
	recs, _ = tp.Poll(8, 10)
	if len(recs) != 2 {
		t.Errorf("clamped poll returned %d records, want 2", len(recs))
	}
	// Negative offset is treated as 0.
	recs, _ = tp.Poll(-5, 2)
	if len(recs) != 2 || recs[0].Tuple.ID != 0 {
		t.Errorf("negative offset poll: %v", recs)
	}
}

func TestTopicConcurrentAppendPoll(t *testing.T) {
	tp := &Topic{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := int64(0); i < 500; i++ {
				tp.Append(Record{Tuple: tup(base*1000 + i)})
				tp.Poll(0, 10)
			}
		}(int64(w))
	}
	wg.Wait()
	if tp.Len() != 4000 {
		t.Errorf("Len = %d, want 4000", tp.Len())
	}
}

func TestArchiveInsertDeleteSample(t *testing.T) {
	a := NewArchive()
	for i := int64(0); i < 100; i++ {
		a.Insert(tup(i))
	}
	if a.Len() != 100 {
		t.Fatalf("Len = %d", a.Len())
	}
	if !a.Delete(50) {
		t.Fatal("delete of live tuple failed")
	}
	if a.Delete(50) {
		t.Fatal("double delete should fail")
	}
	if _, ok := a.Get(50); ok {
		t.Error("deleted tuple still retrievable")
	}
	if got, ok := a.Get(51); !ok || got.ID != 51 {
		t.Error("live tuple lost")
	}
	rng := rand.New(rand.NewSource(1))
	s := a.SampleUniform(10, rng)
	if len(s) != 10 {
		t.Fatalf("sample size = %d", len(s))
	}
	seen := map[int64]bool{}
	for _, x := range s {
		if seen[x.ID] {
			t.Error("sample with replacement detected")
		}
		seen[x.ID] = true
		if x.ID == 50 {
			t.Error("deleted tuple sampled")
		}
	}
	// Oversized request returns everything.
	all := a.SampleUniform(1000, rng)
	if len(all) != 99 {
		t.Errorf("oversized sample returned %d, want 99", len(all))
	}
}

func TestArchiveSampleIsUniform(t *testing.T) {
	a := NewArchive()
	const n = 200
	for i := int64(0); i < n; i++ {
		a.Insert(tup(i))
	}
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, n)
	const trials = 500
	for trial := 0; trial < trials; trial++ {
		for _, x := range a.SampleUniform(20, rng) {
			counts[x.ID]++
		}
	}
	// Expected hits per tuple: trials*20/n = 50. Check halves balance.
	lo, hi := 0, 0
	for i, c := range counts {
		if i < n/2 {
			lo += c
		} else {
			hi += c
		}
	}
	ratio := float64(lo) / float64(hi)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("sampling skewed: first/second half ratio %.3f", ratio)
	}
}

func TestBrokerPublish(t *testing.T) {
	b := New()
	b.PublishInsert(tup(1))
	b.PublishInsert(tup(2))
	if b.Inserts.Len() != 2 {
		t.Errorf("insert topic length = %d", b.Inserts.Len())
	}
	if !b.PublishDelete(1) {
		t.Error("delete of live tuple failed")
	}
	if b.PublishDelete(99) {
		t.Error("delete of unknown tuple should report false")
	}
	if b.Deletes.Len() != 2 {
		t.Errorf("delete topic length = %d (log retains even failed deletes)", b.Deletes.Len())
	}
	if b.Archive().Len() != 1 {
		t.Errorf("archive length = %d, want 1", b.Archive().Len())
	}
}

func TestArchiveDuplicateInsertPanics(t *testing.T) {
	a := NewArchive()
	a.Insert(tup(1))
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate insert")
		}
	}()
	a.Insert(tup(1))
}
