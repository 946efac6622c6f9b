package janus

// onepath_test.go pins the single answer path from the outside: an engine's
// own Do and a 1-shard group's scatter-gather over the same engine are the
// same merge over the same partial, so they agree to the bit.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"janusaqp/internal/core"
	"janusaqp/internal/workload"
)

func TestEngineDoIdenticalToOneShardGroup(t *testing.T) {
	// Partial catch-up plus churn: every variance term is live, so an
	// answer assembled a second way would show in the low bits.
	b, tuples := seedBroker(t, workload.NYCTaxi, 20000)
	eng := NewEngine(Config{LeafNodes: 32, SampleRate: 0.05, CatchUpRate: 0.3, Seed: 21}, b)
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterSchema("trips", TableSchema{
		Table:    "trips",
		PredCols: []string{"pickupTime"},
		AggCols:  []string{"tripDistance", "fareAmount", "passengerCount"},
	}); err != nil {
		t.Fatal(err)
	}
	fresh, err := workload.Generate(workload.NYCTaxi, 2000, 1_000_000, 43)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertBatch(fresh); err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, 0, 500)
	for _, tp := range tuples[:500] {
		ids = append(ids, tp.ID)
	}
	if _, err := eng.DeleteBatch(ids); err != nil {
		t.Fatal(err)
	}
	group, err := NewShardGroup([]*Engine{eng})
	if err != nil {
		t.Fatal(err)
	}

	lo, hi := tuples[100].Key[0], tuples[9000].Key[0]
	if lo > hi {
		lo, hi = hi, lo
	}
	funcs := []Func{FuncSum, FuncCount, FuncAvg, FuncMin, FuncMax, core.FuncVariance, core.FuncStdDev}
	var reqs []Request
	for _, f := range funcs {
		for _, rect := range []Rect{{}, NewRect(Point{lo}, Point{hi})} {
			reqs = append(reqs,
				Request{Template: "trips", Query: Query{Func: f, AggIndex: -1, Rect: rect}},
				Request{Template: "trips", Query: Query{Func: f, AggIndex: -1, Rect: rect, Confidence: 0.8}},
				Request{Template: "trips", Query: Query{Func: f, AggIndex: -1, Rect: rect}, Confidence: 0.99})
		}
		reqs = append(reqs,
			Request{SQL: fmt.Sprintf("SELECT %v(tripDistance) FROM trips WHERE pickupTime BETWEEN %g AND %g", f, lo, hi)},
			Request{SQL: fmt.Sprintf("SELECT %v(fareAmount) FROM trips WITH CONFIDENCE 0.9", f)})
	}
	for _, f := range []Func{FuncSum, FuncCount, FuncAvg} {
		reqs = append(reqs,
			Request{Template: "trips", Query: Query{Func: f, AggIndex: -1}, OnKeys: []int{1}},
			Request{Template: "trips", Query: Query{Func: f, AggIndex: 1, Rect: NewRect(Point{lo, lo}, Point{hi, hi})}, OnKeys: []int{0, 1}, Confidence: 0.8})
	}

	ctx := context.Background()
	bits := math.Float64bits
	for _, req := range reqs {
		one, errOne := eng.Do(ctx, req)
		grp, errGrp := group.Do(ctx, req)
		if errOne != nil || errGrp != nil {
			// MIN/MAX of a secondary attribute is refused on both paths.
			if errOne == nil || errGrp == nil {
				t.Errorf("%+v: engine err %v, group err %v", req, errOne, errGrp)
			}
			continue
		}
		a, g := one.Result, grp.Result
		if bits(a.Estimate) != bits(g.Estimate) || bits(a.Interval.HalfWidth) != bits(g.Interval.HalfWidth) ||
			bits(a.Interval.Estimate) != bits(g.Interval.Estimate) ||
			a.Outer != g.Outer || a.Covered != g.Covered || a.Partial != g.Partial {
			t.Errorf("%+v:\n engine %+v\n group  %+v", req, a, g)
		}
		if one.Template != grp.Template || one.SampleSize != grp.SampleSize ||
			one.Population != grp.Population || one.CatchUpProgress != grp.CatchUpProgress {
			t.Errorf("%+v: metadata differs:\n engine %+v\n group  %+v", req, one, grp)
		}
	}
}

// TestOnKeysAllocsIndependentOfSampleSize pins the on-keys scan to zero
// allocations per sample: an engine holding twenty times the samples must
// answer with the same allocation count.
func TestOnKeysAllocsIndependentOfSampleSize(t *testing.T) {
	ctx := context.Background()
	measure := func(rate float64) (allocs float64, samples int) {
		b, tuples := seedBroker(t, workload.NYCTaxi, 20000)
		eng := NewEngine(Config{LeafNodes: 32, SampleRate: rate, CatchUpRate: 1.0, Seed: 21}, b)
		if err := eng.AddTemplate(taxiTemplate()); err != nil {
			t.Fatal(err)
		}
		lo, hi := tuples[100].Key[1], tuples[9000].Key[1]
		if lo > hi {
			lo, hi = hi, lo
		}
		req := Request{
			Template: "trips",
			Query:    Query{Func: FuncAvg, AggIndex: -1, Rect: NewRect(Point{lo}, Point{hi})},
			OnKeys:   []int{1},
		}
		resp, err := eng.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := eng.Do(ctx, req); err != nil {
				t.Fatal(err)
			}
		}), resp.SampleSize
	}
	small, nSmall := measure(0.05)
	large, nLarge := measure(1.0)
	if nLarge < 10*nSmall {
		t.Fatalf("sample sizes %d and %d are too close to show growth", nSmall, nLarge)
	}
	if small != large {
		t.Fatalf("on-keys Do allocates %.0f/op over %d samples but %.0f/op over %d", small, nSmall, large, nLarge)
	}
	t.Logf("on-keys Do: %.0f allocs/op at %d and at %d samples", small, nSmall, nLarge)
}
