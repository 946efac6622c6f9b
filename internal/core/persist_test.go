package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"janusaqp/internal/geom"
	"janusaqp/internal/stats"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tuples := makeTuples(rng, 15000, 0)
	dpt, db := buildDPT(t, tuples, defaultCfg())
	dpt.CatchUpTarget(0.4)
	// Mutate a bit so deltas and heaps are non-trivial.
	fresh := makeTuples(rng, 2000, 7_000_000)
	for _, tp := range fresh {
		dpt.Insert(tp)
		db.insert(tp)
	}
	for _, tp := range tuples[:300] {
		dpt.Delete(tp)
		db.delete(tp.ID)
	}

	var buf bytes.Buffer
	if err := dpt.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Decode(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumLeaves() != dpt.NumLeaves() {
		t.Fatalf("leaves: %d restored vs %d original", restored.NumLeaves(), dpt.NumLeaves())
	}
	if restored.SampleSize() != dpt.SampleSize() {
		t.Fatalf("sample size: %d vs %d", restored.SampleSize(), dpt.SampleSize())
	}
	if restored.Population() != dpt.Population() {
		t.Fatalf("population: %d vs %d", restored.Population(), dpt.Population())
	}
	// Every query must answer identically.
	for trial := 0; trial < 100; trial++ {
		lo := rng.Float64() * 900
		rect := geom.NewRect(geom.Point{lo}, geom.Point{lo + 50 + rng.Float64()*150})
		for _, f := range []Func{FuncSum, FuncCount, FuncAvg, FuncMin, FuncMax} {
			a, errA := dpt.Answer(Query{Func: f, AggIndex: -1, Rect: rect})
			b, errB := restored.Answer(Query{Func: f, AggIndex: -1, Rect: rect})
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%v: error mismatch %v vs %v", f, errA, errB)
			}
			if errA != nil {
				continue
			}
			if math.Abs(a.Estimate-b.Estimate) > 1e-9*(1+math.Abs(a.Estimate)) {
				t.Fatalf("%v over %v: estimates diverge %g vs %g", f, rect, a.Estimate, b.Estimate)
			}
			if math.Abs(a.Interval.HalfWidth-b.Interval.HalfWidth) > 1e-9*(1+a.Interval.HalfWidth) {
				t.Fatalf("%v: intervals diverge %g vs %g", f, a.Interval.HalfWidth, b.Interval.HalfWidth)
			}
		}
	}
	// The restored synopsis keeps working under updates.
	more := makeTuples(rng, 1000, 9_000_000)
	for _, tp := range more {
		restored.Insert(tp)
		db.insert(tp)
	}
	res, err := restored.Answer(Query{Func: FuncCount, AggIndex: -1, Rect: geom.Universe(1)})
	if err != nil {
		t.Fatal(err)
	}
	if re := stats.RelativeError(res.Estimate, float64(len(db.live))); re > 0.05 {
		t.Errorf("restored synopsis COUNT error %.4f after updates", re)
	}
}

func TestEncodeDecodePreservesAnchors(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	tuples := makeTuples(rng, 10000, 0)
	dpt, _ := buildDPT(t, tuples, defaultCfg())
	dpt.CatchUpTarget(0.5)
	if err := dpt.partialRepartition(geom.Point{400}, 2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dpt.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Decode(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	rect := geom.NewRect(geom.Point{350}, geom.Point{450})
	a, _ := dpt.Answer(Query{Func: FuncSum, AggIndex: -1, Rect: rect})
	b, _ := restored.Answer(Query{Func: FuncSum, AggIndex: -1, Rect: rect})
	if math.Abs(a.Estimate-b.Estimate) > 1e-9*(1+math.Abs(a.Estimate)) {
		t.Errorf("anchored estimates diverge after round trip: %g vs %g", a.Estimate, b.Estimate)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewBufferString("not a synopsis"), nil); err == nil {
		t.Error("garbage must not decode")
	}
	var empty bytes.Buffer
	if _, err := Decode(&empty, nil); err == nil {
		t.Error("empty stream must not decode")
	}
}
