package janus

import (
	"bytes"
	"math"
	"testing"

	"janusaqp/internal/workload"
)

func TestEngineSaveLoadTemplate(t *testing.T) {
	b, tuples := seedBroker(t, workload.NYCTaxi, 15000)
	eng := NewEngine(Config{LeafNodes: 32, SampleRate: 0.02, CatchUpRate: 0.3, Seed: 41}, b)
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveTemplate("trips", &buf); err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveTemplate("nope", &bytes.Buffer{}); err == nil {
		t.Error("saving an unknown template must error")
	}

	// A second engine over the same broker restores the synopsis without
	// re-initializing.
	eng2 := NewEngine(Config{LeafNodes: 32, SampleRate: 0.02, Seed: 41}, b)
	if err := eng2.LoadTemplate(taxiTemplate(), bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := eng2.LoadTemplate(taxiTemplate(), bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("duplicate load must error")
	}
	q := Query{Func: FuncSum, AggIndex: -1, Rect: Universe(1)}
	a, err := query(eng, "trips", q)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := query(eng2, "trips", q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Estimate-b2.Estimate) > 1e-9*(1+math.Abs(a.Estimate)) {
		t.Errorf("restored engine answers diverge: %g vs %g", a.Estimate, b2.Estimate)
	}
	// The restored engine keeps maintaining the synopsis.
	fresh, _ := workload.Generate(workload.NYCTaxi, 1000, 5_000_000, 42)
	for _, tp := range fresh {
		insert1(t, eng2, tp)
	}
	after, err := query(eng2, "trips", q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Estimate <= b2.Estimate {
		t.Error("restored engine did not absorb new inserts")
	}
	_ = tuples
}

func TestEngineLoadTemplateGarbage(t *testing.T) {
	b, _ := seedBroker(t, workload.NYCTaxi, 2000)
	eng := NewEngine(Config{Seed: 43}, b)
	if err := eng.LoadTemplate(taxiTemplate(), bytes.NewBufferString("junk")); err == nil {
		t.Error("garbage must not load")
	}
	if err := eng.LoadTemplate(Template{}, &bytes.Buffer{}); err == nil {
		t.Error("unnamed template must not load")
	}
}

func TestQuerySQL(t *testing.T) {
	b, tuples := seedBroker(t, workload.NYCTaxi, 20000)
	eng := NewEngine(Config{LeafNodes: 32, SampleRate: 0.05, CatchUpRate: 1.0, Seed: 51}, b)
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterSchema("trips", TableSchema{
		Table:    "trips",
		PredCols: []string{"pickup"},
		AggCols:  []string{"distance", "fare", "passengers"},
	}); err != nil {
		t.Fatal(err)
	}
	span := tuples[len(tuples)-1].Key[0]
	res, err := querySQL(eng, "SELECT COUNT(*) FROM trips WHERE pickup >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimate-20000) > 20000*0.02 {
		t.Errorf("SQL COUNT(*) = %g, want ~20000", res.Estimate)
	}
	res, err = querySQL(eng, "SELECT AVG(fare) FROM trips WITH CONFIDENCE 0.99")
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate <= 0 {
		t.Errorf("SQL AVG(fare) = %g", res.Estimate)
	}
	if _, err := querySQL(eng, "SELECT SUM(distance) FROM unknown"); err == nil {
		t.Error("unknown table must error")
	}
	if _, err := querySQL(eng, "SELECT NOPE(x) FROM trips"); err == nil {
		t.Error("bad SQL must error")
	}
	// Schema validation.
	if err := eng.RegisterSchema("nope", TableSchema{}); err == nil {
		t.Error("unknown template must error")
	}
	if err := eng.RegisterSchema("trips", TableSchema{Table: "t", PredCols: []string{"a", "b"}}); err == nil {
		t.Error("mismatched predicate column count must error")
	}
	_ = span
}
