package janus

import (
	"bytes"
	"testing"

	"janusaqp/internal/stats"
	"janusaqp/internal/workload"
)

// TestIntegrationFullLifecycle drives one synopsis through every phase of
// its life — initialization, streaming growth, re-initialization, a
// deletion storm, partial re-partitioning, persistence, and restoration —
// checking accuracy against exact ground truth at each stage.
func TestIntegrationFullLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	tuples, err := workload.Generate(workload.NYCTaxi, 40000, 0, 71)
	if err != nil {
		t.Fatal(err)
	}
	truth := workload.NewTruth(3, []int{0}, 0)
	b := NewBroker()
	for _, tp := range tuples[:10000] {
		b.PublishInsert(tp)
		truth.Insert(tp)
	}
	eng := NewEngine(Config{
		LeafNodes: 64, SampleRate: 0.02, CatchUpRate: 0.2,
		AutoRepartition: true, PartialRepartition: true, Psi: 3,
		Beta: 3, Seed: 71,
	}, b)
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewQueryGen(72, tuples, []int{0})
	check := func(stage string, budget float64) {
		t.Helper()
		var errs []float64
		for _, q := range gen.Workload(120, FuncSum) {
			res, err := query(eng, "trips", q)
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			want := truth.Answer(q)
			if want == 0 {
				continue
			}
			errs = append(errs, stats.RelativeError(res.Estimate, want))
		}
		if med := stats.Median(errs); med > budget {
			t.Errorf("%s: median error %.3f exceeds budget %.3f", stage, med, budget)
		}
	}
	check("after init", 0.15)

	// Phase 2: streaming growth with background catch-up.
	for _, tp := range tuples[10000:30000] {
		insert1(t, eng, tp)
		truth.Insert(tp)
	}
	eng.PumpCatchUp()
	check("after growth", 0.25)

	// Phase 3: explicit re-initialization.
	if _, err := eng.Reinitialize("trips"); err != nil {
		t.Fatal(err)
	}
	check("after reinit", 0.15)

	// Phase 4: deletion storm (40% of live data, reservoir re-draws fire).
	deleted := 0
	for _, tp := range tuples[:30000] {
		if tp.ID%5 < 2 {
			if delete1(eng, tp.ID) {
				truth.Delete(tp.ID)
				deleted++
			}
		}
	}
	if deleted == 0 {
		t.Fatal("deletion storm removed nothing")
	}
	check("after deletion storm", 0.25)

	// Phase 5: persistence round trip onto a fresh engine.
	var buf bytes.Buffer
	if err := eng.SaveTemplate("trips", &buf); err != nil {
		t.Fatal(err)
	}
	eng2 := NewEngine(Config{LeafNodes: 64, SampleRate: 0.02, Seed: 71}, b)
	if err := eng2.LoadTemplate(taxiTemplate(), &buf); err != nil {
		t.Fatal(err)
	}
	// Continue streaming on the restored engine.
	for _, tp := range tuples[30000:] {
		insert1(t, eng2, tp)
		truth.Insert(tp)
	}
	var errs []float64
	for _, q := range gen.Workload(120, FuncSum) {
		res, err := query(eng2, "trips", q)
		if err != nil {
			t.Fatal(err)
		}
		want := truth.Answer(q)
		if want == 0 {
			continue
		}
		errs = append(errs, stats.RelativeError(res.Estimate, want))
	}
	if med := stats.Median(errs); med > 0.25 {
		t.Errorf("restored engine: median error %.3f", med)
	}
}

// TestQueriesDuringPartialCatchup verifies the Section 4.3 property that
// queries issued mid-catch-up are usable and improve monotonically (in
// aggregate) as catch-up progresses.
func TestQueriesDuringPartialCatchup(t *testing.T) {
	b, tuples := seedBroker(t, workload.IntelWireless, 30000)
	eng := NewEngine(Config{
		LeafNodes: 64, SampleRate: 0.01, CatchUpRate: 0.001, Seed: 73,
	}, b)
	if err := eng.AddTemplate(Template{
		Name: "light", PredicateDims: []int{0}, AggIndex: 0, Agg: Sum,
	}); err != nil {
		t.Fatal(err)
	}
	truth := workload.NewTruth(1, []int{0}, 0)
	for _, tp := range tuples {
		truth.Insert(tp)
	}
	gen := workload.NewQueryGen(74, tuples, []int{0})
	queries := gen.Workload(100, FuncSum)
	measure := func() float64 {
		var errs []float64
		for _, q := range queries {
			res, err := query(eng, "light", q)
			if err != nil {
				t.Fatal(err)
			}
			want := truth.Answer(q)
			if want == 0 {
				continue
			}
			errs = append(errs, stats.RelativeError(res.Estimate, want))
		}
		return stats.Percentile(errs, 0.95)
	}
	early := measure()
	if early > 2.0 {
		t.Errorf("queries at minimal catch-up unusable: P95 %.3f", early)
	}
	for catchUpOf(t, eng, "light") < 0.5 {
		if !eng.ForceCatchUpBatch("light", 4096) {
			break
		}
	}
	late := measure()
	if late > early*1.25 {
		t.Errorf("catch-up degraded accuracy: %.3f -> %.3f", early, late)
	}
}
