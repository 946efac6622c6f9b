package core

import (
	"math/rand"
	"testing"

	"janusaqp/internal/data"
	"janusaqp/internal/geom"
	"janusaqp/internal/stats"
)

func TestPartialRepartitionPreservesConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tuples := makeTuples(rng, 20000, 0)
	cfg := defaultCfg()
	cfg.K = 32
	dpt, db := buildDPT(t, tuples, cfg)
	dpt.CatchUpTarget(0.3)
	leavesBefore := dpt.NumLeaves()

	if err := dpt.partialRepartition(geom.Point{500}, 2); err != nil {
		t.Fatal(err)
	}
	if dpt.PartialRepartitions != 1 {
		t.Fatalf("PartialRepartitions = %d, want 1", dpt.PartialRepartitions)
	}
	// The leaf list must be consistent with the tree.
	walked := collectLeaves(dpt.root)
	if len(walked) != dpt.NumLeaves() {
		t.Fatalf("leaf list has %d entries, tree walk finds %d", dpt.NumLeaves(), len(walked))
	}
	t.Logf("leaves: %d before, %d after", leavesBefore, dpt.NumLeaves())
	// Strata must exactly mirror the reservoir.
	total := 0
	for _, l := range dpt.leaves {
		for _, s := range dpt.stratumTuples(l) {
			id := s.ID
			if !l.rect.Contains(s.Key) {
				t.Fatalf("stratum sample %d outside its leaf", id)
			}
			total++
		}
	}
	if total != dpt.res.Len() {
		t.Fatalf("strata hold %d samples, reservoir %d", total, dpt.res.Len())
	}
	checkFlatStrata(t, dpt, "after a partial repartition")
	// Every point must still route to exactly one leaf.
	for trial := 0; trial < 300; trial++ {
		p := geom.Point{rng.Float64() * 1200}
		hits := 0
		for _, l := range dpt.leaves {
			if l.rect.Contains(p) {
				hits++
			}
		}
		if hits != 1 {
			t.Fatalf("point %v contained in %d leaves", p, hits)
		}
	}
	// Queries remain sane after the rebuild.
	var errs []float64
	for trial := 0; trial < 80; trial++ {
		lo := rng.Float64() * 800
		rect := geom.NewRect(geom.Point{lo}, geom.Point{lo + 150})
		truth := db.truth(FuncSum, 0, rect)
		if truth == 0 {
			continue
		}
		res, err := dpt.Answer(Query{Func: FuncSum, AggIndex: -1, Rect: rect})
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, stats.RelativeError(res.Estimate, truth))
	}
	if med := stats.Median(errs); med > 0.15 {
		t.Errorf("median error %.3f after partial re-partition", med)
	}
}

func TestPartialRepartitionAnchorsScaleEstimates(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tuples := makeTuples(rng, 15000, 0)
	cfg := defaultCfg()
	cfg.K = 16
	dpt, db := buildDPT(t, tuples, cfg)
	dpt.CatchUpTarget(1.0) // exact stats before the partial rebuild

	if err := dpt.partialRepartition(geom.Point{300}, 1); err != nil {
		t.Fatal(err)
	}
	// Queries fully inside the rebuilt region rely on anchored estimates:
	// they should still land near the truth (scaled by the frozen anchor).
	var errs []float64
	for trial := 0; trial < 60; trial++ {
		lo := 250 + rng.Float64()*80
		rect := geom.NewRect(geom.Point{lo}, geom.Point{lo + 30})
		truth := db.truth(FuncSum, 0, rect)
		if truth == 0 {
			continue
		}
		res, err := dpt.Answer(Query{Func: FuncSum, AggIndex: -1, Rect: rect})
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, stats.RelativeError(res.Estimate, truth))
	}
	if len(errs) > 0 {
		if med := stats.Median(errs); med > 0.35 {
			t.Errorf("anchored region median error %.3f too high", med)
		}
	}
	// Queries elsewhere keep exact covered-node answers.
	rect := geom.NewRect(geom.Point{700}, geom.Point{1200})
	res, err := dpt.Answer(Query{Func: FuncSum, AggIndex: -1, Rect: rect})
	if err != nil {
		t.Fatal(err)
	}
	truth := db.truth(FuncSum, 0, rect)
	if re := stats.RelativeError(res.Estimate, truth); re > 0.05 {
		t.Errorf("untouched region error %.4f; partial rebuild must not disturb it", re)
	}
}

func TestPartialRepartitionSurvivesUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tuples := makeTuples(rng, 10000, 0)
	cfg := defaultCfg()
	cfg.K = 16
	dpt, db := buildDPT(t, tuples, cfg)
	dpt.CatchUpTarget(0.5)
	if err := dpt.partialRepartition(geom.Point{500}, 2); err != nil {
		t.Fatal(err)
	}
	// Insert and delete through the anchored region.
	fresh := make([]data.Tuple, 0, 2000)
	for i := 0; i < 2000; i++ {
		tp := data.Tuple{
			ID:   int64(3_000_000 + i),
			Key:  geom.Point{450 + rng.Float64()*100},
			Vals: []float64{rng.Float64() * 40, 1},
		}
		fresh = append(fresh, tp)
		dpt.Insert(tp)
		db.insert(tp)
	}
	for _, tp := range fresh[:500] {
		dpt.Delete(tp)
		db.delete(tp.ID)
	}
	rect := geom.NewRect(geom.Point{440}, geom.Point{560})
	res, err := dpt.Answer(Query{Func: FuncSum, AggIndex: -1, Rect: rect})
	if err != nil {
		t.Fatal(err)
	}
	truth := db.truth(FuncSum, 0, rect)
	if re := stats.RelativeError(res.Estimate, truth); re > 0.3 {
		t.Errorf("anchored region error %.3f after updates (est %g truth %g)", re, res.Estimate, truth)
	}
	// Catch-up must not corrupt anchored subtrees (it stops at anchors).
	dpt.CatchUp(4096)
	res2, _ := dpt.Answer(Query{Func: FuncSum, AggIndex: -1, Rect: rect})
	if stats.RelativeError(res2.Estimate, truth) > 0.3 {
		t.Error("catch-up after partial repartition corrupted anchored estimates")
	}
}

func TestRepartitionPendingLeafNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	tuples := makeTuples(rng, 3000, 0)
	dpt, _ := buildDPT(t, tuples, defaultCfg())
	if err := dpt.RepartitionPendingLeaf(2); err != nil {
		t.Fatal(err)
	}
	if dpt.PartialRepartitions != 0 {
		t.Error("no-op pending repartition should not count")
	}
}

func TestPartialRepartitionDimMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	tuples := makeTuples(rng, 2000, 0)
	dpt, _ := buildDPT(t, tuples, defaultCfg())
	if err := dpt.partialRepartition(geom.Point{1, 2}, 1); err == nil {
		t.Error("dimension mismatch must error")
	}
}

func TestPartialRepartitionAtRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	tuples := makeTuples(rng, 10000, 0)
	cfg := defaultCfg()
	cfg.K = 8
	dpt, db := buildDPT(t, tuples, cfg)
	dpt.CatchUpTarget(1.0)
	// A psi larger than the tree height clamps at the root: the whole tree
	// is rebuilt from the pooled sample, and estimates must stay scaled.
	if err := dpt.partialRepartition(geom.Point{500}, 100); err != nil {
		t.Fatal(err)
	}
	all := geom.Universe(1)
	res, err := dpt.Answer(Query{Func: FuncSum, AggIndex: -1, Rect: all})
	if err != nil {
		t.Fatal(err)
	}
	truth := db.truth(FuncSum, 0, all)
	if re := stats.RelativeError(res.Estimate, truth); re > 0.15 {
		t.Errorf("root-level partial rebuild SUM error %.3f (est %g truth %g)", re, res.Estimate, truth)
	}
	cnt, _ := dpt.Answer(Query{Func: FuncCount, AggIndex: -1, Rect: all})
	if re := stats.RelativeError(cnt.Estimate, truth*0+float64(len(db.live))); re > 0.15 {
		t.Errorf("root-level partial rebuild COUNT error %.3f", re)
	}
}
