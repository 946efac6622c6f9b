package janus

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"janusaqp/internal/core"
	"janusaqp/internal/stats"
	"janusaqp/internal/workload"
)

func seedBroker(t *testing.T, dataset string, n int) (*Broker, []Tuple) {
	t.Helper()
	tuples, err := workload.Generate(dataset, n, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker()
	for _, tp := range tuples {
		b.PublishInsert(tp)
	}
	return b, tuples
}

// query answers one structured request through Do, keeping only the Result.
func query(eng *Engine, template string, q Query) (Result, error) {
	resp, err := eng.Do(context.Background(), Request{Template: template, Query: q})
	return resp.Result, err
}

// querySQL answers one SQL statement through Do.
func querySQL(eng *Engine, sql string) (Result, error) {
	resp, err := eng.Do(context.Background(), Request{SQL: sql})
	return resp.Result, err
}

// insert1 ingests one tuple; a rejection fails the test.
func insert1(t testing.TB, eng *Engine, tp Tuple) {
	t.Helper()
	if err := eng.InsertBatch([]Tuple{tp}); err != nil {
		t.Error(err)
	}
}

// delete1 removes one id, reporting whether it was live.
func delete1(eng *Engine, id int64) bool {
	n, _ := eng.DeleteBatch([]int64{id})
	return n == 1
}

// catchUpOf reads one template's catch-up progress.
func catchUpOf(t testing.TB, eng *Engine, template string) float64 {
	t.Helper()
	st, err := eng.StatsFor(template)
	if err != nil {
		t.Fatal(err)
	}
	return st.CatchUpProgress
}

func taxiTemplate() Template {
	return Template{Name: "trips", PredicateDims: []int{0}, AggIndex: 0, Agg: Sum}
}

func TestEngineEndToEnd(t *testing.T) {
	b, tuples := seedBroker(t, workload.NYCTaxi, 30000)
	eng := NewEngine(Config{LeafNodes: 32, SampleRate: 0.05, CatchUpRate: 0.3, Seed: 1}, b)
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	truth := workload.NewTruth(3, []int{0}, 0)
	for _, tp := range tuples {
		truth.Insert(tp)
	}
	gen := workload.NewQueryGen(7, tuples, []int{0})
	var errs []float64
	for _, q := range gen.Workload(200, FuncSum) {
		res, err := query(eng, "trips", q)
		if err != nil {
			t.Fatal(err)
		}
		want := truth.Answer(q)
		if want == 0 {
			continue
		}
		errs = append(errs, stats.RelativeError(res.Estimate, want))
	}
	med := stats.Median(errs)
	if med > 0.05 {
		t.Errorf("median relative error %.4f too high for 5%% sample + 30%% catch-up", med)
	}
}

func TestEngineStreamingUpdates(t *testing.T) {
	b, tuples := seedBroker(t, workload.NYCTaxi, 20000)
	eng := NewEngine(Config{LeafNodes: 16, SampleRate: 0.05, CatchUpRate: 1.0, Seed: 2}, b)
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	truth := workload.NewTruth(3, []int{0}, 0)
	for _, tp := range tuples {
		truth.Insert(tp)
	}
	// Stream new data and deletions.
	fresh, _ := workload.Generate(workload.NYCTaxi, 5000, 1_000_000, 43)
	for i, tp := range fresh {
		insert1(t, eng, tp)
		truth.Insert(tp)
		if i%4 == 0 {
			victim := tuples[i].ID
			if delete1(eng, victim) {
				truth.Delete(victim)
			}
		}
	}
	if delete1(eng, 99_999_999) {
		t.Error("delete of unknown id must fail")
	}
	// Full catch-up means universe queries stay exact through updates.
	q := Query{Func: FuncSum, AggIndex: -1, Rect: Universe(1)}
	res, err := query(eng, "trips", q)
	if err != nil {
		t.Fatal(err)
	}
	want := truth.Answer(q)
	if re := stats.RelativeError(res.Estimate, want); re > 1e-9 {
		t.Errorf("universe SUM drifted: est %g want %g (rel %g)", res.Estimate, want, re)
	}
}

func TestEngineTemplateManagement(t *testing.T) {
	b, _ := seedBroker(t, workload.NYCTaxi, 5000)
	eng := NewEngine(Config{Seed: 3, SampleRate: 0.05}, b)
	if err := eng.AddTemplate(Template{Name: "", PredicateDims: []int{0}}); err == nil {
		t.Error("empty template name must error")
	}
	if err := eng.AddTemplate(Template{Name: "x"}); err == nil {
		t.Error("template without predicate dims must error")
	}
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddTemplate(taxiTemplate()); err == nil {
		t.Error("duplicate template must error")
	}
	if _, err := query(eng, "nope", Query{Func: FuncSum, Rect: Universe(1)}); err == nil {
		t.Error("unknown template must error")
	}
	if got := eng.Templates(); len(got) != 1 || got[0] != "trips" {
		t.Errorf("Templates() = %v", got)
	}
	if st, err := eng.StatsFor("trips"); err != nil || st.SynopsisBytes <= 0 {
		t.Errorf("synopsis footprint should be positive: %+v, %v", st, err)
	}
	empty := NewBroker()
	eng2 := NewEngine(Config{}, empty)
	if err := eng2.AddTemplate(taxiTemplate()); err == nil {
		t.Error("initializing from an empty archive must error")
	}
}

func TestEngineMultipleTemplates(t *testing.T) {
	b, tuples := seedBroker(t, workload.ETFPrices, 20000)
	eng := NewEngine(Config{LeafNodes: 16, SampleRate: 0.05, CatchUpRate: 1.0, Seed: 4}, b)
	// Template 1: SUM(volume) filtered by volume (1-D, the Table 2 setup).
	if err := eng.AddTemplate(Template{Name: "byVolume", PredicateDims: []int{5}, AggIndex: 1, Agg: Sum}); err != nil {
		t.Fatal(err)
	}
	// Template 2: the 5-D template of Figure 9.
	if err := eng.AddTemplate(Template{Name: "fiveD", PredicateDims: []int{0, 1, 2, 3, 4}, AggIndex: 0, Agg: Sum}); err != nil {
		t.Fatal(err)
	}
	truth5 := workload.NewTruth(6, []int{0, 1, 2, 3, 4}, 0)
	for _, tp := range tuples {
		truth5.Insert(tp)
	}
	gen := workload.NewQueryGen(9, tuples, []int{0, 1, 2, 3, 4})
	gen.MinFrac, gen.MaxFrac = 0.4, 0.9 // multi-dim queries need volume to hit
	var errs []float64
	for _, q := range gen.Workload(300, FuncCount) {
		res, err := query(eng, "fiveD", q)
		if err != nil {
			t.Fatal(err)
		}
		want := truth5.Answer(q)
		// Correlated price attributes make most 5-D rectangles empty (the
		// paper hits the same effect, Section 6.7); score only queries with
		// real support.
		if want < 50 {
			continue
		}
		errs = append(errs, stats.RelativeError(res.Estimate, want))
	}
	if len(errs) < 15 {
		t.Fatalf("only %d informative 5-D queries", len(errs))
	}
	if med := stats.Median(errs); med > 0.25 {
		t.Errorf("5-D median relative error %.4f too high", med)
	}
}

func TestEngineReinitialize(t *testing.T) {
	b, _ := seedBroker(t, workload.NYCTaxi, 10000)
	eng := NewEngine(Config{LeafNodes: 16, SampleRate: 0.05, CatchUpRate: 0.5, Seed: 5}, b)
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	// Grow the data, then re-initialize; the new synopsis must see it all.
	fresh, _ := workload.Generate(workload.NYCTaxi, 10000, 2_000_000, 44)
	for _, tp := range fresh {
		insert1(t, eng, tp)
	}
	d, err := eng.Reinitialize("trips")
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Error("re-initialization should take measurable time")
	}
	if eng.Stats().Reinits != 1 {
		t.Errorf("Reinits = %d, want 1", eng.Stats().Reinits)
	}
	if _, err := eng.Reinitialize("nope"); err == nil {
		t.Error("unknown template must error")
	}
	res, err := query(eng, "trips", Query{Func: FuncCount, AggIndex: -1, Rect: Universe(1)})
	if err != nil {
		t.Fatal(err)
	}
	if re := stats.RelativeError(res.Estimate, 20000); re > 0.05 {
		t.Errorf("post-reinit COUNT = %g, want ~20000", res.Estimate)
	}
}

// TestEngineReinitializeEmptyArchive checks that a rebuild with nothing to
// rebuild from is reported, not counted: the old synopsis stays.
func TestEngineReinitializeEmptyArchive(t *testing.T) {
	b, tuples := seedBroker(t, workload.NYCTaxi, 2000)
	eng := NewEngine(Config{LeafNodes: 16, Seed: 6}, b)
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, len(tuples))
	for i, tp := range tuples {
		ids[i] = tp.ID
	}
	if _, err := eng.DeleteBatch(ids); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Reinitialize("trips"); err == nil {
		t.Error("Reinitialize on an empty archive must error")
	}
	if got := eng.Stats().Reinits; got != 0 {
		t.Errorf("Reinits = %d after a rebuild that never ran, want 0", got)
	}
}

func TestEngineAutoRepartitionOnSkew(t *testing.T) {
	b, _ := seedBroker(t, workload.NYCTaxi, 20000)
	eng := NewEngine(Config{
		LeafNodes: 16, SampleRate: 0.02, CatchUpRate: 0.2,
		Beta: 2, AutoRepartition: true, Seed: 7,
	}, b)
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	// Skewed insertions: all new pickups land in a narrow future window
	// with wild values, the Figure 10 scenario.
	rng := rand.New(rand.NewSource(8))
	id := int64(5_000_000)
	for i := 0; i < 30000; i++ {
		insert1(t, eng, Tuple{
			ID:   id,
			Key:  Point{1e6 + rng.Float64()*1000, 1e6 + 2000, 40000},
			Vals: []float64{rng.Float64() * 500, 1, 1},
		})
		id++
		if eng.Stats().Reinits > 0 && eng.Stats().TriggersFired > 0 {
			return // repartitioning kicked in; that is the assertion
		}
	}
	if eng.Stats().TriggersFired == 0 {
		t.Error("no trigger fired under heavy skew")
	}
	if eng.Stats().Reinits == 0 {
		t.Error("no re-partition adopted under heavy skew")
	}
}

func TestEngineConcurrentAccess(t *testing.T) {
	b, tuples := seedBroker(t, workload.NYCTaxi, 10000)
	eng := NewEngine(Config{LeafNodes: 16, SampleRate: 0.02, CatchUpRate: 0.1, Seed: 9}, b)
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			base := int64(10_000_000 + worker*100_000)
			fresh, _ := workload.Generate(workload.NYCTaxi, 500, base, int64(worker))
			for i, tp := range fresh {
				insert1(t, eng, tp)
				switch i % 3 {
				case 0:
					query(eng, "trips", Query{Func: FuncSum, AggIndex: -1, Rect: Universe(1)})
				case 1:
					delete1(eng, tuples[(worker*500+i)%len(tuples)].ID)
				case 2:
					eng.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	// The engine must still answer sanely.
	res, err := query(eng, "trips", Query{Func: FuncCount, AggIndex: -1, Rect: Universe(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate <= 0 {
		t.Errorf("post-concurrency COUNT = %g", res.Estimate)
	}
}

// TestEnginePumpCatchUp pins where catch-up happens: every synopsis build
// runs it to the configured rate before the synopsis serves, so nothing is
// left for a background pump.
func TestEnginePumpCatchUp(t *testing.T) {
	b, _ := seedBroker(t, workload.IntelWireless, 20000)
	eng := NewEngine(Config{LeafNodes: 16, SampleRate: 0.01, CatchUpRate: 0.5, Seed: 10}, b)
	if err := eng.AddTemplate(Template{Name: "light", PredicateDims: []int{0}, AggIndex: 0, Agg: Sum}); err != nil {
		t.Fatal(err)
	}
	if got := catchUpOf(t, eng, "light"); got < 0.5 {
		t.Errorf("AddTemplate left catch-up at %.3f, want >= 0.5", got)
	}
	if _, err := eng.Reinitialize("light"); err != nil {
		t.Fatal(err)
	}
	if got := catchUpOf(t, eng, "light"); got < 0.5 {
		t.Errorf("Reinitialize left catch-up at %.3f, want >= 0.5", got)
	}
}

func TestHeuristicTemplateReuse(t *testing.T) {
	// Section 5.5 second method: one tree answers other aggregation
	// functions and attributes.
	b, tuples := seedBroker(t, workload.NYCTaxi, 20000)
	eng := NewEngine(Config{LeafNodes: 32, SampleRate: 0.05, CatchUpRate: 1.0, Seed: 11}, b)
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	truthFare := workload.NewTruth(3, []int{0}, 1)
	for _, tp := range tuples {
		truthFare.Insert(tp)
	}
	gen := workload.NewQueryGen(12, tuples, []int{0})
	var errs []float64
	for _, q := range gen.Workload(100, FuncAvg) {
		q.AggIndex = 1 // fare, not the distance the tree was built for
		res, err := query(eng, "trips", q)
		if err != nil {
			t.Fatal(err)
		}
		want := truthFare.Answer(core.Query{Func: core.FuncAvg, Rect: q.Rect})
		if want == 0 {
			continue
		}
		errs = append(errs, stats.RelativeError(res.Estimate, want))
	}
	if med := stats.Median(errs); med > 0.1 {
		t.Errorf("cross-attribute AVG median error %.4f too high", med)
	}
}

func TestEnginePartialRepartitionMode(t *testing.T) {
	b, _ := seedBroker(t, workload.NYCTaxi, 15000)
	eng := NewEngine(Config{
		LeafNodes: 16, SampleRate: 0.02, CatchUpRate: 0.2,
		Beta: 2, AutoRepartition: true, PartialRepartition: true, Psi: 2,
		TriggerCooldown: 64, Seed: 81,
	}, b)
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(82))
	id := int64(7_000_000)
	for i := 0; i < 20000; i++ {
		insert1(t, eng, Tuple{
			ID:   id,
			Key:  Point{2e6 + rng.Float64()*500, 2e6 + 1000, 40000},
			Vals: []float64{rng.Float64() * 1000, 1, 1},
		})
		id++
		if eng.Stats().PartialRepartitions > 0 {
			break
		}
	}
	if eng.Stats().PartialRepartitions == 0 {
		t.Error("partial-repartition mode never rebuilt a subtree under skew")
	}
	if eng.Stats().Reinits != 0 {
		t.Errorf("partial mode performed %d full re-inits; expected subtree rebuilds only", eng.Stats().Reinits)
	}
	// The engine still answers sanely afterwards.
	res, err := query(eng, "trips", Query{Func: FuncCount, AggIndex: -1, Rect: Universe(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate <= 0 {
		t.Errorf("COUNT = %g after partial rebuilds", res.Estimate)
	}
}

// TestEngineTwoTemplatesReproducibleForFixedSeed pins the iteration order
// of the synopsis registry: templates share the engine rng (every
// re-initialization draws its pooled sample from it), so two engines with
// equal seed, the same two templates, and the same insert/delete stream
// must return identical answers. Ranging over the registry map made the
// draw order — and so every later sample — a coin flip per evaluation.
// Several rounds run in-process so map-order luck cannot pass it.
func TestEngineTwoTemplatesReproducibleForFixedSeed(t *testing.T) {
	boot, err := workload.Generate(workload.NYCTaxi, 12000, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	templates := []Template{
		{Name: "trips", PredicateDims: []int{0}, AggIndex: 0, Agg: Sum},
		{Name: "fares", PredicateDims: []int{1}, AggIndex: 1, Agg: Sum},
	}
	build := func() *Engine {
		b := NewBroker()
		b.PublishInsertBatch(boot)
		eng := NewEngine(Config{
			LeafNodes: 16, SampleRate: 0.02, CatchUpRate: 0.2,
			Beta: 2, AutoRepartition: true, TriggerCooldown: 256, Seed: 7,
		}, b)
		for _, tmpl := range templates {
			if err := eng.AddTemplate(tmpl); err != nil {
				t.Fatal(err)
			}
		}
		// Skewed in both predicate dimensions, so both templates' triggers
		// fire in the same evaluations (the Figure 10 scenario, twice).
		rng := rand.New(rand.NewSource(8))
		id := int64(5_000_000)
		for batch := 0; batch < 40; batch++ {
			ins := make([]Tuple, 256)
			for i := range ins {
				ins[i] = Tuple{
					ID:   id,
					Key:  Point{1e6 + rng.Float64()*1000, 1e6 + rng.Float64()*1000, 40000},
					Vals: []float64{rng.Float64() * 500, rng.Float64() * 90, 1},
				}
				id++
			}
			if err := eng.InsertBatch(ins); err != nil {
				t.Fatal(err)
			}
			del := make([]int64, 64)
			for i := range del {
				del[i] = boot[batch*64+i].ID
			}
			if _, err := eng.DeleteBatch(del); err != nil {
				t.Fatal(err)
			}
		}
		return eng
	}
	for round := 0; round < 6; round++ {
		a, b := build(), build()
		if a.Stats().Reinits < 2 {
			t.Fatalf("round %d: %d re-initializations; the stream must re-partition both templates to exercise the shared rng", round, a.Stats().Reinits)
		}
		for _, tmpl := range templates {
			gen := workload.NewQueryGen(3, boot, tmpl.PredicateDims)
			for _, fn := range []Func{FuncSum, FuncCount, FuncAvg} {
				for _, q := range gen.Workload(20, fn) {
					req := Request{Template: tmpl.Name, Query: q}
					ra, errA := a.Do(context.Background(), req)
					rb, errB := b.Do(context.Background(), req)
					if (errA == nil) != (errB == nil) {
						t.Fatalf("round %d: %s func %v: error mismatch %v vs %v", round, tmpl.Name, fn, errA, errB)
					}
					if ra.Result != rb.Result || ra.SampleSize != rb.SampleSize {
						t.Fatalf("round %d: %s func %v over %v: equal-seed engines disagree: %+v (m=%d) vs %+v (m=%d)",
							round, tmpl.Name, fn, q.Rect, ra.Result, ra.SampleSize, rb.Result, rb.SampleSize)
					}
				}
			}
		}
	}
}
