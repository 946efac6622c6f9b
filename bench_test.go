package janus_test

// bench_test.go holds one testing.B benchmark per table and figure of the
// paper's evaluation (regenerating the artifact through the experiment
// harness) plus micro-benchmarks of the core operations whose costs the
// paper reports: single-tuple insert/delete maintenance, query latency,
// and partitioning.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-artifact benchmarks print their table through b.Log on the first
// iteration, so -v (or the harness) shows the regenerated rows.

import (
	"context"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	janus "janusaqp"
	"janusaqp/internal/experiments"
	"janusaqp/internal/workload"
)

func benchOpts() experiments.Options {
	return experiments.Options{Rows: 60000, Queries: 200, Seed: 1}
}

func runExperiment(b *testing.B, fn func(experiments.Options) (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := fn(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			tbl.Fprint(io.Discard)
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (accuracy/latency over 3 datasets).
func BenchmarkTable2(b *testing.B) { runExperiment(b, experiments.RunTable2) }

// BenchmarkFigure5Throughput regenerates Figure 5 (update throughput and
// re-optimization cost).
func BenchmarkFigure5Throughput(b *testing.B) { runExperiment(b, experiments.RunFigure5) }

// BenchmarkFigure6Deletions regenerates Figure 6 (error vs deletion rate).
func BenchmarkFigure6Deletions(b *testing.B) { runExperiment(b, experiments.RunFigure6) }

// BenchmarkFigure7Catchup regenerates Figure 7 (catch-up goal sweep).
func BenchmarkFigure7Catchup(b *testing.B) { runExperiment(b, experiments.RunFigure7) }

// BenchmarkFigure8Templates regenerates Figure 8 (dynamic query templates).
func BenchmarkFigure8Templates(b *testing.B) { runExperiment(b, experiments.RunFigure8) }

// BenchmarkFigure9MultiDim regenerates Figure 9 (5-D templates).
func BenchmarkFigure9MultiDim(b *testing.B) { runExperiment(b, experiments.RunFigure9) }

// BenchmarkFigure10Repartition regenerates Figure 10 (re-partitioning vs
// static DPT under skew).
func BenchmarkFigure10Repartition(b *testing.B) { runExperiment(b, experiments.RunFigure10) }

// BenchmarkTable3Partitioning regenerates Table 3 (BS vs DP optimizers).
func BenchmarkTable3Partitioning(b *testing.B) { runExperiment(b, experiments.RunTable3) }

// BenchmarkAblationBeta sweeps the re-partitioning threshold.
func BenchmarkAblationBeta(b *testing.B) { runExperiment(b, experiments.RunAblationBeta) }

// BenchmarkAblationCatchupSeed measures pooled-sample seeding.
func BenchmarkAblationCatchupSeed(b *testing.B) { runExperiment(b, experiments.RunAblationCatchupSeed) }

// BenchmarkAblationPartialRepartition compares full vs partial rebuilds.
func BenchmarkAblationPartialRepartition(b *testing.B) {
	runExperiment(b, experiments.RunAblationPartialRepartition)
}

// --- micro-benchmarks -------------------------------------------------------

func benchEngine(b testing.TB, rows int) (*janus.Engine, []janus.Tuple) {
	b.Helper()
	tuples, err := workload.Generate(workload.NYCTaxi, rows, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	br := janus.NewBroker()
	for _, t := range tuples {
		br.PublishInsert(t)
	}
	eng := janus.NewEngine(janus.Config{LeafNodes: 128, SampleRate: 0.01, CatchUpRate: 0.10, Seed: 1}, br)
	if err := eng.AddTemplate(janus.Template{
		Name: "main", PredicateDims: []int{0}, AggIndex: 0, Agg: janus.Sum,
	}); err != nil {
		b.Fatal(err)
	}
	return eng, tuples
}

// query, insert1 and delete1 are the one-row forms of Do, InsertBatch and
// DeleteBatch the single-tuple benchmarks and the recovery tests drive.
func query(eng *janus.Engine, template string, q janus.Query) (janus.Result, error) {
	resp, err := eng.Do(context.Background(), janus.Request{Template: template, Query: q})
	return resp.Result, err
}

func insert1(t testing.TB, eng *janus.Engine, tp janus.Tuple) {
	t.Helper()
	if err := eng.InsertBatch([]janus.Tuple{tp}); err != nil {
		t.Error(err)
	}
}

func delete1(eng *janus.Engine, id int64) bool {
	n, _ := eng.DeleteBatch([]int64{id})
	return n == 1
}

// BenchmarkInsert measures single-tuple synopsis maintenance (the
// per-request cost behind Figure 5's throughput).
func BenchmarkInsert(b *testing.B) {
	eng, _ := benchEngine(b, 50000)
	fresh, _ := workload.Generate(workload.NYCTaxi, b.N, 10_000_000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insert1(b, eng, fresh[i])
	}
}

// BenchmarkInsertBatch measures batched synopsis maintenance through the
// v2 ingest path: each batch of 512 tuples pays one update-lock round trip
// and one trigger evaluation, versus one per tuple in BenchmarkInsert —
// compare tuples/sec across the two.
func BenchmarkInsertBatch(b *testing.B) {
	const batch = 512
	eng, _ := benchEngine(b, 50000)
	fresh, _ := workload.Generate(workload.NYCTaxi, b.N*batch, 10_000_000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.InsertBatch(fresh[i*batch : (i+1)*batch]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*batch)/elapsed, "tuples/sec")
	}
}

// TestInsertBatchAllocs pins BenchmarkInsertBatch's op at a small constant
// number of allocations per tuple: fresh tuples walk root-to-leaf paths
// whose MIN/MAX heaps are full, and a heap push must not allocate.
func TestInsertBatchAllocs(t *testing.T) {
	const batch, runs = 512, 4
	eng, _ := benchEngine(t, 50000)
	fresh, err := workload.Generate(workload.NYCTaxi, (runs+1)*batch, 10_000_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := eng.InsertBatch(fresh[i*batch : (i+1)*batch]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if perTuple := allocs / batch; perTuple > 2 {
		t.Fatalf("InsertBatch allocates %.2f per tuple, want at most 2", perTuple)
	}
}

// BenchmarkDelete measures single-tuple deletion maintenance.
func BenchmarkDelete(b *testing.B) {
	eng, _ := benchEngine(b, 50000)
	fresh, _ := workload.Generate(workload.NYCTaxi, b.N, 20_000_000, 3)
	for _, t := range fresh {
		insert1(b, eng, t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delete1(eng, fresh[i].ID)
	}
}

// BenchmarkQuerySum measures end-to-end query latency (Table 2's
// ms/query column for JanusAQP).
func BenchmarkQuerySum(b *testing.B) {
	eng, tuples := benchEngine(b, 50000)
	gen := workload.NewQueryGen(4, tuples, []int{0})
	queries := gen.Workload(256, janus.FuncSum)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query(eng, "main", queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryAvg measures AVG latency (two-estimator path).
func BenchmarkQueryAvg(b *testing.B) {
	eng, tuples := benchEngine(b, 50000)
	gen := workload.NewQueryGen(5, tuples, []int{0})
	queries := gen.Workload(256, janus.FuncAvg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query(eng, "main", queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReinitialize measures the full 5-step re-initialization
// (Figure 5 right, Janus line).
func BenchmarkReinitialize(b *testing.B) {
	eng, _ := benchEngine(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Reinitialize("main"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurn measures the sliding-window write path with the
// re-partitioning triggers on, over a 3-D and a 1-D template: each op is
// InsertBatch(512 fresh) + DeleteBatch(512 oldest) + PumpCatchUp, the
// engine-churn workload's op, so the update path, reservoir re-draws,
// trigger evaluation and the oracle's median searches all run.
func BenchmarkChurn(b *testing.B) {
	const rows, batch = 50000, 512
	tuples, err := workload.Generate(workload.NYCTaxi, rows, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	br := janus.NewBroker()
	br.PublishInsertBatch(tuples)
	eng := janus.NewEngine(janus.Config{
		LeafNodes: 128, SampleRate: 0.01, CatchUpRate: 0.10, AutoRepartition: true, Seed: 1,
	}, br)
	for _, tmpl := range []janus.Template{
		{Name: "trips3d", PredicateDims: []int{0, 1, 2}, AggIndex: 0, Agg: janus.Sum},
		{Name: "trips", PredicateDims: []int{0}, AggIndex: 0, Agg: janus.Sum},
	} {
		if err := eng.AddTemplate(tmpl); err != nil {
			b.Fatal(err)
		}
	}
	fresh, err := workload.Generate(workload.NYCTaxi, b.N*batch, 10_000_000, 2)
	if err != nil {
		b.Fatal(err)
	}
	window := make([]int64, 0, rows+len(fresh))
	for _, ts := range [][]janus.Tuple{tuples, fresh} {
		for _, t := range ts {
			window = append(window, t.ID)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.InsertBatch(fresh[i*batch : (i+1)*batch]); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.DeleteBatch(window[i*batch : (i+1)*batch]); err != nil {
			b.Fatal(err)
		}
		eng.PumpCatchUp()
	}
	b.StopTimer()
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(2*b.N*batch)/elapsed, "updates/s")
	}
}

// BenchmarkWindow3D measures the engine-scan3d workload's writer: a 3-D
// template over 200k NYCTaxi rows at SampleRate 0.05 with the triggers off,
// each op InsertBatch(512 fresh) + DeleteBatch(512 oldest). Fresh rows
// arrive in pickup-time order, so this is bare synopsis maintenance: the
// MIN/MAX heaps on every insert path and the oracle index's scapegoat
// rebuilds along its right spine.
func BenchmarkWindow3D(b *testing.B) {
	const rows, batch = 200_000, 512
	all, err := workload.Generate(workload.NYCTaxi, rows+b.N*batch, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	br := janus.NewBroker()
	br.PublishInsertBatch(all[:rows])
	eng := janus.NewEngine(janus.Config{LeafNodes: 128, SampleRate: 0.05, CatchUpRate: 0.10, Seed: 1}, br)
	if err := eng.AddTemplate(janus.Template{
		Name: "trips3d", PredicateDims: []int{0, 1, 2}, AggIndex: 0, Agg: janus.Sum,
	}); err != nil {
		b.Fatal(err)
	}
	window := make([]int64, len(all))
	for i, t := range all {
		window[i] = t.ID
	}
	fresh := all[rows:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.InsertBatch(fresh[i*batch : (i+1)*batch]); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.DeleteBatch(window[i*batch : (i+1)*batch]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(2*b.N*batch)/elapsed, "updates/s")
	}
}

// retainedTemplateHeap builds four templates over rows NYCTaxi rows and
// returns the heap bytes the engine retains for them: HeapAlloc after two
// collections, minus the same reading taken with only the table loaded.
func retainedTemplateHeap(tb testing.TB, rows int) uint64 {
	tb.Helper()
	tuples, err := workload.Generate(workload.NYCTaxi, rows, 0, 1)
	if err != nil {
		tb.Fatal(err)
	}
	br := janus.NewBroker()
	br.PublishInsertBatch(tuples)
	tuples = nil
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	eng := janus.NewEngine(janus.Config{LeafNodes: 128, SampleRate: 0.01, CatchUpRate: 0.10, Seed: 1}, br)
	for _, t := range []janus.Template{
		{Name: "trips", PredicateDims: []int{0}, AggIndex: 0, Agg: janus.Sum},
		{Name: "dropoffs", PredicateDims: []int{1}, AggIndex: 1, Agg: janus.Sum},
		{Name: "fares", PredicateDims: []int{2}, AggIndex: 1, Agg: janus.Avg},
		{Name: "cube", PredicateDims: []int{0, 1, 2}, AggIndex: 0, Agg: janus.Sum},
	} {
		if err := eng.AddTemplate(t); err != nil {
			tb.Fatal(err)
		}
	}
	after := heap()
	runtime.KeepAlive(eng)
	if after < before {
		return 0
	}
	return after - before
}

// TestAddTemplateRetainsNoTableCopy pins that a built synopsis keeps no
// copy of the table once catch-up has reached its goal: four templates
// over 200k rows retain O(sample), not four times the table's tuple
// headers (56 B per row each).
func TestAddTemplateRetainsNoTableCopy(t *testing.T) {
	const limit = 16 << 20
	if got := retainedTemplateHeap(t, 200_000); got >= limit {
		t.Errorf("four templates over 200k rows retain %.1f MB of heap, want < %d MB", float64(got)/(1<<20), limit>>20)
	}
}

// BenchmarkAddTemplateRetained reports the heap four templates over 200k
// NYCTaxi rows retain after their builds, per template.
func BenchmarkAddTemplateRetained(b *testing.B) {
	var retained uint64
	for i := 0; i < b.N; i++ {
		retained = retainedTemplateHeap(b, 200_000)
	}
	b.ReportMetric(float64(retained)/4, "retained-B/template")
}

// --- concurrent serving benchmarks ------------------------------------------
//
// The serving-subsystem trajectory benchmark: 8 goroutines drive a 90/10
// query/insert mix against an engine with 2 templates. The Sharded variant
// uses the engine's per-synopsis read-write locking directly; the
// GlobalLock variant funnels every call through one mutex, reproducing the
// pre-janusd locking discipline as the baseline to beat.

func benchConcurrentEngine(b *testing.B) (*janus.Engine, []janus.Tuple) {
	b.Helper()
	tuples, err := workload.Generate(workload.NYCTaxi, 50000, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	br := janus.NewBroker()
	for _, t := range tuples {
		br.PublishInsert(t)
	}
	eng := janus.NewEngine(janus.Config{LeafNodes: 128, SampleRate: 0.01, CatchUpRate: 0.10, Seed: 1}, br)
	if err := eng.AddTemplate(janus.Template{
		Name: "trips", PredicateDims: []int{0}, AggIndex: 0, Agg: janus.Sum,
	}); err != nil {
		b.Fatal(err)
	}
	if err := eng.AddTemplate(janus.Template{
		Name: "fares", PredicateDims: []int{2}, AggIndex: 1, Agg: janus.Sum,
	}); err != nil {
		b.Fatal(err)
	}
	return eng, tuples
}

func benchmarkConcurrentMixed(b *testing.B, globalLock bool) {
	eng, tuples := benchConcurrentEngine(b)
	queriesByTmpl := map[string][]janus.Query{
		"trips": workload.NewQueryGen(4, tuples, []int{0}).Workload(256, janus.FuncSum),
		"fares": workload.NewQueryGen(5, tuples, []int{2}).Workload(256, janus.FuncSum),
	}
	const workers = 8
	ops := b.N/workers + 1
	// Pre-generate each worker's insert stream with a disjoint ID range.
	freshByWorker := make([][]janus.Tuple, workers)
	for w := 0; w < workers; w++ {
		fresh, err := workload.Generate(workload.NYCTaxi, ops/10+1, int64(w+1)*100_000_000, int64(w+2))
		if err != nil {
			b.Fatal(err)
		}
		freshByWorker[w] = fresh
	}
	var gmu sync.Mutex // the single-global-mutex baseline
	var failed atomic.Bool

	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tmpl := "trips"
			if w%2 == 1 {
				tmpl = "fares"
			}
			queries := queriesByTmpl[tmpl]
			fresh := freshByWorker[w]
			inserts := 0
			for i := 0; i < ops; i++ {
				if i%10 == 9 {
					t := fresh[inserts]
					inserts++
					if globalLock {
						gmu.Lock()
						insert1(b, eng, t)
						gmu.Unlock()
					} else {
						insert1(b, eng, t)
					}
					continue
				}
				q := queries[i%len(queries)]
				var err error
				if globalLock {
					gmu.Lock()
					_, err = query(eng, tmpl, q)
					gmu.Unlock()
				} else {
					_, err = query(eng, tmpl, q)
				}
				if err != nil {
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	if failed.Load() {
		b.Fatal("query failed during concurrent mix")
	}
}

// BenchmarkConcurrentMixedSharded measures mixed 90/10 query/insert
// throughput with the sharded per-synopsis locking (2 templates, 8
// goroutines).
func BenchmarkConcurrentMixedSharded(b *testing.B) { benchmarkConcurrentMixed(b, false) }

// BenchmarkConcurrentMixedGlobalLock is the same workload with every
// engine call serialized through one mutex — the seed's locking regime.
func BenchmarkConcurrentMixedGlobalLock(b *testing.B) { benchmarkConcurrentMixed(b, true) }

// benchmarkReadsDuringReinit measures read throughput while a background
// goroutine re-initializes a synopsis in a loop — the serving-availability
// property the sharded locking buys: re-initialization only write-locks
// the synopsis for the final pointer swap, so queries keep flowing, where
// the global-mutex regime parks every query behind the full rebuild.
func benchmarkReadsDuringReinit(b *testing.B, globalLock bool) {
	eng, tuples := benchConcurrentEngine(b)
	queries := workload.NewQueryGen(4, tuples, []int{0}).Workload(256, janus.FuncSum)
	var gmu sync.Mutex
	var stop atomic.Bool
	var reinits atomic.Int64
	var wg, maint sync.WaitGroup

	maint.Add(1)
	go func() {
		defer maint.Done()
		for !stop.Load() {
			if globalLock {
				gmu.Lock()
			}
			if _, err := eng.Reinitialize("fares"); err != nil {
				b.Error(err)
			}
			if globalLock {
				gmu.Unlock()
			}
			reinits.Add(1)
		}
	}()

	const readers = 8
	ops := b.N/readers + 1
	b.ResetTimer()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				q := queries[(i+r)%len(queries)]
				if globalLock {
					gmu.Lock()
				}
				_, err := query(eng, "trips", q)
				if globalLock {
					gmu.Unlock()
				}
				if err != nil {
					b.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	b.StopTimer()
	stop.Store(true)
	maint.Wait()
	b.ReportMetric(float64(reinits.Load()), "reinits")
}

// BenchmarkReadsDuringReinitSharded: 8 readers on one template while
// another template re-initializes continuously, sharded locking.
func BenchmarkReadsDuringReinitSharded(b *testing.B) { benchmarkReadsDuringReinit(b, false) }

// BenchmarkReadsDuringReinitGlobalLock: same with the single-mutex regime.
func BenchmarkReadsDuringReinitGlobalLock(b *testing.B) { benchmarkReadsDuringReinit(b, true) }
