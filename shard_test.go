package janus

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"janusaqp/internal/stats"
	"janusaqp/internal/workload"
)

// buildGroup hash-partitions tuples across k fresh brokers and returns a
// group with the taxi template registered on every shard.
func buildGroup(t *testing.T, tuples []Tuple, k int, cfg Config) *ShardGroup {
	t.Helper()
	parts := SplitByShard(tuples, k)
	engines := make([]*Engine, k)
	for i := range engines {
		b := NewBroker()
		b.PublishInsertBatch(parts[i])
		engines[i] = NewEngine(cfg.WithShardSeed(i), b)
	}
	g, err := NewShardGroup(engines)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestShardIndexDeterministicAndSpread(t *testing.T) {
	const n, k = 40000, 8
	counts := make([]int, k)
	for id := int64(0); id < n; id++ {
		i := ShardIndex(id, k)
		if i != ShardIndex(id, k) {
			t.Fatalf("ShardIndex(%d,%d) is not stable", id, k)
		}
		if i < 0 || i >= k {
			t.Fatalf("ShardIndex(%d,%d) = %d out of range", id, k, i)
		}
		counts[i]++
	}
	even := n / k
	for i, c := range counts {
		if c < even/2 || c > 2*even {
			t.Fatalf("shard %d holds %d of %d sequential ids (even share %d): hash does not spread", i, c, n, even)
		}
	}
	if got := ShardIndex(12345, 1); got != 0 {
		t.Fatalf("ShardIndex with one shard = %d, want 0", got)
	}
}

// TestShardGroupCountSumExactVsSingleEngine is the fixed-seed equivalence
// proof: with catch-up complete, a K-shard group's COUNT and SUM over a
// covering predicate equal the single-engine answers and the exact archive
// totals — before and after cross-shard inserts and deletes.
func TestShardGroupCountSumExactVsSingleEngine(t *testing.T) {
	const rows = 24000
	tuples, err := workload.Generate(workload.NYCTaxi, rows, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{LeafNodes: 32, SampleRate: 0.05, CatchUpRate: 1.0, Seed: 9}

	single := buildGroup(t, tuples, 1, cfg)
	group := buildGroup(t, tuples, 4, cfg)

	live := make(map[int64]Tuple, len(tuples))
	for _, tp := range tuples {
		live[tp.ID] = tp
	}
	exact := func(f Func) float64 {
		var sum, cnt float64
		for _, tp := range live {
			sum += tp.Val(0)
			cnt++
		}
		if f == FuncCount {
			return cnt
		}
		return sum
	}
	ctx := context.Background()
	check := func(phase string) {
		t.Helper()
		for _, f := range []Func{FuncCount, FuncSum} {
			req := Request{Template: "trips", Query: Query{Func: f, AggIndex: -1, Rect: Universe(1)}}
			one, err := single.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			many, err := group.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			truth := exact(f)
			if re := stats.RelativeError(many.Result.Estimate, truth); re > 1e-9 {
				t.Errorf("%s %v: 4-shard estimate %.6f vs exact %.6f (rel err %g)",
					phase, f, many.Result.Estimate, truth, re)
			}
			if re := stats.RelativeError(many.Result.Estimate, one.Result.Estimate); re > 1e-9 {
				t.Errorf("%s %v: 4-shard estimate %.6f vs 1-shard %.6f (rel err %g)",
					phase, f, many.Result.Estimate, one.Result.Estimate, re)
			}
		}
	}
	check("base")

	// Mutate both builds identically: fresh inserts plus a scattered delete
	// wave. Exact per-node deltas must keep covering answers exact with no
	// further catch-up.
	fresh, err := workload.Generate(workload.NYCTaxi, 3000, 5_000_000, 43)
	if err != nil {
		t.Fatal(err)
	}
	var doomed []int64
	for i := 0; i < rows; i += 3 {
		doomed = append(doomed, tuples[i].ID)
	}
	for _, eng := range []interface {
		InsertBatch([]Tuple) error
		DeleteBatch([]int64) (int, error)
	}{single, group} {
		if err := eng.InsertBatch(fresh); err != nil {
			t.Fatal(err)
		}
		if n, err := eng.DeleteBatch(doomed); err != nil || n != len(doomed) {
			t.Fatalf("DeleteBatch = %d, %v; want %d live deletions", n, err, len(doomed))
		}
	}
	for _, tp := range fresh {
		live[tp.ID] = tp
	}
	for _, id := range doomed {
		delete(live, id)
	}
	check("after updates")
}

// TestShardGroupAccuracyInsideIntervals is the statistical half of the
// equivalence test: merged AVG/SUM/COUNT estimates over arbitrary
// rectangles must keep the exact answer inside the merged confidence
// interval at the usual coverage rate, at a pinned seed.
func TestShardGroupAccuracyInsideIntervals(t *testing.T) {
	const rows = 20000
	tuples, err := workload.Generate(workload.NYCTaxi, rows, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Per-shard tuning follows the README's scaling guidance: the leaf
	// budget is split across shards (64/3 ≈ 21) and the sample rate is
	// raised so each shard's absolute sample stays useful — each shard
	// samples only its own third of the data, and keeping the 1-shard
	// leaf count with a shrunken sample would leave strata of a handful
	// of tuples each, degrading per-shard variance estimates.
	group := buildGroup(t, tuples, 3, Config{LeafNodes: 21, SampleRate: 0.1, CatchUpRate: 0.25, Seed: 83})
	truth := workload.NewTruth(1, []int{0}, 0)
	for _, tp := range tuples {
		truth.Insert(tp)
	}
	gen := workload.NewQueryGen(17, tuples, []int{0})
	ctx := context.Background()
	for _, c := range []struct {
		name           string
		fn             Func
		minCoverage    float64
		maxMedianError float64
	}{
		{"SUM", FuncSum, 0.90, 0.05},
		{"COUNT", FuncCount, 0.90, 0.05},
		{"AVG", FuncAvg, 0.90, 0.05},
	} {
		inside, total := 0, 0
		var relErrs []float64
		for _, q := range gen.Workload(400, c.fn) {
			resp, err := group.Do(ctx, Request{Template: "trips", Query: q})
			if err != nil {
				t.Fatal(err)
			}
			exact := truth.Answer(q)
			res := resp.Result
			if math.IsNaN(res.Estimate) || math.IsInf(res.Estimate, 0) {
				t.Fatalf("%s estimate for %v is %v", c.name, q.Rect, res.Estimate)
			}
			total++
			if exact >= res.Interval.Lo() && exact <= res.Interval.Hi() {
				inside++
			}
			if math.Abs(exact) > 1 {
				relErrs = append(relErrs, math.Abs(res.Estimate-exact)/math.Abs(exact))
			}
		}
		cov := float64(inside) / float64(total)
		sort.Float64s(relErrs)
		med := 0.0
		if len(relErrs) > 0 {
			med = relErrs[len(relErrs)/2]
		}
		t.Logf("%s: merged CI coverage %.3f, median rel. error %.4f", c.name, cov, med)
		if cov < c.minCoverage {
			t.Errorf("%s: merged CI coverage %.3f below %.2f — scatter-gather intervals are not honest", c.name, cov, c.minCoverage)
		}
		if med > c.maxMedianError {
			t.Errorf("%s: median relative error %.4f above %.3f", c.name, med, c.maxMedianError)
		}
	}
}

func TestShardGroupMinMaxMatchesSingleEngine(t *testing.T) {
	const rows = 16000
	tuples, err := workload.Generate(workload.NYCTaxi, rows, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{LeafNodes: 32, SampleRate: 0.05, CatchUpRate: 1.0, Seed: 5}
	single := buildGroup(t, tuples, 1, cfg)
	group := buildGroup(t, tuples, 4, cfg)
	ctx := context.Background()
	for _, f := range []Func{FuncMin, FuncMax} {
		req := Request{Template: "trips", Query: Query{Func: f, AggIndex: -1, Rect: Universe(1)}}
		one, err := single.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		many, err := group.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if many.Result.Estimate != one.Result.Estimate {
			t.Errorf("%v: 4-shard extreme %g, 1-shard %g", f, many.Result.Estimate, one.Result.Estimate)
		}
	}
}

func TestShardGroupSQLAndOnKeys(t *testing.T) {
	tuples, err := workload.Generate(workload.NYCTaxi, 12000, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	group := buildGroup(t, tuples, 2, Config{LeafNodes: 32, SampleRate: 0.05, CatchUpRate: 1.0, Seed: 3})
	if err := group.RegisterSchema("trips", TableSchema{
		Table:    "trips",
		PredCols: []string{"pickupTime"},
		AggCols:  []string{"tripDistance", "fareAmount", "passengerCount"},
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var exact float64
	for _, tp := range tuples {
		exact += tp.Val(0)
	}
	resp, err := group.Do(ctx, Request{SQL: "SELECT SUM(tripDistance) FROM trips"})
	if err != nil {
		t.Fatal(err)
	}
	if re := stats.RelativeError(resp.Result.Estimate, exact); re > 1e-9 {
		t.Errorf("SQL SUM over the universe: %g vs exact %g (rel err %g)", resp.Result.Estimate, exact, re)
	}
	if resp.Template != "trips" {
		t.Errorf("SQL resolved template %q, want trips", resp.Template)
	}
	// On-keys: uniform estimation over the pooled samples, merged across
	// shards — sanity-check the answer lands within its own interval of
	// the exact count.
	onKeys, err := group.Do(ctx, Request{
		Template: "trips",
		Query:    Query{Func: FuncCount, AggIndex: -1, Rect: Universe(1)},
		OnKeys:   []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := onKeys.Result.Estimate, float64(len(tuples)); math.Abs(got-want) > want*0.1 {
		t.Errorf("on-keys COUNT %g, want within 10%% of %g", got, want)
	}
}

func TestShardGroupDeleteBatchMergesMissingIDs(t *testing.T) {
	tuples, err := workload.Generate(workload.NYCTaxi, 8000, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	group := buildGroup(t, tuples, 4, Config{LeafNodes: 16, SampleRate: 0.05, Seed: 11})
	ids := []int64{tuples[0].ID, 9_999_991, tuples[1].ID, 9_999_990}
	n, err := group.DeleteBatch(ids)
	if n != 2 {
		t.Fatalf("DeleteBatch removed %d, want 2", n)
	}
	var missing *BatchIDError
	if !errors.As(err, &missing) {
		t.Fatalf("DeleteBatch error = %v, want *BatchIDError", err)
	}
	if !errors.Is(err, ErrUnknownID) {
		t.Fatal("BatchIDError must wrap ErrUnknownID")
	}
	want := []int64{9_999_990, 9_999_991}
	if len(missing.IDs) != 2 || missing.IDs[0] != want[0] || missing.IDs[1] != want[1] {
		t.Fatalf("missing ids = %v, want %v (sorted)", missing.IDs, want)
	}
}

func TestShardGroupDuplicateIDRejectedOnHomeShard(t *testing.T) {
	tuples, err := workload.Generate(workload.NYCTaxi, 8000, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	group := buildGroup(t, tuples, 4, Config{LeafNodes: 16, SampleRate: 0.05, Seed: 11})
	dup := []Tuple{{ID: tuples[7].ID, Key: Point{1}, Vals: []float64{1, 1, 1}}}
	if err := group.InsertBatch(dup); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("re-inserting a live id = %v, want ErrDuplicateID", err)
	}
}

// TestShardGroupParallelIngestDuringQueries is the -race exercise: parallel
// cross-shard ingest and deletes race scatter-gather queries and stats
// snapshots, and the final COUNT must land exactly on the surviving rows.
func TestShardGroupParallelIngestDuringQueries(t *testing.T) {
	const (
		rows     = 12000
		writers  = 4
		batches  = 6
		batchLen = 250
	)
	tuples, err := workload.Generate(workload.NYCTaxi, rows, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	group := buildGroup(t, tuples, 4, Config{LeafNodes: 32, SampleRate: 0.05, CatchUpRate: 1.0, Seed: 21})
	ctx := context.Background()

	var muts, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		muts.Add(1)
		go func(w int) {
			defer muts.Done()
			for b := 0; b < batches; b++ {
				start := int64(10_000_000 + w*1_000_000 + b*batchLen)
				fresh, err := workload.Generate(workload.NYCTaxi, batchLen, start, int64(100+w*10+b))
				if err != nil {
					t.Error(err)
					return
				}
				if err := group.InsertBatch(fresh); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	var doomed []int64
	for i := 0; i < 3000; i++ {
		doomed = append(doomed, tuples[i].ID)
	}
	muts.Add(1)
	go func() {
		defer muts.Done()
		for lo := 0; lo < len(doomed); lo += 500 {
			if n, err := group.DeleteBatch(doomed[lo : lo+500]); err != nil || n != 500 {
				t.Errorf("DeleteBatch = %d, %v; want 500 live deletions", n, err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := group.Do(ctx, Request{
					Template: "trips",
					Query:    Query{Func: FuncCount, AggIndex: -1, Rect: Universe(1)},
				}); err != nil {
					t.Error(err)
					return
				}
				if _, err := group.StatsFor("trips"); err != nil {
					t.Error(err)
					return
				}
				group.Stats()
			}
		}()
	}
	// Queries race the entire mutation phase; readers stop once every
	// writer and the deleter have finished.
	muts.Wait()
	close(stop)
	readers.Wait()

	want := float64(rows + writers*batches*batchLen - len(doomed))
	resp, err := group.Do(ctx, Request{
		Template: "trips",
		Query:    Query{Func: FuncCount, AggIndex: -1, Rect: Universe(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if re := stats.RelativeError(resp.Result.Estimate, want); re > 1e-9 {
		t.Fatalf("final COUNT %.3f, want exactly %.0f", resp.Result.Estimate, want)
	}
	if got := group.Stats().ArchiveRows; got != int64(want) {
		t.Fatalf("archive rows %d, want %.0f", got, want)
	}
}

// TestShardGroupFollowReadYourWrites drives the group's routed stream
// consumption: records published to an external broker land on their home
// shards, and MinSyncOffset waits on the group watermark.
func TestShardGroupFollowReadYourWrites(t *testing.T) {
	tuples, err := workload.Generate(workload.NYCTaxi, 10000, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	group := buildGroup(t, tuples, 2, Config{LeafNodes: 32, SampleRate: 0.05, CatchUpRate: 1.0, Seed: 31})

	source := NewBroker()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var followed sync.WaitGroup
	followed.Add(1)
	go func() {
		defer followed.Done()
		var state SyncState
		group.Follow(ctx, source, &state, time.Millisecond)
	}()

	fresh, err := workload.Generate(workload.NYCTaxi, 2000, 20_000_000, 44)
	if err != nil {
		t.Fatal(err)
	}
	source.PublishInsertBatch(fresh)
	offset := source.Inserts.Len()

	qctx, qcancel := context.WithTimeout(ctx, 10*time.Second)
	defer qcancel()
	resp, err := group.Do(qctx, Request{
		Template:      "trips",
		Query:         Query{Func: FuncCount, AggIndex: -1, Rect: Universe(1)},
		MinSyncOffset: offset,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(len(tuples) + len(fresh))
	if re := stats.RelativeError(resp.Result.Estimate, want); re > 1e-9 {
		t.Fatalf("read-your-writes COUNT %.3f, want exactly %.0f", resp.Result.Estimate, want)
	}
	if got := group.Stats().SyncedInsertOffset; got < offset {
		t.Fatalf("group watermark %d, want >= %d", got, offset)
	}
	cancel()
	followed.Wait()

	// A watermark the follow loop can never reach must answer ctx.Err, not
	// hang.
	shortCtx, shortCancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer shortCancel()
	_, err = group.Do(shortCtx, Request{
		Template:      "trips",
		Query:         Query{Func: FuncCount, AggIndex: -1, Rect: Universe(1)},
		MinSyncOffset: offset + 1_000_000,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unreachable watermark = %v, want DeadlineExceeded", err)
	}

	// An unknown template must fail fast, not park on the watermark it
	// could never observe.
	_, err = group.Do(context.Background(), Request{
		Template:      "nope",
		Query:         Query{Func: FuncCount, AggIndex: -1, Rect: Universe(1)},
		MinSyncOffset: offset + 1_000_000,
	})
	if !errors.Is(err, ErrUnknownTemplate) {
		t.Fatalf("unknown template with MinSyncOffset = %v, want ErrUnknownTemplate", err)
	}

	// The group advances every shard's own follow watermark in step, and a
	// group rebuilt over the same shards (the restart path: checkpoints
	// persist per-shard offsets) resumes instead of starting from zero.
	for i := 0; i < group.NumShards(); i++ {
		if got := group.Shard(i).FollowOffsets().InsertOffset; got < offset {
			t.Fatalf("shard %d follow watermark %d, want >= %d (checkpoints would lose follow progress)", i, got, offset)
		}
	}
	rebuilt, err := NewShardGroup([]*Engine{group.Shard(0), group.Shard(1)})
	if err != nil {
		t.Fatal(err)
	}
	if got := rebuilt.Stats().SyncedInsertOffset; got < offset {
		t.Fatalf("rebuilt group watermark %d, want >= %d (read-your-writes must survive a restart)", got, offset)
	}
}

func TestShardGroupStatsMergeTemplates(t *testing.T) {
	tuples, err := workload.Generate(workload.NYCTaxi, 9000, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	group := buildGroup(t, tuples, 3, Config{LeafNodes: 16, SampleRate: 0.05, Seed: 17})
	st := group.Stats()
	if st.ArchiveRows != int64(len(tuples)) {
		t.Fatalf("merged ArchiveRows = %d, want %d", st.ArchiveRows, len(tuples))
	}
	if len(st.Templates) != 1 || st.Templates[0].Name != "trips" {
		t.Fatalf("merged templates = %+v, want one entry for trips", st.Templates)
	}
	var popSum int64
	for i := 0; i < group.NumShards(); i++ {
		one, err := group.Shard(i).StatsFor("trips")
		if err != nil {
			t.Fatal(err)
		}
		popSum += one.Population
	}
	if st.Templates[0].Population != popSum {
		t.Fatalf("merged population %d, want Σ shards = %d", st.Templates[0].Population, popSum)
	}
	if _, err := group.StatsFor("nope"); !errors.Is(err, ErrUnknownTemplate) {
		t.Fatalf("StatsFor(nope) = %v, want ErrUnknownTemplate", err)
	}
}
