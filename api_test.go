package janus

// api_test.go covers the v2 surface: the unified Do entry point (structured,
// on-keys, SQL, ctx handling, read-your-writes), the typed error taxonomy of
// the batched write paths, and batch atomicity — including under -race.

import (
	"context"
	"errors"
	"fmt"
	"janusaqp/internal/broker"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"janusaqp/internal/stats"
	"janusaqp/internal/workload"
)

func v2Engine(t *testing.T) (*Engine, []Tuple) {
	t.Helper()
	b, tuples := seedBroker(t, workload.NYCTaxi, 20000)
	eng := NewEngine(Config{LeafNodes: 32, SampleRate: 0.05, CatchUpRate: 1.0, Seed: 21}, b)
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	return eng, tuples
}

func TestDoUnifiesAllQueryKinds(t *testing.T) {
	eng, tuples := v2Engine(t)
	if err := eng.RegisterSchema("trips", TableSchema{
		Table:    "trips",
		PredCols: []string{"pickupTime"},
		AggCols:  []string{"tripDistance", "fareAmount", "passengerCount"},
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Structured, on-keys, and SQL all answer the universe COUNT; the
	// first two share the synopsis path, SQL resolves through the schema.
	structured, err := eng.Do(ctx, Request{
		Template: "trips",
		Query:    Query{Func: FuncCount, AggIndex: -1, Rect: Universe(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	onKeys, err := eng.Do(ctx, Request{
		Template: "trips",
		Query:    Query{Func: FuncCount, Rect: Universe(1)},
		OnKeys:   []int{1}, // dropoffTime: not the template's predicate dim
	})
	if err != nil {
		t.Fatal(err)
	}
	sql, err := eng.Do(ctx, Request{SQL: "SELECT COUNT(*) FROM trips"})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(len(tuples))
	for name, resp := range map[string]Response{"structured": structured, "onKeys": onKeys, "sql": sql} {
		if re := stats.RelativeError(resp.Result.Estimate, want); re > 0.05 {
			t.Errorf("%s COUNT = %g, want ~%g", name, resp.Result.Estimate, want)
		}
		if resp.Template != "trips" {
			t.Errorf("%s answered by %q, want trips", name, resp.Template)
		}
		if resp.SampleSize <= 0 || resp.Population <= 0 {
			t.Errorf("%s metadata missing: %+v", name, resp)
		}
		if resp.CatchUpProgress < 1.0 {
			t.Errorf("%s catch-up progress %g, want 1.0 at full catch-up", name, resp.CatchUpProgress)
		}
	}

	// Per-request confidence widens the interval versus the default.
	base, _ := eng.Do(ctx, Request{
		Template: "trips",
		Query:    Query{Func: FuncSum, AggIndex: -1, Rect: NewRect(Point{0}, Point{tuples[len(tuples)/2].Key[0]})},
	})
	wide, _ := eng.Do(ctx, Request{
		Template:   "trips",
		Query:      Query{Func: FuncSum, AggIndex: -1, Rect: NewRect(Point{0}, Point{tuples[len(tuples)/2].Key[0]})},
		Confidence: 0.999,
	})
	if wide.Result.Interval.HalfWidth <= base.Result.Interval.HalfWidth {
		t.Errorf("99.9%% interval ±%g not wider than default ±%g",
			wide.Result.Interval.HalfWidth, base.Result.Interval.HalfWidth)
	}
}

func TestDoHonorsContext(t *testing.T) {
	eng, _ := v2Engine(t)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Do(canceled, Request{Template: "trips", Query: Query{Func: FuncCount, Rect: Universe(1)}}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx: err = %v, want context.Canceled", err)
	}
	// A MinSyncOffset the engine has not reached must block until the
	// deadline, not answer stale data.
	ctx, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, err := eng.Do(ctx, Request{
		Template:      "trips",
		Query:         Query{Func: FuncCount, Rect: Universe(1)},
		MinSyncOffset: 1_000_000,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("unreached MinSyncOffset: err = %v, want deadline exceeded", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Error("Do returned before the deadline instead of waiting for the watermark")
	}
}

func TestDoReadYourWritesAcrossSync(t *testing.T) {
	eng, _ := v2Engine(t)
	producer := NewBroker()
	fresh, _ := workload.Generate(workload.NYCTaxi, 3000, 2_000_000, 22)
	for _, tp := range fresh {
		producer.PublishInsert(tp)
	}
	highWater := producer.Inserts.Len()

	// The follow loop races the query; MinSyncOffset must order them.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var st SyncState
		eng.Follow(ctx, producer, &st, time.Millisecond)
	}()
	qctx, qcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer qcancel()
	resp, err := eng.Do(qctx, Request{
		Template:      "trips",
		Query:         Query{Func: FuncCount, AggIndex: -1, Rect: Universe(1)},
		MinSyncOffset: highWater,
	})
	cancel()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.FollowOffsets().InsertOffset; got < highWater {
		t.Fatalf("SyncedInsertOffset = %d after Do, want >= %d", got, highWater)
	}
	want := float64(20000 + 3000)
	if re := stats.RelativeError(resp.Result.Estimate, want); re > 0.02 {
		t.Errorf("read-your-writes COUNT = %g, want ~%g", resp.Result.Estimate, want)
	}
}

func TestInsertBatchTypedErrorsAndAtomicity(t *testing.T) {
	eng, tuples := v2Engine(t)
	before, err := eng.Do(context.Background(), Request{
		Template: "trips", Query: Query{Func: FuncCount, AggIndex: -1, Rect: Universe(1)},
	})
	if err != nil {
		t.Fatal(err)
	}

	// A short-key tuple mid-batch rejects the whole batch with
	// ErrSchemaMismatch and applies none of it.
	bad := []Tuple{
		{ID: 5_000_000, Key: Point{1, 2, 3}, Vals: []float64{1, 1, 1}},
		{ID: 5_000_001, Key: Point{}, Vals: []float64{1, 1, 1}},
		{ID: 5_000_002, Key: Point{4, 5, 6}, Vals: []float64{1, 1, 1}},
	}
	if err := eng.InsertBatch(bad); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("short key: err = %v, want ErrSchemaMismatch", err)
	}
	// Short vals are as fatal as short keys: they would read as zeros.
	if err := eng.InsertBatch([]Tuple{{ID: 5_100_000, Key: Point{1, 2, 3}, Vals: []float64{1}}}); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("short vals: err = %v, want ErrSchemaMismatch", err)
	}
	// A duplicate of a live id rejects the batch.
	if err := eng.InsertBatch([]Tuple{
		{ID: 5_200_000, Key: Point{1, 2, 3}, Vals: []float64{1, 1, 1}},
		{ID: tuples[0].ID, Key: Point{1, 2, 3}, Vals: []float64{1, 1, 1}},
	}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("live duplicate: err = %v, want ErrDuplicateID", err)
	}
	// So does an id repeated within the batch itself.
	if err := eng.InsertBatch([]Tuple{
		{ID: 5_300_000, Key: Point{1, 2, 3}, Vals: []float64{1, 1, 1}},
		{ID: 5_300_000, Key: Point{4, 5, 6}, Vals: []float64{1, 1, 1}},
	}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("in-batch duplicate: err = %v, want ErrDuplicateID", err)
	}

	// Nothing from any rejected batch is visible: archive and synopsis agree.
	if _, live := eng.Broker().Archive().Get(5_000_000); live {
		t.Error("tuple from a rejected batch reached the archive")
	}
	after, err := eng.Do(context.Background(), Request{
		Template: "trips", Query: Query{Func: FuncCount, AggIndex: -1, Rect: Universe(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if after.Result.Estimate != before.Result.Estimate {
		t.Errorf("COUNT drifted %g -> %g across rejected batches", before.Result.Estimate, after.Result.Estimate)
	}

	// A valid batch still lands whole.
	good, _ := workload.Generate(workload.NYCTaxi, 500, 6_000_000, 23)
	if err := eng.InsertBatch(good); err != nil {
		t.Fatal(err)
	}
	final, _ := eng.Do(context.Background(), Request{
		Template: "trips", Query: Query{Func: FuncCount, AggIndex: -1, Rect: Universe(1)},
	})
	if re := stats.RelativeError(final.Result.Estimate, before.Result.Estimate+500); re > 1e-9 {
		t.Errorf("COUNT after valid batch = %g, want %g", final.Result.Estimate, before.Result.Estimate+500)
	}
}

// TestNonFiniteAttributesRejected: a NaN or infinite key or value would
// poison every moment it is folded into, and deleting the tuple again
// cannot undo it (NaN - NaN is NaN). Both ingest paths refuse it at
// admission: InsertBatch rejects its whole batch with ErrInvalidRequest
// naming the tuple and the attribute, and the stream path counts the
// record as rejected.
func TestNonFiniteAttributesRejected(t *testing.T) {
	sumAll := func(eng *Engine) float64 {
		t.Helper()
		resp, err := eng.Do(context.Background(), Request{
			Template: "trips", Query: Query{Func: FuncSum, AggIndex: 0, Rect: Universe(1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Result.Estimate
	}
	ok := func(id int64) Tuple { return Tuple{ID: id, Key: Point{100, 200, 300}, Vals: []float64{1, 2, 3}} }

	eng, _ := v2Engine(t)
	before := sumAll(eng)
	for i, tc := range []struct {
		attr string
		set  func(*Tuple, float64)
	}{
		{"key[0]", func(tp *Tuple, v float64) { tp.Key[0] = v }},
		{"key[2]", func(tp *Tuple, v float64) { tp.Key[2] = v }},
		{"vals[0]", func(tp *Tuple, v float64) { tp.Vals[0] = v }},
		{"vals[2]", func(tp *Tuple, v float64) { tp.Vals[2] = v }},
	} {
		for j, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			base := int64(7_000_000 + 10*(3*i+j))
			bad := ok(base + 1)
			tc.set(&bad, v)
			err := eng.InsertBatch([]Tuple{ok(base), bad, ok(base + 2)})
			if !errors.Is(err, ErrInvalidRequest) {
				t.Fatalf("%s = %g: err = %v, want ErrInvalidRequest", tc.attr, v, err)
			}
			if msg := err.Error(); !strings.Contains(msg, fmt.Sprint(base+1)) || !strings.Contains(msg, tc.attr) {
				t.Errorf("%s = %g: error %q does not name tuple %d and %s", tc.attr, v, msg, base+1, tc.attr)
			}
			for _, id := range []int64{base, base + 1, base + 2} {
				if _, live := eng.Broker().Archive().Get(id); live {
					t.Fatalf("%s = %g: tuple %d of the rejected batch reached the archive", tc.attr, v, id)
				}
			}
		}
	}
	if after := sumAll(eng); math.Float64bits(after) != math.Float64bits(before) {
		t.Fatalf("SUM moved %g -> %g across rejected batches", before, after)
	}

	// The stream path skips the record, counts it, and applies the rest.
	producer := NewBroker()
	fresh, _ := workload.Generate(workload.NYCTaxi, 20, 8_000_000, 26)
	for i, tp := range fresh {
		if i == 10 {
			poisoned := ok(8_900_000)
			poisoned.Vals[0] = math.NaN()
			producer.PublishInsert(poisoned)
		}
		producer.PublishInsert(tp)
	}
	var st SyncState
	if applied := eng.Sync(context.Background(), producer, &st); applied != len(fresh) {
		t.Errorf("Sync applied %d, want %d", applied, len(fresh))
	}
	if got := eng.Stats().StreamRejected; got != 1 {
		t.Errorf("StreamRejected = %d, want 1", got)
	}
	if got := sumAll(eng); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("SUM = %g after the stream carried a NaN value", got)
	}
}

func TestDeleteBatchReportsUnknownIDs(t *testing.T) {
	eng, tuples := v2Engine(t)
	ids := []int64{tuples[0].ID, 99_999_998, tuples[1].ID, 99_999_999, tuples[1].ID}
	n, err := eng.DeleteBatch(ids)
	if n != 2 {
		t.Fatalf("DeleteBatch removed %d, want 2", n)
	}
	if !errors.Is(err, ErrUnknownID) {
		t.Fatalf("err = %v, want ErrUnknownID", err)
	}
	var bid *BatchIDError
	if !errors.As(err, &bid) || len(bid.IDs) != 3 {
		t.Fatalf("BatchIDError = %+v, want 3 unknown ids (2 missing + 1 in-batch repeat)", bid)
	}
	// All-known batch returns a nil error.
	if _, err := eng.DeleteBatch([]int64{tuples[2].ID}); err != nil {
		t.Fatalf("all-known batch err = %v", err)
	}
}

// TestSyncSkipsMalformedRecordsWithoutPanic runs the one stream drain
// behind both Sync forms: a malformed record is skipped and counted, the
// offsets move past it, and a canceled ctx applies nothing.
func TestSyncSkipsMalformedRecordsWithoutPanic(t *testing.T) {
	type syncer interface {
		Sync(ctx context.Context, source *Broker, state *SyncState) int
		Stats() EngineStats
	}
	engine := func(t *testing.T) syncer { eng, _ := v2Engine(t); return eng }
	group := func(t *testing.T) syncer {
		tuples, err := workload.Generate(workload.NYCTaxi, 20000, 0, 42)
		if err != nil {
			t.Fatal(err)
		}
		return buildGroup(t, tuples, 2, Config{LeafNodes: 32, SampleRate: 0.05, CatchUpRate: 1.0, Seed: 21})
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name  string
		build func(*testing.T) syncer
		ctx   context.Context
	}{
		{"engine", engine, context.Background()},
		{"group", group, context.Background()},
		{"engine/canceled", engine, canceled},
		{"group/canceled", group, canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(t)
			producer := NewBroker()
			fresh, _ := workload.Generate(workload.NYCTaxi, 100, 3_000_000, 24)
			for i, tp := range fresh {
				if i == 50 {
					// A keyless record lands on the stream between valid ones.
					producer.PublishInsert(Tuple{ID: 9_000_000, Key: Point{}, Vals: []float64{1, 1, 1}})
				}
				producer.PublishInsert(tp)
			}
			producer.PublishDelete(fresh[0].ID)
			var st SyncState
			applied := s.Sync(tc.ctx, producer, &st) // must not panic
			if tc.ctx.Err() != nil {
				if applied != 0 || st != (SyncState{}) || s.Stats().StreamRejected != 0 {
					t.Fatalf("canceled Sync applied %d, state %+v, rejected %d; want 0, zero state, 0",
						applied, st, s.Stats().StreamRejected)
				}
				return
			}
			if applied != 101 {
				t.Errorf("Sync applied %d, want 101 (100 inserts, bad record skipped, 1 delete)", applied)
			}
			if got := s.Stats().StreamRejected; got != 1 {
				t.Errorf("StreamRejected = %d, want 1", got)
			}
			if want := (SyncState{InsertOffset: 101, DeleteOffset: 1}); st != want {
				t.Errorf("state = %+v, want %+v (past the bad record)", st, want)
			}
			// The stream stays consumable after the bad record.
			more, _ := workload.Generate(workload.NYCTaxi, 50, 4_000_000, 25)
			for _, tp := range more {
				producer.PublishInsert(tp)
			}
			if applied := s.Sync(tc.ctx, producer, &st); applied != 50 {
				t.Errorf("second Sync applied %d, want 50", applied)
			}
		})
	}
}

func TestStatsForDistinguishesUnknownTemplates(t *testing.T) {
	eng, _ := v2Engine(t)
	st, err := eng.StatsFor("trips")
	if err != nil {
		t.Fatal(err)
	}
	if st.SynopsisBytes <= 0 || st.SampleSize <= 0 || st.NumVals != 3 {
		t.Errorf("StatsFor = %+v, want positive footprint/sample and NumVals 3", st)
	}
	if _, err := eng.StatsFor("nope"); !errors.Is(err, ErrUnknownTemplate) {
		t.Errorf("unknown template err = %v, want ErrUnknownTemplate", err)
	}
}

func TestInsertRejectsTupleWiderThanOneLogRecord(t *testing.T) {
	// A tuple wider than one segment-log frame would be written through to
	// a durable log but could never be read back (OpenTopic caps frame
	// size), stranding every later acknowledged record — so admission
	// rejects it before any publish.
	eng, _ := v2Engine(t)
	wide := make([]float64, broker.MaxTupleAttrs)
	err := eng.InsertBatch([]Tuple{{ID: 1 << 40, Key: []float64{1, 2, 3}, Vals: wide}})
	if !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("oversized tuple err = %v, want ErrSchemaMismatch", err)
	}
}

func TestRegisterSchemaValidatesAggColsArity(t *testing.T) {
	eng, _ := v2Engine(t) // taxi synopsis tracks NumVals=3
	tooMany := TableSchema{
		Table:    "trips",
		PredCols: []string{"pickupTime"},
		AggCols:  []string{"a", "b", "c", "ghost"},
	}
	if err := eng.RegisterSchema("trips", tooMany); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("oversized AggCols err = %v, want ErrSchemaMismatch", err)
	}
	tooFew := TableSchema{
		Table:    "trips",
		PredCols: []string{"pickupTime"},
		AggCols:  []string{"a"},
	}
	if err := eng.RegisterSchema("trips", tooFew); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("undersized AggCols err = %v, want ErrSchemaMismatch", err)
	}
	if err := eng.RegisterSchema("trips", TableSchema{
		Table:    "trips",
		PredCols: []string{"pickupTime"},
		AggCols:  []string{"tripDistance", "fareAmount", "passengerCount"},
	}); err != nil {
		t.Errorf("exact AggCols err = %v, want nil", err)
	}
	// The ghost column can no longer compile to a zero-reading aggregate.
	if _, err := eng.Do(context.Background(), Request{SQL: "SELECT SUM(ghost) FROM trips"}); err == nil {
		t.Error("SUM over an unregistered column must error")
	}
}

// TestConcurrentBatchIngest drives concurrent InsertBatch/DeleteBatch/Do
// traffic; under -race it verifies the batch paths share the engine's
// locking discipline, and afterwards the archive and synopsis must agree
// exactly (atomicity held under contention).
func TestConcurrentBatchIngest(t *testing.T) {
	eng, _ := v2Engine(t)
	const workers = 6
	const perWorker = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fresh, _ := workload.Generate(workload.NYCTaxi, perWorker, int64(w+1)*10_000_000, int64(w+31))
			for lo := 0; lo < perWorker; lo += 50 {
				if err := eng.InsertBatch(fresh[lo : lo+50]); err != nil {
					t.Error(err)
					return
				}
				if _, err := eng.Do(context.Background(), Request{
					Template: "trips",
					Query:    Query{Func: FuncCount, AggIndex: -1, Rect: Universe(1)},
				}); err != nil {
					t.Error(err)
					return
				}
			}
			// Delete half of what this worker inserted, in one batch.
			ids := make([]int64, 0, perWorker/2)
			for i := 0; i < perWorker; i += 2 {
				ids = append(ids, fresh[i].ID)
			}
			if n, err := eng.DeleteBatch(ids); err != nil || n != len(ids) {
				t.Errorf("DeleteBatch = (%d, %v), want (%d, nil)", n, err, len(ids))
			}
		}(w)
	}
	wg.Wait()
	want := float64(20000 + workers*perWorker/2)
	resp, err := eng.Do(context.Background(), Request{
		Template: "trips",
		Query:    Query{Func: FuncCount, AggIndex: -1, Rect: Universe(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// CatchUpRate 1.0 means universe counts are exact.
	if re := stats.RelativeError(resp.Result.Estimate, want); re > 1e-9 {
		t.Errorf("COUNT after concurrent batches = %g, want %g", resp.Result.Estimate, want)
	}
	if rows := eng.Stats().ArchiveRows; float64(rows) != want {
		t.Errorf("ArchiveRows = %d, want %g", rows, want)
	}
}
