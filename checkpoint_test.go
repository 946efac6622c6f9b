package janus

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"janusaqp/internal/workload"
)

// taxiSchema matches taxiTemplate's 1-D projection over the taxi dataset.
func taxiSchema() TableSchema {
	return TableSchema{
		Table:    "trips",
		PredCols: []string{"pickup"},
		AggCols:  []string{"distance", "fare", "passengers"},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	b, tuples := seedBroker(t, workload.NYCTaxi, 20000)
	eng := NewEngine(Config{LeafNodes: 32, SampleRate: 0.02, CatchUpRate: 0.5, Seed: 61}, b)
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddTemplate(Template{Name: "fares", PredicateDims: []int{0}, AggIndex: 1, Agg: Avg}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterSchema("trips", taxiSchema()); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	info, err := eng.Checkpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if info.Templates != 2 {
		t.Fatalf("checkpoint recorded %d templates, want 2", info.Templates)
	}
	if info.InsertOffset != int64(len(tuples)) || info.DeleteOffset != 0 {
		t.Fatalf("checkpoint offsets %d/%d, want %d/0", info.InsertOffset, info.DeleteOffset, len(tuples))
	}
	if info.Bytes != int64(buf.Len()) {
		t.Fatalf("info.Bytes = %d, wrote %d", info.Bytes, buf.Len())
	}

	// Restore over an empty broker: answers come from the synopses alone.
	restored, state, _, err := openCheckpoint(bytes.NewReader(buf.Bytes()), Config{LeafNodes: 32, Seed: 61}, NewBroker())
	if err != nil {
		t.Fatal(err)
	}
	if state.InsertOffset != info.InsertOffset || state.DeleteOffset != info.DeleteOffset {
		t.Fatalf("restore state %+v, want checkpoint offsets %+v", state, info)
	}
	if got := len(restored.Templates()); got != 2 {
		t.Fatalf("restored %d templates, want 2", got)
	}
	q := Query{Func: FuncSum, AggIndex: -1, Rect: Universe(1)}
	for _, name := range []string{"trips", "fares"} {
		want, err := query(eng, name, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := query(restored, name, q)
		if err != nil {
			t.Fatal(err)
		}
		if want.Estimate != got.Estimate || want.Interval.HalfWidth != got.Interval.HalfWidth {
			t.Fatalf("%s: restored answer %g±%g, original %g±%g",
				name, got.Estimate, got.Interval.HalfWidth, want.Estimate, want.Interval.HalfWidth)
		}
	}
	// The SQL schema rode along.
	if _, err := querySQL(restored, "SELECT AVG(fare) FROM trips"); err != nil {
		t.Fatalf("restored engine lost its schema: %v", err)
	}
	// Identical state encodes to identical bytes (template order is sorted).
	var buf2 bytes.Buffer
	if _, err := eng.Checkpoint(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-checkpointing unchanged state produced different bytes")
	}
}

func TestCheckpointRestoresCountersAndWatermark(t *testing.T) {
	b, _ := seedBroker(t, workload.NYCTaxi, 8000)
	eng := NewEngine(Config{LeafNodes: 16, SampleRate: 0.02, Seed: 3}, b)
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Reinitialize("trips"); err != nil {
		t.Fatal(err)
	}
	// Follow an external stream so the watermark is non-zero.
	source := NewBroker()
	fresh, _ := workload.Generate(workload.NYCTaxi, 100, 9_000_000, 4)
	for _, tp := range fresh {
		source.PublishInsert(tp)
	}
	source.PublishDelete(fresh[0].ID)
	var st SyncState
	eng.Sync(context.Background(), source, &st)

	var buf bytes.Buffer
	if _, err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, _, _, err := openCheckpoint(&buf, Config{LeafNodes: 16, Seed: 3}, NewBroker())
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Stats(); got.Reinits != 1 {
		t.Fatalf("restored Reinits = %d, want 1", got.Reinits)
	}
	follow := restored.FollowOffsets()
	if follow.InsertOffset != 100 || follow.DeleteOffset != 1 {
		t.Fatalf("restored follow watermark %+v, want 100/1", follow)
	}
	// Resuming Follow from the restored watermark applies nothing new.
	st2 := follow
	if n := restored.Sync(context.Background(), source, &st2); n != 0 {
		t.Fatalf("resumed Sync re-applied %d records", n)
	}
}

// TestOpenCheckpointRejectsMismatchedSchema is the regression test for the
// load-path validation gap: a checkpoint whose schema names more (or
// fewer) aggregation columns than the synopsis tracks must be rejected at
// load with ErrSchemaMismatch, exactly as RegisterSchema would reject it
// live — not registered and discovered through silently-zero SQL answers.
func TestOpenCheckpointRejectsMismatchedSchema(t *testing.T) {
	b, _ := seedBroker(t, workload.NYCTaxi, 5000)
	eng := NewEngine(Config{LeafNodes: 16, SampleRate: 0.02, Seed: 5}, b)
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	var syn bytes.Buffer
	if err := eng.SaveTemplate("trips", &syn); err != nil {
		t.Fatal(err)
	}
	forge := func(schema *TableSchema, tmpl Template) []byte {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(&checkpointHeader{Version: checkpointVersion, Templates: 1}); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(&checkpointTemplate{Template: tmpl, Schema: schema, Synopsis: syn.Bytes()}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// A stale schema with an extra aggregation column.
	bad := taxiSchema()
	bad.AggCols = append(bad.AggCols, "tips")
	_, _, _, err := openCheckpoint(bytes.NewReader(forge(&bad, taxiTemplate())), Config{Seed: 5}, NewBroker())
	if !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("stale schema loaded: err = %v, want ErrSchemaMismatch", err)
	}
	// A stale schema with a missing predicate column.
	bad = taxiSchema()
	bad.PredCols = nil
	_, _, _, err = openCheckpoint(bytes.NewReader(forge(&bad, taxiTemplate())), Config{Seed: 5}, NewBroker())
	if !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("schema without predicate columns loaded: err = %v", err)
	}
	// The valid schema still loads.
	good := taxiSchema()
	restored, _, _, err := openCheckpoint(bytes.NewReader(forge(&good, taxiTemplate())), Config{Seed: 5}, NewBroker())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := querySQL(restored, "SELECT SUM(distance) FROM trips"); err != nil {
		t.Fatal(err)
	}
}

// TestOpenCheckpointRejectsOutOfRangeTemplateOffsets pins the trust
// boundary on the per-template replay offsets: Checkpoint only ever
// writes offsets equal to the header's, so corrupt bytes that decode to
// anything else — including a lower, in-range offset, which would move
// the replay start and double-apply records into synopses that already
// reflect them — must be rejected, not served.
func TestOpenCheckpointRejectsOutOfRangeTemplateOffsets(t *testing.T) {
	b, _ := seedBroker(t, workload.NYCTaxi, 5000)
	eng := NewEngine(Config{LeafNodes: 16, SampleRate: 0.02, Seed: 11}, b)
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	var syn bytes.Buffer
	if err := eng.SaveTemplate("trips", &syn); err != nil {
		t.Fatal(err)
	}
	forge := func(sync SyncState) []byte {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		hdr := checkpointHeader{Version: checkpointVersion, Templates: 1, InsertOffset: 5000, DeleteOffset: 0}
		if err := enc.Encode(&hdr); err != nil {
			t.Fatal(err)
		}
		ct := checkpointTemplate{Template: taxiTemplate(), Sync: sync, Synopsis: syn.Bytes()}
		if err := enc.Encode(&ct); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, sync := range []SyncState{
		{InsertOffset: -5},
		{InsertOffset: 6000},
		{InsertOffset: 4000}, // lower but in range: would double-apply [4000, 5000)
		{InsertOffset: 5000, DeleteOffset: -1},
		{InsertOffset: 5000, DeleteOffset: 3},
	} {
		if _, _, _, err := openCheckpoint(bytes.NewReader(forge(sync)), Config{Seed: 11}, NewBroker()); err == nil {
			t.Fatalf("offsets %+v outside header 5000/0 loaded without error", sync)
		}
	}
	// In-range offsets still load.
	if _, _, _, err := openCheckpoint(bytes.NewReader(forge(SyncState{InsertOffset: 5000})), Config{Seed: 11}, NewBroker()); err != nil {
		t.Fatal(err)
	}
}

// TestCompactRefusesSnapshotlessCheckpoint pins the compaction anchor
// rule: a version-1 checkpoint carries no live-table snapshot, so the log
// prefix below it is the only copy of those records — Compact must refuse
// to anchor on it (dropping the prefix would be unrecoverable data loss
// returned as success) and must leave the logs untouched.
func TestCompactRefusesSnapshotlessCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tuples, err := workload.Generate(workload.NYCTaxi, 200, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	st.Broker().PublishInsertBatch(tuples)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&checkpointHeader{
		Version: 1, InsertOffset: st.Broker().Inserts.Len(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointName), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Compact(); err == nil {
		t.Fatal("Compact anchored on a snapshot-less checkpoint: the dropped prefix would exist nowhere")
	}
	if base := st.Broker().Inserts.BaseOffset(); base != 0 {
		t.Fatalf("refused compaction still moved the base to %d", base)
	}
}

// TestLoadTemplateValidatesDeclaration covers the same gap one layer down:
// LoadTemplate must reject a declaration whose shape disagrees with the
// saved synopsis instead of serving wrong-column answers.
func TestLoadTemplateValidatesDeclaration(t *testing.T) {
	b, _ := seedBroker(t, workload.NYCTaxi, 5000)
	eng := NewEngine(Config{LeafNodes: 16, SampleRate: 0.02, Seed: 7}, b)
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	var syn bytes.Buffer
	if err := eng.SaveTemplate("trips", &syn); err != nil {
		t.Fatal(err)
	}
	load := func(tmpl Template) error {
		eng2 := NewEngine(Config{Seed: 7}, b)
		return eng2.LoadTemplate(tmpl, bytes.NewReader(syn.Bytes()))
	}

	wrongAgg := taxiTemplate()
	wrongAgg.AggIndex = 2
	if err := load(wrongAgg); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("mismatched AggIndex loaded: err = %v", err)
	}
	wrongDims := taxiTemplate()
	wrongDims.PredicateDims = []int{0, 1}
	if err := load(wrongDims); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("mismatched PredicateDims loaded: err = %v", err)
	}
	wrongFocus := taxiTemplate()
	wrongFocus.Agg = Avg
	if err := load(wrongFocus); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("mismatched focus aggregate loaded: err = %v", err)
	}
	if err := load(taxiTemplate()); err != nil {
		t.Fatalf("matching declaration rejected: %v", err)
	}
}

// TestCheckpointUnderLoad races Checkpoint against concurrent batched
// ingest and queries (run it with -race): every captured image must load,
// and its COUNT answer must equal exactly the inserts its recorded offset
// covers — the point-in-time consistency the single update-lock
// acquisition promises. CatchUpRate 1 makes the base statistics exact, so
// any torn snapshot (offsets from one instant, synopsis from another)
// shows up as an integer mismatch.
func TestCheckpointUnderLoad(t *testing.T) {
	const initial = 4000
	b, _ := seedBroker(t, workload.NYCTaxi, initial)
	eng := NewEngine(Config{LeafNodes: 16, SampleRate: 0.05, CatchUpRate: 1.0, Seed: 11}, b)
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	baseOffset := b.Inserts.Len()

	const (
		writers   = 3
		batches   = 25
		batchSize = 40
	)
	type image struct {
		bytes []byte
		info  CheckpointInfo
	}
	var (
		wg     sync.WaitGroup
		images []image
		stop   = make(chan struct{})
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fresh, err := workload.Generate(workload.NYCTaxi, batches*batchSize, int64(10_000_000*(w+1)), int64(100+w))
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < batches; i++ {
				if err := eng.InsertBatch(fresh[i*batchSize : (i+1)*batchSize]); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := context.Background()
		q := Query{Func: FuncCount, AggIndex: -1, Rect: Universe(1)}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := eng.Do(ctx, Request{Template: "trips", Query: q}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 8; i++ {
		var buf bytes.Buffer
		info, err := eng.Checkpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, image{bytes: buf.Bytes(), info: info})
	}
	close(stop)
	wg.Wait()

	for i, img := range images {
		restored, state, _, err := openCheckpoint(bytes.NewReader(img.bytes), Config{Seed: 11}, NewBroker())
		if err != nil {
			t.Fatalf("image %d does not load: %v", i, err)
		}
		res, err := query(restored, "trips", Query{Func: FuncCount, AggIndex: -1, Rect: Universe(1)})
		if err != nil {
			t.Fatal(err)
		}
		want := float64(initial + (state.InsertOffset - baseOffset))
		if res.Estimate != want {
			t.Fatalf("image %d at offset %d answers COUNT %.1f, want exactly %.0f (torn snapshot)",
				i, state.InsertOffset, res.Estimate, want)
		}
	}
}
