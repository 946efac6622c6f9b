package janus_test

// The crash-recovery harness: drive a durable, server-fronted engine the
// way a real deployment runs it — batches acknowledged over HTTP, a
// checkpoint mid-stream, more acknowledged batches — then hard-stop it
// (no graceful close, no final checkpoint: exactly what a kill -9 leaves
// on disk, since appends are written through per batch) and reopen the
// data directory. Recovery must prove two properties:
//
//  1. zero acknowledged-write loss: every row a 200 response acknowledged
//     is in the recovered archive (and every acknowledged delete stays
//     deleted);
//  2. answer fidelity: the recovered engine answers a query workload
//     byte-identically to a reference engine that processed the same
//     stream and never crashed.
//
// Byte-identity (==, not a tolerance) is achievable because the test pins
// every source of nondeterminism: fixed seeds, no background pumps, no
// auto-repartitioning, full catch-up at build, and a reservoir lower
// bound above the population so sample maintenance never consults the
// (restart-reset) random source. Under those pins, replaying the log tail
// must drive the restored synopsis through exactly the same state
// transitions the reference took live — which is the definition of a
// faithful recovery.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	janus "janusaqp"
	"janusaqp/internal/server"
	"janusaqp/internal/workload"
)

// recoveryConfig pins every determinism knob (see the file comment).
func recoveryConfig() janus.Config {
	return janus.Config{
		LeafNodes:   16,
		SampleRate:  0.02,
		MinSamples:  8192, // above the test population: sample maintenance stays deterministic
		CatchUpRate: 1.0,  // fold the whole snapshot at build: base statistics exact
		Seed:        271,
	}
}

const (
	recoveryBootRows = 3000
	recoveryBatches  = 30
	recoveryBatchLen = 40
)

// recoveryStream generates the ingest batches: fresh-id inserts plus a
// few deletions of boot rows per batch.
func recoveryStream(t testing.TB) (batches [][]janus.Tuple, deletes [][]int64) {
	t.Helper()
	fresh, err := workload.Generate(workload.NYCTaxi, recoveryBatches*recoveryBatchLen, 5_000_000, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < recoveryBatches; i++ {
		batches = append(batches, fresh[i*recoveryBatchLen:(i+1)*recoveryBatchLen])
		var del []int64
		for j := 0; j < 3; j++ {
			del = append(del, int64(i*3+j)) // boot-row ids are 0..recoveryBootRows-1
		}
		deletes = append(deletes, del)
	}
	return batches, deletes
}

func bootRecoveryEngine(t testing.TB, b *janus.Broker) *janus.Engine {
	t.Helper()
	eng := janus.NewEngine(recoveryConfig(), b)
	if err := eng.AddTemplate(janus.Template{Name: "trips", PredicateDims: []int{0}, AggIndex: 0, Agg: janus.Sum}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterSchema("trips", janus.TableSchema{
		Table:    "trips",
		PredCols: []string{"pickup"},
		AggCols:  []string{"distance", "fare", "passengers"},
	}); err != nil {
		t.Fatal(err)
	}
	return eng
}

func postRecovery(t testing.TB, url string, body any) []byte {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, out)
	}
	return out
}

func TestCrashRecoveryThroughServer(t *testing.T) {
	dir := t.TempDir()
	boot, err := workload.Generate(workload.NYCTaxi, recoveryBootRows, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	batches, deletes := recoveryStream(t)

	// --- first life: durable store, HTTP server, acknowledged batches ----
	st, err := janus.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Broker().PublishInsertBatch(boot)
	eng := bootRecoveryEngine(t, st.Broker())
	srv := server.New(eng, server.Options{
		Checkpoint: func() (janus.CheckpointInfo, error) { return st.WriteCheckpoint(eng) },
	})
	ts := httptest.NewServer(srv.Handler())

	type ingestBody struct {
		Tuples    []wireTuple `json:"tuples,omitempty"`
		DeleteIDs []int64     `json:"deleteIds,omitempty"`
	}
	send := func(i int) {
		body := ingestBody{DeleteIDs: deletes[i]}
		for _, tp := range batches[i] {
			body.Tuples = append(body.Tuples, wireTuple{ID: tp.ID, Key: tp.Key, Vals: tp.Vals})
		}
		postRecovery(t, ts.URL+"/v2/ingest", body)
	}
	half := recoveryBatches / 2
	for i := 0; i < half; i++ {
		send(i)
	}
	postRecovery(t, ts.URL+"/v2/admin/checkpoint", struct{}{})
	for i := half; i < recoveryBatches; i++ {
		send(i) // acknowledged but never checkpointed: the log tail
	}

	// --- hard stop ------------------------------------------------------
	// No final checkpoint, no engine drain: every byte on disk is what the
	// per-batch write-through already put there, exactly as a kill -9
	// would leave it. (Closing file handles flushes nothing new.)
	ts.Close()
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// --- second life: recover from the data dir -------------------------
	st2, err := janus.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recovered, info, err := st2.Recover(recoveryConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantTail := (recoveryBatches - half) * recoveryBatchLen
	if info.TailInserts != wantTail || info.TailRejected != 0 {
		t.Fatalf("tail replay: %+v, want %d inserts and no rejects", info, wantTail)
	}

	// Property 1: zero acknowledged-write loss.
	deleted := make(map[int64]bool)
	for _, del := range deletes {
		for _, id := range del {
			deleted[id] = true
		}
	}
	archive := st2.Broker().Archive()
	for _, batch := range batches {
		for _, tp := range batch {
			got, ok := archive.Get(tp.ID)
			if !ok {
				t.Fatalf("acknowledged insert %d lost in recovery", tp.ID)
			}
			if got.Key[0] != tp.Key[0] || got.Vals[0] != tp.Vals[0] {
				t.Fatalf("acknowledged insert %d corrupted: %+v vs %+v", tp.ID, got, tp)
			}
		}
	}
	for id := range deleted {
		if _, ok := archive.Get(id); ok {
			t.Fatalf("acknowledged delete %d resurrected in recovery", id)
		}
	}
	wantRows := int64(recoveryBootRows + recoveryBatches*recoveryBatchLen - len(deleted))
	if archive.Len() != wantRows {
		t.Fatalf("recovered archive has %d rows, want %d", archive.Len(), wantRows)
	}

	// --- reference engine: same stream, no crash ------------------------
	refBroker := janus.NewBroker()
	refBroker.PublishInsertBatch(boot)
	ref := bootRecoveryEngine(t, refBroker)
	for i := 0; i < recoveryBatches; i++ {
		if err := ref.InsertBatch(batches[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.DeleteBatch(deletes[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Property 2: byte-identical answers across a mixed workload.
	gen := workload.NewQueryGen(3, boot, []int{0})
	for _, fn := range []janus.Func{janus.FuncSum, janus.FuncCount, janus.FuncAvg, janus.FuncMin, janus.FuncMax} {
		for _, q := range gen.Workload(40, fn) {
			want, errW := query(ref, "trips", q)
			got, errG := query(recovered, "trips", q)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("func %v over %v: error mismatch %v vs %v", fn, q.Rect, errW, errG)
			}
			if errW != nil {
				continue
			}
			if want.Estimate != got.Estimate ||
				want.Interval.Lo() != got.Interval.Lo() ||
				want.Interval.Hi() != got.Interval.Hi() {
				t.Fatalf("func %v over %v: recovered answers %v±[%v,%v], reference %v±[%v,%v]",
					fn, q.Rect, got.Estimate, got.Interval.Lo(), got.Interval.Hi(),
					want.Estimate, want.Interval.Lo(), want.Interval.Hi())
			}
		}
	}
	// SQL keeps working on the recovered engine (the schema was restored).
	if _, err := recovered.Do(context.Background(), janus.Request{SQL: "SELECT AVG(fare) FROM trips"}); err != nil {
		t.Fatal(err)
	}
}

type wireTuple struct {
	ID   int64     `json:"id"`
	Key  []float64 `json:"key"`
	Vals []float64 `json:"vals"`
}

// TestRecoverWithoutCheckpointBootsColdOffLog covers the
// crash-before-first-checkpoint window: the log alone must rebuild the
// archive, and Recover reports ErrNoCheckpoint so the caller builds
// templates cold.
func TestRecoverWithoutCheckpointBootsColdOffLog(t *testing.T) {
	dir := t.TempDir()
	boot, err := workload.Generate(workload.NYCTaxi, 2000, 0, 23)
	if err != nil {
		t.Fatal(err)
	}
	st, err := janus.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Broker().PublishInsertBatch(boot)
	st.Broker().PublishDelete(boot[0].ID)
	st.Close() // crash before any checkpoint

	st2, err := janus.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	eng, _, err := st2.Recover(recoveryConfig())
	if !errors.Is(err, janus.ErrNoCheckpoint) {
		t.Fatalf("Recover = %v, want ErrNoCheckpoint", err)
	}
	if eng != nil {
		t.Fatal("Recover without a checkpoint must not hand back an engine")
	}
	if got := st2.Broker().Archive().Len(); got != 1999 {
		t.Fatalf("archive rebuilt to %d rows off the bare log, want 1999", got)
	}
	// Cold boot over the recovered archive works.
	eng2 := bootRecoveryEngine(t, st2.Broker())
	res, err := query(eng2, "trips", janus.Query{Func: janus.FuncCount, AggIndex: -1, Rect: janus.Universe(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 1999 {
		t.Fatalf("cold boot off the log answers COUNT %v, want 1999", res.Estimate)
	}
}

// TestRecoverRejectsCheckpointAheadOfLog covers the corruption guard: a
// checkpoint referencing offsets the durable log does not hold (log files
// lost or rolled back) must refuse to serve, not silently serve holes.
// The refusal fires at OpenStore when the roll-back is visible as a
// mid-frame cut, and at Recover as defense in depth (e.g. a clean
// frame-boundary roll-back).
func TestRecoverRejectsCheckpointAheadOfLog(t *testing.T) {
	dir := t.TempDir()
	boot, err := workload.Generate(workload.NYCTaxi, 2000, 0, 29)
	if err != nil {
		t.Fatal(err)
	}
	st, err := janus.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Broker().PublishInsertBatch(boot)
	eng := bootRecoveryEngine(t, st.Broker())
	if _, err := st.WriteCheckpoint(eng); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Lose most of the insert log behind the checkpoint's back.
	logPath := filepath.Join(dir, "inserts.log")
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	st2, err := janus.OpenStore(dir)
	if err != nil {
		return // refused at open: the mid-frame cut is visible corruption
	}
	defer st2.Close()
	if _, _, err := st2.Recover(recoveryConfig()); err == nil {
		t.Fatal("recovery over a log shorter than its checkpoint must error")
	} else if errors.Is(err, janus.ErrNoCheckpoint) {
		t.Fatalf("wrong error: %v", err)
	}
}

// TestReopenedEmptyStoreKeepsLogAppendable covers the header-only-log
// regression: a store opened and closed before its first record (an
// aborted boot, or a crash right after OpenStore) must reopen cleanly and
// keep its logs appendable — an early bug wrote a second log header on
// reattach, which the next open read as a corrupt first frame, truncating
// away every record after it.
func TestReopenedEmptyStoreKeepsLogAppendable(t *testing.T) {
	dir := t.TempDir()
	st, err := janus.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // first life: no records at all
		t.Fatal(err)
	}

	st2, err := janus.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	boot, err := workload.Generate(workload.NYCTaxi, 500, 0, 41)
	if err != nil {
		t.Fatal(err)
	}
	st2.Broker().PublishInsertBatch(boot)
	st2.Broker().PublishDelete(boot[0].ID)
	if err := st2.Sync(); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	st3, err := janus.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got := st3.Broker().Inserts.Len(); got != 500 {
		t.Fatalf("third open sees %d insert records, want 500", got)
	}
	if got := st3.Broker().Deletes.Len(); got != 1 {
		t.Fatalf("third open sees %d delete records, want 1", got)
	}
}

// TestOpenStoreRefusesHeadCorruptLog pins the truncation rule: the valid
// prefix of a reopened log must cover every record the latest checkpoint
// references. A log corrupted ahead of that point must refuse to open —
// and must not truncate, because the invalid suffix holds checkpointed
// (acknowledged, durable) records an operator could still repair. Without
// a checkpoint the same corruption just truncates: nothing durable was
// promised, and the store boots cold off the surviving prefix.
func TestOpenStoreRefusesHeadCorruptLog(t *testing.T) {
	corruptFirstFrame := func(t *testing.T, dir string) {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(dir, "inserts.log"))
		if err != nil {
			t.Fatal(err)
		}
		raw[32] ^= 0xff // inside the first frame: everything after is invalid
		if err := os.WriteFile(filepath.Join(dir, "inserts.log"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	publish := func(t *testing.T, dir string) *janus.Store {
		t.Helper()
		st, err := janus.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		boot, err := workload.Generate(workload.NYCTaxi, 500, 0, 47)
		if err != nil {
			t.Fatal(err)
		}
		st.Broker().PublishInsertBatch(boot)
		return st
	}

	// With a checkpoint referencing the records: refuse, and do not shrink.
	dir := t.TempDir()
	st := publish(t, dir)
	if _, err := st.WriteCheckpoint(janus.NewEngine(recoveryConfig(), st.Broker())); err != nil {
		t.Fatal(err)
	}
	st.Close()
	fi, err := os.Stat(filepath.Join(dir, "inserts.log"))
	if err != nil {
		t.Fatal(err)
	}
	corruptFirstFrame(t, dir)
	if _, err := janus.OpenStore(dir); err == nil {
		t.Fatal("OpenStore over a log corrupted below its checkpoint must error")
	}
	after, err := os.Stat(filepath.Join(dir, "inserts.log"))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != fi.Size() {
		t.Fatalf("refusing open must not shrink the log: %d -> %d bytes", fi.Size(), after.Size())
	}

	// Without a checkpoint: the invalid suffix truncates and the store
	// opens on the surviving (here: empty) prefix.
	dir2 := t.TempDir()
	publish(t, dir2).Close()
	corruptFirstFrame(t, dir2)
	st2, err := janus.OpenStore(dir2)
	if err != nil {
		t.Fatalf("OpenStore without a checkpoint must truncate and open: %v", err)
	}
	defer st2.Close()
	if got := st2.Broker().Inserts.Len(); got != 0 {
		t.Fatalf("truncated log reopened with %d records, want 0", got)
	}
}

// assertSameAnswers requires byte-identical answers (see the file
// comment: every nondeterminism knob is pinned) from two engines across a
// mixed workload — the fidelity bar every recovered layout must clear.
func assertSameAnswers(t *testing.T, layout string, ref, got *janus.Engine, seedTuples []janus.Tuple) {
	t.Helper()
	gen := workload.NewQueryGen(3, seedTuples, []int{0})
	for _, fn := range []janus.Func{janus.FuncSum, janus.FuncCount, janus.FuncAvg, janus.FuncMin, janus.FuncMax} {
		for _, q := range gen.Workload(25, fn) {
			want, errW := query(ref, "trips", q)
			have, errG := query(got, "trips", q)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("%s: func %v over %v: error mismatch %v vs %v", layout, fn, q.Rect, errW, errG)
			}
			if errW != nil {
				continue
			}
			if want.Estimate != have.Estimate ||
				want.Interval.Lo() != have.Interval.Lo() ||
				want.Interval.Hi() != have.Interval.Hi() {
				t.Fatalf("%s: func %v over %v: recovered answers %v±[%v,%v], reference %v±[%v,%v]",
					layout, fn, q.Rect, have.Estimate, have.Interval.Lo(), have.Interval.Hi(),
					want.Estimate, want.Interval.Lo(), want.Interval.Hi())
			}
		}
	}
}

// copyDataDir snapshots a data directory's regular files — the layout a
// hard stop at that instant would leave on disk (appends are written
// through unbuffered, so file contents are current).
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCompactionCrashDrills hard-stops the checkpoint→compact sequence at
// every interesting boundary and requires each surviving layout to
// recover with zero acknowledged-write loss and byte-identical answers:
//
//	A: checkpoint published, crash before any log rotation (full logs);
//	B: both logs rotated (the complete compacted layout — also what a
//	   crash after rename but before the directory fsync exposes once the
//	   rename has reached the directory);
//	C: crash between the two rotations — inserts.log rotated, deletes.log
//	   still full;
//	D: layout B plus stray .tmp litter from an interrupted next rotation;
//	E: compacted layout that kept serving — acknowledged post-compaction
//	   batches form the bounded tail a restart must replay from the base.
func TestCompactionCrashDrills(t *testing.T) {
	live := t.TempDir()
	boot, err := workload.Generate(workload.NYCTaxi, recoveryBootRows, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	batches, deletes := recoveryStream(t)
	half := recoveryBatches / 2

	st, err := janus.OpenStore(live)
	if err != nil {
		t.Fatal(err)
	}
	st.Broker().PublishInsertBatch(boot)
	eng := bootRecoveryEngine(t, st.Broker())
	apply := func(e *janus.Engine, lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := e.InsertBatch(batches[i]); err != nil {
				t.Fatal(err)
			}
			if _, err := e.DeleteBatch(deletes[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(eng, 0, half)
	if _, err := st.WriteCheckpoint(eng); err != nil {
		t.Fatal(err)
	}
	layoutA := copyDataDir(t, live)
	cinfo, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cinfo.InsertsDropped == 0 || cinfo.DeletesDropped == 0 || cinfo.LogBytesAfter >= cinfo.LogBytesBefore {
		t.Fatalf("compaction reclaimed nothing: %+v", cinfo)
	}
	layoutB := copyDataDir(t, live)
	// C: the compacted inserts.log next to the still-full deletes.log.
	layoutC := copyDataDir(t, live)
	rawDel, err := os.ReadFile(filepath.Join(layoutA, "deletes.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(layoutC, "deletes.log"), rawDel, 0o644); err != nil {
		t.Fatal(err)
	}
	// D: tmp litter from an interrupted follow-up checkpoint + rotation.
	layoutD := copyDataDir(t, live)
	for _, litter := range []string{"checkpoint.db.tmp", "inserts.log.tmp"} {
		if err := os.WriteFile(filepath.Join(layoutD, litter), []byte("half-written garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// E: the compacted store keeps serving acknowledged batches (the
	// bounded tail), then hard-stops.
	apply(eng, half, recoveryBatches)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	layoutE := copyDataDir(t, live)

	// References that never crashed, at both stream positions.
	refHalfBroker := janus.NewBroker()
	refHalfBroker.PublishInsertBatch(boot)
	refHalf := bootRecoveryEngine(t, refHalfBroker)
	apply(refHalf, 0, half)
	refFullBroker := janus.NewBroker()
	refFullBroker.PublishInsertBatch(boot)
	refFull := bootRecoveryEngine(t, refFullBroker)
	apply(refFull, 0, recoveryBatches)

	recoverLayout := func(name, dir string) (*janus.Engine, janus.RecoveryInfo, *janus.Store) {
		t.Helper()
		st, err := janus.OpenStore(dir)
		if err != nil {
			t.Fatalf("%s: OpenStore: %v", name, err)
		}
		e, info, err := st.Recover(recoveryConfig())
		if err != nil {
			t.Fatalf("%s: Recover: %v", name, err)
		}
		return e, info, st
	}
	for _, tc := range []struct {
		name, dir string
		batches   int // acknowledged batches the layout must reflect
		tail      int // batches recovery must replay beyond the checkpoint
		rotated   bool
	}{
		{"A: checkpoint, no rotation", layoutA, half, 0, false},
		{"B: both logs rotated", layoutB, half, 0, true},
		{"C: between rotations", layoutC, half, 0, false},
		{"D: rotated + tmp litter", layoutD, half, 0, true},
		{"E: compacted + served tail", layoutE, recoveryBatches, recoveryBatches - half, true},
	} {
		e, info, lst := recoverLayout(tc.name, tc.dir)
		if b := lst.Broker(); tc.rotated && (b.Inserts.BaseOffset() == 0 || b.Deletes.BaseOffset() == 0) {
			t.Fatalf("%s: rotated logs still start at offsets %d/%d", tc.name, b.Inserts.BaseOffset(), b.Deletes.BaseOffset())
		}
		// Exact, both topics: a compacted store replays the bounded
		// post-checkpoint tail and never the history in front of it.
		if want := tc.tail * recoveryBatchLen; info.TailInserts != want {
			t.Fatalf("%s: replayed %d tail inserts, want %d", tc.name, info.TailInserts, want)
		}
		if want := tc.tail * len(deletes[0]); info.TailDeletes != want {
			t.Fatalf("%s: replayed %d tail deletes, want %d", tc.name, info.TailDeletes, want)
		}
		// Zero acknowledged-write loss at the layout's stream position.
		archive := lst.Broker().Archive()
		for i := 0; i < tc.batches; i++ {
			for _, tp := range batches[i] {
				if _, ok := archive.Get(tp.ID); !ok {
					t.Fatalf("%s: acknowledged insert %d lost", tc.name, tp.ID)
				}
			}
			for _, id := range deletes[i] {
				if _, ok := archive.Get(id); ok {
					t.Fatalf("%s: acknowledged delete %d resurrected", tc.name, id)
				}
			}
		}
		ref := refHalf
		if tc.batches == recoveryBatches {
			ref = refFull
		}
		assertSameAnswers(t, tc.name, ref, e, boot)
		lst.Close()
	}

	// The compacted layouts actually shrank: B's data dir must be smaller
	// than A's even though both answer identically — and by everything the
	// checkpoint covers. With no tail behind the checkpoint each rotated log
	// is a bare segment header, so the directory is O(live data) however
	// much churned history the logs had accumulated (a reclaim factor that
	// decays means history is surviving compaction).
	for _, name := range []string{"inserts.log", "deletes.log"} {
		fi, err := os.Stat(filepath.Join(layoutB, name))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > 64 {
			t.Fatalf("compacted %s is %d bytes with no post-checkpoint tail, want a bare header", name, fi.Size())
		}
	}
	sum := func(dir string) int64 {
		var n int64
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
				n += fi.Size()
			}
		}
		return n
	}
	if a, b := sum(layoutA), sum(layoutB); b >= a {
		t.Fatalf("compacted layout is not smaller: %d -> %d bytes", a, b)
	}
}

// TestOpenStoreRefusesUnreadableCheckpoint is the regression test for the
// destructive-truncation gap: checkpointedOffsets used to answer 0,0 for
// a *present but unreadable* checkpoint.db, which let openLog truncate
// invalid bytes that actually held checkpointed records — destroying what
// an operator could still repair, before Recover ever validated anything.
// A store whose checkpoint exists but cannot be read must refuse to open
// and must leave every log byte in place.
func TestOpenStoreRefusesUnreadableCheckpoint(t *testing.T) {
	build := func(t *testing.T) string {
		t.Helper()
		dir := t.TempDir()
		st, err := janus.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		boot, err := workload.Generate(workload.NYCTaxi, 500, 0, 47)
		if err != nil {
			t.Fatal(err)
		}
		st.Broker().PublishInsertBatch(boot)
		if _, err := st.WriteCheckpoint(janus.NewEngine(recoveryConfig(), st.Broker())); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		// Garble the checkpoint header in place.
		f, err := os.OpenFile(filepath.Join(dir, "checkpoint.db"), os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(bytes.Repeat([]byte{0xff}, 16), 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return dir
	}

	// Corrupt mid-log frame: the invalid suffix holds checkpointed records.
	dir := build(t)
	logPath := filepath.Join(dir, "inserts.log")
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[32] ^= 0xff
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := janus.OpenStore(dir); err == nil {
		t.Fatal("OpenStore with an unreadable checkpoint must refuse, not recover against an unknown bound")
	}
	after, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("refusing open must not touch the log: %d -> %d bytes", before.Size(), after.Size())
	}

	// A merely torn tail (garbage appended past the valid prefix) must
	// also keep its bytes: with the bound unreadable, truncation cannot
	// tell a torn tail from a corrupt head, so it is deferred entirely.
	dir2 := build(t)
	logPath2 := filepath.Join(dir2, "inserts.log")
	f, err := os.OpenFile(logPath2, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn garbage tail")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before2, _ := os.Stat(logPath2)
	if _, err := janus.OpenStore(dir2); err == nil {
		t.Fatal("OpenStore with an unreadable checkpoint and a torn tail must refuse")
	}
	after2, _ := os.Stat(logPath2)
	if after2.Size() != before2.Size() {
		t.Fatalf("deferred truncation shrank the log anyway: %d -> %d bytes", before2.Size(), after2.Size())
	}
}

// TestPublishAfterCloseLatchesErrStoreClosed pins the clean-shutdown
// contract: Store.Close detaches the write-through writers under the
// topic locks, so a straggler publish latches the ErrStoreClosed sentinel
// — not the OS's "file already closed" — and a clean close with no
// stragglers latches nothing; a checkpoint after Close is refused the same
// way. Close is idempotent.
func TestPublishAfterCloseLatchesErrStoreClosed(t *testing.T) {
	dir := t.TempDir()
	st, err := janus.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	boot, err := workload.Generate(workload.NYCTaxi, 200, 0, 53)
	if err != nil {
		t.Fatal(err)
	}
	st.Broker().PublishInsertBatch(boot)
	eng := bootRecoveryEngine(t, st.Broker())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteErr(); err != nil {
		t.Fatalf("clean close latched %v", err)
	}
	// A closed store publishes nothing: a checkpoint hook that outlived a
	// store swap must not rename a stale image into the directory.
	if _, err := st.WriteCheckpoint(eng); !errors.Is(err, janus.ErrStoreClosed) {
		t.Fatalf("WriteCheckpoint after Close = %v, want ErrStoreClosed", err)
	}
	for _, name := range []string{"checkpoint.db", "checkpoint.db.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("WriteCheckpoint on a closed store left %s behind (stat: %v)", name, err)
		}
	}
	st.Broker().PublishInsert(janus.Tuple{ID: 900001, Key: janus.Point{1}, Vals: []float64{1}})
	if err := st.WriteErr(); !errors.Is(err, janus.ErrStoreClosed) {
		t.Fatalf("publish after Close latched %v, want ErrStoreClosed", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close = %v, want idempotent nil", err)
	}
}

// TestIngestRefusesAckAfterLogWriteFailure pins the acknowledgment
// contract: once the segment log stops persisting (the topic latches its
// first write-through failure), a 200 would promise durability the disk
// no longer provides, so ingest must answer 503 from the failed batch
// onward.
func TestIngestRefusesAckAfterLogWriteFailure(t *testing.T) {
	dir := t.TempDir()
	st, err := janus.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	boot, err := workload.Generate(workload.NYCTaxi, 1000, 0, 43)
	if err != nil {
		t.Fatal(err)
	}
	st.Broker().PublishInsertBatch(boot)
	eng := bootRecoveryEngine(t, st.Broker())
	srv := server.New(eng, server.Options{WriteHealth: st.WriteErr})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v2/ingest", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if got := post(`{"tuples":[{"id":900001,"key":[1,2,3],"vals":[1,2,3]}]}`); got != http.StatusOK {
		t.Fatalf("healthy ingest answered %d", got)
	}
	// Sever the log out from under the topics: every further write-through
	// fails like a full or failed disk would.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The batch that hits the failed write must itself be refused (the
	// topic latches the error during the publish), as must later batches.
	if got := post(`{"tuples":[{"id":900002,"key":[1,2,3],"vals":[1,2,3]}]}`); got != http.StatusServiceUnavailable {
		t.Fatalf("ingest after log failure answered %d, want 503", got)
	}
	if got := post(`{"deleteIds":[900001]}`); got != http.StatusServiceUnavailable {
		t.Fatalf("delete after log failure answered %d, want 503", got)
	}
}

// TestWarmRestartPreservesCatchUpProgress pins the documented durability
// contract for catch-up: a warm restart resumes serving at the saved
// progress (wider intervals, but no re-initialization cost), never at
// zero.
func TestWarmRestartPreservesCatchUpProgress(t *testing.T) {
	dir := t.TempDir()
	boot, err := workload.Generate(workload.NYCTaxi, 12000, 0, 31)
	if err != nil {
		t.Fatal(err)
	}
	st, err := janus.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Broker().PublishInsertBatch(boot)
	cfg := janus.Config{LeafNodes: 16, SampleRate: 0.01, CatchUpRate: 0.30, Seed: 37}
	eng := janus.NewEngine(cfg, st.Broker())
	if err := eng.AddTemplate(janus.Template{Name: "trips", PredicateDims: []int{0}, AggIndex: 0, Agg: janus.Sum}); err != nil {
		t.Fatal(err)
	}
	before, err := eng.StatsFor("trips")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteCheckpoint(eng); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := janus.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recovered, _, err := st2.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	after, err := recovered.StatsFor("trips")
	if err != nil {
		t.Fatal(err)
	}
	if after.CatchUpProgress != before.CatchUpProgress {
		t.Fatalf("catch-up progress across restart: %v -> %v", before.CatchUpProgress, after.CatchUpProgress)
	}
	if before.CatchUpProgress < 0.29 {
		t.Fatalf("test setup: expected ~0.30 progress, got %v", before.CatchUpProgress)
	}
}
