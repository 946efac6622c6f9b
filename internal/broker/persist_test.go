package broker

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"janusaqp/internal/data"
)

func ptup(id int64, k, v float64) data.Tuple {
	return data.Tuple{ID: id, Key: []float64{k}, Vals: []float64{v, 2 * v}}
}

func TestTopicPersistRoundTrip(t *testing.T) {
	b := New()
	var buf bytes.Buffer
	if err := b.Inserts.Persist(&buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		b.PublishInsert(ptup(int64(i), float64(i), float64(i)/3))
	}
	got, valid, err := OpenTopic(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if valid != int64(buf.Len()) {
		t.Fatalf("valid prefix %d, wrote %d bytes", valid, buf.Len())
	}
	if got.Len() != 100 {
		t.Fatalf("restored %d records, want 100", got.Len())
	}
	recs, _ := got.Poll(0, 100)
	for i, r := range recs {
		want := Record{Kind: KindInsert, Tuple: ptup(int64(i), float64(i), float64(i)/3), Seq: int64(i + 1)}
		if r.Seq != want.Seq || r.Kind != want.Kind || r.Tuple.ID != want.Tuple.ID ||
			r.Tuple.Key[0] != want.Tuple.Key[0] || r.Tuple.Vals[1] != want.Tuple.Vals[1] {
			t.Fatalf("record %d = %+v, want %+v", i, r, want)
		}
	}
}

func TestTopicPersistEmptyTupleAttrs(t *testing.T) {
	// Delete records carry only an id: nil Key and Vals must round-trip.
	var buf bytes.Buffer
	tp := &Topic{}
	if err := tp.Persist(&buf); err != nil {
		t.Fatal(err)
	}
	tp.Append(Record{Kind: KindDelete, Tuple: data.Tuple{ID: 7}, Seq: 1})
	got, _, err := OpenTopic(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := got.Poll(0, 1)
	if len(recs) != 1 || recs[0].Tuple.ID != 7 || recs[0].Tuple.Key != nil || recs[0].Tuple.Vals != nil {
		t.Fatalf("restored delete record = %+v", recs)
	}
}

func TestOpenTopicTornTail(t *testing.T) {
	var buf bytes.Buffer
	tp := &Topic{}
	if err := tp.Persist(&buf); err != nil {
		t.Fatal(err)
	}
	tp.Append(Record{Kind: KindInsert, Tuple: ptup(1, 1, 1), Seq: 1})
	tp.Append(Record{Kind: KindInsert, Tuple: ptup(2, 2, 2), Seq: 2})
	whole := buf.Len()
	tp.Append(Record{Kind: KindInsert, Tuple: ptup(3, 3, 3), Seq: 3})

	// A crash mid-append leaves a torn frame: every strict prefix of the
	// last frame must open to exactly the first two records.
	for cut := whole; cut < buf.Len(); cut++ {
		got, valid, err := OpenTopic(bytes.NewReader(buf.Bytes()[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got.Len() != 2 {
			t.Fatalf("cut %d: restored %d records, want 2", cut, got.Len())
		}
		if valid != int64(whole) {
			t.Fatalf("cut %d: valid prefix %d, want %d", cut, valid, whole)
		}
	}
}

func TestOpenTopicCorruptFrameStopsPrefix(t *testing.T) {
	var buf bytes.Buffer
	tp := &Topic{}
	if err := tp.Persist(&buf); err != nil {
		t.Fatal(err)
	}
	tp.Append(Record{Kind: KindInsert, Tuple: ptup(1, 1, 1), Seq: 1})
	one := buf.Len()
	tp.Append(Record{Kind: KindInsert, Tuple: ptup(2, 2, 2), Seq: 2})
	raw := append([]byte(nil), buf.Bytes()...)
	raw[len(raw)-1] ^= 0xff // flip a payload byte of the second frame
	got, valid, err := OpenTopic(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || valid != int64(one) {
		t.Fatalf("corrupt frame: %d records, valid %d; want 1 records, valid %d", got.Len(), valid, one)
	}
}

func TestOpenTopicBadMagic(t *testing.T) {
	if _, _, err := OpenTopic(bytes.NewReader([]byte("definitely not a log"))); err == nil {
		t.Fatal("bad magic must error")
	}
	// A file shorter than the magic is a crash during the first write, not
	// corruption: it opens empty with a zero valid prefix.
	got, valid, err := OpenTopic(bytes.NewReader([]byte("JAN")))
	if err != nil || got.Len() != 0 || valid != 0 {
		t.Fatalf("short header: %v, %d records, valid %d", err, got.Len(), valid)
	}
}

func TestTopicReattachAfterOpenDoesNotRewrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "inserts.log")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	tp := &Topic{}
	if err := tp.Persist(f); err != nil {
		t.Fatal(err)
	}
	tp.Append(Record{Kind: KindInsert, Tuple: ptup(1, 1, 1), Seq: 1})
	if err := tp.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Reopen, restore, append one more through the same file.
	f2, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	tp2, valid, err := OpenTopic(f2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Seek(valid, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp2.Persist(f2); err != nil {
		t.Fatal(err)
	}
	tp2.Append(Record{Kind: KindInsert, Tuple: ptup(2, 2, 2), Seq: 2})
	if err := tp2.Sync(); err != nil {
		t.Fatal(err)
	}

	tp3, _, err := openLogFile(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if tp3.Len() != 2 {
		t.Fatalf("after reattach+append the log holds %d records, want 2", tp3.Len())
	}
}

func TestTopicReattachHeaderOnlyLog(t *testing.T) {
	// A store that crashes before its first record leaves a header-only
	// log. Reattaching must not write a second header: the duplicate would
	// read back as a corrupt first frame and recovery would discard every
	// record appended after it.
	dir := t.TempDir()
	path := filepath.Join(dir, "inserts.log")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	tp := &Topic{}
	if err := tp.Persist(f); err != nil { // writes only the header
		t.Fatal(err)
	}
	f.Close()

	f2, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	tp2, valid, err := OpenTopic(f2)
	if err != nil {
		t.Fatal(err)
	}
	if tp2.Len() != 0 || valid != int64(len(logMagic)) {
		t.Fatalf("header-only log opened to %d records, valid %d", tp2.Len(), valid)
	}
	if _, err := f2.Seek(valid, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp2.Persist(f2); err != nil {
		t.Fatal(err)
	}
	tp2.Append(Record{Kind: KindInsert, Tuple: ptup(1, 1, 1), Seq: 1})
	if err := tp2.Sync(); err != nil {
		t.Fatal(err)
	}
	f2.Close()

	tp3, valid3, err := openLogFile(t, path)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if tp3.Len() != 1 || valid3 != fi.Size() {
		t.Fatalf("after header-only reattach the log holds %d records with %d/%d valid bytes, want 1 record, all valid",
			tp3.Len(), valid3, fi.Size())
	}
}

// chunkRecorder records the size of every Write so tests can assert the
// write-through chunking bound.
type chunkRecorder struct {
	buf   bytes.Buffer
	sizes []int
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.sizes = append(c.sizes, len(p))
	return c.buf.Write(p)
}

func TestWriteThroughChunksLargeBatches(t *testing.T) {
	// Recovery's torn-tail bound assumes a crashed writer leaves at most
	// one partial write of at most MaxTornBytes behind; a batch bigger
	// than that must therefore reach the log as multiple bounded writes.
	var w chunkRecorder
	tp := &Topic{}
	if err := tp.Persist(&w); err != nil {
		t.Fatal(err)
	}
	wide := make([]float64, 1<<17) // ~1 MiB of vals per record
	recs := make([]Record, 12)     // ~12 MiB batch, well past MaxTornBytes
	for i := range recs {
		recs[i] = Record{Kind: KindInsert, Tuple: data.Tuple{ID: int64(i + 1), Vals: wide}, Seq: int64(i + 1)}
	}
	tp.AppendBatch(recs)
	if err := tp.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(w.sizes) < 3 { // magic + at least two chunks
		t.Fatalf("a 12 MiB batch reached the log in %d writes, want chunking", len(w.sizes))
	}
	for i, n := range w.sizes {
		if n > MaxTornBytes {
			t.Fatalf("write %d spans %d bytes, over the %d torn-tail bound", i, n, MaxTornBytes)
		}
	}
	got, valid, err := OpenTopic(bytes.NewReader(w.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 12 || valid != int64(w.buf.Len()) {
		t.Fatalf("chunked log restored %d records with %d/%d valid bytes", got.Len(), valid, w.buf.Len())
	}
}

// TestCompactToRoundTrip pins the rotation contract: records below the
// base vanish from memory and disk, published offsets stay stable,
// appends keep flowing through the new segment, and a reopen restores the
// same base and records.
func TestCompactToRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "inserts.log")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	tp := &Topic{}
	if err := tp.Persist(f); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		tp.Append(Record{Kind: KindInsert, Tuple: ptup(int64(i), float64(i), 1), Seq: int64(i)})
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	nf, stats, err := tp.CompactTo(7, path)
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Close()
	if stats.Dropped != 7 {
		t.Fatalf("compaction dropped %d records, want 7", stats.Dropped)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the log: %d -> %d bytes", before.Size(), after.Size())
	}
	if tp.Len() != 10 || tp.BaseOffset() != 7 {
		t.Fatalf("after compaction Len=%d base=%d, want 10/7", tp.Len(), tp.BaseOffset())
	}
	// Polling below the base clamps to it; offsets above are untouched.
	recs, next := tp.Poll(0, 100)
	if len(recs) != 3 || recs[0].Tuple.ID != 8 || next != 10 {
		t.Fatalf("Poll(0) after compaction: %d records starting at id %d, next %d", len(recs), recs[0].Tuple.ID, next)
	}
	// Appends continue with stable offsets, written through to the new file.
	if off := tp.Append(Record{Kind: KindInsert, Tuple: ptup(11, 11, 1), Seq: 11}); off != 10 {
		t.Fatalf("post-compaction append at offset %d, want 10", off)
	}
	if err := tp.Sync(); err != nil {
		t.Fatal(err)
	}

	tp2, valid, err := openLogFile(t, path)
	if err != nil {
		t.Fatal(err)
	}
	fi, _ := os.Stat(path)
	if valid != fi.Size() {
		t.Fatalf("reopened compacted log valid to %d of %d bytes", valid, fi.Size())
	}
	if tp2.Len() != 11 || tp2.BaseOffset() != 7 {
		t.Fatalf("reopened compacted log Len=%d base=%d, want 11/7", tp2.Len(), tp2.BaseOffset())
	}
	recs, _ = tp2.Poll(7, 10)
	if len(recs) != 4 || recs[0].Tuple.ID != 8 || recs[3].Tuple.ID != 11 {
		t.Fatalf("reopened compacted records: %+v", recs)
	}

	// A second compaction at or below the base is a no-op.
	if nf2, stats2, err := tp2.CompactTo(7, path); err != nil || nf2 != nil || stats2.Dropped != 0 {
		t.Fatalf("re-compaction at the base: file=%v stats=%+v err=%v", nf2, stats2, err)
	}
	// Compacting beyond the end refuses.
	f3, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f3.Close()
	if _, err := f3.Seek(valid, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp2.Persist(f3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tp2.CompactTo(12, path); err == nil {
		t.Fatal("compaction past the log end must error")
	}
}

// TestCompactToEmptyTail covers full compaction: every record dropped,
// the segment is header-plus-base only, and the topic stays appendable.
func TestCompactToEmptyTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "deletes.log")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	tp := &Topic{}
	if err := tp.Persist(f); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		tp.Append(Record{Kind: KindDelete, Tuple: data.Tuple{ID: int64(i)}, Seq: int64(i)})
	}
	nf, stats, err := tp.CompactTo(5, path)
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Close()
	if stats.Dropped != 5 || stats.BytesAfter != int64(len(logMagicV2)+logBaseLen) {
		t.Fatalf("full compaction stats %+v", stats)
	}
	if off := tp.Append(Record{Kind: KindDelete, Tuple: data.Tuple{ID: 6}, Seq: 6}); off != 5 {
		t.Fatalf("append after full compaction at offset %d, want 5", off)
	}
	tp2, _, err := openLogFile(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if tp2.Len() != 6 || tp2.BaseOffset() != 5 {
		t.Fatalf("reopened fully compacted log Len=%d base=%d, want 6/5", tp2.Len(), tp2.BaseOffset())
	}
}

// TestOpenTopicRejectsShortV2Header pins the corruption rules for
// compacted segments: a v2 log cut inside its base word has no safe
// interpretation (rotation fsyncs before renaming, so a crash cannot
// produce it), and a base word failing its CRC would silently shift
// every record's offset; both must error rather than guess.
func TestOpenTopicRejectsShortV2Header(t *testing.T) {
	if _, _, err := OpenTopic(bytes.NewReader([]byte(logMagicV2 + "abc"))); err == nil {
		t.Fatal("v2 log without a full base word must error")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "inserts.log")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	tp := &Topic{}
	if err := tp.Persist(f); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		tp.Append(Record{Kind: KindInsert, Tuple: ptup(int64(i), float64(i), 1), Seq: int64(i)})
	}
	nf, _, err := tp.CompactTo(2, path)
	if err != nil {
		t.Fatal(err)
	}
	nf.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(logMagicV2)] ^= 0x02 // flip a bit of the base word: 2 -> 0
	if _, _, err := OpenTopic(bytes.NewReader(raw)); err == nil {
		t.Fatal("v2 log with a corrupted base word must fail its checksum, not shift offsets")
	}
}

// TestOversizedRecordLatchesInsteadOfWriting pins the torn-write bound on
// single frames: a record whose frame exceeds MaxTornBytes must never
// reach the log (one unbounded write could tear into an invalid suffix
// recovery refuses to truncate, and the frame could not be read back
// anyway). The topic latches ErrOversizedRecord, stops persisting so the
// log stays a prefix of memory, and the on-disk prefix reopens cleanly.
func TestOversizedRecordLatchesInsteadOfWriting(t *testing.T) {
	var w chunkRecorder
	tp := &Topic{}
	if err := tp.Persist(&w); err != nil {
		t.Fatal(err)
	}
	tp.Append(Record{Kind: KindInsert, Tuple: ptup(1, 1, 1), Seq: 1})
	good := w.buf.Len()

	wide := make([]float64, MaxTupleAttrs+1)
	tp.Append(Record{Kind: KindInsert, Tuple: data.Tuple{ID: 2, Vals: wide}, Seq: 2})
	if err := tp.WriteErr(); !errors.Is(err, ErrOversizedRecord) {
		t.Fatalf("WriteErr after oversized append = %v, want ErrOversizedRecord", err)
	}
	if w.buf.Len() != good {
		t.Fatalf("oversized frame reached the log: %d -> %d bytes", good, w.buf.Len())
	}
	for _, n := range w.sizes {
		if n > MaxTornBytes {
			t.Fatalf("a write spanned %d bytes, over the %d torn-tail bound", n, MaxTornBytes)
		}
	}
	// Later appends stay in memory only: persisting them would break the
	// log-is-a-prefix-of-memory invariant.
	tp.Append(Record{Kind: KindInsert, Tuple: ptup(3, 3, 3), Seq: 3})
	if w.buf.Len() != good {
		t.Fatalf("append after the latch reached the log: %d -> %d bytes", good, w.buf.Len())
	}
	got, _, err := OpenTopic(bytes.NewReader(w.buf.Bytes()))
	if err != nil || got.Len() != 1 {
		t.Fatalf("log after oversized latch reopened to %d records (%v), want 1", got.Len(), err)
	}
	// A maximally-sized legal record still persists.
	tp2 := &Topic{}
	var w2 chunkRecorder
	if err := tp2.Persist(&w2); err != nil {
		t.Fatal(err)
	}
	tp2.Append(Record{Kind: KindInsert, Tuple: data.Tuple{ID: 1, Vals: make([]float64, MaxTupleAttrs)}, Seq: 1})
	if err := tp2.WriteErr(); err != nil {
		t.Fatalf("maximal legal record latched %v", err)
	}
}

// TestDetachLogLatchesCleanSentinel pins the Store.Close half of the
// contract: appends after a deliberate detach latch ErrLogClosed, while a
// detach with nothing pending latches nothing.
func TestDetachLogLatchesCleanSentinel(t *testing.T) {
	var buf bytes.Buffer
	tp := &Topic{}
	if err := tp.Persist(&buf); err != nil {
		t.Fatal(err)
	}
	tp.Append(Record{Kind: KindInsert, Tuple: ptup(1, 1, 1), Seq: 1})
	tp.DetachLog()
	if err := tp.WriteErr(); err != nil {
		t.Fatalf("detach with nothing pending latched %v", err)
	}
	tp.Append(Record{Kind: KindInsert, Tuple: ptup(2, 2, 2), Seq: 2})
	if err := tp.WriteErr(); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("append after detach latched %v, want ErrLogClosed", err)
	}
}

// TestTupleChunkRoundTrip covers the checkpoint archive-snapshot codec:
// order and values survive exactly, and corrupted chunks error.
func TestTupleChunkRoundTrip(t *testing.T) {
	tuples := []data.Tuple{
		ptup(3, 1.5, -2),
		{ID: 9}, // nil Key and Vals
		ptup(1, -0.25, 1e9),
	}
	raw := EncodeTupleChunk(tuples)
	got, err := DecodeTupleChunk(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tuples) {
		t.Fatalf("decoded %d tuples, want %d", len(got), len(tuples))
	}
	for i, want := range tuples {
		g := got[i]
		if g.ID != want.ID || len(g.Key) != len(want.Key) || len(g.Vals) != len(want.Vals) {
			t.Fatalf("tuple %d = %+v, want %+v", i, g, want)
		}
		for j := range want.Key {
			if g.Key[j] != want.Key[j] {
				t.Fatalf("tuple %d key %d = %v, want %v", i, j, g.Key[j], want.Key[j])
			}
		}
		for j := range want.Vals {
			if g.Vals[j] != want.Vals[j] {
				t.Fatalf("tuple %d val %d = %v, want %v", i, j, g.Vals[j], want.Vals[j])
			}
		}
	}
	// Corruption: truncations and trailing garbage error, never panic.
	for cut := 0; cut < len(raw); cut++ {
		if _, err := DecodeTupleChunk(raw[:cut]); err == nil && cut < len(raw) {
			t.Fatalf("truncation to %d bytes decoded without error", cut)
		}
	}
	if _, err := DecodeTupleChunk(append(append([]byte(nil), raw...), 0xff)); err == nil {
		t.Fatal("trailing garbage must error")
	}
	// A corrupt count must fail the payload bound up front (a tuple takes
	// at least 16 encoded bytes), not allocate a huge output slice first.
	huge := make([]byte, 4+32)
	for i := range huge {
		huge[i] = 0xee
	}
	if _, err := DecodeTupleChunk(huge); err == nil {
		t.Fatal("a count far beyond the payload bound must error")
	}
}

func openLogFile(t *testing.T, path string) (*Topic, int64, error) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return OpenTopic(bytes.NewReader(raw))
}

func TestReplayMergedGlobalOrder(t *testing.T) {
	b := New()
	b.PublishInsert(ptup(1, 1, 1)) // seq 1
	b.PublishInsert(ptup(2, 2, 2)) // seq 2
	b.PublishDelete(1)             // seq 3
	b.PublishInsert(ptup(1, 9, 9)) // seq 4: re-insert of a freed id
	b.PublishDelete(2)             // seq 5

	var seqs []int64
	b.ReplayMerged(0, b.Inserts.Len(), 0, b.Deletes.Len(), func(r Record) {
		seqs = append(seqs, r.Seq)
	})
	for i, s := range seqs {
		if s != int64(i+1) {
			t.Fatalf("replay order %v, want ascending seq", seqs)
		}
	}

	// RestoreArchive over the same log reproduces the live table: id 1 was
	// re-inserted after its delete, id 2 is gone.
	b2 := Restore(cloneTopic(b.Inserts), cloneTopic(b.Deletes))
	if err := b2.RestoreArchive(b.Inserts.Len(), b.Deletes.Len()); err != nil {
		t.Fatal(err)
	}
	if got, ok := b2.Archive().Get(1); !ok || got.Key[0] != 9 {
		t.Fatalf("id 1 after replay = %+v, %v; want the re-inserted row", got, ok)
	}
	if _, ok := b2.Archive().Get(2); ok {
		t.Fatal("id 2 must stay deleted after replay")
	}
	if b2.Archive().Len() != 1 {
		t.Fatalf("replayed archive has %d rows, want 1", b2.Archive().Len())
	}
	// The restored broker's sequence resumes past the replayed records.
	b2.PublishInsert(ptup(3, 3, 3))
	recs, _ := b2.Inserts.Poll(b2.Inserts.Len()-1, 1)
	if recs[0].Seq != 6 {
		t.Fatalf("post-restore publish got seq %d, want 6", recs[0].Seq)
	}
}

func cloneTopic(t *Topic) *Topic {
	recs, _ := t.Poll(0, int(t.Len()))
	c := &Topic{}
	c.AppendBatch(recs)
	return c
}

func TestRestoreArchivePartialPrefix(t *testing.T) {
	b := New()
	for i := 1; i <= 10; i++ {
		b.PublishInsert(ptup(int64(i), float64(i), 1))
	}
	b.PublishDelete(3)
	b.PublishDelete(4)
	b2 := Restore(cloneTopic(b.Inserts), cloneTopic(b.Deletes))
	// Replay only inserts 1..5 and the first delete: the archive must show
	// exactly that point in time.
	if err := b2.RestoreArchive(5, 1); err != nil {
		t.Fatal(err)
	}
	if b2.Archive().Len() != 4 {
		t.Fatalf("prefix replay left %d rows, want 4", b2.Archive().Len())
	}
	if _, ok := b2.Archive().Get(3); ok {
		t.Fatal("id 3 must be deleted in the prefix")
	}
	if _, ok := b2.Archive().Get(4); !ok {
		t.Fatal("id 4's delete is past the prefix and must not apply")
	}
}

// TestPublishFile pins the publish contract: success replaces the file
// and leaves no temp file; a write error leaves the old contents byte for
// byte, removes the temp file, and hands back no file.
func TestPublishFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact")
	if err := os.WriteFile(path, []byte("old contents"), 0o644); err != nil {
		t.Fatal(err)
	}
	assertNoTmp := func() {
		t.Helper()
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("temp file left behind (%v)", err)
		}
	}

	errWrite := errors.New("disk full")
	f, err := PublishFile(path, func(f *os.File) error {
		if _, err := f.WriteString("half of the new"); err != nil {
			return err
		}
		return errWrite
	})
	if !errors.Is(err, errWrite) || f != nil {
		t.Fatalf("failed write: file %v, err %v; want no file and the write's error", f, err)
	}
	if raw, _ := os.ReadFile(path); string(raw) != "old contents" {
		t.Fatalf("failed publish changed the file to %q", raw)
	}
	assertNoTmp()

	f, err = PublishFile(path, func(f *os.File) error {
		_, err := f.WriteString("new contents")
		return err
	})
	if err != nil || f == nil {
		t.Fatalf("publish: file %v, err %v", f, err)
	}
	if _, err := f.WriteString(", appended"); err != nil {
		t.Fatalf("the returned file is not the published one, still open: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(path); string(raw) != "new contents, appended" {
		t.Fatalf("published file holds %q", raw)
	}
	assertNoTmp()
}
