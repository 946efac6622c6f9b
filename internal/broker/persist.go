// Durable topic persistence: the file-backed append-only segment log that
// lets the broker's archival storage survive the process, the disk half of
// the checkpoint/recovery subsystem.
//
// The on-disk format is a magic header followed by CRC-framed records:
//
//	"JANUSLOG1\n"
//	repeat: [uint32 payload length][uint32 CRC-32 of payload][payload]
//
// where the payload is a fixed-width little-endian encoding of one Record
// (seq, kind, tuple id, key, vals). The framing makes a crashed writer's
// torn tail detectable: OpenTopic reads the longest valid prefix and
// reports how many bytes it spans, so recovery truncates the file there
// and appending resumes from a clean end. Corruption never panics — a log
// that fails its CRC simply ends early, exactly like a crash mid-append.
//
// A compacted segment (written by CompactTo after a checkpoint made the
// prefix redundant) carries a version-2 header recording the base offset
// its first frame sits at, CRC-protected like every frame — a flipped
// bit in the base would silently shift every record's offset:
//
//	"JANUSLOG2\n"
//	[uint64 base offset][uint32 CRC-32 of the base word]
//	repeat: [uint32 payload length][uint32 CRC-32 of payload][payload]
//
// Both versions stay readable; fresh logs are written as version 1 (base
// zero needs no header word).
package broker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"janusaqp/internal/data"
)

// logMagic heads every segment log file.
const logMagic = "JANUSLOG1\n"

// logMagicV2 heads a compacted segment log; an 8-byte little-endian base
// offset and its 4-byte CRC-32 follow it before the first frame.
const logMagicV2 = "JANUSLOG2\n"

// logBaseLen is the size of the v2 header's base word plus its CRC.
const logBaseLen = 8 + 4

// ErrLogClosed is latched as a topic's write error when a record is
// appended after its segment log was deliberately detached (Store.Close):
// the append stays in memory, the log stops persisting, and durability
// checks report this sentinel instead of a confusing file error.
var ErrLogClosed = errors.New("broker: segment log closed")

// ErrOversizedRecord is latched as a topic's write error when a single
// record's frame would exceed MaxTornBytes: writing it would violate the
// torn-write bound recovery relies on, and even a fully written oversized
// frame could never be read back (OpenTopic caps frames at
// maxRecordBytes), stranding every record behind it. The record stays in
// memory only; the log stops persisting so nothing after it is
// acknowledged as durable.
var ErrOversizedRecord = errors.New("broker: record exceeds the maximum durable frame size")

// maxRecordBytes caps one framed payload. A record is a tuple plus a few
// words of framing; anything larger is corruption, and bounding the length
// keeps a corrupted frame from asking OpenTopic for a gigantic allocation.
const maxRecordBytes = 1 << 22

// MaxTupleAttrs caps the combined Key+Vals attributes of one published
// tuple so its encoded frame (25 bytes of fixed fields plus 8 per
// attribute) always fits maxRecordBytes: everything the log accepts must
// read back through OpenTopic, or one oversized acknowledged record would
// strand every record after it behind an unreadable frame. Ingest
// admission enforces this bound before publishing.
const MaxTupleAttrs = (maxRecordBytes - 25) / 8

// MaxTornBytes is the largest invalid suffix a crashed append can leave on
// a segment log: one maximally-sized frame (length word, CRC, payload). A
// log whose bytes beyond the valid prefix exceed this was not torn by a
// crash — its head or middle is corrupt — and recovery must refuse to
// truncate it rather than silently discard acknowledged records.
const MaxTornBytes = 8 + maxRecordBytes

// encodeTuple appends t's fixed-width little-endian encoding to buf: id,
// then each attribute vector as a length word followed by float64 bits.
func encodeTuple(buf []byte, t data.Tuple) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.ID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Key)))
	for _, v := range t.Key {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Vals)))
	for _, v := range t.Vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// decodeTuple parses one tuple produced by encodeTuple from the front of
// p, returning the rest of p.
func decodeTuple(p []byte) (data.Tuple, []byte, error) {
	var t data.Tuple
	if len(p) < 8+4 {
		return t, nil, fmt.Errorf("broker: truncated tuple encoding")
	}
	t.ID = int64(binary.LittleEndian.Uint64(p))
	p = p[8:]
	readFloats := func() ([]float64, error) {
		if len(p) < 4 {
			return nil, fmt.Errorf("broker: truncated tuple encoding")
		}
		n := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if n < 0 || n > maxRecordBytes/8 || len(p) < 8*n {
			return nil, fmt.Errorf("broker: tuple declares %d attributes in %d bytes", n, len(p))
		}
		if n == 0 {
			return nil, nil
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
		}
		p = p[8*n:]
		return out, nil
	}
	key, err := readFloats()
	if err != nil {
		return t, nil, err
	}
	vals, err := readFloats()
	if err != nil {
		return t, nil, err
	}
	t.Key = key
	t.Vals = vals
	return t, p, nil
}

// EncodeTupleChunk encodes a batch of tuples as one length-prefixed
// binary blob — the engine checkpoint's archive-snapshot chunk format
// (the fixed-width codec decodes an order of magnitude faster than
// reflective encodings, and restart latency rides on it).
func EncodeTupleChunk(tuples []data.Tuple) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(tuples)))
	for _, t := range tuples {
		buf = encodeTuple(buf, t)
	}
	return buf
}

// DecodeTupleChunk parses a chunk produced by EncodeTupleChunk. Every
// byte must be consumed and the declared count must hold — snapshot bytes
// are untrusted, and a short chunk is corruption, never a panic. All
// attribute vectors of a chunk share one backing array: a restart decodes
// hundreds of thousands of tuples, and per-tuple slice allocations turn
// recovery into a garbage-collection benchmark.
func DecodeTupleChunk(p []byte) ([]data.Tuple, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("broker: truncated tuple chunk")
	}
	n := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	// A tuple encodes to at least 16 bytes (id + two length words), so the
	// payload bounds the count tightly — a corrupt count must fail here,
	// not allocate gigabytes before the per-entry checks see it.
	if n < 0 || n > len(p)/16 {
		return nil, fmt.Errorf("broker: tuple chunk declares %d tuples in %d bytes", n, len(p))
	}
	// Every float64 takes 8 encoded bytes, so the payload bounds the arena;
	// the arena must never regrow or earlier subslices would detach.
	arena := make([]float64, 0, len(p)/8)
	carve := func() ([]float64, error) {
		if len(p) < 4 {
			return nil, fmt.Errorf("broker: truncated tuple chunk")
		}
		k := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if k < 0 || len(p) < 8*k {
			return nil, fmt.Errorf("broker: tuple declares %d attributes in %d bytes", k, len(p))
		}
		if k == 0 {
			return nil, nil
		}
		lo := len(arena)
		for i := 0; i < k; i++ {
			arena = append(arena, math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:])))
		}
		p = p[8*k:]
		return arena[lo : lo+k : lo+k], nil
	}
	out := make([]data.Tuple, n)
	for i := range out {
		if len(p) < 8 {
			return nil, fmt.Errorf("broker: tuple chunk entry %d/%d: truncated", i+1, n)
		}
		out[i].ID = int64(binary.LittleEndian.Uint64(p))
		p = p[8:]
		key, err := carve()
		if err != nil {
			return nil, fmt.Errorf("broker: tuple chunk entry %d/%d: %w", i+1, n, err)
		}
		vals, err := carve()
		if err != nil {
			return nil, fmt.Errorf("broker: tuple chunk entry %d/%d: %w", i+1, n, err)
		}
		out[i].Key, out[i].Vals = key, vals
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("broker: %d trailing bytes in tuple chunk", len(p))
	}
	return out, nil
}

// encodeRecord appends r's payload encoding to buf and returns it.
func encodeRecord(buf []byte, r Record) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Seq))
	buf = append(buf, byte(r.Kind))
	return encodeTuple(buf, r.Tuple)
}

// decodeRecord parses one payload produced by encodeRecord.
func decodeRecord(p []byte) (Record, error) {
	var r Record
	if len(p) < 8+1 {
		return r, fmt.Errorf("broker: truncated record payload")
	}
	r.Seq = int64(binary.LittleEndian.Uint64(p))
	r.Kind = Kind(p[8])
	if r.Kind != KindInsert && r.Kind != KindDelete {
		return r, fmt.Errorf("broker: unknown record kind %d", r.Kind)
	}
	t, rest, err := decodeTuple(p[9:])
	if err != nil {
		return r, err
	}
	if len(rest) != 0 {
		return r, fmt.Errorf("broker: %d trailing bytes in record payload", len(rest))
	}
	r.Tuple = t
	return r, nil
}

// frameRecord appends the full frame (length, CRC, payload) for r to buf.
func frameRecord(buf []byte, r Record) []byte {
	payload := encodeRecord(nil, r)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// OpenTopic reads a segment log previously written through Persist,
// returning the topic and the number of bytes the valid prefix spans. The
// log ends at the first frame that is truncated or fails its CRC — the
// signature of a crash mid-append — so callers recover by truncating the
// file to the returned length and re-attaching it with Persist. An empty
// stream yields an empty topic; a stream that does not start with the log
// magic is not a segment log and errors.
func OpenTopic(r io.Reader) (*Topic, int64, error) {
	all, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, fmt.Errorf("broker: reading segment log: %w", err)
	}
	t := &Topic{}
	if len(all) == 0 {
		return t, 0, nil
	}
	if len(all) < len(logMagic) {
		// Shorter than the magic: a crash during the very first write.
		return t, 0, nil
	}
	header := int64(len(logMagic))
	switch string(all[:len(logMagic)]) {
	case logMagic:
	case logMagicV2:
		// Compacted segment: the base offset (and its CRC) follows the
		// magic. CompactTo fsyncs the whole rewrite before renaming it into
		// place, so a visible v2 log always carries its full header — a
		// shorter file is corruption, not a torn append, and guessing a
		// base would replay records at the wrong offsets. The CRC matters
		// for the same reason: a flipped bit in the base shifts every
		// record, turning tail replay into double-apply or silent loss.
		if len(all) < len(logMagicV2)+logBaseLen {
			return nil, 0, fmt.Errorf("broker: compacted segment log is missing its base offset")
		}
		word := all[len(logMagicV2) : len(logMagicV2)+8]
		sum := binary.LittleEndian.Uint32(all[len(logMagicV2)+8:])
		if crc32.ChecksumIEEE(word) != sum {
			return nil, 0, fmt.Errorf("broker: compacted segment log base offset fails its checksum")
		}
		base := int64(binary.LittleEndian.Uint64(word))
		if base < 0 {
			return nil, 0, fmt.Errorf("broker: compacted segment log declares negative base offset %d", base)
		}
		t.base = base
		header += logBaseLen
	default:
		return nil, 0, fmt.Errorf("broker: not a segment log (bad magic)")
	}
	t.magicOnLog = true
	valid := header
	p := all[header:]
	for len(p) >= 8 {
		n := int(binary.LittleEndian.Uint32(p))
		sum := binary.LittleEndian.Uint32(p[4:])
		if n <= 0 || n > maxRecordBytes || len(p) < 8+n {
			break
		}
		payload := p[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			break
		}
		t.recs = append(t.recs, rec)
		p = p[8+n:]
		valid += int64(8 + n)
	}
	t.persisted = len(t.recs)
	return t, valid, nil
}

// Persist attaches w as the topic's durable segment log and writes every
// record not already on it — all of them for a fresh topic (preceded by the
// log magic), none for a topic just restored with OpenTopic from the same
// file. From then on every Append/AppendBatch encodes and writes the new
// records through under the topic lock, so the log stays a prefix of the
// in-memory state. Write-through failures are latched and reported by Sync.
func (t *Topic) Persist(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.w != nil {
		return fmt.Errorf("broker: topic already has a segment log attached")
	}
	// Write the header only when the log does not already carry one: a topic
	// restored with OpenTopic from a header-only log (a store that crashed
	// before its first record) has persisted == 0 but its magic on disk, and
	// a duplicated header would read back as a corrupt first frame.
	if !t.magicOnLog {
		if _, err := w.Write([]byte(logMagic)); err != nil {
			return fmt.Errorf("broker: writing segment log header: %w", err)
		}
		t.magicOnLog = true
	}
	t.w = w
	t.writeThroughLocked()
	return t.werr
}

// writeThroughLocked encodes records beyond the persisted watermark to the
// attached log, if any. Caller holds t.mu. Appends themselves cannot fail
// (they are in-memory), so a write error is latched for Sync rather than
// unwinding an already-applied append; the persisted count only advances
// past records actually on the log.
//
// Writes are chunked to at most MaxTornBytes each: recovery's torn-tail
// bound assumes a crashed writer can leave at most one partial write
// behind, so a single unbounded batch write would let a mid-batch crash
// produce an invalid suffix recovery refuses to truncate. A single frame
// that already exceeds the bound (a tuple wider than MaxTupleAttrs,
// appended by a caller that bypassed ingest admission) is never written:
// it latches ErrOversizedRecord instead, because one unbounded write would
// break the same invariant and the frame could not be read back anyway.
func (t *Topic) writeThroughLocked() {
	if t.w == nil {
		if t.detached && t.werr == nil && t.persisted < len(t.recs) {
			t.werr = ErrLogClosed
		}
		return
	}
	if t.werr != nil || t.persisted >= len(t.recs) {
		return
	}
	var buf []byte
	n := 0 // frames currently in buf
	flush := func() bool {
		if _, err := t.w.Write(buf); err != nil {
			t.werr = fmt.Errorf("broker: segment log write: %w", err)
			return false
		}
		t.persisted += n
		buf, n = buf[:0], 0
		return true
	}
	for _, r := range t.recs[t.persisted:] {
		frame := frameRecord(nil, r)
		if len(frame) > MaxTornBytes {
			if !flush() {
				return
			}
			t.werr = fmt.Errorf("broker: record at offset %d frames to %d bytes (max %d): %w",
				t.base+int64(t.persisted), len(frame), MaxTornBytes, ErrOversizedRecord)
			return
		}
		if len(buf) > 0 && len(buf)+len(frame) > MaxTornBytes {
			if !flush() {
				return
			}
		}
		buf = append(buf, frame...)
		n++
	}
	if len(buf) > 0 {
		flush()
	}
}

// DetachLog detaches the topic's segment log without flushing or closing
// it (the caller owns the file handle): the next append — which can no
// longer be persisted — latches ErrLogClosed so durability checks fail
// cleanly instead of hitting a closed file. Records already written stay
// on the log; a clean shutdown (checkpoint, detach, close) latches
// nothing.
func (t *Topic) DetachLog() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.w = nil
	t.detached = true
}

// CompactStats reports what one segment rotation dropped.
type CompactStats struct {
	// Dropped is the number of records removed from memory and disk.
	Dropped int64
	// BytesAfter is the size of the rewritten segment file.
	BytesAfter int64
}

// CompactTo drops every record below newBase from the topic — memory and
// disk — by rewriting the segment log at path to hold only the surviving
// tail under a version-2 header that records the base. The caller must
// hold a durable checkpoint at or beyond newBase: the dropped prefix
// survives only as the checkpoint's archive snapshot.
//
// The rewrite is published through PublishFile, like a checkpoint: a
// crash at any point leaves either the full old segment or the complete
// compacted one, never a mix. On success the returned file is the topic's new
// write-through target (the old writer is closed) and the caller should
// retain it for Close, even beside a directory-fsync error, which is also
// latched as the topic's write error. A newBase at or below the current
// base is a no-op returning a nil file — the caller keeps its old handle.
//
// The topic lock is held for the whole rewrite, so publishes stall for
// its duration; callers compact right after a checkpoint, when the
// surviving tail is small.
func (t *Topic) CompactTo(newBase int64, path string) (*os.File, CompactStats, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if newBase <= t.base {
		return nil, CompactStats{}, nil
	}
	if t.werr != nil {
		return nil, CompactStats{}, fmt.Errorf("broker: refusing to compact a log that stopped persisting: %w", t.werr)
	}
	if t.w == nil {
		return nil, CompactStats{}, fmt.Errorf("broker: topic has no segment log attached")
	}
	end := t.base + int64(len(t.recs))
	if newBase > end {
		return nil, CompactStats{}, fmt.Errorf("broker: compaction base %d is beyond the log end %d", newBase, end)
	}
	drop := int(newBase - t.base)
	if drop > t.persisted {
		// Unreachable when anchored at a durable checkpoint (its records
		// were written through before the checkpoint published), but never
		// drop bytes the disk does not hold.
		return nil, CompactStats{}, fmt.Errorf("broker: compaction base %d is past the persisted watermark %d",
			newBase, t.base+int64(t.persisted))
	}

	var size int64
	f, err := PublishFile(path, func(f *os.File) error {
		if err := WriteSegmentHeader(f, newBase); err != nil {
			return err
		}
		var buf []byte
		for _, r := range t.recs[drop:] {
			buf = frameRecord(buf, r)
			if len(buf) > MaxTornBytes {
				if _, err := f.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
		_, err := f.Write(buf)
		if err == nil {
			size, err = f.Seek(0, io.SeekCurrent)
		}
		return err
	})
	if f == nil {
		return nil, CompactStats{}, fmt.Errorf("broker: writing compacted segment: %w", err)
	}

	// The renamed handle is the new write-through target; the old one is
	// ours to discard (its inode was just replaced).
	if c, ok := t.w.(io.Closer); ok {
		_ = c.Close()
	}
	t.w = f
	t.recs = append([]Record(nil), t.recs[drop:]...)
	t.base = newBase
	t.persisted = len(t.recs)
	t.magicOnLog = true
	if err != nil {
		// The swap is done, but the new segment's name may not survive a
		// crash: latch it, so no later append is acknowledged as durable.
		t.werr = fmt.Errorf("broker: syncing the compacted segment's directory: %w", err)
	}
	return f, CompactStats{Dropped: int64(drop), BytesAfter: size}, t.werr
}

// PublishFile atomically replaces path with what write puts into the file
// it is handed — the one crash-safe publish behind every data-directory
// artifact: write fills path+".tmp", which is fsynced, renamed over path,
// and its directory fsynced, so a crash leaves the old path or the
// complete new one. A failure before the rename removes the temp file,
// leaves path untouched and returns a nil file. After the rename the
// published file comes back open, where write left it, for the caller to
// own — even beside an error, which is then the directory fsync's: the new
// contents are in place, but the rename may not survive a crash.
func PublishFile(path string, write func(f *os.File) error) (*os.File, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return nil, err
	}
	return f, SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs the directory dir, so the renames in it survive a crash.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteErr reports the latched write-through failure, if any, without
// touching the disk. Once an append fails to reach the log the topic
// stops persisting (the log must stay a prefix of memory), so callers
// acknowledging durable writes must check this after publishing — an
// acknowledgment after a latched failure would promise durability the
// log no longer provides.
func (t *Topic) WriteErr() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.werr
}

// Sync flushes the attached segment log to stable storage (when the writer
// supports it, e.g. an *os.File) and reports any latched write-through
// failure. A topic without an attached log syncs trivially.
//
// The fsync runs outside the topic lock: it only needs to cover writes
// issued before Sync was called (write-through is synchronous under the
// lock, so those bytes are already on the file), and holding the lock for
// a disk flush would stall every publish and poll for its duration — the
// background checkpointer calls this on every cycle.
func (t *Topic) Sync() error {
	t.mu.RLock()
	w, werr := t.w, t.werr
	t.mu.RUnlock()
	if werr != nil {
		return werr
	}
	if s, ok := w.(interface{ Sync() error }); ok {
		if err := s.Sync(); err != nil {
			return fmt.Errorf("broker: segment log fsync: %w", err)
		}
	}
	return nil
}

// ReplayMerged calls fn for every record of the insert topic in
// [insFrom, insTo) and the delete topic in [delFrom, delTo), in global
// publish order: ascending Seq, with equal (or unstamped, Seq 0) records
// yielding inserts before deletes — the same fallback ordering
// Engine.Sync applies to cross-topic streams. This is the recovery-side
// iteration primitive: replaying [0, checkpoint) rebuilds the archive the
// checkpointed synopses were measured against, and replaying
// [checkpoint, end) is the log tail a restored engine applies before
// serving.
func (b *Broker) ReplayMerged(insFrom, insTo, delFrom, delTo int64, fn func(Record)) {
	var ins, del []Record
	if insTo > insFrom {
		ins, _ = b.Inserts.Poll(insFrom, int(insTo-insFrom))
	}
	if delTo > delFrom {
		del, _ = b.Deletes.Poll(delFrom, int(delTo-delFrom))
	}
	i, j := 0, 0
	for i < len(ins) || j < len(del) {
		switch {
		case j >= len(del), i < len(ins) && ins[i].Seq <= del[j].Seq:
			fn(ins[i])
			i++
		default:
			fn(del[j])
			j++
		}
	}
}

// RestoreArchive replays the topics' prefix — inserts in [0, insTo),
// deletes in [0, delTo) — into the (empty) archive in publish order,
// reconstructing the live table as it stood when a checkpoint recorded
// those offsets. A log whose replay is inconsistent (e.g. a duplicate live
// id from a corrupted record) errors rather than panicking: recovery must
// fail loudly, not take the daemon down.
func (b *Broker) RestoreArchive(insTo, delTo int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("broker: archive replay: %v", r)
		}
	}()
	if n := b.archive.Len(); n != 0 {
		return fmt.Errorf("broker: archive replay needs an empty archive, have %d rows", n)
	}
	if base := b.Inserts.BaseOffset(); base > 0 {
		return fmt.Errorf("broker: cannot replay the archive from offset 0: the insert log was compacted to base %d (the prefix lives in the checkpoint's archive snapshot)", base)
	}
	if base := b.Deletes.BaseOffset(); base > 0 {
		return fmt.Errorf("broker: cannot replay the archive from offset 0: the delete log was compacted to base %d (the prefix lives in the checkpoint's archive snapshot)", base)
	}
	// The replay applies at most insTo inserts; pre-sizing spares the
	// archive a rehash cascade on big logs.
	b.archive.grow(insTo)
	b.ReplayMerged(0, insTo, 0, delTo, func(r Record) {
		switch r.Kind {
		case KindInsert:
			b.archive.Insert(r.Tuple)
		case KindDelete:
			b.archive.Delete(r.Tuple.ID)
		}
	})
	return nil
}

// RestoreArchiveSnapshot appends one chunk of a checkpoint's live-table
// image to the archive, preserving the saved iteration order — the
// compacted counterpart of RestoreArchive: instead of replaying the log
// prefix the checkpoint already reflects, the snapshot is the prefix's
// net effect, streamed in chunks. Order matters for determinism: the
// archive's internal layout feeds uniform sampling, so a restored engine
// must see exactly the layout the checkpointed one had. The caller is
// responsible for starting from an empty archive; a duplicate id in the
// snapshot errors rather than panicking — recovery fails loudly, it does
// not take the daemon down.
func (b *Broker) RestoreArchiveSnapshot(tuples []data.Tuple) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("broker: archive snapshot install: %v", r)
		}
	}()
	b.archive.InsertBatch(tuples)
	return nil
}

// GrowArchive pre-sizes an empty archive for n upcoming rows. Restores
// call it once the row count is trustworthy (after the first snapshot
// chunk decodes cleanly) so a bulk install pays one allocation instead of
// a rehash cascade; it is a no-op on a non-empty archive.
func (b *Broker) GrowArchive(n int64) { b.archive.grow(n) }

// EncodeRecordBatch encodes a batch of records as one length-prefixed
// chunk — the replication-stream counterpart of EncodeTupleChunk, carrying
// full records (sequence number, kind, tuple) so a standby can append them
// to its own topics byte-for-byte as the primary logged them:
// [u32 count] then per record [u32 payloadLen][encodeRecord payload].
func EncodeRecordBatch(recs []Record) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(recs)))
	for _, r := range recs {
		at := len(buf)
		buf = binary.LittleEndian.AppendUint32(buf, 0)
		buf = encodeRecord(buf, r)
		binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	}
	return buf
}

// DecodeRecordBatch parses a chunk produced by EncodeRecordBatch. Like
// DecodeTupleChunk it validates every count against the bytes present
// before allocating and consumes the chunk exactly; corrupt input errors,
// never panics.
func DecodeRecordBatch(p []byte) ([]Record, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("broker: truncated record batch header")
	}
	n := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	// The smallest record payload is 25 bytes (seq + kind + minimal tuple),
	// each prefixed by 4 — bound the count by what the bytes could hold.
	if n < 0 || n > len(p)/29 {
		return nil, fmt.Errorf("broker: record batch count %d exceeds chunk size", n)
	}
	out := make([]Record, n)
	for i := range out {
		if len(p) < 4 {
			return nil, fmt.Errorf("broker: truncated record %d frame", i)
		}
		sz := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if sz < 0 || sz > maxRecordBytes || sz > len(p) {
			return nil, fmt.Errorf("broker: record %d declares %d bytes (have %d)", i, sz, len(p))
		}
		r, err := decodeRecord(p[:sz])
		if err != nil {
			return nil, fmt.Errorf("broker: record %d: %w", i, err)
		}
		out[i] = r
		p = p[sz:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("broker: %d trailing bytes in record batch", len(p))
	}
	return out, nil
}

// WriteSegmentHeader writes a fresh segment-log file header to w: the v1
// magic for base 0, or the v2 magic + base word + CRC for a log whose
// prefix up to base lives in a checkpoint. It lets a replica initialize
// empty logs positioned at the primary's checkpoint offsets, exactly as
// CompactTo would have left them.
func WriteSegmentHeader(w io.Writer, base int64) error {
	if base < 0 {
		return fmt.Errorf("broker: negative segment base %d", base)
	}
	if base == 0 {
		_, err := io.WriteString(w, logMagic)
		return err
	}
	hdr := make([]byte, 0, len(logMagicV2)+logBaseLen)
	hdr = append(hdr, logMagicV2...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(base))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr[len(logMagicV2):]))
	_, err := w.Write(hdr)
	return err
}
