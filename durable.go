package janus

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"janusaqp/internal/broker"
)

// Store manages a durable data directory for one engine:
//
//	inserts.log     append-only segment log of the insert topic
//	deletes.log     append-only segment log of the delete topic
//	checkpoint.db   latest engine checkpoint (atomically replaced)
//
// Every publish through the store's broker is written through to the logs
// by the topic layer; WriteCheckpoint snapshots the engine (synopses,
// counters, and the live-table archive), then fsyncs the logs before
// publishing the snapshot, so a surviving checkpoint never references
// records the disk does not hold. Recover composes the two into a warm
// restart: load the checkpoint, restore the archive from its snapshot,
// replay the log tail, and hand back an engine that has lost no
// acknowledged write. Compact, run after a checkpoint, drops the log
// prefix the snapshot made redundant, so the data dir holds O(live data +
// post-checkpoint tail) bytes instead of the full ingest history.
//
// Durability granularity: appends reach the operating system on every
// batch (a process crash loses nothing) and reach stable storage on every
// checkpoint (a power loss rolls back to the last checkpoint plus whatever
// the OS had flushed; the CRC framing truncates any torn tail cleanly).
// Callers needing per-batch power-loss durability can call Sync after
// acknowledged writes.
type Store struct {
	dir     string
	inserts *os.File
	deletes *os.File
	broker  *Broker
	ckptMu  sync.Mutex // serializes WriteCheckpoint/Compact/Close I-O
	closed  bool       // guarded by ckptMu; Close is idempotent

	// spans receives checkpoint-fsync and compaction-rotation durations
	// when an observer is installed (SetSpanObserver); nil-safe and free
	// otherwise.
	spans spanSink
}

// SetSpanObserver installs fn to receive the store's I/O span durations —
// SpanCheckpointFsync (log + checkpoint fsync through rename) and
// SpanCompactRotate (both log rotations). nil uninstalls. The shard
// argument delivered is always 0; a multi-shard daemon installs a distinct
// wrapper per store.
func (st *Store) SetSpanObserver(fn SpanObserver) { st.spans.set(fn) }

// Store file names.
const (
	insertsLogName = "inserts.log"
	deletesLogName = "deletes.log"
	checkpointName = "checkpoint.db"
)

// ErrNoCheckpoint reports a Recover over a store that has no checkpoint
// yet — the logs (if any) were replayed into the archive, and the caller
// boots cold: build templates from the archive and write the first
// checkpoint. Match with errors.Is.
var ErrNoCheckpoint = errors.New("janus: store has no checkpoint")

// ErrStoreClosed is the write error a topic latches when a record is
// published after Store.Close detached the segment logs: the publish
// stayed in memory only, and WriteErr reports this sentinel instead of a
// confusing "file already closed" from the OS. Match with errors.Is.
var ErrStoreClosed = broker.ErrLogClosed

// OpenStore opens (creating if needed) a durable data directory and
// recovers its segment logs: invalid tails — a torn append from a crashed
// writer, or an unflushed region garbled by power loss — are truncated,
// and the store's broker resumes publishing (and persisting) where the
// valid prefix ends. Truncation is refused only when it would drop
// records the latest checkpoint references: that log is not a torn tail
// but a corrupt head, and destroying its bytes would turn a repairable
// directory into silent acknowledged-write loss. For the same reason a
// DIR.install or DIR.install-old beside dir — what an older release's
// interrupted node install left, possibly holding the only copy of the
// data — is refused rather than booted over with an empty directory.
func OpenStore(dir string) (*Store, error) {
	for _, side := range []string{dir + ".install", dir + ".install-old"} {
		if _, err := os.Lstat(side); err == nil {
			return nil, fmt.Errorf("janus: %s exists: an interrupted install may have left this store's data there; move the right copy to %s by hand, then remove it", side, dir)
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("janus: checking for an interrupted install: %w", err)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("janus: creating data dir: %w", err)
	}
	// Sweep temp files a crashed checkpoint or compaction left behind:
	// they were never renamed into place, so they are not data.
	for _, name := range []string{checkpointName, insertsLogName, deletesLogName} {
		_ = os.Remove(filepath.Join(dir, name+".tmp"))
	}
	ck, _, err := checkpointedOffsets(dir)
	if err != nil {
		// The checkpoint exists but cannot be read, so the safe truncation
		// bound for the logs is unknown: opening now could destroy
		// checkpointed bytes an operator could still repair. Refuse before
		// touching anything. NOTE for operators: do not delete
		// checkpoint.db to get past this — on a compacted store it holds
		// the only copy of every record below the logs' base offsets.
		return nil, fmt.Errorf("janus: %s exists but is unreadable (%w): refusing to recover the segment logs against an unknown bound; restore or repair the checkpoint first", checkpointName, err)
	}
	st := &Store{dir: dir}
	ins, insTopic, err := openLog(filepath.Join(dir, insertsLogName), ck.InsertOffset)
	if err != nil {
		return nil, err
	}
	del, delTopic, err := openLog(filepath.Join(dir, deletesLogName), ck.DeleteOffset)
	if err != nil {
		_ = ins.Close()
		return nil, err
	}
	st.inserts, st.deletes = ins, del
	st.broker = broker.Restore(insTopic, delTopic)
	return st, nil
}

// checkpointedOffsets reads the header of the latest checkpoint: the
// topic offsets it references are the log recovery bound — records below
// them must never be truncated away — and HasArchive says whether it
// carries a live-table snapshot (Compact may only anchor on one that
// does). ok is false, with a zero header, when there is no checkpoint. A
// checkpoint file that exists but does not yield a sane header is an
// error, not a zero: treating unreadable as absent would let openLog
// truncate bytes that hold checkpointed records before Recover ever got
// the chance to validate anything.
func checkpointedOffsets(dir string) (hdr checkpointHeader, ok bool, err error) {
	f, err := os.Open(filepath.Join(dir, checkpointName))
	if errors.Is(err, os.ErrNotExist) {
		return hdr, false, nil
	}
	if err != nil {
		return hdr, false, err
	}
	defer func() { _ = f.Close() }()
	hdr, err = readCheckpointHeader(gob.NewDecoder(f))
	return hdr, err == nil, err
}

// openLog opens one segment log file, truncates any invalid tail, and
// attaches the file to the restored topic for write-through. minRecords
// is the record count the latest checkpoint references: a valid prefix
// short of it means the invalid bytes hold checkpointed — acknowledged
// and durable — records, so the log refuses to open (and to truncate)
// rather than destroy what an operator could still repair.
func openLog(path string, minRecords int64) (*os.File, *broker.Topic, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("janus: opening segment log: %w", err)
	}
	fail := func(err error) (*os.File, *broker.Topic, error) {
		_ = f.Close()
		return nil, nil, err
	}
	topic, valid, err := broker.OpenTopic(f)
	if err != nil {
		return fail(fmt.Errorf("janus: %s: %w", filepath.Base(path), err))
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return fail(err)
	}
	if valid < size {
		if topic.Len() < minRecords {
			return fail(fmt.Errorf(
				"janus: %s: valid prefix holds %d records but the checkpoint references %d: log is corrupt, refusing to truncate %d invalid bytes",
				filepath.Base(path), topic.Len(), minRecords, size-valid))
		}
		// Beyond the checkpoint the durability contract is "whatever the
		// OS had flushed": drop the invalid suffix — a torn append, or an
		// arbitrarily large region garbled by power loss — so the next
		// append starts at a clean frame boundary.
		if err := f.Truncate(valid); err != nil {
			return fail(fmt.Errorf("janus: truncating torn log tail: %w", err))
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		return fail(err)
	}
	if err := topic.Persist(f); err != nil {
		return fail(err)
	}
	return f, topic, nil
}

// Broker returns the store's durable broker. Engines created over it have
// every published record written through to the segment logs.
func (st *Store) Broker() *Broker { return st.broker }

// Dir returns the store's data directory.
func (st *Store) Dir() string { return st.dir }

// WriteErr reports the first latched segment-log write failure, if any.
// A store whose log stopped persisting must not acknowledge further
// writes; the server's ingest path checks this after every batch.
func (st *Store) WriteErr() error {
	if err := st.broker.Inserts.WriteErr(); err != nil {
		return err
	}
	return st.broker.Deletes.WriteErr()
}

// Sync flushes both segment logs to stable storage.
func (st *Store) Sync() error {
	if err := st.broker.Inserts.Sync(); err != nil {
		return err
	}
	return st.broker.Deletes.Sync()
}

// Close detaches the topics' write-through writers (under each topic's
// lock) and then releases the store's file handles, in that order: a
// publish racing or following Close latches the clean ErrStoreClosed
// sentinel instead of the OS's "file already closed". Close is
// idempotent. It does not checkpoint; callers wanting a warm next boot
// should WriteCheckpoint (and optionally Compact) first, then Close.
func (st *Store) Close() error {
	st.ckptMu.Lock()
	defer st.ckptMu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	st.broker.Inserts.DetachLog()
	st.broker.Deletes.DetachLog()
	err := st.inserts.Close()
	if err2 := st.deletes.Close(); err == nil {
		err = err2
	}
	return err
}

// CompactInfo describes what one Store.Compact pass reclaimed.
type CompactInfo struct {
	// InsertsDropped and DeletesDropped count the records removed from the
	// segment logs (and from topic memory).
	InsertsDropped int64 `json:"insertsDropped"`
	DeletesDropped int64 `json:"deletesDropped"`
	// LogBytesBefore and LogBytesAfter are the combined segment-log sizes
	// around the rotation.
	LogBytesBefore int64 `json:"logBytesBefore"`
	LogBytesAfter  int64 `json:"logBytesAfter"`
}

// Compact drops the segment-log prefix the latest durable checkpoint has
// made redundant: the checkpoint's archive snapshot is the net effect of
// every record below its offsets, so those records are rewritten away —
// from disk (each log is atomically replaced by a version-2 segment
// anchored at the checkpoint's offset) and from topic memory. Published
// offsets and Seq numbers are untouched: pollers, followers, and
// MinSyncOffset waiters observe nothing.
//
// Compact anchors on the checkpoint that is durably on disk, not on any
// in-flight snapshot, and each rotation is tmp+rename+dir-fsync — a crash
// at any point (before either rotation, between them, or before the
// directory fsync) leaves a directory Recover handles. Call it after
// WriteCheckpoint returns; a store with no checkpoint reports
// ErrNoCheckpoint. Compacting is safe to repeat — a second pass against
// the same checkpoint is a no-op.
func (st *Store) Compact() (CompactInfo, error) {
	st.ckptMu.Lock()
	defer st.ckptMu.Unlock()
	if st.closed {
		return CompactInfo{}, ErrStoreClosed
	}
	ck, ok, err := checkpointedOffsets(st.dir)
	if err != nil {
		return CompactInfo{}, fmt.Errorf("janus: compaction anchor: %w", err)
	}
	if !ok {
		return CompactInfo{}, ErrNoCheckpoint
	}
	if !ck.HasArchive {
		// A version-1 checkpoint carries no live-table snapshot: the log
		// prefix is the ONLY copy of those records, and dropping it would
		// be unrecoverable data loss dressed up as success. Write a fresh
		// checkpoint (always version 2) and compact against that.
		return CompactInfo{}, fmt.Errorf("janus: the durable checkpoint predates archive snapshots and cannot anchor a compaction; write a new checkpoint first")
	}
	sp := st.spans.start()
	defer func() { st.spans.end(SpanCompactRotate, 0, sp) }()
	info := CompactInfo{LogBytesBefore: st.logBytes()}
	// A rotation failing its directory fsync still hands back its new file.
	f, stats, err := st.broker.Inserts.CompactTo(ck.InsertOffset, filepath.Join(st.dir, insertsLogName))
	if f != nil {
		st.inserts, info.InsertsDropped = f, stats.Dropped
	}
	if err != nil {
		return info, fmt.Errorf("janus: compacting %s: %w", insertsLogName, err)
	}
	f, stats, err = st.broker.Deletes.CompactTo(ck.DeleteOffset, filepath.Join(st.dir, deletesLogName))
	if f != nil {
		st.deletes, info.DeletesDropped = f, stats.Dropped
	}
	if err != nil {
		return info, fmt.Errorf("janus: compacting %s: %w", deletesLogName, err)
	}
	info.LogBytesAfter = st.logBytes()
	return info, nil
}

// logBytes sums the current segment-log file sizes.
func (st *Store) logBytes() int64 {
	var total int64
	for _, name := range []string{insertsLogName, deletesLogName} {
		if fi, err := os.Stat(filepath.Join(st.dir, name)); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// WriteCheckpoint snapshots the engine into the store. Ordering is what
// makes the result crash-consistent:
//
//  1. stream the checkpoint to a temporary file — this pins the topic
//     offsets under the engine's update lock, and every record at or
//     below them is already written through to the logs (appends encode
//     to the file synchronously, under the topic lock);
//  2. fsync both segment logs, THEN the checkpoint file — the offsets a
//     published checkpoint carries must never point past what the disk
//     durably holds, so the logs reach stable storage first (fsyncing
//     before the snapshot would leave records appended in between
//     counted by the offsets but not yet durable);
//  3. atomically rename it over checkpoint.db and fsync the directory.
//
// broker.PublishFile does 2 and 3, the log fsync running last inside its
// write callback. A crash at any point leaves either the old checkpoint or
// the new one, both consistent with the (fsynced) logs.
func (st *Store) WriteCheckpoint(e *Engine) (CheckpointInfo, error) {
	st.ckptMu.Lock()
	defer st.ckptMu.Unlock()
	if st.closed {
		return CheckpointInfo{}, ErrStoreClosed
	}
	var info CheckpointInfo
	var sp time.Time
	err := publishFile(filepath.Join(st.dir, checkpointName), func(f *os.File) error {
		var err error
		if info, err = e.Checkpoint(f); err != nil {
			return err
		}
		// The fsync span covers the durability half only — log sync,
		// snapshot sync, rename, dir sync — the encoding above reports
		// separately as SpanCheckpointSave.
		sp = st.spans.start()
		return st.Sync()
	})
	if err != nil {
		return CheckpointInfo{}, fmt.Errorf("janus: writing checkpoint: %w", err)
	}
	st.spans.end(SpanCheckpointFsync, 0, sp)
	return info, nil
}

// RecoveryInfo describes what a warm restart restored and replayed.
type RecoveryInfo struct {
	// Templates restored from the checkpoint.
	Templates int
	// Checkpoint offsets the synopses were consistent with.
	Checkpoint SyncState
	// Tail replay: acknowledged writes recovered from the log beyond the
	// checkpoint, and records the admission rules skipped.
	TailInserts, TailDeletes, TailRejected int
}

// Recover performs the warm-restart read path over the store: it loads
// the latest checkpoint into a fresh engine over the store's broker,
// restores the archive to the checkpointed offsets — from the image's
// live-table snapshot when it carries one, else by replaying the full log
// prefix — replays the durable log tail onto the archive and the
// synopses, and returns the engine ready to serve: every acknowledged
// write on disk is reflected, none twice. Over a compacted store the
// whole restart is bounded by O(live data + post-checkpoint tail), never
// by total ingest history.
//
// A store with no checkpoint returns ErrNoCheckpoint after replaying any
// existing log records into the archive, so a process that crashed before
// its first checkpoint can still boot cold off its own log.
func (st *Store) Recover(cfg Config) (*Engine, RecoveryInfo, error) {
	f, err := os.Open(filepath.Join(st.dir, checkpointName))
	if errors.Is(err, os.ErrNotExist) {
		if rerr := st.broker.RestoreArchive(st.broker.Inserts.Len(), st.broker.Deletes.Len()); rerr != nil {
			return nil, RecoveryInfo{}, rerr
		}
		return nil, RecoveryInfo{}, ErrNoCheckpoint
	}
	if err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("janus: opening checkpoint: %w", err)
	}
	defer func() { _ = f.Close() }()
	eng, state, hasArchive, err := openCheckpoint(f, cfg, st.broker)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	if state.InsertOffset > st.broker.Inserts.Len() || state.DeleteOffset > st.broker.Deletes.Len() {
		// The checkpoint claims records the durable log does not hold; with
		// WriteCheckpoint's fsync ordering this cannot happen short of
		// losing log files, so refuse to serve a state with silent holes.
		return nil, RecoveryInfo{}, fmt.Errorf(
			"janus: checkpoint is ahead of the durable log (checkpoint %d/%d, log %d/%d): data dir is corrupt",
			state.InsertOffset, state.DeleteOffset, st.broker.Inserts.Len(), st.broker.Deletes.Len())
	}
	if ib, db := st.broker.Inserts.BaseOffset(), st.broker.Deletes.BaseOffset(); state.InsertOffset < ib || state.DeleteOffset < db {
		// The logs were compacted past this checkpoint (e.g. an older
		// checkpoint.db restored by hand over a compacted layout): the gap
		// between the checkpoint and the log base exists nowhere, so
		// serving would silently lose it.
		return nil, RecoveryInfo{}, fmt.Errorf(
			"janus: checkpoint (offsets %d/%d) predates the compacted log base (%d/%d): the records between them are gone; restore the checkpoint the logs were compacted against",
			state.InsertOffset, state.DeleteOffset, ib, db)
	}
	info := RecoveryInfo{Templates: len(eng.Templates()), Checkpoint: state}
	if !hasArchive {
		// Version-1 image: the archive is not in the checkpoint, so the
		// full log prefix must still be on disk (RestoreArchive refuses
		// compacted logs).
		if err := st.broker.RestoreArchive(state.InsertOffset, state.DeleteOffset); err != nil {
			return nil, RecoveryInfo{}, err
		}
	}
	info.TailInserts, info.TailDeletes, info.TailRejected = eng.replayLogTail(&state)
	return eng, info, nil
}

// CheckpointBytes returns the store's current durable checkpoint image —
// the bytes of checkpoint.db — for shipping to a bootstrapping replica.
// It reads under the checkpoint mutex, so it never observes a checkpoint
// or compaction mid-publish. A store with no checkpoint yet reports
// ErrNoCheckpoint.
func (st *Store) CheckpointBytes() ([]byte, error) {
	st.ckptMu.Lock()
	defer st.ckptMu.Unlock()
	if st.closed {
		return nil, ErrStoreClosed
	}
	b, err := os.ReadFile(filepath.Join(st.dir, checkpointName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoCheckpoint
	}
	if err != nil {
		return nil, fmt.Errorf("janus: reading checkpoint: %w", err)
	}
	return b, nil
}

// InitReplicaDir initializes an empty data directory from a primary's
// checkpoint image: it writes the checkpoint and creates both segment logs
// with headers based at the checkpoint's offsets — exactly the layout a
// checkpoint-then-Compact pass leaves behind, minus the tail. OpenStore
// over the result yields a store whose topics resume at the checkpoint
// offsets; a standby then appends the primary's post-base log tail as it
// streams in, and Recover works at any point after that.
//
// The image's header must pass Recover's checks; the rest is not decoded.
// The directory must not already hold store files (a replica never
// overwrites data — wipe explicitly and re-bootstrap instead). On error
// the directory may hold partial files; the caller should remove it and
// retry the bootstrap.
func InitReplicaDir(dir string, checkpoint []byte) error {
	hdr, err := readCheckpointHeader(gob.NewDecoder(bytes.NewReader(checkpoint)))
	if err != nil {
		return fmt.Errorf("janus: replica checkpoint image: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("janus: creating replica dir: %w", err)
	}
	for _, name := range []string{checkpointName, insertsLogName, deletesLogName} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return fmt.Errorf("janus: replica dir %s already holds %s: refusing to overwrite", dir, name)
		}
	}
	logHeader := func(base int64) func(*os.File) error {
		return func(f *os.File) error { return broker.WriteSegmentHeader(f, base) }
	}
	// Logs first, checkpoint last: the checkpoint's offsets must never
	// reference logs that do not exist yet, mirroring WriteCheckpoint's
	// fsync ordering. A crash in between leaves header-only logs and no
	// checkpoint — an obviously half-made directory the caller wipes.
	for _, file := range []struct {
		name  string
		write func(*os.File) error
	}{
		{insertsLogName, logHeader(hdr.InsertOffset)},
		{deletesLogName, logHeader(hdr.DeleteOffset)},
		{checkpointName, func(f *os.File) error { _, err := f.Write(checkpoint); return err }},
	} {
		if err := publishFile(filepath.Join(dir, file.name), file.write); err != nil {
			return fmt.Errorf("janus: writing replica %s: %w", file.name, err)
		}
	}
	return nil
}

// publishFile is broker.PublishFile for a caller that keeps no handle on
// the published file.
func publishFile(path string, write func(*os.File) error) error {
	f, err := broker.PublishFile(path, write)
	if f != nil {
		_ = f.Close() // fsynced and renamed already: a close error changes nothing
	}
	return err
}
