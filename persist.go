package janus

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"janusaqp/internal/broker"
	"janusaqp/internal/core"
	"janusaqp/internal/data"
)

// Synopsis and engine persistence. Two granularities:
//
//   - SaveTemplate/LoadTemplate move one synopsis between processes;
//   - Checkpoint/Store.Recover snapshot and restore the whole engine —
//     every registered template, its SQL schema, the engine counters, and
//     the broker offsets the snapshot is consistent with — under a single
//     update-lock acquisition, so the image is point-in-time: it reflects
//     exactly the writes published through the recorded offsets, and
//     nothing after them.
//
// A checkpoint carries the live-table archive snapshot alongside the
// synopses (format version 2): the snapshot is the net effect of the log
// prefix the recorded offsets cover, which is what lets Store.Compact
// drop that prefix from disk and memory afterwards — recovery installs
// the snapshot and replays only the bounded post-checkpoint tail, so
// restart cost is O(live data + tail) instead of O(total history).
// Version-1 images (no snapshot) still load; recovering them rebuilds
// the archive by replaying the full log, which therefore must not have
// been compacted.
//
// No catch-up snapshot is saved, because none is held: a built synopsis
// ends catch-up at its goal, and a restored one, like it, keeps that
// progress (and the interval widths it implies) until its next
// re-initialization draws a fresh snapshot.

// SaveTemplate writes the named synopsis to w so a later process can
// restore it with LoadTemplate instead of paying a full re-initialization.
// The broker's archival data is not included — it is cold storage.
func (e *Engine) SaveTemplate(template string, w io.Writer) error {
	s, ok := e.lookup(template)
	if !ok {
		return fmt.Errorf("janus: %w %q", ErrUnknownTemplate, template)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dpt.Encode(w)
}

// validateRestoredSynopsis checks a decoded synopsis against the template
// declaration it is being registered under: the projection, aggregation
// focus, and arity baked into the saved image must match the declaration,
// or every later query would silently read the wrong columns — and every
// later ingest would validate tuples against the wrong shape. This is the
// restore-side twin of the registration-path validation (AddTemplate,
// RegisterSchema): a stale or mislabeled checkpoint must be rejected at
// load, not discovered in production answers.
func validateRestoredSynopsis(t Template, dpt *core.DPT) error {
	cfg := dpt.Config()
	if len(t.PredicateDims) != cfg.Dims {
		return fmt.Errorf("janus: %w: template %q projects %d dimensions, saved synopsis has %d",
			ErrSchemaMismatch, t.Name, len(t.PredicateDims), cfg.Dims)
	}
	for i, d := range t.PredicateDims {
		if cfg.PredicateDims != nil && cfg.PredicateDims[i] != d {
			return fmt.Errorf("janus: %w: template %q projects dimension %d at position %d, saved synopsis projects %d",
				ErrSchemaMismatch, t.Name, d, i, cfg.PredicateDims[i])
		}
	}
	if t.AggIndex != cfg.AggIndex {
		return fmt.Errorf("janus: %w: template %q aggregates attribute %d, saved synopsis aggregates %d",
			ErrSchemaMismatch, t.Name, t.AggIndex, cfg.AggIndex)
	}
	if t.Agg != cfg.Agg {
		return fmt.Errorf("janus: %w: template %q declares a different focus aggregate than the saved synopsis",
			ErrSchemaMismatch, t.Name)
	}
	return nil
}

// LoadTemplate restores a synopsis saved with SaveTemplate, registering it
// under the template's declared name. The restored synopsis serves queries
// immediately; its statistics resume refinement at the next
// re-initialization. The declaration is validated against the saved image
// (see validateRestoredSynopsis): loading a synopsis under a template with
// a different projection or aggregation shape wraps ErrSchemaMismatch.
func (e *Engine) LoadTemplate(t Template, r io.Reader) error {
	if t.Name == "" {
		return fmt.Errorf("janus: template needs a name")
	}
	e.upd.Lock()
	defer e.upd.Unlock()
	return e.loadTemplateUpdLocked(t, nil, r)
}

// loadTemplateUpdLocked decodes, validates, and registers one synopsis,
// with its optional SQL schema. Caller holds e.upd.
func (e *Engine) loadTemplateUpdLocked(t Template, schema *TableSchema, r io.Reader) error {
	if _, dup := e.lookup(t.Name); dup {
		return fmt.Errorf("janus: %w %q", ErrDuplicateTemplate, t.Name)
	}
	dpt, err := core.Decode(r, e.resampler())
	if err != nil {
		return fmt.Errorf("janus: restoring template %q: %w", t.Name, err)
	}
	if err := validateRestoredSynopsis(t, dpt); err != nil {
		return err
	}
	if schema != nil {
		// The schema rides the same validation as RegisterSchema: a stale
		// checkpoint whose AggCols arity disagrees with the synopsis's
		// tracked NumVals must not register — SQL would compile reads of
		// columns that silently come back zero.
		if err := validateSchema(*schema, t, dpt.Config().NumVals); err != nil {
			return err
		}
	}
	e.registerSynopsis(&synopsis{tmpl: t, dpt: dpt, schema: schema})
	return nil
}

// --- engine-wide checkpoints -------------------------------------------------

// checkpointVersion versions the engine checkpoint container; the
// per-synopsis image carries its own version inside core. Version 2 added
// the live-table archive snapshot (HasArchive/ArchiveRows plus the tuple
// chunks after the templates); version-1 images remain loadable.
const checkpointVersion = 2

// archiveChunkLen bounds one gob-encoded snapshot chunk so neither side
// ever materializes the whole live table as a single value.
const archiveChunkLen = 4096

// checkpointHeader opens a checkpoint stream.
type checkpointHeader struct {
	Version int
	// InsertOffset and DeleteOffset are the engine broker's topic lengths
	// at snapshot time: every record below them is reflected in the
	// synopses of this checkpoint, and no record at or above them is. A
	// warm restart rebuilds the archive to these offsets and replays the
	// log tail from them.
	InsertOffset, DeleteOffset int64
	// FollowInsertOffset and FollowDeleteOffset are the followed external
	// broker's consumption watermark (Engine.FollowOffsets) — where a
	// recovered supervisor should resume Follow.
	FollowInsertOffset, FollowDeleteOffset int64
	// Engine counters, restored so operational history survives restarts.
	Reinits, TriggersFired, TriggersRejected int
	StreamRejected                           int64
	// Templates is the number of checkpointTemplate records that follow.
	Templates int
	// HasArchive reports that ArchiveRows live tuples follow the templates
	// in chunks of at most archiveChunkLen — the live-table snapshot at the
	// recorded offsets, in archive iteration order (order feeds uniform
	// sampling, so it must survive the round trip exactly). Version-1
	// images decode both fields as zero.
	HasArchive  bool
	ArchiveRows int64
}

// checkpointTemplate is one template's slice of a checkpoint.
type checkpointTemplate struct {
	Template Template
	Schema   *TableSchema
	// Sync records the engine broker offsets this template's synopsis
	// reflects. Today every template is maintained in lockstep under the
	// update lock, so all templates carry the header offsets; the
	// per-template field keeps the format honest if maintenance ever
	// shards.
	Sync SyncState
	// Synopsis is the core encoding (SaveTemplate's payload).
	Synopsis []byte
}

// CheckpointInfo describes a written checkpoint.
type CheckpointInfo struct {
	Templates    int   `json:"templates"`
	InsertOffset int64 `json:"insertOffset"`
	DeleteOffset int64 `json:"deleteOffset"`
	ArchiveRows  int64 `json:"archiveRows"`
	Bytes        int64 `json:"bytes"`
}

// countingWriter measures a checkpoint as it streams out.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Checkpoint writes a point-in-time image of the whole engine to w: every
// registered template with its schema and synopsis, the engine counters,
// and the broker offsets the image is consistent with. The entire snapshot
// runs under one acquisition of the update lock, which excludes every
// mutator (ingest, stream application, catch-up, re-initialization), so
// the offsets and every synopsis describe the same instant — restoring the
// image and replaying the log from the recorded offsets loses nothing and
// double-applies nothing.
//
// Queries keep flowing while a checkpoint runs: encoding takes only
// per-synopsis read locks. Writes block for the duration, as they do for
// any other maintenance step.
func (e *Engine) Checkpoint(w io.Writer) (CheckpointInfo, error) {
	sp := e.spans.start()
	defer func() { e.spans.end(SpanCheckpointSave, 0, sp) }()
	e.upd.Lock()
	defer e.upd.Unlock()

	hdr := checkpointHeader{
		Version:      checkpointVersion,
		InsertOffset: e.broker.Inserts.Len(),
		DeleteOffset: e.broker.Deletes.Len(),
	}
	follow := e.FollowOffsets()
	hdr.FollowInsertOffset = follow.InsertOffset
	hdr.FollowDeleteOffset = follow.DeleteOffset
	e.statsMu.Lock()
	hdr.Reinits = e.reinits
	hdr.TriggersFired = e.triggersFired
	hdr.TriggersRejected = e.triggersRejected
	hdr.StreamRejected = e.streamRejected
	e.statsMu.Unlock()

	// Name order is deterministic: equal engine state encodes to equal
	// bytes, which the crash-recovery harness leans on.
	syns := e.snapshotSyns()
	hdr.Templates = len(syns)

	// The live table rides along (see the file comment): it is what makes
	// the log prefix below the offsets disposable. Its iteration order is
	// already deterministic for a given publish history, and a restored
	// archive must reproduce it exactly — the layout feeds uniform draws.
	archive := e.broker.Archive()
	hdr.HasArchive = true
	hdr.ArchiveRows = archive.Len()

	cw := &countingWriter{w: w}
	enc := gob.NewEncoder(cw)
	if err := enc.Encode(&hdr); err != nil {
		return CheckpointInfo{}, fmt.Errorf("janus: writing checkpoint header: %w", err)
	}
	for _, s := range syns {
		name := s.tmpl.Name
		var syn bytes.Buffer
		s.mu.RLock()
		err := s.dpt.Encode(&syn)
		schema := s.schema
		s.mu.RUnlock()
		if err != nil {
			return CheckpointInfo{}, fmt.Errorf("janus: encoding template %q: %w", name, err)
		}
		ct := checkpointTemplate{
			Template: s.tmpl,
			Schema:   schema,
			Sync:     SyncState{InsertOffset: hdr.InsertOffset, DeleteOffset: hdr.DeleteOffset},
			Synopsis: syn.Bytes(),
		}
		if err := enc.Encode(&ct); err != nil {
			return CheckpointInfo{}, fmt.Errorf("janus: writing template %q: %w", name, err)
		}
	}
	// Stream the snapshot in bounded chunks so neither side materializes
	// the live table as one value; the update lock already excludes every
	// mutator, so the image stays consistent with the header offsets. Each
	// chunk is the broker's fixed-width tuple encoding carried as one gob
	// byte slice — restart latency rides on decode speed, and the binary
	// codec is an order of magnitude faster than reflective gob tuples.
	chunk := make([]data.Tuple, 0, archiveChunkLen)
	var encErr error
	flush := func() {
		encErr = enc.Encode(broker.EncodeTupleChunk(chunk))
		chunk = chunk[:0]
	}
	archive.ForEach(func(t data.Tuple) bool {
		chunk = append(chunk, t)
		if len(chunk) == archiveChunkLen {
			flush()
		}
		return encErr == nil
	})
	if encErr == nil && len(chunk) > 0 {
		flush()
	}
	if encErr != nil {
		return CheckpointInfo{}, fmt.Errorf("janus: writing archive snapshot: %w", encErr)
	}
	return CheckpointInfo{
		Templates:    len(syns),
		InsertOffset: hdr.InsertOffset,
		DeleteOffset: hdr.DeleteOffset,
		ArchiveRows:  hdr.ArchiveRows,
		Bytes:        cw.n,
	}, nil
}

// readCheckpointHeader decodes the header that opens a checkpoint stream
// and applies the one rule set every reader of an image shares: a known
// version, no negative count or offset, no archive rows without an archive.
func readCheckpointHeader(dec *gob.Decoder) (checkpointHeader, error) {
	var hdr checkpointHeader
	if err := dec.Decode(&hdr); err != nil {
		return hdr, fmt.Errorf("reading checkpoint header: %w", err)
	}
	if hdr.Version != 1 && hdr.Version != checkpointVersion {
		return hdr, fmt.Errorf("unsupported checkpoint version %d", hdr.Version)
	}
	if hdr.Templates < 0 || hdr.InsertOffset < 0 || hdr.DeleteOffset < 0 ||
		hdr.ArchiveRows < 0 || (!hdr.HasArchive && hdr.ArchiveRows != 0) {
		return hdr, fmt.Errorf("corrupt checkpoint header")
	}
	return hdr, nil
}

// openCheckpoint restores an engine from a checkpoint written by
// Checkpoint: a fresh engine over b with every template, schema, counter,
// and watermark the image carries, plus — for a version-2 image — the
// live-table archive snapshot installed into b's archive. It returns the
// SyncState the image is consistent with — the engine broker offsets the
// caller must replay the log tail from — and hasArchive, which tells
// Store.Recover whether the archive was installed from the image
// (bounded-tail recovery) or must be rebuilt by replaying the full log
// prefix (version-1 images, which predate compaction).
//
// Every template rides the same validation as LoadTemplate and
// RegisterSchema; corrupted synopsis bytes error (never panic), and a
// mismatched schema or template declaration wraps ErrSchemaMismatch.
func openCheckpoint(r io.Reader, cfg Config, b *Broker) (*Engine, SyncState, bool, error) {
	fail := func(err error) (*Engine, SyncState, bool, error) {
		return nil, SyncState{}, false, err
	}
	dec := gob.NewDecoder(r)
	hdr, err := readCheckpointHeader(dec)
	if err != nil {
		return fail(fmt.Errorf("janus: %w", err))
	}
	e := NewEngine(cfg, b)
	state := SyncState{InsertOffset: hdr.InsertOffset, DeleteOffset: hdr.DeleteOffset}
	e.upd.Lock()
	defer e.upd.Unlock()
	for i := 0; i < hdr.Templates; i++ {
		var ct checkpointTemplate
		if err := dec.Decode(&ct); err != nil {
			return fail(fmt.Errorf("janus: reading checkpoint template %d/%d: %w", i+1, hdr.Templates, err))
		}
		if ct.Template.Name == "" {
			return fail(fmt.Errorf("janus: checkpoint template %d has no name", i+1))
		}
		if err := e.loadTemplateUpdLocked(ct.Template, ct.Schema, bytes.NewReader(ct.Synopsis)); err != nil {
			return fail(err)
		}
		// Checkpoint bytes are untrusted, and Checkpoint only ever writes
		// per-template offsets equal to the header's (the snapshot is taken
		// under one update-lock acquisition). A decoded mismatch is
		// corruption; accepting a lower offset would move the replay start
		// and double-apply records into synopses that already reflect them
		// — corrupt answers, not an error — so require equality.
		if ct.Sync != state {
			return fail(fmt.Errorf(
				"janus: checkpoint template %q offsets %d/%d disagree with the header's %d/%d",
				ct.Template.Name, ct.Sync.InsertOffset, ct.Sync.DeleteOffset,
				hdr.InsertOffset, hdr.DeleteOffset))
		}
	}
	if hdr.HasArchive {
		// Decode and install the live-table snapshot chunk by chunk; the
		// declared row count is untrusted, so progress is driven by what
		// actually decodes and the total must land exactly on it.
		if n := b.Archive().Len(); n != 0 {
			return fail(fmt.Errorf("janus: checkpoint carries an archive snapshot but the broker archive already holds %d rows", n))
		}
		var installed int64
		for installed < hdr.ArchiveRows {
			var raw []byte
			if err := dec.Decode(&raw); err != nil {
				return fail(fmt.Errorf("janus: reading archive snapshot (%d/%d rows): %w",
					installed, hdr.ArchiveRows, err))
			}
			chunk, err := broker.DecodeTupleChunk(raw)
			if err != nil {
				return fail(fmt.Errorf("janus: archive snapshot at %d/%d rows: %w",
					installed, hdr.ArchiveRows, err))
			}
			if len(chunk) == 0 || installed+int64(len(chunk)) > hdr.ArchiveRows {
				return fail(fmt.Errorf("janus: corrupt archive snapshot chunk (%d rows at %d/%d)",
					len(chunk), installed, hdr.ArchiveRows))
			}
			if installed == 0 {
				// The first chunk decoding cleanly is the point where the
				// declared row count stops being attacker-convenient fiction;
				// pre-sizing here turns the install into one allocation.
				b.GrowArchive(hdr.ArchiveRows)
			}
			if err := b.RestoreArchiveSnapshot(chunk); err != nil {
				return fail(err)
			}
			installed += int64(len(chunk))
		}
	}
	e.statsMu.Lock()
	e.reinits = hdr.Reinits
	e.triggersFired = hdr.TriggersFired
	e.triggersRejected = hdr.TriggersRejected
	e.streamRejected = hdr.StreamRejected
	e.statsMu.Unlock()
	e.follow.restore(SyncState{InsertOffset: hdr.FollowInsertOffset, DeleteOffset: hdr.FollowDeleteOffset})
	return e, state, hdr.HasArchive, nil
}
