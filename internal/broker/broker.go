// Package broker is the in-process stand-in for the Apache Kafka deployment
// JanusAQP runs on (Section 3.2 of the paper).
//
// It preserves exactly the properties the system relies on:
//
//   - three ordered topics — insert(tuple), delete(tuple), execute(query) —
//     with offset-addressable, append-only logs (PSoup-style: both data and
//     queries are streams);
//   - batch polling: Poll(offset, max) returns up to max records starting at
//     an offset, like the Kafka consumer API, with *no* random-access reads
//     other than by offset;
//   - archival storage: the broker retains the full log, and additionally
//     maintains a live-table Archive supporting uniform random sampling of
//     the *current* database state, used for reservoir re-draws and
//     catch-up sampling (Section 2.1 allows offline access to cold storage).
//     Durable deployments may trade the archival property for bounded
//     growth: once a checkpoint pins a live-table snapshot, the log prefix
//     below it is redundant and CompactTo drops it from memory and disk.
//
// Everything runs in process, so it has no network or API costs to report:
// Appendix A's sampler costs (Table 4) are not measured by this package.
package broker

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"

	"janusaqp/internal/data"
)

// Kind distinguishes the record types flowing through topics.
type Kind int

const (
	// KindInsert carries a new tuple.
	KindInsert Kind = iota
	// KindDelete carries the identity of a tuple to remove.
	KindDelete
)

// Record is one message in a topic.
type Record struct {
	Kind  Kind
	Tuple data.Tuple
	// Seq is the broker-wide publish sequence number, stamped by the
	// Publish* methods. Offsets order records within one topic; Seq orders
	// them across the insert and delete topics, which is what lets a crash
	// recovery replay a delete and a later re-insert of the same id in the
	// order they actually happened. Records appended to a topic directly
	// (not via a broker publish) carry Seq 0 and merge as "inserts first".
	Seq int64
}

// Topic is an ordered, append-only log of records, safe for concurrent use.
// A topic may be backed by a durable segment log (see Persist and
// OpenTopic): every append is then encoded and written through to the
// attached writer under the topic lock, so the on-disk log is always a
// prefix-consistent image of the in-memory one.
//
// A topic may be compacted (CompactTo): records below a base offset are
// dropped from memory and disk once a checkpoint pins an equivalent
// live-table snapshot. Offsets are stable across compaction — Append keeps
// returning globally monotone offsets, Len keeps counting from record
// zero, and Poll simply cannot reach below BaseOffset anymore.
type Topic struct {
	mu sync.RWMutex
	// base is the global offset of recs[0]: records below it were
	// compacted away after a checkpoint made them redundant. Zero for a
	// topic that retains its full history.
	base int64
	recs []Record

	// Durable backing state (persist.go). persisted counts records already
	// encoded to w (as an index into recs, i.e. relative to base);
	// magicOnLog records that the attached log already starts with the log
	// magic (set by OpenTopic, or by Persist after writing it), so a topic
	// restored from a header-only log never writes a second header; werr
	// latches the first write-through failure so Sync can report it;
	// detached marks a log deliberately closed (Store.Close), so a later
	// append latches ErrLogClosed instead of a confusing file error.
	w          io.Writer
	persisted  int
	magicOnLog bool
	werr       error
	detached   bool
}

// Append adds a record to the end of the log and returns its offset.
func (t *Topic) Append(r Record) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recs = append(t.recs, r)
	t.writeThroughLocked()
	return t.base + int64(len(t.recs)-1)
}

// AppendBatch adds records to the end of the log under one lock
// acquisition and returns the offset of the first.
func (t *Topic) AppendBatch(recs []Record) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	first := t.base + int64(len(t.recs))
	t.recs = append(t.recs, recs...)
	t.writeThroughLocked()
	return first
}

// Len returns the number of records ever appended to the log — the next
// offset to be assigned. Compaction does not change it: offsets published
// to pollers, followers, and checkpoints stay stable.
func (t *Topic) Len() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.base + int64(len(t.recs))
}

// BaseOffset returns the lowest offset the topic still holds. Zero until
// the topic is compacted; records below it live only in checkpoints.
func (t *Topic) BaseOffset() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.base
}

// Poll returns up to max records starting at offset, mirroring the Kafka
// consumer poll() API. It returns the batch and the next offset to poll
// from. Polling past the end returns an empty batch; polling below the
// compaction base returns records from the base (consumers needing the
// compacted prefix must bootstrap from a checkpoint's archive snapshot —
// check BaseOffset when attaching below it).
func (t *Topic) Poll(offset int64, max int) ([]Record, int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.base + int64(len(t.recs))
	if offset < t.base {
		offset = t.base
	}
	if offset >= n {
		return nil, n
	}
	end := offset + int64(max)
	if end > n {
		end = n
	}
	out := make([]Record, end-offset)
	copy(out, t.recs[offset-t.base:end-t.base])
	return out, end
}

// Broker bundles the three JanusAQP topics plus the live-table archive.
type Broker struct {
	Inserts *Topic
	Deletes *Topic
	archive *Archive

	// seq issues the broker-wide publish sequence stamped onto records (see
	// Record.Seq); the first published record gets Seq 1. pubMu holds the
	// archive application, the Seq stamp, and the topic append together as
	// one atomic publish: stamping outside the lock would let concurrent
	// publishers append in non-Seq order, and a delete stamped between
	// another publisher's archive insert and its append would replay before
	// the insert on recovery — resurrecting an acknowledged delete. The
	// recovery-side sorted merge (ReplayMerged) depends on Seq order
	// agreeing with archive application order.
	pubMu sync.Mutex
	seq   atomic.Int64
}

// New returns an empty broker.
func New() *Broker {
	return &Broker{Inserts: &Topic{}, Deletes: &Topic{}, archive: NewArchive()}
}

// Restore builds a broker over previously persisted topics (see OpenTopic)
// with an empty archive. The publish sequence resumes past the highest Seq
// found in either topic, so records published after a recovery keep the
// global ordering monotone.
func Restore(inserts, deletes *Topic) *Broker {
	b := &Broker{Inserts: inserts, Deletes: deletes, archive: NewArchive()}
	max := int64(0)
	for _, t := range []*Topic{inserts, deletes} {
		t.mu.RLock()
		for _, r := range t.recs {
			if r.Seq > max {
				max = r.Seq
			}
		}
		t.mu.RUnlock()
	}
	b.seq.Store(max)
	return b
}

// Archive returns the live-table archive tracking the current database
// state (cold storage in the paper's terminology).
func (b *Broker) Archive() *Archive { return b.archive }

// ResumeSeq re-derives the publish sequence counter from the topics'
// current contents, raising it past any record appended outside the
// Publish* paths. A replication follower appends primary-stamped records
// directly to its topics; a promotion must call this before publishing,
// or fresh records would mint Seq numbers colliding with replicated ones
// and a later crash recovery would replay the merged tail out of order.
// Not safe concurrently with publishes — call it during role transitions.
func (b *Broker) ResumeSeq() {
	max := b.seq.Load()
	for _, t := range []*Topic{b.Inserts, b.Deletes} {
		t.mu.RLock()
		for _, r := range t.recs {
			if r.Seq > max {
				max = r.Seq
			}
		}
		t.mu.RUnlock()
	}
	b.seq.Store(max)
}

// PublishInsert applies the tuple to the archive and then appends it to
// the insert topic. Archive first: Insert panics on a duplicate live ID,
// and appending before validating would leave a phantom record in the
// topic that no synopsis or archive ever applied — stream followers
// (Engine.Sync) would replay it even though the publish failed.
func (b *Broker) PublishInsert(t data.Tuple) {
	b.pubMu.Lock()
	defer b.pubMu.Unlock()
	b.archive.Insert(t)
	b.Inserts.Append(Record{Kind: KindInsert, Tuple: t, Seq: b.seq.Add(1)})
}

// PublishInsertBatch publishes a whole batch: each lock is taken once for
// the batch rather than once per tuple — the broker half of the batched
// ingest fast path. Like PublishInsert, the archive applies first (it
// panics on a duplicate live ID before any phantom record reaches the
// topic); callers that pre-validate ids under the engine's update lock
// never trip it.
func (b *Broker) PublishInsertBatch(tuples []data.Tuple) {
	b.pubMu.Lock()
	defer b.pubMu.Unlock()
	b.archive.InsertBatch(tuples)
	recs := make([]Record, len(tuples))
	for i, t := range tuples {
		recs[i] = Record{Kind: KindInsert, Tuple: t, Seq: b.seq.Add(1)}
	}
	b.Inserts.AppendBatch(recs)
}

// PublishDelete appends a deletion to the delete topic and applies it to
// the archive. It returns false when the tuple is unknown to the archive.
func (b *Broker) PublishDelete(id int64) bool {
	b.pubMu.Lock()
	defer b.pubMu.Unlock()
	b.Deletes.Append(Record{Kind: KindDelete, Tuple: data.Tuple{ID: id}, Seq: b.seq.Add(1)})
	return b.archive.Delete(id)
}

// PublishDeleteBatch publishes a batch of deletions, taking each lock once.
// It returns how many ids were live and removed.
func (b *Broker) PublishDeleteBatch(ids []int64) int {
	b.pubMu.Lock()
	defer b.pubMu.Unlock()
	recs := make([]Record, len(ids))
	for i, id := range ids {
		recs[i] = Record{Kind: KindDelete, Tuple: data.Tuple{ID: id}, Seq: b.seq.Add(1)}
	}
	b.Deletes.AppendBatch(recs)
	return b.archive.DeleteBatch(ids)
}

// Archive is the current database state with O(1) insertion, deletion, and
// uniform random sampling — the cold storage that initialization,
// re-optimization, and catch-up read from.
type Archive struct {
	mu    sync.RWMutex
	items []data.Tuple
	pos   map[int64]int
}

// NewArchive returns an empty archive.
func NewArchive() *Archive {
	return &Archive{pos: make(map[int64]int)}
}

// grow pre-sizes an empty archive for n upcoming rows, so a bulk restore
// pays one allocation instead of a rehash cascade. A no-op once the
// archive holds anything, or for a non-positive n.
func (a *Archive) grow(n int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.items) != 0 || n <= 0 {
		return
	}
	a.pos = make(map[int64]int, n)
	a.items = make([]data.Tuple, 0, n)
}

// Insert stores t. Inserting a live ID twice panics: stream producers must
// assign fresh IDs.
func (a *Archive) Insert(t data.Tuple) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.pos[t.ID]; dup {
		panic(fmt.Sprintf("broker: duplicate live tuple id %d", t.ID))
	}
	a.pos[t.ID] = len(a.items)
	a.items = append(a.items, t)
}

// InsertBatch stores every tuple under one lock acquisition, panicking on
// a duplicate live ID exactly as Insert does.
func (a *Archive) InsertBatch(tuples []data.Tuple) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, t := range tuples {
		if _, dup := a.pos[t.ID]; dup {
			panic(fmt.Sprintf("broker: duplicate live tuple id %d", t.ID))
		}
		a.pos[t.ID] = len(a.items)
		a.items = append(a.items, t)
	}
}

// DeleteBatch removes the tuples with the given ids under one lock
// acquisition, returning how many were live.
func (a *Archive) DeleteBatch(ids []int64) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	removed := 0
	for _, id := range ids {
		if a.deleteLocked(id) {
			removed++
		}
	}
	return removed
}

// Delete removes the tuple with the given id, reporting whether it existed.
func (a *Archive) Delete(id int64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.deleteLocked(id)
}

func (a *Archive) deleteLocked(id int64) bool {
	i, ok := a.pos[id]
	if !ok {
		return false
	}
	last := len(a.items) - 1
	delete(a.pos, id)
	if i != last {
		a.items[i] = a.items[last]
		a.pos[a.items[i].ID] = i
	}
	a.items = a.items[:last]
	return true
}

// Get returns the live tuple with the given id.
func (a *Archive) Get(id int64) (data.Tuple, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	i, ok := a.pos[id]
	if !ok {
		return data.Tuple{}, false
	}
	return a.items[i], true
}

// Len returns the live-table cardinality |D|.
func (a *Archive) Len() int64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return int64(len(a.items))
}

// SampleUniform draws n tuples uniformly at random without replacement
// (fewer when the table is smaller than n).
func (a *Archive) SampleUniform(n int, rng *rand.Rand) []data.Tuple {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if n >= len(a.items) {
		out := make([]data.Tuple, len(a.items))
		copy(out, a.items)
		return out
	}
	// The first n of a full random permutation of the rows: O(N) per draw,
	// and the permutation is what every seeded draw reproduces.
	idx := rng.Perm(len(a.items))[:n]
	out := make([]data.Tuple, n)
	for i, j := range idx {
		out[i] = a.items[j]
	}
	return out
}

// ForEach calls fn on every live tuple until fn returns false. The archive
// is read-locked for the duration.
func (a *Archive) ForEach(fn func(data.Tuple) bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, t := range a.items {
		if !fn(t) {
			return
		}
	}
}
