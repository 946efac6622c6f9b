package janus

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"janusaqp/internal/broker"
	"janusaqp/internal/core"
	"janusaqp/internal/data"
	"janusaqp/internal/partition"
)

// The error taxonomy. Every failure an Engine method can report wraps
// one of these sentinels, so callers branch with errors.Is instead of
// recovering panics or string-matching; the wrapping error carries the
// offending name, id, or arity.
var (
	// ErrUnknownTemplate reports a call naming a template the engine does
	// not have.
	ErrUnknownTemplate = errors.New("unknown template")
	// ErrDuplicateTemplate reports registering a template name twice.
	ErrDuplicateTemplate = errors.New("duplicate template")
	// ErrSchemaMismatch reports a tuple whose Key or Vals arity does not
	// cover every registered template — ingesting it would either panic in
	// a synopsis projection or silently read missing columns as zero.
	ErrSchemaMismatch = errors.New("tuple schema mismatch")
	// ErrUnknownID reports a deletion of an id the archive does not hold.
	ErrUnknownID = errors.New("unknown tuple id")
	// ErrDuplicateID reports an insertion whose id is already live, or
	// repeated within one batch: stream producers must assign fresh IDs.
	ErrDuplicateID = errors.New("duplicate tuple id")
	// ErrInvalidRequest reports a malformed Request (see Request.Validate).
	ErrInvalidRequest = errors.New("invalid request")
	// ErrShardUnavailable reports that a remote shard node could not be
	// reached (after retry and failover); the wrapping error names the
	// shard index. The HTTP surface maps it to 503.
	ErrShardUnavailable = errors.New("shard unavailable")
)

// BatchIDError reports the ids a batch operation could not resolve. It
// wraps ErrUnknownID; retrieve the id list with errors.As.
type BatchIDError struct{ IDs []int64 }

func (e *BatchIDError) Error() string {
	return fmt.Sprintf("janus: %d unknown tuple ids (first %d)", len(e.IDs), e.IDs[0])
}

// Unwrap makes errors.Is(err, ErrUnknownID) match.
func (e *BatchIDError) Unwrap() error { return ErrUnknownID }

// Engine manages a collection of DPT synopses — one per query template —
// maintaining them under the broker's insert/delete streams, driving
// catch-up processing, and re-optimizing partitionings when triggers fire
// (Figure 1 of the paper).
//
// Engine methods are safe for concurrent use. Locking is sharded so that
// the engine serves parallel read traffic (the serving workload of
// Section 3.2, dashboards issuing continuous approximate queries):
//
//   - reg guards the template registry (the syns map) only;
//   - each synopsis carries its own RWMutex: queries on different
//     templates proceed fully in parallel, read-only queries on the same
//     template share an RLock, and only maintenance writes (stream
//     application, re-initialization swaps) take the per-synopsis write
//     lock;
//   - upd is the update lock: every mutation of broker archive state and
//     synopsis contents runs under it, so a broker publish and its
//     application to the synopses are one atomic step. Without it a
//     racing re-initialization could sample the archive *after* a publish
//     but *before* the corresponding synopsis application and double-count
//     the in-flight tuple.
//
// Lock ordering is upd → reg → synopsis.mu; read paths take reg and the
// synopsis lock only, so queries never contend on upd. The lockorder
// analyzer in internal/lint (run in CI as `go vet -vettool` janusvet)
// enforces this ordering mechanically — changes here must keep its
// lockHierarchy table in sync.
type Engine struct {
	cfg    Config
	broker *Broker

	reg  sync.RWMutex
	syns map[string]*synopsis
	// ordered holds syns' values sorted by template name, and is what every
	// iteration walks: templates share the engine rng (re-initializations
	// draw from it), so ranging over the map would make a multi-template
	// engine irreproducible for a fixed seed. It is copy-on-write under reg
	// — a published slice is never mutated — so readers may keep it past
	// the lock.
	ordered []*synopsis

	// upd serializes all state mutations: Insert/Delete, trigger
	// evaluation, re-initialization swaps, and template builds.
	// rng and updatesSinceTriggerCheck are guarded by it.
	upd sync.Mutex
	rng *rand.Rand

	// statsMu guards the counters below, separately from upd so
	// Stats() never parks behind a long re-initialization.
	statsMu sync.Mutex

	// follow is the followed-stream watermark: how far Sync has applied an
	// external broker's topics, and the wake channel read-your-writes
	// waiters (Request.MinSyncOffset) park on. Checkpoints persist both
	// offsets so a restarted engine resumes Follow where it stopped
	// instead of from zero.
	follow watermark

	// streamRejected counts stream records Sync skipped because they failed
	// validation (schema mismatch, duplicate id) — guarded by statsMu.
	streamRejected int64

	// spans is the atomically swappable SpanObserver slot; with no
	// observer installed every instrumented section costs one atomic load.
	spans spanSink

	// reinits counts completed re-initializations across all templates.
	reinits int
	// triggersFired counts trigger evaluations that led to a candidate
	// partitioning being computed.
	triggersFired int
	// triggersRejected counts candidates whose improvement fell short of
	// the β bar and were discarded.
	triggersRejected int

	updatesSinceTriggerCheck int
}

type synopsis struct {
	mu   sync.RWMutex // guards dpt (pointer and contents)
	tmpl Template
	dpt  *core.DPT
	// schema is guarded by the engine's reg lock, not mu: compileSQL scans
	// every synopsis's schema to resolve a table name, and taking each
	// synopsis lock in turn would park SQL queries behind write-locked
	// maintenance on unrelated templates.
	schema *TableSchema // optional SQL schema (see RegisterSchema)
}

// NewEngine returns an engine over the broker's data. Add templates with
// AddTemplate before querying.
func NewEngine(cfg Config, b *Broker) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		cfg:    cfg,
		broker: b,
		rng:    rand.New(rand.NewSource(cfg.Seed + 1000)),
		syns:   make(map[string]*synopsis),
	}
}

// Broker returns the engine's streaming substrate.
func (e *Engine) Broker() *Broker { return e.broker }

// lookup returns the named synopsis.
func (e *Engine) lookup(name string) (*synopsis, bool) {
	e.reg.RLock()
	defer e.reg.RUnlock()
	s, ok := e.syns[name]
	return s, ok
}

// snapshotSyns returns the current synopsis set in name order so paths
// that do not hold upd can iterate without holding reg.
func (e *Engine) snapshotSyns() []*synopsis {
	e.reg.RLock()
	defer e.reg.RUnlock()
	return e.ordered
}

// registerSynopsis adds s to the registry. Caller holds e.upd.
func (e *Engine) registerSynopsis(s *synopsis) {
	e.reg.Lock()
	defer e.reg.Unlock()
	e.syns[s.tmpl.Name] = s
	i, _ := slices.BinarySearchFunc(e.ordered, s.tmpl.Name, func(o *synopsis, name string) int {
		return strings.Compare(o.tmpl.Name, name)
	})
	e.ordered = slices.Insert(slices.Clone(e.ordered), i, s)
}

// forEachSynUpdLocked iterates the registry in name order. Caller holds
// e.upd: every registry writer also takes upd first, so the set cannot
// change under the iteration.
func (e *Engine) forEachSynUpdLocked(fn func(*synopsis)) {
	for _, s := range e.snapshotSyns() {
		fn(s)
	}
}

// AddTemplate builds a synopsis for the template from the data currently in
// archival storage (initialization, Section 4.3), including its catch-up
// phase up to the configured rate.
func (e *Engine) AddTemplate(t Template) error {
	if t.Name == "" {
		return fmt.Errorf("janus: template needs a name")
	}
	if len(t.PredicateDims) == 0 {
		return fmt.Errorf("janus: template %q needs at least one predicate attribute", t.Name)
	}
	e.upd.Lock()
	defer e.upd.Unlock()
	if _, dup := e.lookup(t.Name); dup {
		return fmt.Errorf("janus: %w %q", ErrDuplicateTemplate, t.Name)
	}
	dpt, err := e.buildUpdLocked(t, e.cfg.NumVals, e.cfg.Seed, nil)
	if err != nil {
		return err
	}
	e.registerSynopsis(&synopsis{tmpl: t, dpt: dpt})
	return nil
}

// buildUpdLocked is the one synopsis builder, the re-initialization
// procedure of Section 4.3: draw a pooled sample from the archive, let
// core.New optimize a partitioning on it (or adopt bp, a candidate the
// Section 5.4 trigger already optimized), populate approximate statistics,
// and run catch-up to the configured rate, where it ends for good. numVals
// 0 takes the arity of the first pooled tuple. Caller holds e.upd, so the
// archive is quiescent for the duration.
func (e *Engine) buildUpdLocked(t Template, numVals int, seed int64, bp *partition.Blueprint) (*core.DPT, error) {
	n := e.broker.Archive().Len()
	if n == 0 {
		return nil, fmt.Errorf("janus: cannot initialize template %q from an empty archive", t.Name)
	}
	m := max(int(e.cfg.SampleRate*float64(n)), e.cfg.MinSamples)
	pooled := e.broker.Archive().SampleUniform(2*m, e.rng)
	if numVals <= 0 {
		numVals = len(pooled[0].Vals)
	}
	cfg := core.Config{
		PredicateDims:    t.PredicateDims,
		Dims:             len(t.PredicateDims),
		NumVals:          numVals,
		AggIndex:         t.AggIndex,
		Agg:              t.Agg,
		K:                e.cfg.LeafNodes,
		SampleLowerBound: m,
		Beta:             e.cfg.Beta,
		Seed:             seed,
	}
	dpt := core.New(cfg, bp, pooled, n, e.snapshotArchive(), e.resampler())
	dpt.CatchUpTarget(e.cfg.CatchUpRate)
	dpt.EndCatchUp()
	return dpt, nil
}

// reinstallUpdLocked rebuilds s, on bp or on a fresh optimization when bp
// is nil, and swaps the new synopsis in (steps 2–3 of Section 4.3). On
// error the old synopsis stays and nothing is counted. Caller holds e.upd;
// the old synopsis keeps answering queries until the brief write-locked
// pointer swap.
func (e *Engine) reinstallUpdLocked(s *synopsis, bp *partition.Blueprint) error {
	sp := e.spans.start()
	dpt, err := e.buildUpdLocked(s.tmpl, s.dpt.Config().NumVals, e.cfg.Seed+int64(e.reinits)+1, bp)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.dpt = dpt
	s.mu.Unlock()
	e.bumpCounter(&e.reinits)
	e.spans.end(SpanReinit, 0, sp)
	return nil
}

// snapshotArchive copies the live table for catch-up consumption; core.New
// takes the copy over and shuffles it in place.
func (e *Engine) snapshotArchive() []data.Tuple {
	out := make([]data.Tuple, 0, e.broker.Archive().Len())
	e.broker.Archive().ForEach(func(t data.Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// resampler returns a Resampler drawing fresh uniform samples from the
// archive for reservoir re-draws. It carries its own lock and random
// source: re-draws fire from inside DPT.Delete while the engine update
// lock is already held, so touching e.upd here would deadlock.
func (e *Engine) resampler() func(n int) []data.Tuple {
	var mu sync.Mutex
	src := rand.New(rand.NewSource(e.cfg.Seed + 7777))
	return func(n int) []data.Tuple {
		mu.Lock()
		seed := src.Int63()
		mu.Unlock()
		return e.broker.Archive().SampleUniform(n, rand.New(rand.NewSource(seed)))
	}
}

// InsertBatch validates, publishes, and applies a batch of tuples as one
// atomic step: either every tuple is ingested or none is. The whole batch
// runs under a single acquisition of the update lock, touches each synopsis
// write lock once, and evaluates re-partitioning triggers once — the
// amortization that makes batched ingest the fast path (versus a lock
// round-trip and trigger check per tuple).
//
// Validation errors wrap ErrSchemaMismatch (a Key or Vals arity short of a
// registered template) or ErrDuplicateID (an id already live, or repeated
// within the batch); on error no state is mutated. Validation runs before
// any mutation because a half-applied batch would leave the archive, the
// topic, and the synopses divergent — a corruption a recovering supervisor
// (janusd) would then keep serving. Vals arity matters as much as key
// arity: Tuple.Val silently reads out-of-range columns as 0, which would
// skew every aggregate over the missing attributes forever.
func (e *Engine) InsertBatch(tuples []Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	sp := e.spans.start()
	e.upd.Lock()
	defer e.upd.Unlock()
	if err := e.validateBatchUpdLocked(tuples); err != nil {
		return err
	}
	e.applyInsertsUpdLocked(tuples)
	e.spans.end(SpanInsertBatch, 0, sp)
	return nil
}

// validateBatchUpdLocked checks every tuple of a batch against the archive
// (fresh ids) and every registered template (arity) without mutating
// anything. Caller holds e.upd.
func (e *Engine) validateBatchUpdLocked(tuples []Tuple) error {
	var seen map[int64]bool
	if len(tuples) > 1 {
		seen = make(map[int64]bool, len(tuples))
	}
	arities := e.aritiesUpdLocked()
	for _, t := range tuples {
		if seen != nil {
			if seen[t.ID] {
				return fmt.Errorf("janus: %w %d", ErrDuplicateID, t.ID)
			}
			seen[t.ID] = true
		}
		if err := e.admitUpdLocked(t, arities); err != nil {
			return err
		}
	}
	return nil
}

// admitUpdLocked is the single admission predicate both ingest paths
// share — InsertBatch rejects its whole batch on the returned error, the
// stream path skips the record — so the request and stream paths cannot
// drift apart on what a valid tuple is. Caller holds e.upd and passes the
// batch's aritiesUpdLocked snapshot.
func (e *Engine) admitUpdLocked(t Tuple, arities []arity) error {
	if _, live := e.broker.Archive().Get(t.ID); live {
		return fmt.Errorf("janus: %w %d", ErrDuplicateID, t.ID)
	}
	if len(t.Key)+len(t.Vals) > broker.MaxTupleAttrs {
		// Wider than one segment-log frame: the durable log could write it
		// but never read it back, stranding every later record.
		return fmt.Errorf("janus: %w: tuple %d has %d attributes; one record caps at %d",
			ErrSchemaMismatch, t.ID, len(t.Key)+len(t.Vals), broker.MaxTupleAttrs)
	}
	for _, a := range arities {
		if len(t.Key) <= a.maxDim {
			return fmt.Errorf("janus: %w: tuple %d has %d key attributes; template %q projects dimension %d",
				ErrSchemaMismatch, t.ID, len(t.Key), a.name, a.maxDim)
		}
		if len(t.Vals) < a.numVals {
			return fmt.Errorf("janus: %w: tuple %d has %d aggregation attributes; template %q tracks %d",
				ErrSchemaMismatch, t.ID, len(t.Vals), a.name, a.numVals)
		}
	}
	return nil
}

// arity is one template's tuple-shape requirement: keys must cover maxDim
// and vals must cover numVals.
type arity struct {
	name    string
	maxDim  int
	numVals int
}

// aritiesUpdLocked snapshots every template's arity requirement in one
// registry pass — batch validators check tuples against this instead of
// re-walking the registry per tuple. Caller holds e.upd.
func (e *Engine) aritiesUpdLocked() []arity {
	var out []arity
	e.forEachSynUpdLocked(func(s *synopsis) {
		a := arity{name: s.tmpl.Name, maxDim: -1, numVals: s.dpt.Config().NumVals}
		for _, d := range s.tmpl.PredicateDims {
			if d > a.maxDim {
				a.maxDim = d
			}
		}
		out = append(out, a)
	})
	return out
}

// applyInsertsUpdLocked publishes and applies pre-validated tuples: one
// synopsis write-lock acquisition per synopsis, one trigger evaluation for
// the whole batch. Caller holds e.upd.
func (e *Engine) applyInsertsUpdLocked(tuples []Tuple) {
	e.broker.PublishInsertBatch(tuples)
	e.forEachSynUpdLocked(func(s *synopsis) {
		s.apply(func(dpt *core.DPT) {
			for _, t := range tuples {
				dpt.Insert(t)
			}
		})
	})
	e.evaluateTriggersUpdLocked(len(tuples))
}

// apply runs one mutation under the synopsis write lock. The deferred
// unlock matters: a panic escaping the DPT (e.g. a malformed tuple) must
// not leak the lock, or every later reader and writer would wedge — the
// serving daemon recovers such panics and keeps running.
func (s *synopsis) apply(fn func(*core.DPT)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.dpt)
}

// DeleteBatch removes the tuples with the given ids, returning how many
// were live and removed. All removals run under a single acquisition of the
// update lock with one trigger evaluation. Ids the archive does not hold —
// including ids repeated within the batch — are skipped, and reported
// through a *BatchIDError wrapping ErrUnknownID; the live ids are still
// removed (deletions of already-gone rows are routine under concurrent
// producers, so an unknown id must not abort the rest of the batch).
func (e *Engine) DeleteBatch(ids []int64) (int, error) {
	if len(ids) == 0 {
		return 0, nil
	}
	e.upd.Lock()
	defer e.upd.Unlock()
	// Resolve ids to tuples before publishing anything: resolution against
	// the live archive also catches ids repeated within the batch, whose
	// second occurrence is already gone by its own apply step.
	tuples := make([]Tuple, 0, len(ids))
	var missing []int64
	gone := make(map[int64]bool, len(ids))
	for _, id := range ids {
		t, ok := e.broker.Archive().Get(id)
		if !ok || gone[id] {
			missing = append(missing, id)
			continue
		}
		gone[id] = true
		tuples = append(tuples, t)
	}
	if len(tuples) == 0 {
		// Nothing resolved: don't stall readers on synopsis write locks or
		// run a trigger evaluation for a no-op (replayed batches land here).
		return 0, &BatchIDError{IDs: missing}
	}
	live := make([]int64, len(tuples))
	for i, t := range tuples {
		live[i] = t.ID
	}
	sp := e.spans.start()
	e.broker.PublishDeleteBatch(live)
	e.forEachSynUpdLocked(func(s *synopsis) {
		s.apply(func(dpt *core.DPT) {
			for _, t := range tuples {
				dpt.Delete(t)
			}
		})
	})
	e.evaluateTriggersUpdLocked(len(tuples))
	e.spans.end(SpanDeleteBatch, 0, sp)
	if len(missing) > 0 {
		return len(tuples), &BatchIDError{IDs: missing}
	}
	return len(tuples), nil
}

// PumpCatchUp reports false: every synopsis build runs catch-up to
// Config.CatchUpRate and ends it there, so no batch is left to fold.
//
// Deprecated: it stays only because the benchmark module under bench/
// calls it; ROADMAP item 8's coordinated bench/ edit removes it.
func (e *Engine) PumpCatchUp() bool { return false }

// TemplateStats is a point-in-time snapshot of one synopsis's state.
type TemplateStats struct {
	Name            string  `json:"name"`
	CatchUpProgress float64 `json:"catchUpProgress"`
	SynopsisBytes   int64   `json:"synopsisBytes"`
	Leaves          int     `json:"leaves"`
	SampleSize      int     `json:"sampleSize"`
	Population      int64   `json:"population"`
	NumVals         int     `json:"numVals"`
}

// statsForSynLocked snapshots one synopsis under its read lock.
func statsForSynLocked(s *synopsis) TemplateStats {
	return TemplateStats{
		Name:            s.tmpl.Name,
		CatchUpProgress: s.dpt.CatchUpProgress(),
		SynopsisBytes:   s.dpt.MemoryFootprint(),
		Leaves:          s.dpt.NumLeaves(),
		SampleSize:      s.dpt.SampleSize(),
		Population:      s.dpt.Population(),
		NumVals:         s.dpt.Config().NumVals,
	}
}

// StatsFor snapshots one template's synopsis state, reporting
// ErrUnknownTemplate for a name the engine does not have.
func (e *Engine) StatsFor(template string) (TemplateStats, error) {
	s, ok := e.lookup(template)
	if !ok {
		return TemplateStats{}, fmt.Errorf("janus: %w %q", ErrUnknownTemplate, template)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return statsForSynLocked(s), nil
}

// EngineStats is a point-in-time snapshot of engine-wide counters, safe to
// collect while concurrent traffic runs (the /v2/stats payload of janusd).
type EngineStats struct {
	Reinits             int             `json:"reinits"`
	TriggersFired       int             `json:"triggersFired"`
	TriggersRejected    int             `json:"triggersRejected"`
	PartialRepartitions int             `json:"partialRepartitions"`
	ArchiveRows         int64           `json:"archiveRows"`
	StreamRejected      int64           `json:"streamRejected"`
	SyncedInsertOffset  int64           `json:"syncedInsertOffset"`
	Templates           []TemplateStats `json:"templates"`
	// Shards carries each shard's own un-merged snapshot when this stats
	// object came from a ShardGroup — the per-shard breakdown that makes
	// stragglers and skewed hash placement diagnosable. Empty on a single
	// engine.
	Shards []EngineStats `json:"shards,omitempty"`
}

// Stats snapshots the engine counters and per-template state under the
// appropriate locks — never upd, so it stays responsive while a
// re-initialization runs.
func (e *Engine) Stats() EngineStats {
	e.statsMu.Lock()
	st := EngineStats{
		Reinits:          e.reinits,
		TriggersFired:    e.triggersFired,
		TriggersRejected: e.triggersRejected,
		StreamRejected:   e.streamRejected,
	}
	e.statsMu.Unlock()
	st.ArchiveRows = e.broker.Archive().Len()
	st.SyncedInsertOffset = e.SyncedInsertOffset()
	for _, s := range e.snapshotSyns() {
		s.mu.RLock()
		st.PartialRepartitions += s.dpt.PartialRepartitions
		st.Templates = append(st.Templates, statsForSynLocked(s))
		s.mu.RUnlock()
	}
	return st
}

// evaluateTriggersUpdLocked runs the Section 5.4 decision for any synopsis
// with a pending trigger: compute a candidate partitioning from the current
// pooled sample; adopt it (full re-initialization) only when it improves
// the maximum variance by more than β. updates is how many tuple mutations
// the caller just applied (a batch counts each of its tuples toward the
// cooldown, but triggers at most one evaluation — the batch-ingest
// amortization). Caller holds e.upd, which excludes every other mutator;
// per-synopsis write locks are taken only around the actual mutations so
// concurrent queries keep flowing during candidate optimization.
func (e *Engine) evaluateTriggersUpdLocked(updates int) {
	if !e.cfg.AutoRepartition {
		return
	}
	// Computing a candidate partitioning costs Θ(k·polylog m); rate-limit
	// evaluations so a burst of skewed updates amortizes one optimization.
	e.updatesSinceTriggerCheck += updates
	if e.updatesSinceTriggerCheck < e.cfg.TriggerCooldown {
		return
	}
	e.updatesSinceTriggerCheck = 0
	sp := e.spans.start()
	defer func() { e.spans.end(SpanTriggerEval, 0, sp) }()
	e.forEachSynUpdLocked(func(s *synopsis) {
		fired, _ := s.dpt.TriggerPending()
		if !fired {
			return
		}
		e.bumpCounter(&e.triggersFired)
		if e.cfg.PartialRepartition {
			// Appendix E: rebuild only the subtree around the leaf whose
			// trigger fired, keeping every other node's statistics.
			var err error
			s.apply(func(dpt *core.DPT) {
				if err = dpt.RepartitionPendingLeaf(e.cfg.Psi); err == nil {
					dpt.ResetTrigger()
				}
			})
			if err == nil {
				return
			}
		}
		s.apply(func(dpt *core.DPT) { dpt.ResetTrigger() })
		cand := s.dpt.Reoptimize()
		if cand == nil {
			// Not enough improvement: keep the partitioning but refresh the
			// baselines so the same drift does not re-fire immediately.
			s.apply(func(dpt *core.DPT) { dpt.RefreshBaselines() })
			e.bumpCounter(&e.triggersRejected)
			return
		}
		// An empty archive has nothing to rebuild from: the old synopsis
		// keeps serving and nothing is counted.
		_ = e.reinstallUpdLocked(s, cand)
	})
}

// Reinitialize rebuilds the named synopsis from the current archive state
// (the full procedure of Section 4.3, run synchronously under the update
// lock), returning the wall-clock cost of the rebuild. The old synopsis
// keeps serving until the swap. On an empty archive there is nothing to
// rebuild from: the old synopsis stays, reinits is not bumped, and the
// error says so.
func (e *Engine) Reinitialize(template string) (time.Duration, error) {
	e.upd.Lock()
	defer e.upd.Unlock()
	s, ok := e.lookup(template)
	if !ok {
		return 0, fmt.Errorf("janus: %w %q", ErrUnknownTemplate, template)
	}
	start := time.Now()
	if err := e.reinstallUpdLocked(s, nil); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// bumpCounter increments one of the exported counters under statsMu.
func (e *Engine) bumpCounter(c *int) {
	e.statsMu.Lock()
	*c++
	e.statsMu.Unlock()
}

// Template returns the declaration of the named template.
func (e *Engine) Template(name string) (Template, bool) {
	s, ok := e.lookup(name)
	if !ok {
		return Template{}, false
	}
	return s.tmpl, true
}

// SyncedInsertOffset is the read-your-writes watermark: the highest
// insert-topic offset of a followed broker this engine has applied via
// Sync/Follow. A producer that publishes at offset o observes its write in
// query results once SyncedInsertOffset() >= o+1 — which Engine.Do can wait
// for via Request.MinSyncOffset.
func (e *Engine) SyncedInsertOffset() int64 {
	return e.follow.insertOffset()
}

// FollowOffsets returns the followed-broker consumption watermark as a
// SyncState: how far Sync/Follow have applied an external broker's insert
// and delete topics. A checkpoint records it, and a recovered engine's
// supervisor should resume Follow from it — records before the watermark
// are already reflected in the checkpointed synopses, and records replayed
// across it are deduplicated by the stream path's id validation
// (at-least-once delivery, idempotent application).
func (e *Engine) FollowOffsets() SyncState {
	return e.follow.offsets()
}

// Templates lists the registered template names, sorted.
func (e *Engine) Templates() []string {
	syns := e.snapshotSyns()
	out := make([]string, len(syns))
	for i, s := range syns {
		out[i] = s.tmpl.Name
	}
	return out
}
