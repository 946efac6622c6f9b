package janus

import (
	"context"
	"fmt"
	"time"

	"janusaqp/internal/core"
)

// Request is the one query request: it expresses structured rectangle
// queries, on-keys (Section 5.5) queries, and SQL statements, together with
// the per-request options. Exactly one of SQL or Template must be set; see
// Validate for the full rule set.
type Request struct {
	// SQL is a complete statement answered against the registered schemas,
	// e.g. "SELECT SUM(fare) FROM trips WHERE pickup BETWEEN 0 AND 3600".
	// When set, Template and OnKeys must be zero.
	SQL string

	// Template names the synopsis a structured query runs against.
	Template string
	// Query is the structured aggregate (ignored when SQL is set). A Rect
	// with no bounds means the whole universe.
	Query Query
	// OnKeys, when non-nil, answers Query over the given *original* key
	// attributes instead of the template's own predicate projection, via
	// uniform estimation over the pooled sample — the Section 5.5 heuristic
	// for templates the tree was not built for.
	OnKeys []int

	// Confidence overrides the query's confidence level when nonzero; it
	// must lie in (0,1). Zero keeps the query's own level (default 0.95).
	Confidence float64

	// MinSyncOffset, when positive, delays the answer until the engine has
	// applied a followed broker's insert topic through that offset —
	// read-your-writes for a producer that just published at offset
	// MinSyncOffset-1 (see Engine.FollowOffsets). The wait is bounded
	// only by ctx, so pass a deadline: with no Follow/Sync loop running the
	// watermark never advances.
	MinSyncOffset int64

	// Trace, when set, returns a per-stage timing breakdown in
	// Response.Trace. An untraced request takes the identical code path
	// with no extra clock reads — tracing is pay-for-use.
	Trace bool
}

// Response carries a query's Result plus its metadata.
type Response struct {
	// Result is the approximate answer with its confidence interval.
	Result Result
	// Template is the synopsis that answered — resolved from the FROM
	// table for SQL requests.
	Template string
	// SampleSize is the pooled-sample size the estimate was drawn from.
	SampleSize int
	// Population is the synopsis's estimated base population |D|.
	Population int64
	// CatchUpProgress is the synopsis's catch-up progress in [0,1]; an
	// answer at low progress carries wider intervals (Section 4.3).
	CatchUpProgress float64
	// Elapsed is the engine-side answering time, excluding any
	// MinSyncOffset wait. For a traced request it is exactly the sum of
	// the group-level trace stages (Shard < 0) other than StageSyncWait.
	Elapsed time.Duration
	// Trace is the per-stage breakdown of a traced request (Request.Trace);
	// nil otherwise. See TraceStage for the summing contract.
	Trace []TraceStage
}

// Do answers one Request — the single read entry point behind which
// structured, on-keys, and SQL queries all run. It honors ctx: cancellation
// or deadline expiry during the MinSyncOffset wait, or before the synopsis
// lock is taken, returns ctx.Err(). Malformed requests (Request.Validate)
// wrap ErrInvalidRequest; unknown templates and tables wrap
// ErrUnknownTemplate.
//
// Concurrent Do calls on the same template share its read lock; calls on
// different templates do not contend at all.
func (e *Engine) Do(ctx context.Context, req Request) (Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Trace timestamps are taken only when requested: the untraced path
	// reads the clock exactly as often as it did before tracing existed.
	var t0 time.Time
	if req.Trace {
		t0 = time.Now()
	}
	// Validate and resolve before any MinSyncOffset wait: a request that
	// can only ever fail must fail fast, not park on a watermark that may
	// never advance.
	s, q, onKeys, err := e.resolveRequest(req)
	if err != nil {
		return Response{}, err
	}
	var resolved, waited time.Time
	if req.Trace {
		resolved = time.Now()
	}
	if req.MinSyncOffset > 0 {
		if err := e.follow.wait(ctx, req.MinSyncOffset); err != nil {
			return Response{}, err
		}
	}
	start := time.Now()
	if req.Trace {
		// Contiguous stamps make the stage durations sum exactly to
		// Elapsed: [t0,resolved] resolve, [resolved,waited] syncWait,
		// [waited,·] answer.
		waited = start
	}
	a, err := e.answerShard(ctx, s, q, onKeys)
	if err != nil {
		return Response{}, err
	}
	// A single engine is the K = 1 case of a scatter-gather: its one
	// answer goes through the merge a Router runs over K of them.
	resp, err := mergeAnswers([]ShardAnswer{a})
	if err != nil {
		return Response{}, err
	}
	resp.Elapsed = time.Since(start)
	if req.Trace {
		resolveDur := resolved.Sub(t0)
		answerDur := time.Since(waited)
		resp.Elapsed = resolveDur + answerDur
		resp.Trace = []TraceStage{{Stage: StageResolve, Shard: -1, Dur: resolveDur}}
		if req.MinSyncOffset > 0 {
			resp.Trace = append(resp.Trace, TraceStage{Stage: StageSyncWait, Shard: -1, Dur: waited.Sub(resolved)})
		}
		resp.Trace = append(resp.Trace, TraceStage{Stage: StageAnswer, Shard: -1, Dur: answerDur})
	}
	return resp, nil
}

// invalidf formats a Validate failure.
func invalidf(format string, args ...any) error {
	return fmt.Errorf("janus: %w: "+format, append([]any{ErrInvalidRequest}, args...)...)
}

// Validate reports whether r is a well-formed request — the one rule set
// every surface (Do on an engine, a shard group or a cluster coordinator;
// the JSON and binary codecs in front of them) holds a request to. Every
// failure wraps ErrInvalidRequest:
//
//   - exactly one of SQL and Template is set, and OnKeys only with Template;
//   - Confidence and Query.Confidence are zero or inside (0,1);
//   - Query.Func is an aggregate the engine answers;
//   - Query.Rect is absent (the whole universe) or has sides of equal
//     length with no NaN and no min above its max — infinite bounds are
//     legal, Universe(d) is built from them — and, with OnKeys, one bound
//     per queried key.
//
// What needs an engine — the template exists, the rect has the template's
// arity, the SQL compiles — is checked when the request is answered.
func (r Request) Validate() error {
	switch {
	case r.SQL != "" && r.Template != "":
		return invalidf("set either sql or template, not both")
	case r.SQL == "" && r.Template == "":
		return invalidf("request needs sql or template")
	case r.SQL != "" && r.OnKeys != nil:
		return invalidf("OnKeys does not apply to SQL requests")
	}
	for _, c := range [...]float64{r.Confidence, r.Query.Confidence} {
		// Phrased positively so NaN (every comparison false, but != 0) is
		// rejected along with out-of-range values.
		if c != 0 && !(c > 0 && c < 1) {
			return invalidf("confidence must be in (0,1), got %g", c)
		}
	}
	switch r.Query.Func {
	case FuncSum, FuncCount, FuncAvg, FuncMin, FuncMax, core.FuncVariance, core.FuncStdDev:
	default:
		return invalidf("unsupported aggregate function %d", int(r.Query.Func))
	}
	min, max := r.Query.Rect.Min, r.Query.Rect.Max
	if len(min) != len(max) {
		return invalidf("predicate bounds need equal sides, got min=%d max=%d", len(min), len(max))
	}
	if r.OnKeys != nil && len(min) > 0 && len(min) != len(r.OnKeys) {
		return invalidf("predicate bounds need one value per side for each of %d on-keys dims, got %d", len(r.OnKeys), len(min))
	}
	for i, lo := range min {
		// NaN fails every comparison, so the one test rejects NaN on either
		// side along with an inverted interval.
		if !(lo <= max[i]) {
			return invalidf("NaN or inverted bounds on dimension %d (min=%g max=%g)", i, lo, max[i])
		}
	}
	return nil
}

// resolveRequest validates req and resolves it against this engine's
// registrations: the answering synopsis, the compiled query — any
// per-request Confidence override folded in, an absent rect replaced by the
// whole universe — and the on-keys dims. It is the shared front half of Do,
// of AnswerPartial, and of a ShardGroup's scatter-gather, which resolves
// once and fans the structured form out to every shard.
func (e *Engine) resolveRequest(req Request) (s *synopsis, q Query, onKeys []int, err error) {
	if err := req.Validate(); err != nil {
		return nil, Query{}, nil, err
	}
	name, q, onKeys := req.Template, req.Query, req.OnKeys
	if req.SQL != "" {
		if name, q, err = e.compileSQL(req.SQL); err != nil {
			return nil, Query{}, nil, err
		}
	}
	s, ok := e.lookup(name)
	if !ok {
		return nil, Query{}, nil, fmt.Errorf("janus: %w %q", ErrUnknownTemplate, name)
	}
	if req.Confidence != 0 {
		q.Confidence = req.Confidence
	}
	// The predicate spans the template's own dims, or the queried
	// original-key dims of an on-keys request.
	dims := len(s.tmpl.PredicateDims)
	if onKeys != nil {
		dims = len(onKeys)
	}
	if len(q.Rect.Min) == 0 {
		q.Rect = Universe(dims)
	} else if len(q.Rect.Min) != dims {
		return nil, Query{}, nil, invalidf("predicate bounds need %d values per side, got %d", dims, len(q.Rect.Min))
	}
	return s, q, onKeys, nil
}

// AnswerPartial resolves req and answers it in mergeable form — the
// per-shard half of a Router's scatter-gather, called in-process by a
// ShardGroup (which resolves once and hands every shard the structured
// form) and by a cluster shard node on behalf of its coordinator (which
// forwards the raw request: registrations are identical on every peer, so
// resolution is deterministic across the cluster). The answer carries the
// resolved confidence, which tells the router which z to merge at — SQL
// can carry its own CONFIDENCE clause, so the effective level is only
// known after resolution. MinSyncOffset is ignored: synchronization is the
// router's concern.
func (e *Engine) AnswerPartial(ctx context.Context, req Request) (ShardAnswer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var t0 time.Time
	if req.Trace {
		t0 = time.Now()
	}
	s, q, onKeys, err := e.resolveRequest(req)
	if err != nil {
		return ShardAnswer{}, err
	}
	a, err := e.answerShard(ctx, s, q, onKeys)
	if err != nil {
		return ShardAnswer{}, err
	}
	if req.Trace {
		a.Stages = []TraceStage{{Stage: StageAnswer, Dur: time.Since(t0)}}
	}
	return a, nil
}

// answerShard answers a resolved query against synopsis s under its read
// lock — the one "answer this shard" step behind Do and AnswerPartial.
func (e *Engine) answerShard(ctx context.Context, s *synopsis, q Query, onKeys []int) (ShardAnswer, error) {
	// A canceled context must not consume a read lock the caller no longer
	// wants; past this point the answer is pure in-memory computation.
	if err := ctx.Err(); err != nil {
		return ShardAnswer{}, err
	}
	sp := e.spans.start()
	s.mu.RLock()
	defer s.mu.RUnlock()
	var p core.Partial
	var err error
	if onKeys != nil {
		p, err = s.dpt.AnswerUniformPartial(q, onKeys)
	} else {
		p, err = s.dpt.AnswerPartial(q)
	}
	if err != nil {
		return ShardAnswer{}, err
	}
	// Emitted as shard 0 here; a grouped shard's installed observer stamps
	// the true index (see ShardGroup.SetSpanObserver).
	e.spans.end(SpanShardAnswer, 0, sp)
	return ShardAnswer{
		Partial:         p,
		Template:        s.tmpl.Name,
		Confidence:      q.Confidence,
		SampleSize:      s.dpt.SampleSize(),
		Population:      s.dpt.Population(),
		CatchUpProgress: s.dpt.CatchUpProgress(),
	}, nil
}
