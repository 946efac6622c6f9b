package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	janus "janusaqp"
	"janusaqp/internal/metrics"
	"janusaqp/internal/obs"
	"janusaqp/internal/server"
	"janusaqp/internal/transport"
)

// Coordinator presents K remote shard nodes as one server.Engine. The
// scatter-gather — hash-routed parallel ingest, fanned-out queries merged
// with pooled-CI rules, which shard's error reports — is janus.Router's,
// the very code an in-process ShardGroup runs, so a fixed-seed cluster
// answers COUNT/SUM byte-identically to a group of the same K and the
// whole v2 HTTP surface, tracing, and metrics run unchanged on top. What
// the coordinator owns is what only a remote shard set has: the slots (the
// router's remote backends), the per-call failure policy below, and the
// RPC metrics.
//
// Failure policy, per shard call:
//
//  1. the RPC deadline derives from the request ctx (or the client's
//     default call timeout);
//  2. a transient exchange failure — stale pooled conn, peer restart —
//     retries once: always for idempotent methods, and for ingest only
//     when the dial itself failed (the request never reached the node, so
//     a retry cannot double-apply);
//  3. a shard that stays unreachable fails over to its configured warm
//     standby, but only when the standby's replicated offsets have reached
//     the coordinator's acknowledged-write watermark for that shard —
//     promoting a behind standby would silently drop acknowledged writes,
//     so the coordinator refuses and reports the shard unavailable
//     instead;
//  4. what still fails wraps janus.ErrShardUnavailable with the shard
//     index (503 on the HTTP surface).
type Coordinator struct {
	// slots are the serving shards, one per peer, and router scatters over
	// them; both are fixed at construction.
	slots  []*slot
	router *janus.Router

	rpcSeconds *metrics.HistogramVec
	failovers  *metrics.Counter
}

// slot is one shard's routing state — the serving client, the optional
// standby, and the acknowledged-write watermark failover gates on — and
// the router's remote janus.ShardBackend: every method is one RPC under
// the coordinator's failure policy.
type slot struct {
	c       *Coordinator
	index   int
	client  atomic.Pointer[transport.Client]
	mu      sync.Mutex // serializes failover
	standby *transport.Client

	ackIns, ackDel atomic.Int64

	// tmplMu guards the lazily fetched template declarations
	// (registrations are a boot-time affair on every node, so one fetch
	// serves the slot's lifetime).
	tmplMu sync.Mutex
	tmpls  []janus.Template
}

// NewCoordinator builds a coordinator over the shard nodes at peers
// (index i serves hash-shard i). standbys maps a shard index to its warm
// standby's address; shards without one simply cannot fail over.
func NewCoordinator(peers []string, standbys map[int]string) (*Coordinator, error) {
	if len(peers) == 0 {
		return nil, errors.New("cluster: a coordinator needs at least one peer")
	}
	for i := range standbys {
		if i < 0 || i >= len(peers) {
			return nil, fmt.Errorf("cluster: standby index %d out of range (have %d peers)", i, len(peers))
		}
	}
	c := &Coordinator{slots: make([]*slot, len(peers))}
	backends := make([]janus.ShardBackend, len(peers))
	for i, addr := range peers {
		if addr == "" {
			return nil, fmt.Errorf("cluster: peer %d has an empty address", i)
		}
		sl := &slot{c: c, index: i}
		sl.client.Store(transport.NewClient(addr))
		if sb, ok := standbys[i]; ok && sb != "" {
			sl.standby = transport.NewClient(sb)
		}
		c.slots[i], backends[i] = sl, sl
	}
	c.router = janus.NewRouter(backends)
	return c, nil
}

// The coordinator must keep satisfying the server's routing surface — the
// point of the whole refactor.
var _ server.Engine = (*Coordinator)(nil)

// Close discards every pooled connection.
func (c *Coordinator) Close() {
	for _, sl := range c.slots {
		sl.client.Load().Close()
		sl.mu.Lock()
		if sl.standby != nil {
			sl.standby.Close()
		}
		sl.mu.Unlock()
	}
}

// RegisterMetrics exports the coordinator's RPC latency histogram
// (janusd_rpc_seconds by method), connection-pool gauges, and the
// failover counter on reg.
func (c *Coordinator) RegisterMetrics(reg *metrics.Registry) {
	c.rpcSeconds = reg.HistogramVec("janusd_rpc_seconds", "method",
		"Coordinator-side shard RPC round-trip latency by method.")
	c.failovers = reg.Counter("janusd_cluster_failovers_total",
		"Primaries replaced by a promoted standby.")
	pool := func(f func(transport.PoolStats) float64) func() float64 {
		return func() float64 {
			var total float64
			for _, sl := range c.slots {
				total += f(sl.client.Load().Stats())
			}
			return total
		}
	}
	reg.GaugeFunc("janusd_rpc_conns_idle",
		"Pooled idle shard connections across all slots.",
		pool(func(s transport.PoolStats) float64 { return float64(s.Idle) }))
	reg.GaugeFunc("janusd_rpc_conns_active",
		"Shard connections with a call in flight.",
		pool(func(s transport.PoolStats) float64 { return float64(s.Active) }))
	reg.GaugeFunc("janusd_rpc_dials_total",
		"Cumulative shard connection dials.",
		pool(func(s transport.PoolStats) float64 { return float64(s.Dials) }))
}

// observe records one RPC round-trip when metrics are registered.
func (c *Coordinator) observe(typ byte, d time.Duration) {
	if c.rpcSeconds != nil {
		c.rpcSeconds.With(transport.MethodName(typ)).Observe(d.Seconds())
	}
}

// call performs one shard RPC under the full failure policy. idem marks
// methods safe to repeat after an ambiguous failure (the exchange died
// with the request possibly applied); non-idempotent methods retry only
// when the dial itself failed.
func (c *Coordinator) call(ctx context.Context, sl *slot, typ byte, reqID string, body []byte, idem bool) (transport.Frame, error) {
	cl := sl.client.Load()
	start := time.Now()
	f, err := cl.Call(ctx, typ, reqID, body)
	c.observe(typ, time.Since(start))
	var te *transport.TransportError
	if err == nil || !errors.As(err, &te) {
		return f, err // success, or a definitive remote answer
	}
	if transport.IsTransient(err) && (idem || transport.IsDialError(err)) {
		start = time.Now()
		f, err = cl.Call(ctx, typ, reqID, body)
		c.observe(typ, time.Since(start))
		if err == nil || !errors.As(err, &te) {
			return f, err
		}
	}
	if ctx.Err() != nil {
		// The budget expired; don't burn a failover on a slow client.
		return transport.Frame{}, ctx.Err()
	}
	next, ferr := c.failover(ctx, sl, cl, reqID)
	if ferr != nil {
		return transport.Frame{}, fmt.Errorf("%w (shard %d): %v (failover: %v)", janus.ErrShardUnavailable, sl.index, err, ferr)
	}
	if !idem && !transport.IsDialError(err) {
		// The original exchange died mid-flight: the batch may or may not
		// have applied and replicated, so an automatic repeat could
		// double-apply. The slot has failed over; the producer decides.
		return transport.Frame{}, fmt.Errorf("%w (shard %d): request outcome unknown after primary failure; shard has failed over, retry the batch", janus.ErrShardUnavailable, sl.index)
	}
	f, err = c.callOn(ctx, next, typ, reqID, body)
	if err != nil {
		if errors.As(err, &te) {
			return transport.Frame{}, fmt.Errorf("%w (shard %d): %v", janus.ErrShardUnavailable, sl.index, err)
		}
		return transport.Frame{}, err
	}
	return f, nil
}

// callOn performs one observed round-trip on a specific client.
func (c *Coordinator) callOn(ctx context.Context, cl *transport.Client, typ byte, reqID string, body []byte) (transport.Frame, error) {
	start := time.Now()
	f, err := cl.Call(ctx, typ, reqID, body)
	c.observe(typ, time.Since(start))
	return f, err
}

// promoteTimeout bounds one standby promotion: tail replay scales with the
// log written since the standby's bootstrap checkpoint, so it gets minutes
// where a normal RPC gets seconds.
const promoteTimeout = 2 * time.Minute

// failover replaces a dead primary with its caught-up standby and returns
// the client now serving the slot. When a concurrent caller already
// swapped the slot, the new client is returned without promoting again.
func (c *Coordinator) failover(ctx context.Context, sl *slot, failed *transport.Client, reqID string) (*transport.Client, error) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if cur := sl.client.Load(); cur != failed {
		return cur, nil
	}
	if sl.standby == nil {
		return nil, errors.New("no standby configured")
	}
	sb := sl.standby
	f, err := c.callOn(ctx, sb, transport.MsgPing, reqID, nil)
	if err != nil {
		return nil, fmt.Errorf("standby ping: %w", err)
	}
	st, err := transport.DecodeStatus(f.Body)
	if err != nil {
		return nil, fmt.Errorf("standby ping: %w", err)
	}
	if ackIns, ackDel := sl.ackIns.Load(), sl.ackDel.Load(); st.InsLen < ackIns || st.DelLen < ackDel {
		// Promoting now would serve a state missing acknowledged writes;
		// staying unavailable is the honest failure.
		return nil, fmt.Errorf("standby is behind the acknowledged watermark (replicated %d/%d, acknowledged %d/%d)",
			st.InsLen, st.DelLen, ackIns, ackDel)
	}
	// Promotion replays the standby's uncheckpointed log tail into a fresh
	// engine, which can far outlast one RPC budget on a long tail — and
	// must not be abandoned because the query that happened to trigger the
	// failover gave up. Give it its own generous deadline, detached from
	// the triggering request's cancellation.
	promoteCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), promoteTimeout)
	defer cancel()
	if _, err := c.callOn(promoteCtx, sb, transport.MsgPromote, reqID, nil); err != nil {
		return nil, fmt.Errorf("promote: %w", err)
	}
	sl.client.Store(sb)
	sl.standby = nil
	if c.failovers != nil {
		c.failovers.Inc()
	}
	return sb, nil
}

// noteAck advances the slot's acknowledged-write watermark to the log
// offsets an ingest reply reported.
func (sl *slot) noteAck(insLen, delLen int64) {
	for {
		cur := sl.ackIns.Load()
		if insLen <= cur || sl.ackIns.CompareAndSwap(cur, insLen) {
			break
		}
	}
	for {
		cur := sl.ackDel.Load()
		if delLen <= cur || sl.ackDel.CompareAndSwap(cur, delLen) {
			break
		}
	}
}

// --- janus.ShardBackend --------------------------------------------------------

// AnswerPartial forwards the raw request — the node resolves SQL/templates
// against its own registrations, identical on every peer — and returns the
// node's partial reply. A traced call reports the whole round trip (encode,
// network, shard answer, decode) as StageRPC and the node-side answering
// time as StageAnswer.
func (sl *slot) AnswerPartial(ctx context.Context, req janus.Request) (janus.ShardAnswer, error) {
	var t0 time.Time
	if req.Trace {
		t0 = time.Now()
	}
	f, err := sl.c.call(ctx, sl, transport.MsgQuery, obs.RequestIDFrom(ctx), transport.EncodeQueryRequest(req), true)
	if err != nil {
		return janus.ShardAnswer{}, err
	}
	rep, err := transport.DecodeQueryReply(f.Body)
	if err != nil {
		return janus.ShardAnswer{}, err
	}
	a := janus.ShardAnswer{
		Partial:         rep.Partial,
		Template:        rep.Template,
		Confidence:      rep.Confidence,
		SampleSize:      rep.SampleSize,
		Population:      rep.Population,
		CatchUpProgress: rep.CatchUpProgress,
	}
	if req.Trace {
		a.Stages = []janus.TraceStage{
			{Stage: janus.StageRPC, Dur: time.Since(t0)},
			{Stage: janus.StageAnswer, Dur: time.Duration(rep.AnswerMicros) * time.Microsecond},
		}
	}
	return a, nil
}

// ingest performs one MsgIngest exchange. An ack advances the slot's
// acknowledged-write watermark — the bound failover refuses to lose.
func (sl *slot) ingest(tuples []janus.Tuple, deleteIDs []int64) (transport.IngestReply, error) {
	body := transport.EncodeIngestRequest(tuples, deleteIDs)
	f, err := sl.c.call(context.Background(), sl, transport.MsgIngest, obs.RequestID(), body, false)
	if err != nil {
		return transport.IngestReply{}, err
	}
	rep, err := transport.DecodeIngestReply(f.Body)
	if err != nil {
		return transport.IngestReply{}, err
	}
	sl.noteAck(rep.InsLen, rep.DelLen)
	return rep, nil
}

func (sl *slot) InsertBatch(tuples []janus.Tuple) error {
	_, err := sl.ingest(tuples, nil)
	return err
}

// DeleteBatch rebuilds the reply's unknown ids into the *BatchIDError a
// local engine returns, so the router's missing-id merge is the only one.
func (sl *slot) DeleteBatch(ids []int64) (int, error) {
	rep, err := sl.ingest(nil, ids)
	if err != nil {
		return 0, err
	}
	if len(rep.Missing) > 0 {
		return rep.Deleted, &janus.BatchIDError{IDs: rep.Missing}
	}
	return rep.Deleted, nil
}

// fetchJSON performs one idempotent admin RPC and decodes its JSON reply.
func (sl *slot) fetchJSON(typ byte, body []byte, v any) error {
	f, err := sl.c.call(context.Background(), sl, typ, obs.RequestID(), body, true)
	if err != nil {
		return err
	}
	return json.Unmarshal(f.Body, v)
}

// Stats fetches the node's engine stats. An unreachable shard contributes
// a zeroed snapshot: the admin surface stays best-effort while the data
// path reports hard errors.
func (sl *slot) Stats() (st janus.EngineStats) {
	_ = sl.fetchJSON(transport.MsgStats, nil, &st)
	return st
}

func (sl *slot) StatsFor(template string) (st janus.TemplateStats, err error) {
	return st, sl.fetchJSON(transport.MsgStatsFor, []byte(template), &st)
}

// declarations fetches (once) and caches the node's template
// declarations; nil while the node cannot be reached.
func (sl *slot) declarations() []janus.Template {
	sl.tmplMu.Lock()
	defer sl.tmplMu.Unlock()
	if sl.tmpls == nil {
		var decls []janus.Template
		if sl.fetchJSON(transport.MsgTemplates, nil, &decls) == nil {
			sl.tmpls = decls
		}
	}
	return sl.tmpls
}

func (sl *slot) Template(name string) (janus.Template, bool) {
	for _, t := range sl.declarations() {
		if t.Name == name {
			return t, true
		}
	}
	return janus.Template{}, false
}

func (sl *slot) Templates() []string {
	var names []string
	for _, t := range sl.declarations() {
		names = append(names, t.Name)
	}
	return names
}

// --- server.Engine: the router over the slots -------------------------------

// Do scatter-gathers one query over every shard node (see janus.Router,
// which also rejects MinSyncOffset: a coordinator's shard set has no
// follow watermark).
func (c *Coordinator) Do(ctx context.Context, req janus.Request) (janus.Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var began time.Time
	if req.Trace {
		began = time.Now()
	}
	return c.router.Do(ctx, req, began)
}

// InsertBatch is janus.Router.InsertBatch over the shard nodes.
func (c *Coordinator) InsertBatch(tuples []janus.Tuple) error {
	return c.router.InsertBatch(tuples, nil)
}

// DeleteBatch is janus.Router.DeleteBatch over the shard nodes.
func (c *Coordinator) DeleteBatch(ids []int64) (int, error) { return c.router.DeleteBatch(ids) }

// Stats gathers and merges every shard node's engine stats.
func (c *Coordinator) Stats() janus.EngineStats { return c.router.Stats() }

// StatsFor gathers and merges one template's stats from every shard.
func (c *Coordinator) StatsFor(template string) (janus.TemplateStats, error) {
	return c.router.StatsFor(template)
}

// Template returns the declaration of the named template.
func (c *Coordinator) Template(name string) (janus.Template, bool) {
	return c.router.Template(name)
}

// Templates lists the registered template names.
func (c *Coordinator) Templates() []string { return c.router.Templates() }
