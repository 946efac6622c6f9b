// Package server exposes a JanusAQP engine over HTTP/JSON — the network
// face of the interactive DAQP service the paper motivates (dashboards and
// monitors issuing continuous approximate queries while updates stream in).
//
// Endpoints:
//
//	POST /v2/query     single or batched approximate queries (structured,
//	                   on-keys, or SQL) with per-request options
//	                   (confidence, timeout, read-your-writes offset) and
//	                   rich per-result metadata
//	POST /v2/ingest    one atomic insert batch plus deletions
//	POST /v2/admin/checkpoint
//	                   write a durable point-in-time engine snapshot now
//	                   (requires a configured checkpoint sink; see Options)
//	POST /v2/admin/compact
//	                   checkpoint, then drop the segment-log prefix the
//	                   snapshot made redundant (requires a configured
//	                   compaction sink; see Options)
//	POST /v2/admin/reshard
//	                   live-migrate the serving layout to a new shard
//	                   count with dual-writes and an atomic cutover
//	                   (requires a configured resharder; see Options)
//	GET  /v2/admin/reshard
//	                   progress of the in-flight (or last) reshard
//	GET  /v2/templates registered query templates
//	GET  /v2/stats     engine counters and per-template synopsis state
//	                   (with a per-shard breakdown on a sharded daemon)
//	GET  /metrics      Prometheus text exposition
//	GET  /v2/admin/debug
//	                   build info, runtime posture, and the full engine
//	                   snapshot (behind Options.EnableAdmin / janusd -admin)
//	GET  /debug/pprof/ net/http/pprof profiles (behind Options.EnableAdmin)
//
// The server leans on the engine's sharded locking: query handlers only
// take per-synopsis read locks, so concurrent requests on different
// templates — and read-only requests on the same template — proceed in
// parallel; ingest batches take the update lock once per batch.
//
// Every request is assigned a request ID (honoring an inbound
// X-Request-Id) that is echoed on the response header, attached to error
// bodies, carried through the request context, and stamped on slow-query
// log records — one join key across client reports, logs, and traces.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	rtdebug "runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	janus "janusaqp"
	"janusaqp/internal/metrics"
	"janusaqp/internal/obs"
	"janusaqp/internal/transport"
)

// Engine is the surface the server routes to. Both *janus.Engine (one
// process-local engine) and *janus.ShardGroup (a hash-sharded engine group
// answering by scatter-gather) implement it, so the same daemon scales from
// one engine to K data-parallel shards behind one flag.
type Engine interface {
	// Do answers one query request.
	Do(ctx context.Context, req janus.Request) (janus.Response, error)
	// InsertBatch ingests one batch atomically (per shard, for a group).
	InsertBatch(tuples []janus.Tuple) error
	// DeleteBatch removes ids, reporting unknown ones via *BatchIDError.
	DeleteBatch(ids []int64) (int, error)
	// Stats snapshots engine-wide counters and per-template state.
	Stats() janus.EngineStats
	// StatsFor snapshots one template's synopsis state.
	StatsFor(template string) (janus.TemplateStats, error)
	// Template returns the declaration of the named template.
	Template(name string) (janus.Template, bool)
	// Templates lists the registered template names.
	Templates() []string
}

// Both engine forms must keep satisfying the routing surface.
var (
	_ Engine = (*janus.Engine)(nil)
	_ Engine = (*janus.ShardGroup)(nil)
)

// Options configures a Server.
type Options struct {
	// Checkpoint, when non-nil, persists a point-in-time engine snapshot
	// (typically Store.WriteCheckpoint). It powers POST
	// /v2/admin/checkpoint and the background checkpointer.
	Checkpoint func() (janus.CheckpointInfo, error)
	// CheckpointInterval is the cadence of the background checkpointer;
	// zero disables it (checkpoints then happen only on demand through the
	// admin endpoint). Requires Checkpoint.
	CheckpointInterval time.Duration
	// Compact, when non-nil, drops the durable log prefix the latest
	// checkpoint made redundant (typically Store.Compact, fanned out per
	// shard on a sharded daemon). It powers POST /v2/admin/compact.
	Compact func() (janus.CompactInfo, error)
	// CompactAfterCheckpoint makes the background checkpointer follow
	// every successful checkpoint with a Compact pass — the bounded-growth
	// retention policy (janusd -retain compact): the data dir then holds
	// O(live data + one checkpoint interval of tail) instead of the full
	// ingest history. Requires Compact.
	CompactAfterCheckpoint bool
	// WriteHealth, when non-nil, reports the durable store's latched
	// segment-log write failure (typically Store.WriteErr). The ingest
	// paths check it after applying each batch: once the log has stopped
	// persisting, a 200 would promise durability the disk no longer
	// provides, so acknowledged ingest turns into 503 from the failed
	// batch onward.
	WriteHealth func() error
	// Logger receives the server's structured logs (request completions at
	// debug level, slow queries at warn). nil disables logging entirely.
	Logger *slog.Logger
	// SlowQuery, when positive, logs any query whose engine-side handling
	// exceeds it (janusd -slow-query). Requires Logger.
	SlowQuery time.Duration
	// Reshard, when non-nil, performs a live reshard of the serving layout
	// to the requested shard count (typically janus.ShardGroup.Reshard, or
	// janus.ReshardDurable on a daemon with -data). It powers POST
	// /v2/admin/reshard; the call blocks for the whole copy, so clients
	// should poll the GET side for progress.
	Reshard func(ctx context.Context, targetShards int) (*janus.ReshardReport, error)
	// ReshardStatus, when non-nil, reports the latest reshard's progress
	// snapshot (typically janus.ShardGroup.ReshardProgress). It powers GET
	// /v2/admin/reshard and the janusd_reshard_* gauges.
	ReshardStatus func() (janus.ReshardProgress, bool)
	// EnableAdmin registers GET /v2/admin/debug and the net/http/pprof
	// handlers (janusd -admin). Off by default: profiles and debug dumps
	// expose operational detail a public listener should not.
	EnableAdmin bool
	// RecoveryTailRecords is the number of log-tail records the boot-time
	// recovery replayed (RecoveryInfo.TailInserts + TailDeletes), exported
	// as the janusd_recovery_tail_records gauge so growth of the
	// uncheckpointed tail is visible before it becomes a slow restart.
	RecoveryTailRecords int64
}

// Server serves one engine over HTTP. Create with New, expose with
// Handler, stop background goroutines with Close.
type Server struct {
	eng Engine
	mux *http.ServeMux
	reg *metrics.Registry

	rowsInserted *metrics.Counter
	rowsDeleted  *metrics.Counter
	errors       *metrics.Counter

	queryV2Requests  *metrics.Counter
	queryV2Latency   *metrics.Histogram
	ingestV2Requests *metrics.Counter
	ingestV2Latency  *metrics.Histogram

	// kindLatency holds the per-kind series, resolved once: the kinds
	// (QueryKind) are known up front.
	kindLatency map[string]*metrics.Histogram

	spanSeconds *metrics.HistogramVec // engine-internal spans, by span name
	shardAnswer *metrics.HistogramVec // per-shard answer latency, by shard

	slowQueries *metrics.Counter
	slowLog     *obs.SlowQueryLog
	logger      *slog.Logger

	startTime time.Time

	// statsSnap caches one EngineStats for the scrape-time gauges, so a
	// scrape of a dozen gauges costs one Stats() per second, not twelve.
	statsSnap struct {
		sync.Mutex
		at time.Time
		st janus.EngineStats
	}

	checkpoint        func() (janus.CheckpointInfo, error)
	writeHealth       func() error
	checkpointLatency *metrics.Histogram
	checkpoints       *metrics.Counter
	checkpointErrors  *metrics.Counter

	compact          func() (janus.CompactInfo, error)
	compactLatency   *metrics.Histogram
	compactions      *metrics.Counter
	compactionErrors *metrics.Counter
	compactedRecords *metrics.Counter

	reshard           func(ctx context.Context, targetShards int) (*janus.ReshardReport, error)
	reshardStatus     func() (janus.ReshardProgress, bool)
	reshardLatency    *metrics.Histogram
	reshardPause      *metrics.Histogram
	reshards          *metrics.Counter
	reshardErrors     *metrics.Counter
	reshardRowsCopied *metrics.Counter
	reshardDualWrites *metrics.Counter
	// checkpointMu serializes the admin endpoints against the background
	// checkpointer, so two snapshots (or a snapshot and a log rotation)
	// never interleave their I/O.
	checkpointMu sync.Mutex

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New returns a server over the engine — a single *janus.Engine or a
// *janus.ShardGroup — and starts any background loops the options request.
func New(eng Engine, opts Options) *Server {
	reg := metrics.NewRegistry()
	s := &Server{
		eng: eng,
		mux: http.NewServeMux(),
		reg: reg,
		// Counters are resolved once here: the hot path must only touch
		// lock-free atomics, never the registry mutex.
		rowsInserted: reg.Counter("janusd_rows_inserted_total", "Total rows applied via /v2/ingest."),
		rowsDeleted:  reg.Counter("janusd_rows_deleted_total", "Total rows removed via /v2/ingest."),
		errors:       reg.Counter("janusd_errors_total", "Total requests answered with a non-2xx status."),
		checkpoint:   opts.Checkpoint,
		writeHealth:  opts.WriteHealth,
		checkpointLatency: reg.Histogram("janusd_checkpoint_seconds",
			"Durable checkpoint write latency."),
		checkpoints:      reg.Counter("janusd_checkpoints_total", "Checkpoints written successfully."),
		checkpointErrors: reg.Counter("janusd_checkpoint_errors_total", "Checkpoint attempts that failed."),
		compact:          opts.Compact,
		compactLatency: reg.Histogram("janusd_compaction_seconds",
			"Durable log compaction (segment rotation) latency."),
		compactions:      reg.Counter("janusd_compactions_total", "Compaction passes completed successfully."),
		compactionErrors: reg.Counter("janusd_compaction_errors_total", "Compaction passes that failed."),
		compactedRecords: reg.Counter("janusd_compacted_records_total",
			"Log records dropped by compaction (checkpointed prefix)."),
		queryV2Requests: reg.Counter("janusd_v2_query_requests_total", "Total /v2/query requests."),
		queryV2Latency: reg.Histogram("janusd_v2_query_latency_seconds",
			"End-to-end /v2/query handling latency."),
		ingestV2Requests: reg.Counter("janusd_v2_ingest_requests_total", "Total /v2/ingest requests."),
		ingestV2Latency: reg.Histogram("janusd_v2_ingest_latency_seconds",
			"End-to-end /v2/ingest handling latency."),
		slowQueries: reg.Counter("janusd_slow_queries_total",
			"Queries slower than the configured slow-query threshold."),
		reshard:       opts.Reshard,
		reshardStatus: opts.ReshardStatus,
		reshardLatency: reg.Histogram("janusd_reshard_seconds",
			"End-to-end live reshard duration (copy through cutover)."),
		reshardPause: reg.Histogram("janusd_reshard_cutover_pause_seconds",
			"Write-gated cutover pause observed by writers during a reshard."),
		reshards:          reg.Counter("janusd_reshards_total", "Live reshards completed successfully."),
		reshardErrors:     reg.Counter("janusd_reshard_errors_total", "Live reshards that failed or were rejected."),
		reshardRowsCopied: reg.Counter("janusd_reshard_rows_copied_total", "Rows migrated into target layouts by reshard copies."),
		reshardDualWrites: reg.Counter("janusd_reshard_dual_writes_total", "Records mirrored into target layouts by dual-writes during reshard copies."),
		spanSeconds: reg.HistogramVec("janusd_engine_span_seconds", "span",
			"Engine-internal span durations (insert_batch, trigger_eval, reinit, stream_apply, checkpoint_encode, checkpoint_fsync, compact_rotate, reshard_copy, reshard_build, reshard_cutover, merge)."),
		shardAnswer: reg.HistogramVec("janusd_shard_answer_seconds", "shard",
			"Per-shard synopsis answer latency inside a query."),
		logger:    opts.Logger,
		startTime: time.Now(),
	}
	kindLatency := reg.HistogramVec("janusd_query_kind_seconds", "kind",
		"Engine-side query latency by request kind (sql, structured, onKeys).")
	s.kindLatency = make(map[string]*metrics.Histogram)
	for _, kind := range []string{"sql", "structured", "onKeys"} {
		s.kindLatency[kind] = kindLatency.With(kind)
	}
	if opts.SlowQuery > 0 && opts.Logger != nil {
		s.slowLog = &obs.SlowQueryLog{Threshold: opts.SlowQuery, Logger: opts.Logger}
	}
	s.registerGauges(opts)
	// Feed the engine's internal spans into the labeled histograms. The
	// Engine interface stays as the compile-asserted routing surface;
	// observer support is discovered, not required.
	if obsEng, ok := eng.(interface{ SetSpanObserver(janus.SpanObserver) }); ok {
		obsEng.SetSpanObserver(s.SpanObserver())
	}
	s.mux.HandleFunc("POST /v2/query", s.handleQueryV2)
	s.mux.HandleFunc("POST /v2/ingest", s.handleIngest)
	s.mux.HandleFunc("POST /v2/admin/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("POST /v2/admin/compact", s.handleCompact)
	s.mux.HandleFunc("POST /v2/admin/reshard", s.handleReshard)
	s.mux.HandleFunc("GET /v2/admin/reshard", s.handleReshardStatus)
	s.mux.HandleFunc("GET /v2/templates", s.handleTemplates)
	s.mux.HandleFunc("GET /v2/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if opts.EnableAdmin {
		s.mux.HandleFunc("GET /v2/admin/debug", s.handleDebug)
		// pprof must be wired explicitly: the server serves its own mux,
		// never http.DefaultServeMux. Index dispatches named profiles
		// (heap, goroutine, block, ...) under the trailing slash.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}

	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	if opts.Checkpoint != nil && opts.CheckpointInterval > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			t := time.NewTicker(opts.CheckpointInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					// Failures are surfaced through the error counters (and
					// the next admin-endpoint call); the checkpointer keeps
					// trying — a transient disk error must not end
					// durability for the life of the process.
					if _, err := s.runCheckpoint(); err == nil &&
						opts.CompactAfterCheckpoint && s.compact != nil {
						// Compact only behind a fresh checkpoint: rotation
						// anchors on the snapshot just published, keeping
						// the data dir at O(live data + one cycle of tail).
						_, _ = s.runCompact()
					}
				}
			}
		}()
	}
	return s
}

// runCheckpoint writes one checkpoint under the checkpoint mutex and
// records its metrics.
func (s *Server) runCheckpoint() (janus.CheckpointInfo, error) {
	s.checkpointMu.Lock()
	defer s.checkpointMu.Unlock()
	start := time.Now()
	info, err := s.checkpoint()
	s.checkpointLatency.ObserveSince(start)
	if err != nil {
		s.checkpointErrors.Inc()
		return janus.CheckpointInfo{}, err
	}
	s.checkpoints.Inc()
	return info, nil
}

// runCompact drops the checkpointed log prefix under the checkpoint mutex
// and records its metrics.
func (s *Server) runCompact() (janus.CompactInfo, error) {
	s.checkpointMu.Lock()
	defer s.checkpointMu.Unlock()
	start := time.Now()
	info, err := s.compact()
	s.compactLatency.ObserveSince(start)
	if err != nil {
		s.compactionErrors.Inc()
		return janus.CompactInfo{}, err
	}
	s.compactions.Inc()
	s.compactedRecords.Add(uint64(info.InsertsDropped + info.DeletesDropped))
	return info, nil
}

// handleCompact serves POST /v2/admin/compact: write a checkpoint, then
// drop the log prefix it made redundant, and report what was reclaimed.
// The checkpoint comes first so the rotation is anchored at now, not at
// the last background cycle. Without a durable store the endpoint answers
// 503.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if s.checkpoint == nil || s.compact == nil {
		s.writeError(w, http.StatusServiceUnavailable, "no durable store configured (start janusd with -data)")
		return
	}
	start := time.Now()
	ck, err := s.runCheckpoint()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "checkpoint before compaction failed: %v", err)
		return
	}
	info, err := s.runCompact()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "compaction failed: %v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, CompactResponse{
		InsertsDropped: info.InsertsDropped,
		DeletesDropped: info.DeletesDropped,
		LogBytesBefore: info.LogBytesBefore,
		LogBytesAfter:  info.LogBytesAfter,
		Checkpoint: CheckpointResponse{
			Templates:    ck.Templates,
			InsertOffset: ck.InsertOffset,
			DeleteOffset: ck.DeleteOffset,
			ArchiveRows:  ck.ArchiveRows,
			Bytes:        ck.Bytes,
		},
		ElapsedMicros: time.Since(start).Microseconds(),
	})
}

// handleCheckpoint serves POST /v2/admin/checkpoint: write a durable
// point-in-time snapshot now and report what it covered. Without a durable
// store configured (janusd -data) the endpoint answers 503.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.checkpoint == nil {
		s.writeError(w, http.StatusServiceUnavailable, "no durable store configured (start janusd with -data)")
		return
	}
	start := time.Now()
	info, err := s.runCheckpoint()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "checkpoint failed: %v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, CheckpointResponse{
		Templates:     info.Templates,
		InsertOffset:  info.InsertOffset,
		DeleteOffset:  info.DeleteOffset,
		ArchiveRows:   info.ArchiveRows,
		Bytes:         info.Bytes,
		ElapsedMicros: time.Since(start).Microseconds(),
	})
}

// handleReshard serves POST /v2/admin/reshard: live-migrate the serving
// layout to the requested shard count with dual-writes and an atomic
// cutover. The call blocks until the cutover completes (poll the GET side
// for progress); a second reshard while one is running answers 409. The
// checkpoint mutex is held for the duration so the background
// checkpointer never snapshots stores the cutover is retiring.
func (s *Server) handleReshard(w http.ResponseWriter, r *http.Request) {
	if s.reshard == nil {
		s.writeError(w, http.StatusServiceUnavailable, "this daemon serves a fixed layout (resharding needs a shard group)")
		return
	}
	var req ReshardRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Shards < 1 {
		s.writeError(w, http.StatusBadRequest, "shards must be >= 1, got %d", req.Shards)
		return
	}
	start := time.Now()
	s.checkpointMu.Lock()
	rep, err := s.reshard(r.Context(), req.Shards)
	s.checkpointMu.Unlock()
	if err != nil {
		s.reshardErrors.Inc()
		status := http.StatusInternalServerError
		if errors.Is(err, janus.ErrReshardInProgress) {
			status = http.StatusConflict
		}
		s.writeError(w, status, "reshard failed: %v", err)
		return
	}
	s.reshards.Inc()
	s.reshardLatency.ObserveSince(start)
	s.reshardPause.Observe(rep.CutoverPause.Seconds())
	s.reshardRowsCopied.Add(uint64(rep.RowsCopied))
	s.reshardDualWrites.Add(uint64(rep.DualWrites))
	s.writeJSON(w, http.StatusOK, ReshardResponse{
		FromShards:         rep.FromShards,
		ToShards:           rep.ToShards,
		Epoch:              rep.Epoch,
		RowsCopied:         rep.RowsCopied,
		DualWrites:         rep.DualWrites,
		CopyMicros:         rep.CopyDuration.Microseconds(),
		CutoverPauseMicros: rep.CutoverPause.Microseconds(),
		ElapsedMicros:      time.Since(start).Microseconds(),
	})
}

// handleReshardStatus serves GET /v2/admin/reshard: the latest reshard's
// progress snapshot (phase, rows copied, dual-write count), with
// active=false and an empty phase when the layout has never resharded.
func (s *Server) handleReshardStatus(w http.ResponseWriter, r *http.Request) {
	if s.reshardStatus == nil {
		s.writeError(w, http.StatusServiceUnavailable, "this daemon serves a fixed layout (resharding needs a shard group)")
		return
	}
	p, _ := s.reshardStatus()
	s.writeJSON(w, http.StatusOK, p)
}

// registerGauges exports the engine-internal gauges. Engine-derived
// values read a cached Stats() snapshot (refreshed at most once a second)
// so one scrape never costs more than one stats pass; runtime values read
// the runtime directly.
func (s *Server) registerGauges(opts Options) {
	s.reg.GaugeFunc("janusd_archive_rows",
		"Live rows in the archive (all shards).",
		func() float64 { return float64(s.cachedStats().ArchiveRows) })
	s.reg.GaugeFunc("janusd_synopsis_bytes",
		"Resident bytes across every template's synopsis (all shards).",
		func() float64 {
			var total int64
			for _, t := range s.cachedStats().Templates {
				total += t.SynopsisBytes
			}
			return float64(total)
		})
	s.reg.GaugeFunc("janusd_catchup_progress",
		"Least caught-up template's catch-up progress in [0,1].",
		func() float64 {
			min := 1.0
			for _, t := range s.cachedStats().Templates {
				if t.CatchUpProgress < min {
					min = t.CatchUpProgress
				}
			}
			return min
		})
	s.reg.GaugeFunc("janusd_synced_insert_offset",
		"Followed-broker insert offset applied so far (read-your-writes watermark).",
		func() float64 { return float64(s.cachedStats().SyncedInsertOffset) })
	if opts.ReshardStatus != nil {
		status := opts.ReshardStatus
		s.reg.GaugeFunc("janusd_reshard_active",
			"1 while a live reshard is copying or cutting over, else 0.",
			func() float64 {
				if p, ok := status(); ok && p.Active {
					return 1
				}
				return 0
			})
		s.reg.GaugeFunc("janusd_reshard_rows_copied",
			"Rows the in-flight (or last) reshard has copied into the target layout.",
			func() float64 {
				p, _ := status()
				return float64(p.RowsCopied)
			})
		s.reg.GaugeFunc("janusd_layout_epoch",
			"Serving layout epoch: 0 at first boot, +1 per completed reshard cutover.",
			func() float64 {
				p, _ := status()
				return float64(p.Epoch)
			})
	}
	if opts.RecoveryTailRecords > 0 || opts.Checkpoint != nil {
		tail := float64(opts.RecoveryTailRecords)
		s.reg.GaugeFunc("janusd_recovery_tail_records",
			"Log-tail records replayed by the boot-time recovery (0 on a cold boot).",
			func() float64 { return tail })
	}
	s.reg.GaugeFunc("janusd_goroutines",
		"Goroutines in the daemon process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	s.reg.GaugeFunc("janusd_heap_alloc_bytes",
		"Heap bytes allocated and not yet freed.",
		func() float64 {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return float64(m.HeapAlloc)
		})
}

// cachedStats returns an engine stats snapshot at most one second old.
func (s *Server) cachedStats() janus.EngineStats {
	s.statsSnap.Lock()
	defer s.statsSnap.Unlock()
	if time.Since(s.statsSnap.at) > time.Second || s.statsSnap.at.IsZero() {
		s.statsSnap.st = s.eng.Stats()
		s.statsSnap.at = time.Now()
	}
	return s.statsSnap.st
}

// SpanObserver returns the observer that feeds engine-internal spans into
// the server's labeled histograms: shard answers into
// janusd_shard_answer_seconds{shard}, everything else into
// janusd_engine_span_seconds{span}. janusd installs it on durable Stores
// too, so checkpoint-fsync and compaction-rotation spans land in the same
// family.
func (s *Server) SpanObserver() janus.SpanObserver {
	return func(span string, shard int, d time.Duration) {
		if span == janus.SpanShardAnswer {
			s.shardAnswer.With(strconv.Itoa(shard)).Observe(d.Seconds())
			return
		}
		s.spanSeconds.With(span).Observe(d.Seconds())
	}
}

// handleDebug serves GET /v2/admin/debug (behind Options.EnableAdmin).
func (s *Server) handleDebug(w http.ResponseWriter, r *http.Request) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	resp := DebugResponse{
		GoVersion:     runtime.Version(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		NumGoroutine:  runtime.NumGoroutine(),
		HeapAllocByte: m.HeapAlloc,
		UptimeSeconds: time.Since(s.startTime).Seconds(),
		Stats:         s.eng.Stats(),
	}
	if bi, ok := rtdebug.ReadBuildInfo(); ok {
		resp.ModulePath = bi.Main.Path
		resp.ModuleVersion = bi.Main.Version
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// requestIDHeader is the request-ID transport header, honored inbound and
// always set on responses.
const requestIDHeader = "X-Request-Id"

// withRequestID assigns every request an ID (honoring an inbound
// X-Request-Id), sets it on the response header before the handler runs —
// writeError reads it back from there — carries it through the request
// context for the slow-query log, and logs the completion at debug level.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if id == "" {
			id = obs.RequestID()
		}
		w.Header().Set(requestIDHeader, id)
		r = r.WithContext(obs.WithRequestID(r.Context(), id))
		if s.logger == nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.logger.Debug("request",
			"requestId", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"elapsedMicros", time.Since(start).Microseconds(),
		)
	})
}

// statusRecorder captures the response status for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// Handler returns the server's HTTP handler: the routing mux behind the
// request-ID middleware.
func (s *Server) Handler() http.Handler { return s.withRequestID(s.mux) }

// Registry returns the server's metrics registry, so a wrapping layer
// (the cluster coordinator's RPC histograms and pool gauges) can export
// its series through the same /metrics endpoint.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Close stops the background checkpoint loop and waits for it to exit.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
}

// --- plumbing ---------------------------------------------------------------

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.errors.Inc()
	// The middleware stamped the request ID on the response header before
	// the handler ran; reading it back avoids threading the ID through
	// every handler signature.
	s.writeJSON(w, status, ErrorResponse{
		Error:     fmt.Sprintf(format, args...),
		RequestID: w.Header().Get(requestIDHeader),
	})
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, transport.MaxFrameBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, http.StatusBadRequest, "malformed request body: %v", err)
		return false
	}
	if dec.More() {
		s.writeError(w, http.StatusBadRequest, "request body has trailing data")
		return false
	}
	return true
}

// statusForEngineErr maps engine errors onto HTTP statuses: unknown
// templates/tables are 404, duplicate ids a conflict, deadline expiry a
// gateway timeout, an unreachable cluster shard a 503 (the wrapping error
// names the shard index), everything else a client error.
func statusForEngineErr(err error) int {
	switch {
	case errors.Is(err, janus.ErrUnknownTemplate):
		return http.StatusNotFound
	case errors.Is(err, janus.ErrDuplicateID):
		return http.StatusConflict
	case errors.Is(err, janus.ErrShardUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	}
	return http.StatusBadRequest
}

// --- query path -------------------------------------------------------------

// QueryKind classifies a request — sql, onKeys, or structured — and names
// its source (the statement, or the template) for the per-kind latency
// series and the slow-query logs.
func QueryKind(req janus.Request) (kind, source string) {
	switch {
	case req.SQL != "":
		return "sql", req.SQL
	case req.OnKeys != nil:
		return "onKeys", req.Template
	}
	return "structured", req.Template
}

// maxSyncWait caps a minSyncOffset wait when the request carries no
// timeout of its own: an unreachable watermark must answer 504, not pin a
// handler goroutine until the client disconnects.
const maxSyncWait = 30 * time.Second

// answer runs one decoded request through Engine.Do — the one serving path
// behind both /v2/query codecs. It owns the request's time budget, the
// per-kind latency series, and the slow-query log; the request ID for the
// latter rides the context, put there by the middleware.
func (s *Server) answer(ctx context.Context, req janus.Request, timeout time.Duration) (janus.Response, error) {
	if timeout <= 0 && req.MinSyncOffset > 0 {
		timeout = maxSyncWait
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	kind, source := QueryKind(req)
	start := time.Now()
	resp, err := s.eng.Do(ctx, req)
	elapsed := time.Since(start)
	s.kindLatency[kind].Observe(elapsed.Seconds())
	if s.slowLog != nil && elapsed >= s.slowLog.Threshold {
		s.slowQueries.Inc()
		s.slowLog.Note(obs.RequestIDFrom(ctx), kind, source, elapsed)
	}
	return resp, err
}

// answerV2 decodes and answers one JSON wire request. The returned status
// is http.StatusOK on success; otherwise the result carries Error.
func (s *Server) answerV2(ctx context.Context, req QueryRequestV2) (QueryResultV2, int) {
	jreq, err := req.toRequest()
	if err != nil {
		return QueryResultV2{Error: err.Error()}, statusForEngineErr(err)
	}
	resp, err := s.answer(ctx, jreq, time.Duration(req.TimeoutMillis)*time.Millisecond)
	if err != nil {
		return QueryResultV2{Error: err.Error()}, statusForEngineErr(err)
	}
	return toResultV2(resp), http.StatusOK
}

// handleQueryV2 serves POST /v2/query: one request inline, or a batch under
// "requests" answered item by item (a failed item reports its error in
// place without failing the batch — dashboards refresh all their panels in
// one round trip).
func (s *Server) handleQueryV2(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer s.queryV2Latency.ObserveSince(start)
	s.queryV2Requests.Inc()

	if isBinary(r) {
		s.serveBinaryQuery(w, r)
		return
	}
	var payload queryV2Payload
	if !s.decode(w, r, &payload) {
		return
	}
	if len(payload.Requests) > 0 {
		if payload.SQL != "" || payload.Template != "" {
			s.writeError(w, http.StatusBadRequest, "set requests or a single inline request, not both")
			return
		}
		// Items answer concurrently: independent reads ride the engine's
		// per-synopsis read locks in parallel, and one item parked on a
		// minSyncOffset wait does not delay the rest of the dashboard.
		out := QueryV2BatchResponse{Results: make([]QueryResultV2, len(payload.Requests))}
		var wg sync.WaitGroup
		var failed atomic.Int64
		for i, req := range payload.Requests {
			wg.Add(1)
			go func(i int, req QueryRequestV2) {
				defer wg.Done()
				res, status := s.answerV2(r.Context(), req)
				if status != http.StatusOK {
					failed.Add(1)
				}
				out.Results[i] = res
			}(i, req)
		}
		wg.Wait()
		if n := failed.Load(); n > 0 {
			s.errors.Add(uint64(n))
		}
		s.writeJSON(w, http.StatusOK, out)
		return
	}
	res, status := s.answerV2(r.Context(), payload.QueryRequestV2)
	if status != http.StatusOK {
		s.writeError(w, status, "%s", res.Error)
		return
	}
	s.writeJSON(w, http.StatusOK, res)
}

// --- ingest path ------------------------------------------------------------

// handleIngest serves POST /v2/ingest (see ApplyIngest for the semantics).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer s.ingestV2Latency.ObserveSince(start)
	s.ingestV2Requests.Inc()

	if isBinary(r) {
		s.serveBinaryIngest(w, r)
		return
	}
	var req IngestRequest
	if !s.decode(w, r, &req) {
		return
	}
	tuples := make([]janus.Tuple, len(req.Tuples))
	for i, t := range req.Tuples {
		tuples[i] = janus.Tuple{ID: t.ID, Key: janus.Point(t.Key), Vals: t.Vals}
	}
	rep, err := ApplyIngest(s.eng, s.writeHealth, tuples, req.DeleteIDs)
	s.rowsInserted.Add(uint64(rep.Inserted))
	s.rowsDeleted.Add(uint64(rep.Deleted))
	if err != nil {
		s.writeError(w, statusForEngineErr(err), "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, IngestResponse{Inserted: rep.Inserted, Deleted: rep.Deleted, Missing: rep.Missing})
}

func (s *Server) handleTemplates(w http.ResponseWriter, r *http.Request) {
	resp := TemplatesResponse{Templates: []TemplateInfo{}}
	for _, name := range s.eng.Templates() {
		t, ok := s.eng.Template(name)
		if !ok {
			continue
		}
		resp.Templates = append(resp.Templates, TemplateInfo{
			Name:          t.Name,
			PredicateDims: t.PredicateDims,
			AggIndex:      t.AggIndex,
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.eng.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}
