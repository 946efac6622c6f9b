package server

import (
	"fmt"
	"strings"

	janus "janusaqp"
)

// QueryRequestV2 is one request item of the POST /v2/query payload. Set SQL
// for the approximate SQL interface, or Template + Func (+ Min/Max bounds)
// for a structured query against one synopsis. It only carries the request:
// what a well-formed one is, is janus.Request.Validate's to say.
type QueryRequestV2 struct {
	// SQL is a full statement, e.g.
	// "SELECT SUM(fareAmount) FROM trips WHERE pickupTime BETWEEN 0 AND 3600".
	SQL string `json:"sql,omitempty"`

	// Template names the synopsis a structured query runs against.
	Template string `json:"template,omitempty"`
	// Func is SUM, COUNT, AVG, MIN, or MAX (case-insensitive).
	Func string `json:"func,omitempty"`
	// AggIndex selects the aggregation attribute; nil uses the synopsis's
	// primary attribute.
	AggIndex *int `json:"aggIndex,omitempty"`
	// Min and Max bound the rectangular predicate, one value per predicate
	// dimension of the template. Both empty means the full universe.
	Min []float64 `json:"min,omitempty"`
	Max []float64 `json:"max,omitempty"`
	// Confidence is the CI level in (0,1); 0 selects the 0.95 default.
	Confidence float64 `json:"confidence,omitempty"`
	// OnKeys answers the structured query over the given original key
	// attributes instead of the template's predicate projection (Section
	// 5.5); Min/Max then bound one value per OnKeys entry.
	OnKeys []int `json:"onKeys,omitempty"`
	// MinSyncOffset delays the answer until the engine has applied a
	// followed broker's insert topic through this offset (read-your-writes
	// for stream producers). Pair it with TimeoutMillis.
	MinSyncOffset int64 `json:"minSyncOffset,omitempty"`
	// TimeoutMillis bounds this request's handling time.
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
	// Trace requests a per-stage timing breakdown in the result's "trace"
	// field. Tracing is pay-for-use: an untraced request runs the exact
	// untraced engine path.
	Trace bool `json:"trace,omitempty"`
}

// queryV2Payload is the POST /v2/query body: either one request inline or
// a batch under "requests".
type queryV2Payload struct {
	QueryRequestV2
	Requests []QueryRequestV2 `json:"requests,omitempty"`
}

// QueryResultV2 is one /v2/query result: the approximate answer, its
// confidence interval, and the response metadata. In a batched response a
// failed item carries Error and zero metadata instead of failing the whole
// batch.
type QueryResultV2 struct {
	Estimate        float64 `json:"estimate"`
	Lo              float64 `json:"lo"`
	Hi              float64 `json:"hi"`
	HalfWidth       float64 `json:"halfWidth"`
	Covered         int     `json:"covered"`
	Partial         int     `json:"partial"`
	Outer           bool    `json:"outer,omitempty"`
	Template        string  `json:"template,omitempty"`
	SampleSize      int     `json:"sampleSize,omitempty"`
	Population      int64   `json:"population,omitempty"`
	CatchUpProgress float64 `json:"catchUpProgress,omitempty"`
	ElapsedMicros   int64   `json:"elapsedMicros,omitempty"`
	// Trace is the per-stage breakdown of a traced request (trace: true).
	// Stages without a shard index are group-level and — excluding
	// "syncWait" — sum to ElapsedMicros; per-shard "answer" stages overlap
	// in wall time and are detail under "scatter".
	Trace []TraceStageV2 `json:"trace,omitempty"`
	Error string         `json:"error,omitempty"`
}

// TraceStageV2 is one timed stage of a traced query.
type TraceStageV2 struct {
	// Stage is one of resolve, syncWait, scatter, rpc, answer, merge —
	// "rpc" is the coordinator's per-shard remote round-trip, detail
	// under "scatter" like "answer".
	Stage string `json:"stage"`
	// Shard is the answering shard's index for per-shard stages; absent
	// for group-level stages.
	Shard *int `json:"shard,omitempty"`
	// Micros is the stage duration in microseconds.
	Micros float64 `json:"micros"`
}

// QueryV2BatchResponse is the POST /v2/query response for batched
// requests: one result per request, in order.
type QueryV2BatchResponse struct {
	Results []QueryResultV2 `json:"results"`
}

// IngestRequest is the POST /v2/ingest payload: one batch of insertions
// and/or deletions. The insert batch is atomic per engine shard (all
// tuples land or none do on a single engine; per-shard on a sharded
// daemon); deletions of unknown ids are reported in Missing, not failed.
type IngestRequest struct {
	Tuples    []WireTuple `json:"tuples,omitempty"`
	DeleteIDs []int64     `json:"deleteIds,omitempty"`
}

// IngestResponse reports what one /v2/ingest batch changed.
type IngestResponse struct {
	Inserted int     `json:"inserted"`
	Deleted  int     `json:"deleted"`
	Missing  []int64 `json:"missing,omitempty"`
}

// WireTuple is one row in an ingestion batch.
type WireTuple struct {
	ID   int64     `json:"id"`
	Key  []float64 `json:"key"`
	Vals []float64 `json:"vals"`
}

// TemplateInfo describes one registered template.
type TemplateInfo struct {
	Name          string `json:"name"`
	PredicateDims []int  `json:"predicateDims"`
	AggIndex      int    `json:"aggIndex"`
}

// TemplatesResponse is the GET /v2/templates payload.
type TemplatesResponse struct {
	Templates []TemplateInfo `json:"templates"`
}

// CheckpointResponse is the POST /v2/admin/checkpoint payload: what the
// written snapshot covered and what it cost.
type CheckpointResponse struct {
	Templates     int   `json:"templates"`
	InsertOffset  int64 `json:"insertOffset"`
	DeleteOffset  int64 `json:"deleteOffset"`
	ArchiveRows   int64 `json:"archiveRows"`
	Bytes         int64 `json:"bytes"`
	ElapsedMicros int64 `json:"elapsedMicros,omitempty"`
}

// CompactResponse is the POST /v2/admin/compact payload: the checkpoint
// the compaction anchored on, and what rotating the segment logs behind
// it reclaimed.
type CompactResponse struct {
	InsertsDropped int64              `json:"insertsDropped"`
	DeletesDropped int64              `json:"deletesDropped"`
	LogBytesBefore int64              `json:"logBytesBefore"`
	LogBytesAfter  int64              `json:"logBytesAfter"`
	Checkpoint     CheckpointResponse `json:"checkpoint"`
	ElapsedMicros  int64              `json:"elapsedMicros"`
}

// ReshardRequest is the POST /v2/admin/reshard payload: the target shard
// count to live-migrate the serving layout to.
type ReshardRequest struct {
	Shards int `json:"shards"`
}

// ReshardResponse reports a completed live reshard: the layout move, how
// much data the copy migrated, how many records dual-writes mirrored, and
// the write pause the cutover imposed.
type ReshardResponse struct {
	FromShards         int   `json:"fromShards"`
	ToShards           int   `json:"toShards"`
	Epoch              int64 `json:"epoch"`
	RowsCopied         int64 `json:"rowsCopied"`
	DualWrites         int64 `json:"dualWrites"`
	CopyMicros         int64 `json:"copyMicros"`
	CutoverPauseMicros int64 `json:"cutoverPauseMicros"`
	ElapsedMicros      int64 `json:"elapsedMicros"`
}

// ErrorResponse is the body of every non-2xx response. RequestID echoes
// the X-Request-Id the response carries, so a client error report can be
// matched against the daemon's logs.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"requestId,omitempty"`
}

// DebugResponse is the GET /v2/admin/debug payload (behind janusd -admin):
// build identity, runtime posture, and a full engine snapshot including
// the per-shard breakdown.
type DebugResponse struct {
	GoVersion     string            `json:"goVersion"`
	ModulePath    string            `json:"modulePath,omitempty"`
	ModuleVersion string            `json:"moduleVersion,omitempty"`
	GoMaxProcs    int               `json:"gomaxprocs"`
	NumCPU        int               `json:"numCpu"`
	NumGoroutine  int               `json:"numGoroutine"`
	HeapAllocByte uint64            `json:"heapAllocBytes"`
	UptimeSeconds float64           `json:"uptimeSeconds"`
	Stats         janus.EngineStats `json:"stats"`
}

func toResultV2(r janus.Response) QueryResultV2 {
	out := QueryResultV2{
		Estimate:        r.Result.Estimate,
		Lo:              r.Result.Interval.Lo(),
		Hi:              r.Result.Interval.Hi(),
		HalfWidth:       r.Result.Interval.HalfWidth,
		Covered:         r.Result.Covered,
		Partial:         r.Result.Partial,
		Outer:           r.Result.Outer,
		Template:        r.Template,
		SampleSize:      r.SampleSize,
		Population:      r.Population,
		CatchUpProgress: r.CatchUpProgress,
		ElapsedMicros:   r.Elapsed.Microseconds(),
	}
	for _, st := range r.Trace {
		stage := TraceStageV2{Stage: st.Stage, Micros: float64(st.Dur.Nanoseconds()) / 1e3}
		if st.Shard >= 0 {
			shard := st.Shard
			stage.Shard = &shard
		}
		out.Trace = append(out.Trace, stage)
	}
	return out
}

func parseFunc(name string) (janus.Func, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "SUM":
		return janus.FuncSum, nil
	case "COUNT":
		return janus.FuncCount, nil
	case "AVG":
		return janus.FuncAvg, nil
	case "MIN":
		return janus.FuncMin, nil
	case "MAX":
		return janus.FuncMax, nil
	}
	return 0, fmt.Errorf("%w: unknown aggregate function %q (want SUM, COUNT, AVG, MIN, or MAX)", janus.ErrInvalidRequest, name)
}

// toRequest decodes one wire request into the engine's Request. The
// structured fields are decoded only for a structured request (a template
// and no SQL — any other shape is Validate's to judge); the one thing the
// decode itself can reject is an aggregate name it cannot parse.
func (req QueryRequestV2) toRequest() (janus.Request, error) {
	out := janus.Request{
		SQL:           req.SQL,
		Template:      req.Template,
		Confidence:    req.Confidence,
		MinSyncOffset: req.MinSyncOffset,
		Trace:         req.Trace,
	}
	if len(req.OnKeys) > 0 {
		out.OnKeys = req.OnKeys
	}
	if req.SQL != "" || req.Template == "" {
		return out, nil
	}
	fn, err := parseFunc(req.Func)
	if err != nil {
		return janus.Request{}, err
	}
	out.Query = janus.Query{Func: fn, AggIndex: -1, Rect: janus.Rect{Min: req.Min, Max: req.Max}}
	if req.AggIndex != nil {
		out.Query.AggIndex = *req.AggIndex
	}
	return out, nil
}
