package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	janus "janusaqp"
	"janusaqp/internal/broker"
	"janusaqp/internal/core"
	"janusaqp/internal/data"
	"janusaqp/internal/geom"
)

// Body codecs for the frame types. All integers little-endian; strings and
// lists are u32-counted. Decoders validate every count against the bytes
// actually present before allocating, mirroring DecodeTupleChunk: a wire
// peer can make a decode fail, never make it panic or over-allocate.

// reader is a bounds-checked cursor over a frame body. After any failed
// read it latches its error and every subsequent read returns zero values,
// so decoders read straight-line and check err once.
type reader struct {
	p   []byte
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("transport: truncated %s", what)
	}
}

func (r *reader) u8(what string) byte {
	if r.err != nil || len(r.p) < 1 {
		r.fail(what)
		return 0
	}
	v := r.p[0]
	r.p = r.p[1:]
	return v
}

func (r *reader) u32(what string) uint32 {
	if r.err != nil || len(r.p) < 4 {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.p)
	r.p = r.p[4:]
	return v
}

func (r *reader) u64(what string) uint64 {
	if r.err != nil || len(r.p) < 8 {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.p)
	r.p = r.p[8:]
	return v
}

func (r *reader) i64(what string) int64   { return int64(r.u64(what)) }
func (r *reader) f64(what string) float64 { return math.Float64frombits(r.u64(what)) }

// str reads a u32-counted string whose declared length must fit the
// remaining bytes.
func (r *reader) str(what string) string {
	n := int(r.u32(what))
	if r.err != nil || n > len(r.p) {
		r.fail(what)
		return ""
	}
	v := string(r.p[:n])
	r.p = r.p[n:]
	return v
}

// f64s reads a u32-counted float list; the count is bounded by the bytes
// present (8 per element) before the slice is allocated.
func (r *reader) f64s(what string) []float64 {
	n := int(r.u32(what))
	if r.err != nil || n > len(r.p)/8 {
		r.fail(what)
		return nil
	}
	if n == 0 {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.p[i*8:]))
	}
	r.p = r.p[n*8:]
	return v
}

// f64sArena reads a u32-counted float list like f64s, but carves the result
// out of a shared arena instead of allocating per list — the restore path's
// DecodeTupleChunk idiom applied to request decode. The three-index slice
// caps the result at its own length so an append by the consumer cannot
// clobber a neighboring carve.
func (r *reader) f64sArena(arena *[]float64, what string) []float64 {
	n := int(r.u32(what))
	if r.err != nil || n > len(r.p)/8 {
		r.fail(what)
		return nil
	}
	if n == 0 {
		return nil
	}
	lo := len(*arena)
	for i := 0; i < n; i++ {
		*arena = append(*arena, math.Float64frombits(binary.LittleEndian.Uint64(r.p[i*8:])))
	}
	r.p = r.p[n*8:]
	return (*arena)[lo : lo+n : lo+n]
}

// i64s reads a u32-counted int64 list with the same bound as f64s.
func (r *reader) i64s(what string) []int64 {
	n := int(r.u32(what))
	if r.err != nil || n > len(r.p)/8 {
		r.fail(what)
		return nil
	}
	if n == 0 {
		return nil
	}
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(r.p[i*8:]))
	}
	r.p = r.p[n*8:]
	return v
}

// blob reads a u32-counted byte slice (no copy; aliases the body).
func (r *reader) blob(what string) []byte {
	n := int(r.u32(what))
	if r.err != nil || n > len(r.p) {
		r.fail(what)
		return nil
	}
	v := r.p[:n]
	r.p = r.p[n:]
	return v
}

// done errors unless the body was consumed exactly — trailing garbage in a
// checksummed frame means a codec mismatch, not line noise.
func (r *reader) done(what string) error {
	if r.err != nil {
		return r.err
	}
	if len(r.p) != 0 {
		return fmt.Errorf("transport: %s carries %d trailing bytes", what, len(r.p))
	}
	return nil
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func appendF64s(buf []byte, v []float64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
	for _, x := range v {
		buf = appendF64(buf, x)
	}
	return buf
}

func appendI64s(buf []byte, v []int64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
	}
	return buf
}

func appendBlob(buf, p []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
	return append(buf, p...)
}

// --- MsgQuery request -------------------------------------------------

// EncodeQueryRequest encodes the forwardable part of an engine Request:
// the shard resolves SQL/template/on-keys itself against its own (identical)
// registrations, which keeps the coordinator schema-free. MinSyncOffset and
// Trace are deliberately not on the wire — cluster ingest acknowledges only
// after every shard applied the write, so read-your-writes holds without a
// watermark wait, and shard-side timing returns via QueryReply.AnswerMicros.
func EncodeQueryRequest(req janus.Request) []byte {
	buf := make([]byte, 0, 64+len(req.SQL)+len(req.Template))
	buf = appendStr(buf, req.SQL)
	buf = appendStr(buf, req.Template)
	buf = append(buf, byte(req.Query.Func))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(req.Query.AggIndex))
	buf = appendF64s(buf, req.Query.Rect.Min)
	buf = appendF64s(buf, req.Query.Rect.Max)
	buf = appendF64(buf, req.Query.Confidence)
	buf = appendF64(buf, req.Confidence)
	if req.OnKeys != nil {
		buf = append(buf, 1)
		keys := make([]int64, len(req.OnKeys))
		for i, k := range req.OnKeys {
			keys[i] = int64(k)
		}
		buf = appendI64s(buf, keys)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

// DecodeQueryRequest inverts EncodeQueryRequest. The rect's Min and Max
// share one arena allocation (never more than the body itself could carry),
// keeping the serving hot path at a fixed number of allocations per request
// regardless of dimensionality.
func DecodeQueryRequest(p []byte) (janus.Request, error) {
	r := &reader{p: p}
	var req janus.Request
	req.SQL = r.str("query SQL")
	req.Template = r.str("query template")
	req.Query.Func = core.Func(r.u8("query func"))
	req.Query.AggIndex = int(r.i64("query agg index"))
	arena := make([]float64, 0, len(r.p)/8)
	req.Query.Rect = geom.Rect{Min: r.f64sArena(&arena, "query rect min"), Max: r.f64sArena(&arena, "query rect max")}
	req.Query.Confidence = r.f64("query confidence")
	req.Confidence = r.f64("query confidence override")
	if r.u8("query on-keys flag") != 0 {
		keys := r.i64s("query on-keys")
		req.OnKeys = make([]int, len(keys))
		for i, k := range keys {
			req.OnKeys[i] = int(k)
		}
	}
	if err := r.done("query request"); err != nil {
		return janus.Request{}, err
	}
	return req, nil
}

// --- MsgClientQuery reply ---------------------------------------------

// QueryResult is the MsgClientQuery reply: the merged, final answer a
// client consumes directly, as opposed to QueryReply's mergeable partial
// that only a coordinator can fold. Field for field it mirrors the JSON
// /v2/query result so the two codecs answer identically.
type QueryResult struct {
	Estimate        float64
	Lo, Hi          float64
	HalfWidth       float64
	Covered         int
	PartialLeaves   int
	Outer           bool
	Template        string
	SampleSize      int
	Population      int64
	CatchUpProgress float64
	ElapsedMicros   int64
}

// AppendQueryResult appends the encoding of res to buf and returns the
// extended buffer — the append form lets the serving hot path reuse one
// pooled reply buffer per connection.
func AppendQueryResult(buf []byte, res QueryResult) []byte {
	buf = appendF64(buf, res.Estimate)
	buf = appendF64(buf, res.Lo)
	buf = appendF64(buf, res.Hi)
	buf = appendF64(buf, res.HalfWidth)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(res.Covered))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(res.PartialLeaves))
	var flags byte
	if res.Outer {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = appendStr(buf, res.Template)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(res.SampleSize))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(res.Population))
	buf = appendF64(buf, res.CatchUpProgress)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(res.ElapsedMicros))
	return buf
}

// DecodeQueryResult inverts AppendQueryResult.
func DecodeQueryResult(p []byte) (QueryResult, error) {
	r := &reader{p: p}
	var res QueryResult
	res.Estimate = r.f64("result estimate")
	res.Lo = r.f64("result interval low")
	res.Hi = r.f64("result interval high")
	res.HalfWidth = r.f64("result half width")
	res.Covered = int(r.u32("result covered"))
	res.PartialLeaves = int(r.u32("result partial leaves"))
	res.Outer = r.u8("result flags")&1 != 0
	res.Template = r.str("result template")
	res.SampleSize = int(r.i64("result sample size"))
	res.Population = r.i64("result population")
	res.CatchUpProgress = r.f64("result catch-up progress")
	res.ElapsedMicros = r.i64("result elapsed micros")
	if err := r.done("query result"); err != nil {
		return QueryResult{}, err
	}
	return res, nil
}

// --- MsgQuery reply ---------------------------------------------------

// QueryReply is one shard's mergeable answer: the fixed-width partial plus
// the response metadata the coordinator folds with ShardGroup semantics.
type QueryReply struct {
	Partial         core.Partial
	Template        string
	SampleSize      int
	Population      int64
	CatchUpProgress float64
	// Confidence is the effective level the shard resolved (SQL can carry
	// its own CONFIDENCE clause); the coordinator merges at this z.
	Confidence float64
	// AnswerMicros is the shard-side answering time, re-emitted by the
	// coordinator as a per-shard StageAnswer trace stage.
	AnswerMicros int64
}

// EncodeQueryReply encodes rep in fixed-width binary form.
func EncodeQueryReply(rep QueryReply) []byte {
	pt := rep.Partial
	buf := make([]byte, 0, 128+len(rep.Template))
	buf = append(buf, byte(pt.Func))
	buf = appendF64(buf, pt.Sum)
	buf = appendF64(buf, pt.SumVar)
	buf = appendF64(buf, pt.Count)
	buf = appendF64(buf, pt.CountVar)
	buf = appendF64(buf, pt.SumSq)
	buf = appendF64(buf, pt.AvgVar)
	buf = appendF64(buf, pt.Extreme)
	var flags byte
	if pt.Seen {
		flags |= 1
	}
	if pt.Outer {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(pt.Covered))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(pt.PartialLeaves))
	buf = appendStr(buf, rep.Template)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rep.SampleSize))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rep.Population))
	buf = appendF64(buf, rep.CatchUpProgress)
	buf = appendF64(buf, rep.Confidence)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rep.AnswerMicros))
	return buf
}

// DecodeQueryReply inverts EncodeQueryReply.
func DecodeQueryReply(p []byte) (QueryReply, error) {
	r := &reader{p: p}
	var rep QueryReply
	rep.Partial.Func = core.Func(r.u8("partial func"))
	rep.Partial.Sum = r.f64("partial sum")
	rep.Partial.SumVar = r.f64("partial sum variance")
	rep.Partial.Count = r.f64("partial count")
	rep.Partial.CountVar = r.f64("partial count variance")
	rep.Partial.SumSq = r.f64("partial sum of squares")
	rep.Partial.AvgVar = r.f64("partial avg variance")
	rep.Partial.Extreme = r.f64("partial extreme")
	flags := r.u8("partial flags")
	rep.Partial.Seen = flags&1 != 0
	rep.Partial.Outer = flags&2 != 0
	rep.Partial.Covered = int(r.u32("partial covered"))
	rep.Partial.PartialLeaves = int(r.u32("partial leaves"))
	rep.Template = r.str("reply template")
	rep.SampleSize = int(r.i64("reply sample size"))
	rep.Population = r.i64("reply population")
	rep.CatchUpProgress = r.f64("reply catch-up progress")
	rep.Confidence = r.f64("reply confidence")
	rep.AnswerMicros = r.i64("reply answer micros")
	if err := r.done("query reply"); err != nil {
		return QueryReply{}, err
	}
	return rep, nil
}

// --- MsgIngest --------------------------------------------------------

// EncodeIngestRequest encodes one shard's sub-batch: the inserts as one
// broker tuple chunk (the PR 5 fixed-width codec, byte-compatible with the
// segment-log payloads) plus the delete IDs.
func EncodeIngestRequest(tuples []data.Tuple, deleteIDs []int64) []byte {
	chunk := broker.EncodeTupleChunk(tuples)
	buf := make([]byte, 0, 8+len(chunk)+8*len(deleteIDs))
	buf = appendBlob(buf, chunk)
	buf = appendI64s(buf, deleteIDs)
	return buf
}

// DecodeIngestRequest inverts EncodeIngestRequest.
func DecodeIngestRequest(p []byte) ([]data.Tuple, []int64, error) {
	r := &reader{p: p}
	chunk := r.blob("ingest tuple chunk")
	ids := r.i64s("ingest delete IDs")
	if err := r.done("ingest request"); err != nil {
		return nil, nil, err
	}
	tuples, err := broker.DecodeTupleChunk(chunk)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: ingest tuple chunk: %w", err)
	}
	return tuples, ids, nil
}

// IngestReply acknowledges one shard sub-batch. Missing lists delete ids
// the shard did not hold — data, not an RPC failure, so the coordinator
// can still merge counts and watermarks exactly like ShardGroup.DeleteBatch.
// InsLen/DelLen are the node's post-batch log lengths (next offsets): the
// coordinator's acknowledged-write watermark, which a standby must reach
// before it is eligible for promotion.
type IngestReply struct {
	Inserted, Deleted int
	Missing           []int64
	InsLen, DelLen    int64
}

// AppendIngestReply appends the encoding of rep to buf — the append form
// for handlers that reuse a pooled reply buffer.
func AppendIngestReply(buf []byte, rep IngestReply) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rep.Inserted))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rep.Deleted))
	buf = appendI64s(buf, rep.Missing)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rep.InsLen))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rep.DelLen))
	return buf
}

// EncodeIngestReply encodes rep.
func EncodeIngestReply(rep IngestReply) []byte {
	return AppendIngestReply(make([]byte, 0, 40+8*len(rep.Missing)), rep)
}

// DecodeIngestReply inverts EncodeIngestReply.
func DecodeIngestReply(p []byte) (IngestReply, error) {
	r := &reader{p: p}
	rep := IngestReply{
		Inserted: int(r.i64("ingest inserted count")),
		Deleted:  int(r.i64("ingest deleted count")),
		Missing:  r.i64s("ingest missing IDs"),
		InsLen:   r.i64("ingest insert log length"),
		DelLen:   r.i64("ingest delete log length"),
	}
	if err := r.done("ingest reply"); err != nil {
		return IngestReply{}, err
	}
	return rep, nil
}

// --- MsgPing ----------------------------------------------------------

// Node roles as reported by MsgPing.
const (
	RolePrimary = byte(iota)
	RoleStandby
)

// Status is a node's MsgPing reply: its role and replicated log offsets.
// A standby whose offsets reach the coordinator's acknowledged watermark
// is caught up and eligible for promotion.
type Status struct {
	Role           byte
	InsLen, DelLen int64
}

// EncodeStatus encodes st.
func EncodeStatus(st Status) []byte {
	buf := make([]byte, 0, 17)
	buf = append(buf, st.Role)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.InsLen))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.DelLen))
	return buf
}

// DecodeStatus inverts EncodeStatus.
func DecodeStatus(p []byte) (Status, error) {
	r := &reader{p: p}
	st := Status{
		Role:   r.u8("status role"),
		InsLen: r.i64("status insert log length"),
		DelLen: r.i64("status delete log length"),
	}
	if err := r.done("status"); err != nil {
		return Status{}, err
	}
	return st, nil
}

// --- MsgPollLog -------------------------------------------------------

// Topic selectors for MsgPollLog.
const (
	TopicInserts = byte(iota)
	TopicDeletes
)

// PollRequest asks for up to Max records of one topic starting at From.
type PollRequest struct {
	Topic byte
	From  int64
	Max   int
}

// EncodePollRequest encodes pr.
func EncodePollRequest(pr PollRequest) []byte {
	buf := make([]byte, 0, 17)
	buf = append(buf, pr.Topic)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(pr.From))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(pr.Max))
	return buf
}

// DecodePollRequest inverts EncodePollRequest.
func DecodePollRequest(p []byte) (PollRequest, error) {
	r := &reader{p: p}
	pr := PollRequest{
		Topic: r.u8("poll topic"),
		From:  r.i64("poll from offset"),
		Max:   int(r.i64("poll max records")),
	}
	if err := r.done("poll request"); err != nil {
		return PollRequest{}, err
	}
	return pr, nil
}

// PollReply returns the topic's compacted base, the records starting at
// the clamped offset, and the next offset to poll from. A follower that
// asked below Base has fallen behind compaction and must re-bootstrap
// from a fresh checkpoint.
type PollReply struct {
	Base, Next int64
	Records    []broker.Record
}

// EncodePollReply encodes rep using the broker's record-batch codec.
func EncodePollReply(rep PollReply) []byte {
	batch := broker.EncodeRecordBatch(rep.Records)
	buf := make([]byte, 0, 20+len(batch))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rep.Base))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rep.Next))
	buf = appendBlob(buf, batch)
	return buf
}

// DecodePollReply inverts EncodePollReply.
func DecodePollReply(p []byte) (PollReply, error) {
	r := &reader{p: p}
	var rep PollReply
	rep.Base = r.i64("poll base offset")
	rep.Next = r.i64("poll next offset")
	batch := r.blob("poll record batch")
	if err := r.done("poll reply"); err != nil {
		return PollReply{}, err
	}
	recs, err := broker.DecodeRecordBatch(batch)
	if err != nil {
		return PollReply{}, fmt.Errorf("transport: poll record batch: %w", err)
	}
	rep.Records = recs
	return rep, nil
}

// --- error body -------------------------------------------------------

// Wire error codes, mapped back to the engine's typed sentinels so the v2
// error taxonomy (404/409/400/503...) survives the network hop.
const (
	ErrCodeGeneric = byte(iota)
	ErrCodeUnknownTemplate
	ErrCodeInvalidRequest
	ErrCodeDuplicateID
	ErrCodeUnknownIDs
	ErrCodeUnavailable
	ErrCodeNoCheckpoint
	ErrCodeDuplicateTemplate
	ErrCodeReshardInProgress
	ErrCodeStoreClosed
)

// EncodeErrorBody classifies err into a wire error frame body:
// [u8 code][u32 nIDs][ids...][message].
func EncodeErrorBody(err error) []byte {
	code := ErrCodeGeneric
	var ids []int64
	var batchErr *janus.BatchIDError
	switch {
	case errors.As(err, &batchErr):
		// BatchIDError wraps ErrUnknownID by construction.
		ids = batchErr.IDs
		code = ErrCodeUnknownIDs
	case errors.Is(err, janus.ErrUnknownTemplate):
		code = ErrCodeUnknownTemplate
	case errors.Is(err, janus.ErrInvalidRequest), errors.Is(err, janus.ErrSchemaMismatch):
		code = ErrCodeInvalidRequest
	case errors.Is(err, janus.ErrDuplicateID):
		code = ErrCodeDuplicateID
	case errors.Is(err, janus.ErrUnknownID):
		code = ErrCodeUnknownIDs
	case errors.Is(err, janus.ErrNoCheckpoint):
		code = ErrCodeNoCheckpoint
	case errors.Is(err, janus.ErrShardUnavailable):
		code = ErrCodeUnavailable
	case errors.Is(err, janus.ErrDuplicateTemplate):
		code = ErrCodeDuplicateTemplate
	case errors.Is(err, janus.ErrReshardInProgress):
		code = ErrCodeReshardInProgress
	case errors.Is(err, janus.ErrStoreClosed):
		// ErrStoreClosed aliases broker.ErrLogClosed: a shard whose
		// durable store latched shut reports it on every subsequent write.
		code = ErrCodeStoreClosed
	}
	msg := err.Error()
	buf := make([]byte, 0, 5+8*len(ids)+len(msg))
	buf = append(buf, code)
	buf = appendI64s(buf, ids)
	return append(buf, msg...)
}

// DecodeErrorBody inverts EncodeErrorBody, reconstructing the engine's
// typed sentinel chain so errors.Is/As work on the caller side exactly as
// they would in-process.
func DecodeErrorBody(p []byte) error {
	r := &reader{p: p}
	code := r.u8("error code")
	ids := r.i64s("error IDs")
	if r.err != nil {
		return fmt.Errorf("transport: malformed error frame (%d bytes)", len(p))
	}
	msg := string(r.p)
	switch code {
	case ErrCodeUnknownTemplate:
		return remoteError{msg: msg, sentinel: janus.ErrUnknownTemplate}
	case ErrCodeInvalidRequest:
		return remoteError{msg: msg, sentinel: janus.ErrInvalidRequest}
	case ErrCodeDuplicateID:
		return remoteError{msg: msg, sentinel: janus.ErrDuplicateID}
	case ErrCodeUnknownIDs:
		if len(ids) > 0 {
			return remoteError{msg: msg, sentinel: janus.ErrUnknownID, batch: &janus.BatchIDError{IDs: ids}}
		}
		return remoteError{msg: msg, sentinel: janus.ErrUnknownID}
	case ErrCodeNoCheckpoint:
		return remoteError{msg: msg, sentinel: janus.ErrNoCheckpoint}
	case ErrCodeUnavailable:
		return remoteError{msg: msg, sentinel: janus.ErrShardUnavailable}
	case ErrCodeDuplicateTemplate:
		return remoteError{msg: msg, sentinel: janus.ErrDuplicateTemplate}
	case ErrCodeReshardInProgress:
		return remoteError{msg: msg, sentinel: janus.ErrReshardInProgress}
	case ErrCodeStoreClosed:
		return remoteError{msg: msg, sentinel: janus.ErrStoreClosed}
	default:
		return errors.New(msg)
	}
}

// remoteError re-ties a shard-side error message to the local sentinel it
// was classified as, so the coordinator and the HTTP status mapper treat a
// remote failure exactly like a local one.
type remoteError struct {
	msg      string
	sentinel error
	batch    *janus.BatchIDError
}

func (e remoteError) Error() string {
	// Shard-side messages already carry the sentinel's text; avoid
	// doubling it when re-wrapping locally.
	if e.msg != "" {
		return e.msg
	}
	return e.sentinel.Error()
}

func (e remoteError) Is(target error) bool { return errors.Is(e.sentinel, target) }

func (e remoteError) As(target any) bool {
	if e.batch == nil {
		return false
	}
	if p, ok := target.(**janus.BatchIDError); ok {
		*p = e.batch
		return true
	}
	return false
}

// MethodName names a message type for metrics labels and errors.
func MethodName(typ byte) string {
	switch typ {
	case MsgPing:
		return "ping"
	case MsgQuery:
		return "query"
	case MsgIngest:
		return "ingest"
	case MsgFetchCheckpoint:
		return "fetch_checkpoint"
	case MsgPollLog:
		return "poll_log"
	case MsgPromote:
		return "promote"
	case MsgStats:
		return "stats"
	case MsgTemplates:
		return "templates"
	case MsgStatsFor:
		return "stats_for"
	case MsgClientQuery:
		return "client_query"
	default:
		return fmt.Sprintf("unknown_%d", typ)
	}
}
