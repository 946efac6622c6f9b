package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"

	janus "janusaqp"
	"janusaqp/internal/transport"
)

// BinaryMediaType is the content type of the framed binary codec on
// /v2/query and /v2/ingest: the request body is a transport body
// (DecodeQueryRequest / DecodeIngestRequest) and the response a transport
// reply (QueryResult / IngestReply) — the same bytes the -rpc client
// endpoint exchanges, minus the frame header TCP framing needs and HTTP
// already provides.
const BinaryMediaType = "application/x-janus-binary"

// decodeClientQuery decodes one binary client query body. The one rule that
// belongs to this wire and not to janus.Request.Validate lives here: a
// client may not send explicit ±Inf bounds — it omits the rect to query the
// whole universe. A cluster peer must be able to (a coordinator forwards
// rects a caller resolved to janus.Universe), which is why the
// shard-internal MsgQuery path decodes without this check.
func decodeClientQuery(body []byte) (janus.Request, error) {
	req, err := transport.DecodeQueryRequest(body)
	if err != nil {
		return janus.Request{}, fmt.Errorf("%w: %v", janus.ErrInvalidRequest, err)
	}
	for _, side := range [...]janus.Point{req.Query.Rect.Min, req.Query.Rect.Max} {
		for i, v := range side {
			if math.IsInf(v, 0) {
				return janus.Request{}, fmt.Errorf("%w: infinite bound on dimension %d; omit bounds for an unbounded predicate",
					janus.ErrInvalidRequest, i)
			}
		}
	}
	return req, nil
}

// appendQueryResult appends the binary QueryResult encoding of resp to buf.
func appendQueryResult(buf []byte, resp janus.Response) []byte {
	return transport.AppendQueryResult(buf, transport.QueryResult{
		Estimate:        resp.Result.Estimate,
		Lo:              resp.Result.Interval.Lo(),
		Hi:              resp.Result.Interval.Hi(),
		HalfWidth:       resp.Result.Interval.HalfWidth,
		Covered:         resp.Result.Covered,
		PartialLeaves:   resp.Result.Partial,
		Outer:           resp.Result.Outer,
		Template:        resp.Template,
		SampleSize:      resp.SampleSize,
		Population:      resp.Population,
		CatchUpProgress: resp.CatchUpProgress,
		ElapsedMicros:   resp.Elapsed.Microseconds(),
	})
}

// AnswerBinary serves one binary client query: decode the transport
// request body, answer through Engine.Do, and append the binary
// QueryResult to buf. It is the body-bytes-in, reply-bytes-out core of the
// -rpc client endpoint, and the surface the allocation regression tests
// pin.
func AnswerBinary(ctx context.Context, eng Engine, body, buf []byte) ([]byte, error) {
	req, err := decodeClientQuery(body)
	if err != nil {
		return buf, err
	}
	resp, err := eng.Do(ctx, req)
	if err != nil {
		return buf, err
	}
	return appendQueryResult(buf, resp), nil
}

// ApplyIngest applies one client ingest batch — the single definition every
// ingest surface (JSON and binary /v2/ingest, the -rpc client edge, a shard
// node) shares. Inserts apply first, atomically per engine shard, then
// deletions; delete ids the engine does not hold are data, reported in
// Missing, not a failure. An empty batch is invalid. The reply reports what
// was applied even beside an error: a failed deletion does not undo the
// inserts.
//
// writeHealth, when non-nil, reports the durable store's latched log
// failure (Store.WriteErr). It is consulted after the apply — a topic
// latches its first write-through failure during the publish itself — so
// the very batch that hit the failed write, and every one after it, is
// refused with ErrShardUnavailable instead of acknowledging durability the
// disk no longer provides.
func ApplyIngest(eng Engine, writeHealth func() error, tuples []janus.Tuple, deleteIDs []int64) (transport.IngestReply, error) {
	var rep transport.IngestReply
	if len(tuples) == 0 && len(deleteIDs) == 0 {
		return rep, fmt.Errorf("%w: ingest batch is empty", janus.ErrInvalidRequest)
	}
	if err := eng.InsertBatch(tuples); err != nil {
		return rep, err
	}
	rep.Inserted = len(tuples)
	if len(deleteIDs) > 0 {
		n, err := eng.DeleteBatch(deleteIDs)
		rep.Deleted = n
		var missing *janus.BatchIDError
		if errors.As(err, &missing) {
			rep.Missing = missing.IDs
		} else if err != nil {
			return rep, err
		}
	}
	if writeHealth != nil {
		if err := writeHealth(); err != nil {
			return rep, fmt.Errorf("%w: durable log write failed; batch applied in memory only, restart will lose it: %v",
				janus.ErrShardUnavailable, err)
		}
	}
	return rep, nil
}

// IngestBinary serves one binary ingest batch: decode the segment-log
// tuple chunk and delete ids, apply them (ApplyIngest), and append the
// binary IngestReply to buf. The reply is also returned decoded — what was
// applied, even beside an error — so callers can feed their row counters.
func IngestBinary(eng Engine, writeHealth func() error, body, buf []byte) ([]byte, transport.IngestReply, error) {
	tuples, deleteIDs, err := transport.DecodeIngestRequest(body)
	if err != nil {
		return buf, transport.IngestReply{}, fmt.Errorf("%w: %v", janus.ErrInvalidRequest, err)
	}
	rep, err := ApplyIngest(eng, writeHealth, tuples, deleteIDs)
	if err != nil {
		return buf, rep, err
	}
	return transport.AppendIngestReply(buf, rep), rep, nil
}

// isBinary reports whether the request declares the binary media type.
func isBinary(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return ct == BinaryMediaType
}

// readBinaryBody slurps a binary request body under the server's body cap.
func (s *Server) readBinaryBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, transport.MaxFrameBytes))
	if err != nil {
		s.writeBinaryError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
		return nil, false
	}
	return body, true
}

// writeBinaryError answers a binary request with the transport error-body
// codec — the same classification bytes an -rpc error frame carries — so a
// binary client decodes one error taxonomy no matter which listener it
// spoke to. The HTTP status still carries the statusForEngineErr mapping
// for proxies and logs.
func (s *Server) writeBinaryError(w http.ResponseWriter, status int, err error) {
	s.errors.Inc()
	w.Header().Set("Content-Type", BinaryMediaType)
	w.WriteHeader(status)
	_, _ = w.Write(transport.EncodeErrorBody(err))
}

// serveBinaryQuery serves a /v2/query body in the binary codec.
// MinSyncOffset is not on the binary wire (cluster ingest acknowledges
// only after the write applied, so read-your-writes holds without it),
// which means no sync wait can park the handler — the request's own
// context deadline is the only budget needed.
func (s *Server) serveBinaryQuery(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBinaryBody(w, r)
	if !ok {
		return
	}
	req, err := decodeClientQuery(body)
	if err != nil {
		s.writeBinaryError(w, statusForEngineErr(err), err)
		return
	}
	resp, err := s.answer(r.Context(), req, 0)
	if err != nil {
		s.writeBinaryError(w, statusForEngineErr(err), err)
		return
	}
	w.Header().Set("Content-Type", BinaryMediaType)
	_, _ = w.Write(appendQueryResult(nil, resp))
}

// serveBinaryIngest serves a /v2/ingest body in the binary codec.
func (s *Server) serveBinaryIngest(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBinaryBody(w, r)
	if !ok {
		return
	}
	reply, rep, err := IngestBinary(s.eng, s.writeHealth, body, nil)
	s.rowsInserted.Add(uint64(rep.Inserted))
	s.rowsDeleted.Add(uint64(rep.Deleted))
	if err != nil {
		s.writeBinaryError(w, statusForEngineErr(err), err)
		return
	}
	w.Header().Set("Content-Type", BinaryMediaType)
	_, _ = w.Write(reply)
}
