package cluster

import (
	"context"
	"fmt"
	"sync"

	"janusaqp/internal/server"
	"janusaqp/internal/transport"
)

// ClientEdge serves the binary client protocol over any server.Engine —
// a single engine, an in-process ShardGroup, or a Coordinator. It is the
// -rpc counterpart of the HTTP binary content type: clients query with
// MsgClientQuery (merged final results, not shard partials) and ingest
// with MsgIngest, over the same frames, codecs, and error taxonomy the
// inter-node path uses. On a coordinator daemon this is the zero-HTTP
// path: client frames go straight to scatter-gather without a JSON hop.
type ClientEdge struct {
	eng         server.Engine
	writeHealth func() error
}

// NewClientEdge returns a client edge over eng. writeHealth (typically
// Store.WriteErr) gates ingest acks on durable-write health; nil skips
// the check (ephemeral daemons).
func NewClientEdge(eng server.Engine, writeHealth func() error) *ClientEdge {
	return &ClientEdge{eng: eng, writeHealth: writeHealth}
}

// replyBufPool recycles reply-body buffers across requests: the serving
// hot path appends each binary reply into a pooled buffer, writes the
// frame, and returns the buffer — steady-state replies allocate nothing.
// Safe because ResponseWriter writes synchronously: the bytes are on the
// wire before ServeFrame returns.
var replyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// maxPooledReplyBytes caps the capacity of a buffer worth keeping; a rare
// giant reply (a huge Missing list) must not pin its memory in the pool.
const maxPooledReplyBytes = 1 << 20

// sendPooled writes the outcome of a handler that appended its reply into
// the pooled buffer bp — the reply, or err — and returns the buffer.
func sendPooled(w *transport.ResponseWriter, bp *[]byte, reply []byte, err error) {
	if err != nil {
		w.Error(err)
	} else {
		w.Reply(reply)
	}
	if cap(reply) <= maxPooledReplyBytes {
		*bp = reply[:0]
		replyBufPool.Put(bp)
	}
}

// ServeFrame dispatches one client frame (transport.Handler).
func (e *ClientEdge) ServeFrame(f transport.Frame, w *transport.ResponseWriter) {
	switch f.Type {
	case transport.MsgPing:
		// The client edge is always a serving surface — no standby state —
		// so ping answers primary with no replication offsets.
		w.Reply(transport.EncodeStatus(transport.Status{Role: transport.RolePrimary}))

	case transport.MsgClientQuery:
		bp := replyBufPool.Get().(*[]byte)
		reply, err := server.AnswerBinary(context.Background(), e.eng, f.Body, (*bp)[:0])
		sendPooled(w, bp, reply, err)

	case transport.MsgIngest:
		bp := replyBufPool.Get().(*[]byte)
		reply, _, err := server.IngestBinary(e.eng, e.writeHealth, f.Body, (*bp)[:0])
		sendPooled(w, bp, reply, err)

	case transport.MsgStats:
		replyJSON(w, e.eng.Stats())

	case transport.MsgTemplates:
		names := e.eng.Templates()
		decls := make([]any, 0, len(names))
		for _, name := range names {
			if t, ok := e.eng.Template(name); ok {
				decls = append(decls, t)
			}
		}
		replyJSON(w, decls)

	case transport.MsgStatsFor:
		st, err := e.eng.StatsFor(string(f.Body))
		if err != nil {
			w.Error(err)
			return
		}
		replyJSON(w, st)

	default:
		w.Error(fmt.Errorf("cluster: message type %s is not served on the client edge", transport.MethodName(f.Type)))
	}
}
