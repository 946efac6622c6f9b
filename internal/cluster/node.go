// Package cluster puts the shard boundary on the network: shard nodes
// serve the binary RPC protocol (internal/transport) over a local
// Engine+Store, a Coordinator hash-routes ingest and scatter-gathers
// queries over them behind the same server.Engine surface the in-process
// ShardGroup implements — the whole v2 HTTP API, tracing, and metrics work
// unchanged on top — and a warm Standby continuously recovers a primary's
// store (checkpoint bootstrap + log-tail streaming) so the coordinator can
// fail over without losing an acknowledged write.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	janus "janusaqp"
	"janusaqp/internal/obs"
	"janusaqp/internal/server"
	"janusaqp/internal/transport"
)

// checkpointChunkBytes sizes one streamed checkpoint-fetch chunk.
const checkpointChunkBytes = 1 << 20

// Node is one cluster member's RPC surface: a role state machine over a
// local engine. A primary node serves queries and ingest from its engine;
// a standby node serves only replication reads (ping, checkpoint fetch,
// log polls are the primary's job — a standby answers ping and promote)
// until Promote turns it into a primary.
type Node struct {
	mu      sync.RWMutex
	eng     *janus.Engine
	store   *janus.Store // nil on an ephemeral node
	standby *Standby     // non-nil while in the standby role

	// Slow is the node's slow-query sink; the frame's request ID (minted
	// coordinator-side) is stamped on each record, so coordinator and
	// shard slow-query logs join on one key.
	Slow *obs.SlowQueryLog
}

// NewNode returns a primary node serving eng. store may be nil (an
// ephemeral shard): checkpoint fetch and log polling then report
// ErrNoCheckpoint/unavailability, and ingest acks are memory-only.
func NewNode(eng *janus.Engine, store *janus.Store) *Node {
	return &Node{eng: eng, store: store}
}

// NewStandbyNode returns a node in the standby role, serving sb's
// replicated store. Promote (local or via MsgPromote) flips it to primary.
func NewStandbyNode(sb *Standby) *Node {
	return &Node{standby: sb, store: sb.Store()}
}

// Engine returns the currently serving engine, or nil while in the
// standby role.
func (n *Node) Engine() *janus.Engine {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.eng
}

// broker returns the node's broker regardless of role: the serving
// engine's on a primary, the replicated store's on a standby.
func (n *Node) broker() *janus.Broker {
	if n.standby != nil {
		return n.standby.Store().Broker()
	}
	return n.eng.Broker()
}

// status snapshots the node's role and local log offsets.
func (n *Node) status() transport.Status {
	b := n.broker()
	role := transport.RolePrimary
	if n.standby != nil {
		role = transport.RoleStandby
	}
	return transport.Status{Role: role, InsLen: b.Inserts.Len(), DelLen: b.Deletes.Len()}
}

// Promote flips a standby node into the primary role: the standby stops
// replicating, recovers an engine from its store, and the node starts
// serving. Idempotent on an already-primary node.
func (n *Node) Promote() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.standby == nil {
		return nil
	}
	eng, err := n.standby.Promote()
	if err != nil {
		return err
	}
	n.eng = eng
	n.store = n.standby.Store()
	n.standby = nil
	return nil
}

// ServeFrame dispatches one RPC frame (transport.Handler).
func (n *Node) ServeFrame(f transport.Frame, w *transport.ResponseWriter) {
	switch f.Type {
	case transport.MsgPing:
		n.mu.RLock()
		st := n.status()
		n.mu.RUnlock()
		w.Reply(transport.EncodeStatus(st))

	case transport.MsgQuery:
		n.serveQuery(f, w)

	case transport.MsgClientQuery:
		n.serveClientQuery(f, w)

	case transport.MsgIngest:
		n.serveIngest(f, w)

	case transport.MsgFetchCheckpoint:
		n.serveFetchCheckpoint(w)

	case transport.MsgPollLog:
		n.servePollLog(f, w)

	case transport.MsgPromote:
		if err := n.Promote(); err != nil {
			w.Error(err)
			return
		}
		n.mu.RLock()
		st := n.status()
		n.mu.RUnlock()
		w.Reply(transport.EncodeStatus(st))

	case transport.MsgStats:
		eng := n.Engine()
		if eng == nil {
			w.Error(errStandby())
			return
		}
		replyJSON(w, eng.Stats())

	case transport.MsgTemplates:
		eng := n.Engine()
		if eng == nil {
			w.Error(errStandby())
			return
		}
		names := eng.Templates()
		decls := make([]janus.Template, 0, len(names))
		for _, name := range names {
			if t, ok := eng.Template(name); ok {
				decls = append(decls, t)
			}
		}
		replyJSON(w, decls)

	case transport.MsgStatsFor:
		eng := n.Engine()
		if eng == nil {
			w.Error(errStandby())
			return
		}
		st, err := eng.StatsFor(string(f.Body))
		if err != nil {
			w.Error(err)
			return
		}
		replyJSON(w, st)

	default:
		w.Error(fmt.Errorf("cluster: unknown message type %d", f.Type))
	}
}

// errStandby is the refusal a standby answers data-path requests with; it
// carries the unavailability sentinel so a confused client (e.g. a
// coordinator whose failover raced) maps it to 503, not 400.
func errStandby() error {
	return fmt.Errorf("cluster: %w: node is a standby", janus.ErrShardUnavailable)
}

func replyJSON(w *transport.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		w.Error(fmt.Errorf("cluster: encoding reply: %w", err))
		return
	}
	w.Reply(b)
}

// serveQuery answers one scatter leg: decode the raw request, resolve and
// answer locally in mergeable form, reply with the partial plus the
// resolved confidence and the shard-side timing.
func (n *Node) serveQuery(f transport.Frame, w *transport.ResponseWriter) {
	eng := n.Engine()
	if eng == nil {
		w.Error(errStandby())
		return
	}
	req, err := transport.DecodeQueryRequest(f.Body)
	if err != nil {
		w.Error(fmt.Errorf("cluster: %w: %v", janus.ErrInvalidRequest, err))
		return
	}
	start := time.Now()
	a, err := eng.AnswerPartial(context.Background(), req)
	elapsed := time.Since(start)
	kind, source := server.QueryKind(req)
	n.Slow.Note(f.RequestID, kind, source, elapsed)
	if err != nil {
		w.Error(err)
		return
	}
	w.Reply(transport.EncodeQueryReply(transport.QueryReply{
		Partial:         a.Partial,
		Template:        a.Template,
		SampleSize:      a.SampleSize,
		Population:      a.Population,
		CatchUpProgress: a.CatchUpProgress,
		Confidence:      a.Confidence,
		AnswerMicros:    elapsed.Microseconds(),
	}))
}

// serveClientQuery answers one client query with the merged final result —
// a producer talking straight to a single shard daemon gets the same
// answer shape (and the same validation) as the coordinator's client edge.
func (n *Node) serveClientQuery(f transport.Frame, w *transport.ResponseWriter) {
	eng := n.Engine()
	if eng == nil {
		w.Error(errStandby())
		return
	}
	bp := replyBufPool.Get().(*[]byte)
	reply, err := server.AnswerBinary(context.Background(), eng, f.Body, (*bp)[:0])
	sendPooled(w, bp, reply, err)
}

// serveIngest applies one hash-routed sub-batch (server.ApplyIngest — the
// same apply every client surface runs, so a client dialed straight at a
// shard daemon is held to the same rules; on a durable node the ack is
// gated on the store's write health) and adds the node's post-batch log
// lengths, the acknowledged-write watermark failover refuses to lose.
func (n *Node) serveIngest(f transport.Frame, w *transport.ResponseWriter) {
	n.mu.RLock()
	eng, store := n.eng, n.store
	n.mu.RUnlock()
	if eng == nil {
		w.Error(errStandby())
		return
	}
	tuples, deleteIDs, err := transport.DecodeIngestRequest(f.Body)
	if err != nil {
		w.Error(fmt.Errorf("cluster: %w: %v", janus.ErrInvalidRequest, err))
		return
	}
	var writeHealth func() error
	if store != nil {
		writeHealth = store.WriteErr
	}
	rep, err := server.ApplyIngest(eng, writeHealth, tuples, deleteIDs)
	if err != nil {
		w.Error(err)
		return
	}
	b := eng.Broker()
	rep.InsLen, rep.DelLen = b.Inserts.Len(), b.Deletes.Len()
	w.Reply(transport.EncodeIngestReply(rep))
}

// serveFetchCheckpoint streams the durable checkpoint image in bounded
// chunks. Ephemeral nodes (and stores with no checkpoint yet) report
// ErrNoCheckpoint — a bootstrapping standby treats that as "retry later".
func (n *Node) serveFetchCheckpoint(w *transport.ResponseWriter) {
	n.mu.RLock()
	store := n.store
	n.mu.RUnlock()
	if store == nil {
		w.Error(fmt.Errorf("cluster: %w: node has no durable store", janus.ErrNoCheckpoint))
		return
	}
	img, err := store.CheckpointBytes()
	if err != nil {
		w.Error(err)
		return
	}
	for len(img) > checkpointChunkBytes {
		w.Chunk(img[:checkpointChunkBytes])
		img = img[checkpointChunkBytes:]
	}
	w.Reply(img)
}

// servePollLog serves one replication poll from the node's local topics.
// The reply carries the topic's compacted base: a follower that asked
// below it has a gap compaction already dropped and must re-bootstrap.
func (n *Node) servePollLog(f transport.Frame, w *transport.ResponseWriter) {
	pr, err := transport.DecodePollRequest(f.Body)
	if err != nil {
		w.Error(fmt.Errorf("cluster: %w: %v", janus.ErrInvalidRequest, err))
		return
	}
	n.mu.RLock()
	b := n.broker()
	n.mu.RUnlock()
	topic := b.Inserts
	if pr.Topic == transport.TopicDeletes {
		topic = b.Deletes
	} else if pr.Topic != transport.TopicInserts {
		w.Error(fmt.Errorf("cluster: %w: unknown topic %d", janus.ErrInvalidRequest, pr.Topic))
		return
	}
	max := pr.Max
	if max <= 0 || max > 4096 {
		max = 4096
	}
	recs, next := topic.Poll(pr.From, max)
	w.Reply(transport.EncodePollReply(transport.PollReply{Base: topic.BaseOffset(), Next: next, Records: recs}))
}
