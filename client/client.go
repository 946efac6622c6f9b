// Package client is the Go client for janusd's binary RPC protocol — the
// fastest way for an external producer or dashboard to talk to a daemon.
// It speaks the internal/transport frames over a pooled TCP connection:
// tuples cross the wire in the segment-log encoding and answers return as
// compact binary results, skipping the HTTP/JSON codec entirely.
//
// Point it at a janusd started with an explicit -rpc flag (any role that
// serves clients: single, coordinator, or a shard daemon):
//
//	c := client.Dial("127.0.0.1:9101")
//	defer c.Close()
//	ack, err := c.Ingest(ctx, tuples, nil)
//	ans, err := c.Query(ctx, janus.Request{Template: "trips", Query: janus.Query{Func: janus.FuncSum}})
//
// Errors come back with the engine's typed sentinels restored —
// errors.Is(err, janus.ErrUnknownTemplate) and friends work exactly as
// they would in-process.
package client

import (
	"context"

	janus "janusaqp"
	"janusaqp/internal/transport"
)

// Client is a pooled binary-protocol client for one daemon address. Safe
// for concurrent use; concurrent calls ride separate pooled connections.
type Client struct {
	rpc *transport.Client
}

// Dial returns a client for the daemon's RPC listener at addr
// (host:port). Connections are dialed lazily on first use.
func Dial(addr string) *Client {
	return &Client{rpc: transport.NewClient(addr)}
}

// Close discards the pooled connections. Calls after Close fail with
// transport.ErrClientClosed.
func (c *Client) Close() { c.rpc.Close() }

// Answer is one query's merged final result, mirroring the JSON
// /v2/query result field for field.
type Answer struct {
	// Estimate is the approximate aggregate, with [Lo, Hi] its
	// confidence interval (half-width HalfWidth).
	Estimate  float64
	Lo, Hi    float64
	HalfWidth float64
	// Covered counts synopsis leaves fully inside the predicate;
	// PartialLeaves counts leaves the predicate cuts through. Outer marks
	// an answer that fell back to the outer bound.
	Covered       int
	PartialLeaves int
	Outer         bool
	// Template is the synopsis that answered; SampleSize and Population
	// size it against the live data. CatchUpProgress is the synopsis's
	// catch-up fraction in [0,1].
	Template        string
	SampleSize      int
	Population      int64
	CatchUpProgress float64
	// ElapsedMicros is the server-side answering time.
	ElapsedMicros int64
}

// Query answers one request: structured (Template + Query), SQL, or
// on-keys — the same janus.Request the embedded API takes. MinSyncOffset
// and Trace do not cross this wire; binary ingest acknowledges only
// applied writes, so read-your-writes holds without a watermark wait.
func (c *Client) Query(ctx context.Context, req janus.Request) (Answer, error) {
	f, err := c.rpc.Call(ctx, transport.MsgClientQuery, "", transport.EncodeQueryRequest(req))
	if err != nil {
		return Answer{}, err
	}
	res, err := transport.DecodeQueryResult(f.Body)
	if err != nil {
		return Answer{}, err
	}
	return Answer{
		Estimate:        res.Estimate,
		Lo:              res.Lo,
		Hi:              res.Hi,
		HalfWidth:       res.HalfWidth,
		Covered:         res.Covered,
		PartialLeaves:   res.PartialLeaves,
		Outer:           res.Outer,
		Template:        res.Template,
		SampleSize:      res.SampleSize,
		Population:      res.Population,
		CatchUpProgress: res.CatchUpProgress,
		ElapsedMicros:   res.ElapsedMicros,
	}, nil
}

// Ack acknowledges one ingest batch. Missing lists delete ids the daemon
// did not hold — reported, not failed, matching /v2/ingest.
type Ack struct {
	Inserted int
	Deleted  int
	Missing  []int64
}

// Ingest applies one atomic insert batch plus deletions. The tuples cross
// the wire in the segment-log encoding — the same fixed-width codec the
// durable log and shard RPC use.
func (c *Client) Ingest(ctx context.Context, tuples []janus.Tuple, deleteIDs []int64) (Ack, error) {
	f, err := c.rpc.Call(ctx, transport.MsgIngest, "", transport.EncodeIngestRequest(tuples, deleteIDs))
	if err != nil {
		return Ack{}, err
	}
	rep, err := transport.DecodeIngestReply(f.Body)
	if err != nil {
		return Ack{}, err
	}
	return Ack{Inserted: rep.Inserted, Deleted: rep.Deleted, Missing: rep.Missing}, nil
}

// Ping checks the daemon is reachable and serving.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.rpc.Call(ctx, transport.MsgPing, "", nil)
	return err
}
