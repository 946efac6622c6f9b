package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	janus "janusaqp"
	"janusaqp/internal/broker"
	"janusaqp/internal/obs"
	"janusaqp/internal/transport"
)

// Cluster resharding: a coordinator-driven layout change from the current
// K primaries to the K′ nodes at newPeers — node join (K′ > K) and node
// leave (K′ < K) are the same operation. Where the in-process ShardGroup
// dual-writes to keep ingest live through the copy, the cluster protocol
// trades write availability for simplicity:
//
//  1. Gate — the coordinator's ingest gate closes. Every write
//     acknowledged before this instant is durable on its source node, and
//     none can land mid-copy; queries keep serving the old layout
//     throughout the copy.
//  2. Reconstruct — each source shard's exact live state is rebuilt
//     coordinator-side: its durable checkpoint image is fetched
//     (MsgFetchCheckpoint), opened in memory, and the post-checkpoint log
//     tail is polled (MsgPollLog) and replayed in Seq order — the same
//     cross-topic merge rule crash recovery uses. A source whose own
//     background checkpoint+compaction moves under the fetch is simply
//     refetched.
//  3. Route + build — the reconstructed sources form an in-memory
//     ShardGroup and ShardGroup.Reshard moves it to K′ shards (rows
//     re-route by ShardIndex(id, K′), every source template and schema is
//     built on each target); each target engine is checkpointed to bytes.
//  4. Install + swap — each image ships to its target node (MsgInstall),
//     which replaces that node's entire local state (durably staged via
//     DIR.install). Queries pause only for this window; then the slot set
//     swaps, the epoch advances, and the retired connections close.
//
// An error before the install phase leaves the cluster untouched. An
// install error leaves the coordinator routing by the old layout, but
// targets already installed hold new-layout state — when newPeers reuses
// source addresses, re-run the reshard (or restore the sources) before
// unblocking writes.

const (
	// reshardPollMax bounds one tail-poll batch.
	reshardPollMax = 4096
	// reshardFetchAttempts bounds the refetch loop a source node's
	// concurrent checkpoint+compaction can force.
	reshardFetchAttempts = 3
)

// errCompacted reports a tail poll that found the source compacted past
// the fetched checkpoint image — refetch the image and retry.
var errCompacted = errors.New("cluster: source compacted past the fetched checkpoint")

// Reshard migrates the cluster to the K′ nodes at newPeers and swaps the
// coordinator's routing to them. Source nodes must be durable (the copy
// reads their checkpoints); target nodes may be durable or ephemeral.
// newStandbys optionally maps target shard indexes to warm-standby
// addresses for the new layout, exactly as in NewCoordinator. cfg is the
// base engine configuration; target shard j runs cfg.WithShardSeed(j).
// One reshard runs at a time; a second concurrent call fails fast with
// janus.ErrReshardInProgress. Ingest stalls for the duration; queries
// keep serving the old layout until the install window.
func (c *Coordinator) Reshard(ctx context.Context, newPeers []string, newStandbys map[int]string, cfg janus.Config) (*janus.ReshardReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	next, err := c.newLayout(newPeers, newStandbys)
	if err != nil {
		return nil, err
	}
	newSlots := next.slots
	if !c.reshardMu.TryLock() {
		return nil, janus.ErrReshardInProgress
	}
	defer c.reshardMu.Unlock()

	// Phase 1: gate. Taking the write side waits out in-flight ingest, so
	// every acknowledged batch is on its source node before the copy reads
	// anything and no write can slip between copy and swap.
	c.gate.Lock()
	defer c.gate.Unlock()

	old := c.shards()
	kNew := len(newSlots)
	copyStart := time.Now()

	// Phase 2: reconstruct each source shard's live state.
	sources := make([]*janus.Engine, len(old))
	for i, sl := range old {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cluster: reshard canceled: %w", err)
		}
		eng, err := c.fetchShardState(ctx, sl, cfg.WithShardSeed(i))
		if err != nil {
			return nil, fmt.Errorf("cluster: reshard: source shard %d: %w", i, err)
		}
		sources[i] = eng
	}

	// Phase 3: route + build is the in-memory reshard of the reconstructed
	// sources; each target shard is then checkpointed to an install image.
	group, err := janus.NewShardGroup(sources)
	if err != nil {
		return nil, fmt.Errorf("cluster: reshard: %w", err)
	}
	live := group.Stats().ArchiveRows
	rep, err := group.Reshard(ctx, janus.ReshardOptions{TargetShards: kNew, Config: cfg})
	if err != nil {
		return nil, fmt.Errorf("cluster: reshard: %w", err)
	}
	if rep.RowsCopied != live {
		// The copy skips an id already live in its target: a shortfall means
		// two source shards held the same id (corrupt cluster state).
		return nil, fmt.Errorf("cluster: reshard: routed %d rows but the sources hold %d live: an id is live on more than one source shard", rep.RowsCopied, live)
	}
	images := make([][]byte, kNew)
	for j := range images {
		var buf bytes.Buffer
		if _, err := group.Shard(j).Checkpoint(&buf); err != nil {
			return nil, fmt.Errorf("cluster: reshard: checkpointing target shard %d: %w", j, err)
		}
		// The whole image must ride one install frame (plus header slack).
		if buf.Len()+1024 > transport.MaxFrameBytes {
			return nil, fmt.Errorf("cluster: reshard: target shard %d image is %d bytes, over the %d-byte install frame cap; use more target shards",
				j, buf.Len(), transport.MaxFrameBytes)
		}
		images[j] = buf.Bytes()
	}
	copyDur := time.Since(copyStart)

	// Phase 4: install + swap. Queries pause only for this window — once
	// an image lands on a node that also serves the old layout, a scatter
	// routed by the old slot set would merge answers from two layouts.
	c.swapMu.Lock()
	pauseStart := time.Now()
	reqID := obs.RequestID()
	for j, sl := range newSlots {
		body, err := transport.EncodeInstallRequest(transport.InstallRequest{
			Config: cfg.WithShardSeed(j), Image: images[j],
		})
		if err == nil {
			_, err = c.callOn(ctx, sl.client.Load(), transport.MsgInstall, reqID, body)
		}
		if err != nil {
			c.swapMu.Unlock()
			closeSlots(newSlots)
			return nil, fmt.Errorf("cluster: reshard: installing target shard %d: %w (the old layout keeps routing; already-installed targets hold new-layout state)", j, err)
		}
	}
	c.layout.Store(next)
	rep.Epoch = c.epoch.Add(1)
	rep.CopyDuration, rep.CutoverPause = copyDur, time.Since(pauseStart)
	c.swapMu.Unlock()
	closeSlots(old)
	return rep, nil
}

// fetchShardState rebuilds one source shard's exact live state in memory:
// checkpoint image plus post-checkpoint log tail, replayed in Seq order.
// The ingest gate is held, so the state is frozen; only the source's own
// background checkpoint+compaction can move under the fetch, which shows
// up as a tail poll below the log base and forces a refetch.
func (c *Coordinator) fetchShardState(ctx context.Context, sl *slot, cfg janus.Config) (*janus.Engine, error) {
	reqID := obs.RequestID()
	cl := sl.client.Load()
	var lastErr error
	for attempt := 0; attempt < reshardFetchAttempts; attempt++ {
		var img []byte
		err := cl.Stream(ctx, transport.MsgFetchCheckpoint, reqID, nil, func(chunk []byte) error {
			img = append(img, chunk...)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("fetching checkpoint: %w", err)
		}
		b := janus.NewBroker()
		eng, state, err := janus.OpenCheckpoint(bytes.NewReader(img), cfg, b)
		if err != nil {
			return nil, err
		}
		ins, err := c.pullTail(ctx, cl, reqID, transport.TopicInserts, state.InsertOffset)
		if err == nil {
			var del []broker.Record
			if del, err = c.pullTail(ctx, cl, reqID, transport.TopicDeletes, state.DeleteOffset); err == nil {
				if err := replayTail(b.Archive(), ins, del); err != nil {
					return nil, err
				}
				return eng, nil
			}
		}
		if !errors.Is(err, errCompacted) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// pullTail polls one topic's records from offset from through its end.
func (c *Coordinator) pullTail(ctx context.Context, cl *transport.Client, reqID string, topic byte, from int64) ([]broker.Record, error) {
	var out []broker.Record
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		body := transport.EncodePollRequest(transport.PollRequest{Topic: topic, From: from, Max: reshardPollMax})
		f, err := cl.Call(ctx, transport.MsgPollLog, reqID, body)
		if err != nil {
			return nil, fmt.Errorf("polling log tail: %w", err)
		}
		rep, err := transport.DecodePollReply(f.Body)
		if err != nil {
			return nil, err
		}
		if rep.Base > from {
			return nil, fmt.Errorf("%w (tail at %d, log base now %d)", errCompacted, from, rep.Base)
		}
		if len(rep.Records) == 0 {
			return out, nil
		}
		out = append(out, rep.Records...)
		from = rep.Next
	}
}

// replayTail applies the post-checkpoint records to the archive in Seq
// order — the same cross-topic merge rule crash recovery uses — so a
// delete and a later re-insert of one id land in the order they actually
// happened. Only the archive matters here: the reconstructed source
// engines feed the route phase, their synopses are never queried. An
// inconsistent tail (e.g. a duplicate live id) errors rather than
// panicking the coordinator.
func replayTail(a *broker.Archive, ins, del []broker.Record) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cluster: replaying log tail: %v", r)
		}
	}()
	i, j := 0, 0
	for i < len(ins) || j < len(del) {
		if j >= len(del) || (i < len(ins) && ins[i].Seq <= del[j].Seq) {
			a.Insert(ins[i].Tuple)
			i++
		} else {
			a.Delete(del[j].Tuple.ID)
			j++
		}
	}
	return nil
}

// closeSlots discards a retired slot set's pooled connections.
func closeSlots(slots []*slot) {
	for _, sl := range slots {
		sl.client.Load().Close()
		sl.mu.Lock()
		if sl.standby != nil {
			sl.standby.Close()
		}
		sl.mu.Unlock()
	}
}
