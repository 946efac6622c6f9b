package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	janus "janusaqp"
	"janusaqp/internal/broker"
	"janusaqp/internal/transport"
)

// ErrBehindCompaction reports that the primary compacted its logs past
// the standby's replication position: the gap lives only in the primary's
// newer checkpoints, so the standby must wipe its directory and
// re-bootstrap from a fresh checkpoint image. Match with errors.Is.
var ErrBehindCompaction = errors.New("cluster: standby fell behind the primary's log compaction")

// Standby is a continuously-recovering replica of one shard node's store:
// it bootstraps by fetching the primary's checkpoint.db over the
// transport, initializes a replica directory whose segment logs are based
// at the checkpoint's offsets, and then streams the primary's post-base
// log tail into its own write-through topics — so at any instant its
// directory is exactly what a crashed primary's directory would be, and
// Promote is nothing but the PR 3 recovery path run locally.
type Standby struct {
	dir     string
	store   *janus.Store
	primary *transport.Client
	cfg     janus.Config

	mu       sync.Mutex
	promoted bool
}

// NewStandby opens (or bootstraps) a standby replica of the primary
// behind client. An existing replica directory resumes streaming where
// its logs end; an empty one fetches the primary's checkpoint image
// first. cfg must match the primary's engine configuration (including its
// shard seed) — promotion rebuilds synopses with it.
func NewStandby(ctx context.Context, dir string, primary *transport.Client, cfg janus.Config) (*Standby, error) {
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.db")); errors.Is(err, os.ErrNotExist) {
		var img []byte
		err := primary.Stream(ctx, transport.MsgFetchCheckpoint, "", nil, func(chunk []byte) error {
			img = append(img, chunk...)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: standby bootstrap: fetching checkpoint: %w", err)
		}
		if err := janus.InitReplicaDir(dir, img); err != nil {
			return nil, fmt.Errorf("cluster: standby bootstrap: %w", err)
		}
	}
	st, err := janus.OpenStore(dir)
	if err != nil {
		return nil, fmt.Errorf("cluster: standby: %w", err)
	}
	return &Standby{dir: dir, store: st, primary: primary, cfg: cfg}, nil
}

// Store returns the standby's local replicated store.
func (s *Standby) Store() *janus.Store { return s.store }

// Pull replicates whatever the primary's topics hold beyond the standby's
// position, returning how many records landed. Network errors are
// returned as-is (the caller's loop retries — a briefly unreachable
// primary is exactly when a standby must keep trying); ErrBehindCompaction
// and local write failures are fatal to this replica.
func (s *Standby) Pull(ctx context.Context) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return 0, nil
	}
	b := s.store.Broker()
	n1, err := s.pullTopic(ctx, transport.TopicInserts, b.Inserts)
	if err != nil {
		return n1, err
	}
	n2, err := s.pullTopic(ctx, transport.TopicDeletes, b.Deletes)
	return n1 + n2, err
}

func (s *Standby) pullTopic(ctx context.Context, sel byte, topic *broker.Topic) (int, error) {
	total := 0
	for {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		from := topic.Len()
		body := transport.EncodePollRequest(transport.PollRequest{Topic: sel, From: from, Max: 4096})
		f, err := s.primary.Call(ctx, transport.MsgPollLog, "", body)
		if err != nil {
			return total, err
		}
		rep, err := transport.DecodePollReply(f.Body)
		if err != nil {
			return total, err
		}
		if rep.Base > from {
			// The primary compacted past our position; the missing records
			// exist only inside its newer checkpoints.
			return total, fmt.Errorf("%w: replicated through %d, primary's log now starts at %d", ErrBehindCompaction, from, rep.Base)
		}
		if len(rep.Records) == 0 {
			return total, nil
		}
		// Poll clamps to max(from, base) = from, so the batch starts exactly
		// at our append position; AppendBatch writes the records through to
		// the replica's own segment log with the primary's Seq stamps intact.
		topic.AppendBatch(rep.Records)
		if werr := topic.WriteErr(); werr != nil {
			return total, fmt.Errorf("cluster: standby segment log: %w", werr)
		}
		total += len(rep.Records)
	}
}

// Run streams the primary's log tail until ctx is canceled, polling at
// interval when idle. It returns nil on cancellation or promotion and the
// first fatal replication error otherwise; transient call failures are
// absorbed and retried.
func (s *Standby) Run(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	for {
		n, err := s.Pull(ctx)
		switch {
		case ctx.Err() != nil:
			return nil
		case err == nil:
		case errors.Is(err, ErrBehindCompaction):
			return err
		case transport.IsTransient(err):
			// Primary unreachable: keep trying — this is the window the
			// standby exists for.
		default:
			if !isNetworkErr(err) {
				return err
			}
		}
		s.mu.Lock()
		promoted := s.promoted
		s.mu.Unlock()
		if promoted {
			return nil
		}
		if n == 0 || err != nil {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(interval):
			}
		}
	}
}

// isNetworkErr treats any transport-layer failure (dial, deadline, torn
// frame) as retryable for the replication loop; only local-store and
// protocol-integrity errors should stop a standby.
func isNetworkErr(err error) bool {
	var ne interface{ Timeout() bool }
	if errors.As(err, &ne) {
		return true
	}
	return transport.IsTransient(err)
}

// Promote turns the replica into a serving primary: stop accepting pulls,
// fsync what was replicated, resume the broker's publish sequence past
// the replicated records, and run the standard warm-restart recovery over
// the local store. The returned engine reflects every record the standby
// replicated — which, when the coordinator's promotion gate held (standby
// offsets >= acknowledged watermark), is every acknowledged write.
func (s *Standby) Promote() (*janus.Engine, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return nil, errors.New("cluster: standby already promoted")
	}
	if err := s.store.Sync(); err != nil {
		return nil, fmt.Errorf("cluster: promote: syncing replica logs: %w", err)
	}
	s.store.Broker().ResumeSeq()
	eng, _, err := s.store.Recover(s.cfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: promote: %w", err)
	}
	s.promoted = true
	return eng, nil
}
