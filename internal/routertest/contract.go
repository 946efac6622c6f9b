// Package routertest is the scatter-gather contract every janus.Router
// surface must honor, as one table run twice: over a ShardGroup from the
// root package's tests and over a Coordinator fronting loopback nodes from
// internal/cluster's. The policy lives in one place (janus.Router); this
// table is what keeps the two wrappers from drifting away from it.
package routertest

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	janus "janusaqp"
	"janusaqp/internal/workload"
)

// Subject is the routed surface under test.
type Subject interface {
	Do(ctx context.Context, req janus.Request) (janus.Response, error)
	InsertBatch(tuples []janus.Tuple) error
	DeleteBatch(ids []int64) (int, error)
	StatsFor(template string) (janus.TemplateStats, error)
}

const (
	shards   = 4
	template = "trips"
	// lagging is the shard built with a lower catch-up target, so it
	// trails the others' catch-up progress.
	lagging = 2
)

// fixture is what the cases share: the engines behind the subject, rows
// known live on each shard, and fresh tuples homed on each shard.
type fixture struct {
	engines []*janus.Engine
	live    [][]janus.Tuple
	fresh   [][]janus.Tuple
}

// Run builds four hash-partitioned engines (shard 2 lagging in catch-up),
// has wrap put the routed surface in front of them, and runs the table.
func Run(t *testing.T, wrap func(t *testing.T, engines []*janus.Engine) Subject) {
	t.Helper()
	cfg := janus.Config{LeafNodes: 16, SampleRate: 0.05, CatchUpRate: 1.0, Seed: 9}
	boot, err := workload.Generate(workload.NYCTaxi, 8000, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	spare, err := workload.Generate(workload.NYCTaxi, 400, 10_000_000, 43)
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{
		engines: make([]*janus.Engine, shards),
		live:    janus.SplitByShard(boot, shards),
		fresh:   janus.SplitByShard(spare, shards),
	}
	for i := range fx.engines {
		b := janus.NewBroker()
		b.PublishInsertBatch(fx.live[i])
		shardCfg := cfg.WithShardSeed(i)
		if i == lagging {
			shardCfg.CatchUpRate = 0.25
		}
		eng := janus.NewEngine(shardCfg, b)
		if err := eng.AddTemplate(janus.Template{Name: template, PredicateDims: []int{0}, AggIndex: 0, Agg: janus.Sum}); err != nil {
			t.Fatal(err)
		}
		fx.engines[i] = eng
	}
	s := wrap(t, fx.engines)
	count := janus.Request{Template: template, Query: janus.Query{Func: janus.FuncCount, AggIndex: -1, Rect: janus.Universe(1)}}

	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"merged catch-up progress is the minimum", func(t *testing.T) {
			least, most := 1.0, 0.0
			for _, e := range fx.engines {
				st, err := e.StatsFor(template)
				if err != nil {
					t.Fatal(err)
				}
				least, most = min(least, st.CatchUpProgress), max(most, st.CatchUpProgress)
			}
			if least >= most {
				t.Fatalf("fixture: shard %d does not lag (progress %v..%v)", lagging, least, most)
			}
			resp, err := s.Do(context.Background(), count)
			if err != nil {
				t.Fatal(err)
			}
			if resp.CatchUpProgress != least {
				t.Fatalf("Do reports catch-up progress %v, least caught-up shard is at %v", resp.CatchUpProgress, least)
			}
			st, err := s.StatsFor(template)
			if err != nil {
				t.Fatal(err)
			}
			if st.CatchUpProgress != least {
				t.Fatalf("StatsFor reports catch-up progress %v, least caught-up shard is at %v", st.CatchUpProgress, least)
			}
		}},
		{"traced Elapsed is the sum of the group-level stages", func(t *testing.T) {
			traced := count
			traced.Trace = true
			resp, err := s.Do(context.Background(), traced)
			if err != nil {
				t.Fatal(err)
			}
			var sum int64
			perShard := make([]int, shards)
			for _, st := range resp.Trace {
				switch {
				case st.Shard >= 0:
					perShard[st.Shard]++
				case st.Stage != janus.StageSyncWait:
					sum += int64(st.Dur)
				}
			}
			if sum != int64(resp.Elapsed) {
				t.Fatalf("group-level stages sum to %d, Elapsed is %d (trace %+v)", sum, resp.Elapsed, resp.Trace)
			}
			if slices.Min(perShard) == 0 || slices.Min(perShard) != slices.Max(perShard) {
				t.Fatalf("per-shard stage counts %v, want the same non-zero count from every shard", perShard)
			}
		}},
		{"lowest failing shard reports, by index", func(t *testing.T) {
			// Every shard fails an unknown template; shard 0 reports.
			_, err := s.Do(context.Background(), janus.Request{Template: "nope", Query: count.Query})
			if !errors.Is(err, janus.ErrUnknownTemplate) || !strings.Contains(err.Error(), "shard 0") {
				t.Fatalf("unknown template through Do = %v, want ErrUnknownTemplate naming shard 0", err)
			}
			if _, err := s.StatsFor("nope"); !errors.Is(err, janus.ErrUnknownTemplate) || !strings.Contains(err.Error(), "shard 0") {
				t.Fatalf("unknown template through StatsFor = %v, want ErrUnknownTemplate naming shard 0", err)
			}
			// Shards 3 and 1 reject a live id; shard 1 reports, and shard
			// 0's sub-batch still lands (atomicity is per shard).
			landed := fx.fresh[0][0]
			err = s.InsertBatch([]janus.Tuple{fx.live[3][0], landed, fx.live[1][0]})
			if !errors.Is(err, janus.ErrDuplicateID) || !strings.Contains(err.Error(), "shard 1") {
				t.Fatalf("duplicate ids on shards 1 and 3 = %v, want ErrDuplicateID naming shard 1", err)
			}
			if n, err := s.DeleteBatch([]int64{landed.ID}); n != 1 || err != nil {
				t.Fatalf("shard 0's sub-batch did not land beside the failing shards: deleted %d, %v", n, err)
			}
		}},
		{"DeleteBatch returns the summed count beside a sorted BatchIDError", func(t *testing.T) {
			// Unknown ids on every shard, out of order.
			var unknown []int64
			for i := shards - 1; i >= 0; i-- {
				unknown = append(unknown, fx.fresh[i][1].ID)
			}
			ids := []int64{unknown[0], fx.live[0][1].ID, unknown[1], fx.live[2][1].ID, unknown[2], fx.live[3][1].ID, unknown[3]}
			n, err := s.DeleteBatch(ids)
			var bid *janus.BatchIDError
			if n != 3 || !errors.As(err, &bid) {
				t.Fatalf("DeleteBatch = %d, %v; want 3 removed beside a *BatchIDError", n, err)
			}
			slices.Sort(unknown)
			if !slices.Equal(bid.IDs, unknown) {
				t.Fatalf("missing ids %v, want sorted %v", bid.IDs, unknown)
			}
		}},
		{"an empty batch is a no-op", func(t *testing.T) {
			if err := s.InsertBatch(nil); err != nil {
				t.Fatalf("InsertBatch(nil) = %v", err)
			}
			if n, err := s.DeleteBatch(nil); n != 0 || err != nil {
				t.Fatalf("DeleteBatch(nil) = %d, %v", n, err)
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
