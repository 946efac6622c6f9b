package janus

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"janusaqp/internal/stats"
	"janusaqp/internal/workload"
)

// reshardCfg is the pinned configuration every reshard test shares.
func reshardCfg() Config {
	return Config{LeafNodes: 32, SampleRate: 0.05, CatchUpRate: 1.0, Seed: 9}
}

// liveSet collects the union of every shard's live archive, failing on any
// id held by more than one shard.
func liveSet(t *testing.T, g *ShardGroup) map[int64]Tuple {
	t.Helper()
	out := make(map[int64]Tuple)
	for i := 0; i < g.NumShards(); i++ {
		g.Shard(i).Broker().Archive().ForEach(func(tp Tuple) bool {
			if _, dup := out[tp.ID]; dup {
				t.Fatalf("id %d is live on more than one shard", tp.ID)
			}
			out[tp.ID] = tp
			return true
		})
	}
	return out
}

// verifyRouting asserts every live tuple sits on its home shard for the
// group's current width.
func verifyRouting(t *testing.T, g *ShardGroup) {
	t.Helper()
	k := g.NumShards()
	for i := 0; i < k; i++ {
		shard := i
		g.Shard(i).Broker().Archive().ForEach(func(tp Tuple) bool {
			if home := ShardIndex(tp.ID, k); home != shard {
				t.Fatalf("id %d lives on shard %d but hashes to %d of %d", tp.ID, shard, home, k)
			}
			return true
		})
	}
}

// checkExactCovering asserts the group's covering COUNT and SUM equal the
// exact totals of live — the equivalence suite's invariant.
func checkExactCovering(t *testing.T, g *ShardGroup, live map[int64]Tuple, phase string) {
	t.Helper()
	var wantSum float64
	for _, tp := range live {
		wantSum += tp.Val(0)
	}
	ctx := context.Background()
	for _, c := range []struct {
		fn   Func
		want float64
	}{{FuncCount, float64(len(live))}, {FuncSum, wantSum}} {
		resp, err := g.Do(ctx, Request{Template: "trips", Query: Query{Func: c.fn, AggIndex: -1, Rect: Universe(1)}})
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		if re := stats.RelativeError(resp.Result.Estimate, c.want); re > 1e-9 {
			t.Fatalf("%s %v: estimate %.6f vs exact %.6f (rel err %g)", phase, c.fn, resp.Result.Estimate, c.want, re)
		}
	}
}

// TestReshardRoutingProperty is the routing property test: re-routing
// every id from a K-shard to a K′-shard layout moves exactly the ids
// whose ShardIndex changed, and per-id home-shard duplicate detection
// survives the move.
func TestReshardRoutingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ids := make(map[int64]struct{}, 20000)
	for len(ids) < 20000 {
		ids[rng.Int63()] = struct{}{}
	}
	for _, w := range []struct{ from, to int }{{1, 4}, {4, 2}, {3, 5}, {8, 8}} {
		tuples := make([]Tuple, 0, len(ids))
		for id := range ids {
			tuples = append(tuples, Tuple{ID: id})
		}
		oldParts := SplitByShard(tuples, w.from)
		moved, wantMoved := 0, 0
		for id := range ids {
			if ShardIndex(id, w.from) != ShardIndex(id, w.to) {
				wantMoved++
			}
		}
		// Re-route each old shard's residents exactly as a reshard copy
		// does; every id must land on ShardIndex(id, K′), and an id changes
		// shards iff its ShardIndex changed.
		for oldShard, part := range oldParts {
			for newShard, sub := range SplitByShard(part, w.to) {
				for _, tp := range sub {
					if home := ShardIndex(tp.ID, w.to); home != newShard {
						t.Fatalf("%d→%d: id %d routed to %d, hashes to %d", w.from, w.to, tp.ID, newShard, home)
					}
					if newShard != oldShard {
						moved++
					}
				}
			}
		}
		if moved != wantMoved {
			t.Fatalf("%d→%d: %d ids moved, but %d ids changed ShardIndex", w.from, w.to, moved, wantMoved)
		}
		if w.from == w.to && moved != 0 {
			t.Fatalf("%d→%d: identity re-route moved %d ids", w.from, w.to, moved)
		}
	}

	// The live half: after an actual reshard, every id sits on its new
	// home shard and re-inserting an existing id is still rejected by its
	// (new) home shard's duplicate check.
	tuples, err := workload.Generate(workload.NYCTaxi, 6000, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	g := buildGroup(t, tuples, 3, reshardCfg())
	if _, err := g.Reshard(context.Background(), ReshardOptions{TargetShards: 5, Config: reshardCfg()}); err != nil {
		t.Fatal(err)
	}
	verifyRouting(t, g)
	if got := len(liveSet(t, g)); got != len(tuples) {
		t.Fatalf("reshard 3→5 holds %d live ids, want %d", got, len(tuples))
	}
	if err := g.InsertBatch([]Tuple{tuples[17]}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate insert after reshard = %v, want ErrDuplicateID", err)
	}
}

// TestReshardLiveSplitMergeDrill is the live drill: 1→4→2 shards under
// concurrent ingest, deletions, and queries, with zero acknowledged-write
// loss and exact covering answers at the end.
func TestReshardLiveSplitMergeDrill(t *testing.T) {
	tuples, err := workload.Generate(workload.NYCTaxi, 12000, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := reshardCfg()
	g := buildGroup(t, tuples, 1, cfg)

	var mu sync.Mutex
	live := make(map[int64]Tuple, len(tuples))
	for _, tp := range tuples {
		live[tp.ID] = tp
	}

	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	// Writer: acked inserts land in live, acked deletions leave it — the
	// ledger the final state must match exactly.
	go func() {
		defer wg.Done()
		base, delCursor := int64(50_000_000), 0
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			fresh, err := workload.Generate(workload.NYCTaxi, 200, base, int64(100+round))
			if err != nil {
				t.Error(err)
				return
			}
			base += 200
			if err := g.InsertBatch(fresh); err != nil {
				t.Errorf("live insert: %v", err)
				return
			}
			mu.Lock()
			for _, tp := range fresh {
				live[tp.ID] = tp
			}
			mu.Unlock()
			if round%3 == 2 && delCursor+50 <= len(tuples) {
				ids := make([]int64, 0, 50)
				for _, tp := range tuples[delCursor : delCursor+50] {
					ids = append(ids, tp.ID)
				}
				delCursor += 50
				if n, err := g.DeleteBatch(ids); err != nil || n != len(ids) {
					t.Errorf("live delete = %d, %v; want %d", n, err, len(ids))
					return
				}
				mu.Lock()
				for _, id := range ids {
					delete(live, id)
				}
				mu.Unlock()
			}
		}
	}()
	// Reader: queries must keep flowing (and never error) through both
	// cutovers.
	go func() {
		defer wg.Done()
		req := Request{Template: "trips", Query: Query{Func: FuncCount, AggIndex: -1, Rect: Universe(1)}}
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := g.Do(ctx, req)
			if err != nil {
				t.Errorf("query during reshard: %v", err)
				return
			}
			if resp.Result.Estimate <= 0 {
				t.Errorf("covering COUNT %.1f during reshard", resp.Result.Estimate)
				return
			}
		}
	}()

	// Let traffic flow, split 1→4, keep flowing, merge 4→2.
	time.Sleep(20 * time.Millisecond)
	rep, err := g.Reshard(ctx, ReshardOptions{TargetShards: 4, Config: cfg, BatchSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumShards() != 4 || g.LayoutEpoch() != 1 || rep.ToShards != 4 {
		t.Fatalf("after split: %d shards, epoch %d, report %+v", g.NumShards(), g.LayoutEpoch(), rep)
	}
	time.Sleep(20 * time.Millisecond)
	rep, err = g.Reshard(ctx, ReshardOptions{TargetShards: 2, Config: cfg, BatchSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumShards() != 2 || g.LayoutEpoch() != 2 {
		t.Fatalf("after merge: %d shards, epoch %d", g.NumShards(), g.LayoutEpoch())
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.Fatalf("traffic failed during the drill")
	}

	got := liveSet(t, g)
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(got, live) {
		t.Fatalf("live set diverged after 1→4→2: have %d rows, acked ledger %d", len(got), len(live))
	}
	verifyRouting(t, g)
	checkExactCovering(t, g, live, "after 1→4→2 drill")
	if p, ok := g.ReshardProgress(); !ok || p.Phase != "done" || p.Active {
		t.Fatalf("final progress = %+v, %v", p, ok)
	}
}

// TestReshardEquivalenceDuringCopy holds the equivalence suite's invariant
// *while the copy is running*: at every copy batch boundary the resharding
// group's covering answers still exactly match a 1-shard reference.
func TestReshardEquivalenceDuringCopy(t *testing.T) {
	tuples, err := workload.Generate(workload.NYCTaxi, 12000, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := reshardCfg()
	single := buildGroup(t, tuples, 1, cfg)
	group := buildGroup(t, tuples, 4, cfg)

	ctx := context.Background()
	checks := 0
	reshardTestHook = func(stage string) error {
		if stage != "copy" {
			return nil
		}
		checks++
		for _, fn := range []Func{FuncCount, FuncSum} {
			req := Request{Template: "trips", Query: Query{Func: fn, AggIndex: -1, Rect: Universe(1)}}
			one, err := single.Do(ctx, req)
			if err != nil {
				return err
			}
			many, err := group.Do(ctx, req)
			if err != nil {
				return err
			}
			if re := stats.RelativeError(many.Result.Estimate, one.Result.Estimate); re > 1e-9 {
				return fmt.Errorf("mid-copy %v: resharding group %.6f vs reference %.6f (rel err %g)",
					fn, many.Result.Estimate, one.Result.Estimate, re)
			}
		}
		return nil
	}
	defer func() { reshardTestHook = nil }()

	if _, err := group.Reshard(ctx, ReshardOptions{TargetShards: 2, Config: cfg, BatchSize: 512}); err != nil {
		t.Fatal(err)
	}
	if checks < 4 {
		t.Fatalf("only %d mid-copy equivalence checks ran; batch size too large to exercise the copy", checks)
	}
	live := make(map[int64]Tuple, len(tuples))
	for _, tp := range tuples {
		live[tp.ID] = tp
	}
	checkExactCovering(t, group, live, "after cutover")
}

// TestReshardCarriesFollowWatermark proves MinSyncOffset read-your-writes
// holds across a cutover: the group watermark survives the swap and the
// new engines inherit it for their next checkpoints.
func TestReshardCarriesFollowWatermark(t *testing.T) {
	tuples, err := workload.Generate(workload.NYCTaxi, 8000, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := reshardCfg()
	g := buildGroup(t, tuples, 2, cfg)

	source := NewBroker()
	var followed sync.WaitGroup
	defer followed.Wait() // after cancel: LIFO unwinds cancel first
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	followed.Add(1)
	go func() {
		defer followed.Done()
		var state SyncState
		g.Follow(ctx, source, &state, time.Millisecond)
	}()

	fresh, err := workload.Generate(workload.NYCTaxi, 1000, 20_000_000, 44)
	if err != nil {
		t.Fatal(err)
	}
	source.PublishInsertBatch(fresh)
	offset := source.Inserts.Len()
	wait := func(min int64, phase string) {
		qctx, qcancel := context.WithTimeout(ctx, 10*time.Second)
		defer qcancel()
		resp, err := g.Do(qctx, Request{
			Template:      "trips",
			Query:         Query{Func: FuncCount, AggIndex: -1, Rect: Universe(1)},
			MinSyncOffset: min,
		})
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		if resp.Result.Estimate <= 0 {
			t.Fatalf("%s: empty covering COUNT", phase)
		}
	}
	wait(offset, "before reshard")

	if _, err := g.Reshard(ctx, ReshardOptions{TargetShards: 3, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.NumShards(); i++ {
		if got := g.Shard(i).FollowOffsets().InsertOffset; got < offset {
			t.Fatalf("new shard %d follow watermark %d, want >= %d (its checkpoints would lose follow progress)", i, got, offset)
		}
	}
	// Read-your-writes for records published after the cutover.
	more, err := workload.Generate(workload.NYCTaxi, 500, 30_000_000, 45)
	if err != nil {
		t.Fatal(err)
	}
	source.PublishInsertBatch(more)
	wait(source.Inserts.Len(), "after reshard")
}

// TestReshardRejectsBadOptions covers fail-fast validation and the
// empty-target-shard abort, which must leave the old layout serving.
func TestReshardRejectsBadOptions(t *testing.T) {
	tuples, err := workload.Generate(workload.NYCTaxi, 3000, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := reshardCfg()
	g := buildGroup(t, tuples, 2, cfg)
	ctx := context.Background()
	if _, err := g.Reshard(ctx, ReshardOptions{TargetShards: 0, Config: cfg}); err == nil {
		t.Fatal("TargetShards 0 accepted")
	}
	if _, err := g.Reshard(ctx, ReshardOptions{TargetShards: 3, Config: cfg, Brokers: []*Broker{NewBroker()}}); err == nil {
		t.Fatal("mismatched broker count accepted")
	}
	// A canceled context aborts mid-copy with the old layout untouched.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := g.Reshard(canceled, ReshardOptions{TargetShards: 3, Config: cfg}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled reshard = %v", err)
	}
	if g.NumShards() != 2 || g.LayoutEpoch() != 0 || g.dual.Load() != nil {
		t.Fatalf("aborted reshard mutated the group: %d shards, epoch %d", g.NumShards(), g.LayoutEpoch())
	}
	if p, ok := g.ReshardProgress(); !ok || p.Phase != "failed" {
		t.Fatalf("progress after abort = %+v, %v", p, ok)
	}
	live := make(map[int64]Tuple, len(tuples))
	for _, tp := range tuples {
		live[tp.ID] = tp
	}
	checkExactCovering(t, g, live, "after aborted reshard")
}

// TestReshardCrashDrill is the crash drill: a durable reshard is killed at
// each stage of the protocol, the data directory is recovered cold, and
// the survivor must hold every acknowledged write — pre-commit crashes
// recover the old layout, post-commit crashes roll forward to the new one
// — with answers identical to an uncrashed reference.
func TestReshardCrashDrill(t *testing.T) {
	for _, tc := range []struct {
		stage     string // where the "kill" lands
		wantWidth int    // surviving layout width after recovery
	}{
		{"copy", 1},          // mid-copy: .new litter swept, old layout serves
		{"pre-manifest", 1},  // targets checkpointed but not committed
		{"post-manifest", 4}, // committed: roll forward
		{"mid-finalize", 4},  // committed, killed mid-rename: roll forward
	} {
		t.Run(tc.stage, func(t *testing.T) {
			root := t.TempDir()
			cfg := reshardCfg()
			tuples, err := workload.Generate(workload.NYCTaxi, 6000, 0, 42)
			if err != nil {
				t.Fatal(err)
			}
			st, err := OpenStore(root)
			if err != nil {
				t.Fatal(err)
			}
			st.Broker().PublishInsertBatch(tuples)
			eng := NewEngine(cfg, st.Broker())
			if err := eng.AddTemplate(taxiTemplate()); err != nil {
				t.Fatal(err)
			}
			if err := eng.RegisterSchema("trips", taxiSchema()); err != nil {
				t.Fatal(err)
			}
			if _, err := st.WriteCheckpoint(eng); err != nil {
				t.Fatal(err)
			}
			g, err := NewShardGroup([]*Engine{eng})
			if err != nil {
				t.Fatal(err)
			}

			live := make(map[int64]Tuple, len(tuples))
			for _, tp := range tuples {
				live[tp.ID] = tp
			}
			// The crash hook: at the first copy batch, push acked traffic
			// through the group (it must survive the crash no matter what);
			// at the chosen stage, die.
			injected := false
			ctx := context.Background()
			reshardTestHook = func(stage string) error {
				if stage == "copy" && !injected {
					injected = true
					fresh, err := workload.Generate(workload.NYCTaxi, 500, 70_000_000, 99)
					if err != nil {
						return err
					}
					if err := g.InsertBatch(fresh); err != nil {
						return err
					}
					ids := make([]int64, 0, 200)
					for _, tp := range tuples[:200] {
						ids = append(ids, tp.ID)
					}
					if n, err := g.DeleteBatch(ids); err != nil || n != len(ids) {
						return fmt.Errorf("mid-copy delete = %d, %v", n, err)
					}
					for _, tp := range fresh {
						live[tp.ID] = tp
					}
					for _, id := range ids {
						delete(live, id)
					}
				}
				if stage == tc.stage {
					return errSimulatedCrash
				}
				return nil
			}
			defer func() { reshardTestHook = nil }()

			_, stores, err := ReshardDurable(ctx, g, root, []*Store{st}, ReshardOptions{TargetShards: 4, Config: cfg, BatchSize: 512})
			reshardTestHook = nil // the "dead" process's hook dies with it
			if !errors.Is(err, errSimulatedCrash) {
				t.Fatalf("simulated crash at %s = %v", tc.stage, err)
			}
			for _, s := range stores {
				s.Close()
			}
			st.Close() // release the "dead" process's handles

			// Cold recovery of the directory.
			rec, err := RecoverShardLayout(root)
			if err != nil {
				t.Fatal(err)
			}
			var recovered *ShardGroup
			if tc.wantWidth == 1 {
				if rec.Layout != nil || rec.RolledForward {
					t.Fatalf("pre-commit crash recovered to %+v", rec)
				}
				if len(rec.RemovedNew) == 0 {
					t.Fatalf("no shard-k.new litter swept after a mid-copy crash")
				}
				st2, err := OpenStore(root)
				if err != nil {
					t.Fatal(err)
				}
				defer st2.Close()
				eng2, _, err := st2.Recover(cfg)
				if err != nil {
					t.Fatal(err)
				}
				recovered, err = NewShardGroup([]*Engine{eng2})
				if err != nil {
					t.Fatal(err)
				}
			} else {
				if rec.Layout == nil || rec.Layout.Shards != tc.wantWidth || !rec.RolledForward {
					t.Fatalf("post-commit crash recovered to %+v", rec)
				}
				engines := make([]*Engine, tc.wantWidth)
				for j := range engines {
					stj, err := OpenStore(ShardDir(root, j))
					if err != nil {
						t.Fatal(err)
					}
					defer stj.Close()
					engines[j], _, err = stj.Recover(cfg.WithShardSeed(j))
					if err != nil {
						t.Fatalf("recovering shard %d: %v", j, err)
					}
				}
				recovered, err = NewShardGroup(engines)
				if err != nil {
					t.Fatal(err)
				}
				verifyRouting(t, recovered)
				// Recovery is idempotent: a second pass (a crash during
				// recovery) finds a clean, finalized layout.
				again, err := RecoverShardLayout(root)
				if err != nil {
					t.Fatal(err)
				}
				if again.RolledForward || len(again.RemovedNew) != 0 {
					t.Fatalf("second recovery pass was not a no-op: %+v", again)
				}
			}

			// Zero acknowledged-write loss: the recovered archive is exactly
			// the acked ledger, byte for byte.
			if got := liveSet(t, recovered); !reflect.DeepEqual(got, live) {
				t.Fatalf("recovered %d live rows, acked ledger %d: acknowledged writes lost or resurrected", len(got), len(live))
			}
			checkExactCovering(t, recovered, live, "recovered")

			// Identical answers vs an uncrashed reference of the same width
			// built from the acked ledger.
			refTuples := make([]Tuple, 0, len(live))
			for _, tp := range live {
				refTuples = append(refTuples, tp)
			}
			ref := buildGroup(t, refTuples, tc.wantWidth, cfg)
			for _, fn := range []Func{FuncCount, FuncSum} {
				req := Request{Template: "trips", Query: Query{Func: fn, AggIndex: -1, Rect: Universe(1)}}
				a, err := recovered.Do(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				b, err := ref.Do(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				if re := stats.RelativeError(a.Result.Estimate, b.Result.Estimate); re > 1e-9 {
					t.Fatalf("%v: recovered %.6f vs uncrashed reference %.6f (rel err %g)", fn, a.Result.Estimate, b.Result.Estimate, re)
				}
			}
		})
	}
}

// TestReshardDurableHappyPath runs an uncrashed durable 1→4→2 reshard and
// reopens the directory cold at each width.
func TestReshardDurableHappyPath(t *testing.T) {
	root := t.TempDir()
	cfg := reshardCfg()
	tuples, err := workload.Generate(workload.NYCTaxi, 6000, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(root)
	if err != nil {
		t.Fatal(err)
	}
	st.Broker().PublishInsertBatch(tuples)
	eng := NewEngine(cfg, st.Broker())
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteCheckpoint(eng); err != nil {
		t.Fatal(err)
	}
	g, err := NewShardGroup([]*Engine{eng})
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[int64]Tuple, len(tuples))
	for _, tp := range tuples {
		live[tp.ID] = tp
	}

	ctx := context.Background()
	rep, stores, err := ReshardDurable(ctx, g, root, []*Store{st}, ReshardOptions{TargetShards: 4, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsCopied != int64(len(tuples)) {
		t.Fatalf("copied %d rows, want %d", rep.RowsCopied, len(tuples))
	}
	// Acked writes after the cutover land write-through in the renamed
	// directories (the stores were rebased).
	fresh, err := workload.Generate(workload.NYCTaxi, 400, 90_000_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.InsertBatch(fresh); err != nil {
		t.Fatal(err)
	}
	for _, tp := range fresh {
		live[tp.ID] = tp
	}
	for j, s := range stores {
		if got, want := s.Dir(), ShardDir(root, j); got != want {
			t.Fatalf("store %d dir %q, want %q", j, got, want)
		}
		if _, err := s.WriteCheckpoint(g.Shard(j)); err != nil {
			t.Fatalf("checkpoint after rebase: %v", err)
		}
	}

	// Merge 4→2, then close everything and reopen cold.
	rep, stores2, err := ReshardDurable(ctx, g, root, stores, ReshardOptions{TargetShards: 2, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FromShards != 4 || rep.ToShards != 2 {
		t.Fatalf("merge report %+v", rep)
	}
	checkExactCovering(t, g, live, "after durable 1→4→2")
	for _, s := range stores2 {
		s.Close()
	}
	for j := 0; j < 4; j++ {
		if _, err := os.Stat(ShardDir(root, j) + ".new"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("shard-%d.new still present after finalize", j)
		}
	}
	if _, err := os.Stat(filepath.Join(root, insertsLogName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("old single-engine log still present after reshard")
	}

	rec, err := RecoverShardLayout(root)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Layout == nil || rec.Layout.Shards != 2 || rec.Layout.Epoch != 2 || rec.RolledForward {
		t.Fatalf("cold recovery = %+v", rec)
	}
	engines := make([]*Engine, 2)
	for j := range engines {
		stj, err := OpenStore(ShardDir(root, j))
		if err != nil {
			t.Fatal(err)
		}
		defer stj.Close()
		engines[j], _, err = stj.Recover(cfg.WithShardSeed(j))
		if err != nil {
			t.Fatal(err)
		}
	}
	g2, err := NewShardGroup(engines)
	if err != nil {
		t.Fatal(err)
	}
	if got := liveSet(t, g2); !reflect.DeepEqual(got, live) {
		t.Fatalf("cold reopen holds %d rows, acked ledger %d", len(got), len(live))
	}
	verifyRouting(t, g2)
	checkExactCovering(t, g2, live, "cold reopen")
}
