package cluster

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	janus "janusaqp"
	"janusaqp/internal/transport"
	"janusaqp/internal/workload"
)

// bootReshardSource boots one durable source shard over dir: part is
// published write-through, the template registered, catch-up drained, and
// a checkpoint written (a reshard source must have one). Returns the node
// and its transport address.
func bootReshardSource(t *testing.T, dir string, part []janus.Tuple, shard int, cfg janus.Config) (*Node, string) {
	t.Helper()
	st, err := janus.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	st.Broker().PublishInsertBatch(part)
	eng := janus.NewEngine(cfg.WithShardSeed(shard), st.Broker())
	if err := eng.AddTemplate(clusterTemplate()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteCheckpoint(eng); err != nil {
		t.Fatal(err)
	}
	n := NewNode(eng, st)
	addr, _ := serveNode(t, n)
	return n, addr
}

// bootJoiner boots one empty node waiting for an install: durable over
// dir when dir is non-empty, ephemeral otherwise.
func bootJoiner(t *testing.T, dir string, cfg janus.Config) (*Node, string) {
	t.Helper()
	var n *Node
	if dir != "" {
		st, err := janus.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = st.Close() })
		n = NewNode(janus.NewEngine(cfg, st.Broker()), st)
	} else {
		n = NewNode(janus.NewEngine(cfg, janus.NewBroker()), nil)
	}
	addr, _ := serveNode(t, n)
	return n, addr
}

// TestClusterReshardJoinLeave drives the full cluster layout-change
// protocol at a fixed seed: 2 durable source shards with post-checkpoint
// log tails reshard onto 3 durable joiners (node join), then down onto 1
// ephemeral node (node leave), with covering answers checked
// exact against a live ledger at every step, queries served concurrently
// through the copy, and the routing property verified on the new nodes.
func TestClusterReshardJoinLeave(t *testing.T) {
	const rows, kOld, kNew = 16000, 2, 3
	cfg := clusterConfig()
	tuples, err := workload.Generate(workload.NYCTaxi, rows, 0, 42)
	if err != nil {
		t.Fatal(err)
	}

	parts := janus.SplitByShard(tuples, kOld)
	peers := make([]string, kOld)
	for i := range peers {
		_, peers[i] = bootReshardSource(t, filepath.Join(t.TempDir(), "src"), parts[i], i, cfg)
	}
	coord, err := NewCoordinator(peers, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	live := make(map[int64]janus.Tuple, rows)
	for _, tp := range tuples {
		live[tp.ID] = tp
	}

	ctx := context.Background()
	check := func(phase string) {
		t.Helper()
		var wantSum, wantCnt float64
		for _, tp := range live {
			wantSum += tp.Val(0)
			wantCnt++
		}
		for _, probe := range []struct {
			f    janus.Func
			want float64
		}{{janus.FuncCount, wantCnt}, {janus.FuncSum, wantSum}} {
			req := janus.Request{Template: "trips", Query: janus.Query{Func: probe.f, AggIndex: -1, Rect: janus.Universe(1)}}
			resp, err := coord.Do(ctx, req)
			if err != nil {
				t.Fatalf("%s: %v", phase, err)
			}
			if diff := resp.Result.Estimate - probe.want; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("%s %v: covering answer %v, want %v", phase, probe.f, resp.Result.Estimate, probe.want)
			}
		}
	}
	check("pre-reshard")

	// Traffic after the sources' checkpoints: the reshard must pick these
	// up from the log tails, not just the images.
	extra, err := workload.Generate(workload.NYCTaxi, 2000, 1<<20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.InsertBatch(extra); err != nil {
		t.Fatal(err)
	}
	for _, tp := range extra {
		live[tp.ID] = tp
	}
	var doomed []int64
	for i := 0; i < 500; i++ {
		doomed = append(doomed, tuples[i].ID)
		delete(live, tuples[i].ID)
	}
	if _, err := coord.DeleteBatch(doomed); err != nil {
		t.Fatal(err)
	}
	check("post-tail-traffic")

	// Three durable joiners (they feed the next reshard, so they need
	// checkpoints); the ephemeral install path runs in the 3 -> 1 step.
	joiners := make([]*Node, kNew)
	newPeers := make([]string, kNew)
	dirs := []string{filepath.Join(t.TempDir(), "new0"), filepath.Join(t.TempDir(), "new1"), filepath.Join(t.TempDir(), "new2")}
	for j := range joiners {
		joiners[j], newPeers[j] = bootJoiner(t, dirs[j], cfg)
	}

	// Queries must keep answering while the copy runs.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		req := janus.Request{Template: "trips", Query: janus.Query{Func: janus.FuncCount, AggIndex: -1, Rect: janus.Universe(1)}}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := coord.Do(ctx, req); err != nil {
				t.Errorf("query during reshard: %v", err)
				return
			}
		}
	}()

	rep, err := coord.Reshard(ctx, newPeers, nil, cfg)
	close(stop)
	readers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FromShards != kOld || rep.ToShards != kNew || rep.Epoch != 1 {
		t.Fatalf("report = %+v, want 2 -> 3 at epoch 1", rep)
	}
	if rep.RowsCopied != int64(len(live)) {
		t.Fatalf("RowsCopied = %d, want %d", rep.RowsCopied, len(live))
	}
	if coord.NumShards() != kNew || coord.LayoutEpoch() != 1 {
		t.Fatalf("serving %d shards at epoch %d, want %d at 1", coord.NumShards(), coord.LayoutEpoch(), kNew)
	}
	check("post-join")

	// Routing property on the new nodes: every node holds exactly the live
	// ids whose home shard it is, and their union is the ledger.
	seen := make(map[int64]struct{}, len(live))
	for j, n := range joiners {
		n.Engine().Broker().Archive().ForEach(func(tp janus.Tuple) bool {
			if home := janus.ShardIndex(tp.ID, kNew); home != j {
				t.Fatalf("id %d lives on shard %d, home is %d", tp.ID, j, home)
			}
			if _, dup := seen[tp.ID]; dup {
				t.Fatalf("id %d lives on two shards", tp.ID)
			}
			if _, want := live[tp.ID]; !want {
				t.Fatalf("id %d on shard %d is not in the ledger", tp.ID, j)
			}
			seen[tp.ID] = struct{}{}
			return true
		})
	}
	if len(seen) != len(live) {
		t.Fatalf("new layout holds %d rows, ledger has %d", len(seen), len(live))
	}

	// The durable joiners must hold a recovered on-disk layout.
	for j := 0; j < kNew; j++ {
		if _, err := os.Stat(filepath.Join(dirs[j], "checkpoint.db")); err != nil {
			t.Fatalf("durable joiner %d: %v", j, err)
		}
	}

	// Ingest flows into the new layout.
	fresh, err := workload.Generate(workload.NYCTaxi, 600, 2<<20, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.InsertBatch(fresh); err != nil {
		t.Fatal(err)
	}
	for _, tp := range fresh {
		live[tp.ID] = tp
	}
	if _, err := coord.DeleteBatch([]int64{fresh[0].ID, fresh[1].ID}); err != nil {
		t.Fatal(err)
	}
	delete(live, fresh[0].ID)
	delete(live, fresh[1].ID)
	check("post-join-ingest")

	// Node leave: 3 -> 1 onto a fresh ephemeral node.
	_, soloAddr := bootJoiner(t, "", cfg)
	rep, err = coord.Reshard(ctx, []string{soloAddr}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FromShards != kNew || rep.ToShards != 1 || rep.Epoch != 2 {
		t.Fatalf("report = %+v, want 3 -> 1 at epoch 2", rep)
	}
	if coord.NumShards() != 1 || coord.LayoutEpoch() != 2 {
		t.Fatalf("serving %d shards at epoch %d, want 1 at 2", coord.NumShards(), coord.LayoutEpoch())
	}
	check("post-leave")

	// An ephemeral source cannot feed a reshard (no checkpoint to fetch):
	// the call must fail and leave the serving layout untouched.
	_, extraAddr := bootJoiner(t, "", cfg)
	if _, err := coord.Reshard(ctx, []string{extraAddr, soloAddr}, nil, cfg); err == nil {
		t.Fatal("reshard off an ephemeral source succeeded, want checkpoint-fetch error")
	}
	if coord.NumShards() != 1 || coord.LayoutEpoch() != 2 {
		t.Fatalf("failed reshard moved the layout: %d shards at epoch %d", coord.NumShards(), coord.LayoutEpoch())
	}
	check("post-failed-reshard")

	// Bad peer lists fail fast.
	if _, err := coord.Reshard(ctx, nil, nil, cfg); err == nil {
		t.Fatal("reshard to zero peers succeeded")
	}
	if _, err := coord.Reshard(ctx, []string{""}, nil, cfg); err == nil {
		t.Fatal("reshard to an empty address succeeded")
	}
}

// TestInstallRejectsCorruptImage sends a durable node an install image cut
// in half — its header is valid, its body is not — and checks the node
// refuses it before touching the disk: checkpoint.db keeps its bytes, the
// node still acknowledges ingest, and the directory still recovers.
func TestInstallRejectsCorruptImage(t *testing.T) {
	cfg := clusterConfig()
	tuples, err := workload.Generate(workload.NYCTaxi, 3000, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "node")
	n, addr := bootReshardSource(t, dir, tuples[:2000], 0, cfg)
	ckpt := filepath.Join(dir, "checkpoint.db")
	before, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	b := janus.NewBroker()
	b.PublishInsertBatch(tuples[2000:])
	img := janus.NewEngine(cfg, b)
	if err := img.AddTemplate(clusterTemplate()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := img.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	body, err := transport.EncodeInstallRequest(transport.InstallRequest{Config: cfg, Image: buf.Bytes()[:buf.Len()/2]})
	if err != nil {
		t.Fatal(err)
	}
	cl := transport.NewClient(addr)
	defer cl.Close()
	if _, err := cl.Call(context.Background(), transport.MsgInstall, "", body); err == nil {
		t.Fatal("a truncated install image was accepted")
	}

	if after, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the refused install changed checkpoint.db (%d -> %d bytes, %v)", len(before), len(after), err)
	}
	coord, err := NewCoordinator([]string{addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	extra, err := workload.Generate(workload.NYCTaxi, 10, 1<<20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.InsertBatch(extra); err != nil {
		t.Fatalf("ingest after the refused install: %v", err)
	}
	if err := n.Store().Close(); err != nil {
		t.Fatal(err)
	}
	st, err := janus.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, _, err := st.Recover(cfg); err != nil {
		t.Fatalf("recovering after the refused install: %v", err)
	}
}
