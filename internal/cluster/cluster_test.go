package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	janus "janusaqp"
	"janusaqp/internal/metrics"
	"janusaqp/internal/transport"
	"janusaqp/internal/workload"
)

func clusterConfig() janus.Config {
	return janus.Config{
		LeafNodes:   16,
		SampleRate:  0.05,
		MinSamples:  1 << 20, // above the test populations: sampling stays deterministic
		CatchUpRate: 1.0,
		Seed:        9,
	}
}

func clusterTemplate() janus.Template {
	return janus.Template{Name: "trips", PredicateDims: []int{0}, AggIndex: 0, Agg: janus.Sum}
}

// serveNode exposes a node over the transport on loopback and returns its
// address plus a closer that stops only the listener (the "kill" in the
// failover drill: the process's state survives, its network presence does
// not).
func serveNode(t *testing.T, n *Node) (addr string, kill func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(n)
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()
	var once bool
	kill = func() {
		if once {
			return
		}
		once = true
		srv.Close()
		<-done
	}
	t.Cleanup(kill)
	return ln.Addr().String(), kill
}

// bootEphemeralShard builds one in-memory shard engine over its hash
// partition, registers the template, drains catch-up, and serves it.
func bootEphemeralShard(t *testing.T, part []janus.Tuple, shard int, cfg janus.Config) string {
	t.Helper()
	b := janus.NewBroker()
	b.PublishInsertBatch(part)
	eng := janus.NewEngine(cfg.WithShardSeed(shard), b)
	if err := eng.AddTemplate(clusterTemplate()); err != nil {
		t.Fatal(err)
	}
	addr, _ := serveNode(t, NewNode(eng, nil))
	return addr
}

// buildGroup builds the in-process reference: the same partitions, seeds,
// and template over local engines.
func buildGroup(t *testing.T, tuples []janus.Tuple, k int, cfg janus.Config) *janus.ShardGroup {
	t.Helper()
	parts := janus.SplitByShard(tuples, k)
	engines := make([]*janus.Engine, k)
	for i := range engines {
		b := janus.NewBroker()
		b.PublishInsertBatch(parts[i])
		engines[i] = janus.NewEngine(cfg.WithShardSeed(i), b)
	}
	g, err := janus.NewShardGroup(engines)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddTemplate(clusterTemplate()); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestClusterEquivalence is the tentpole's correctness proof at a fixed
// seed: 4 shard nodes behind a coordinator, the same 4 partitions in an
// in-process ShardGroup, and 1 single engine must agree — the remote and
// in-process groups byte-identically (same partials, same merge), and both
// exactly with the archive truth for covering COUNT/SUM — before and after
// a cross-shard insert/delete wave driven through both surfaces.
func TestClusterEquivalence(t *testing.T) {
	const rows, k = 24000, 4
	tuples, err := workload.Generate(workload.NYCTaxi, rows, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := clusterConfig()

	parts := janus.SplitByShard(tuples, k)
	peers := make([]string, k)
	for i := range peers {
		peers[i] = bootEphemeralShard(t, parts[i], i, cfg)
	}
	coord, err := NewCoordinator(peers, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	group := buildGroup(t, tuples, k, cfg)
	single := buildGroup(t, tuples, 1, cfg)

	live := make(map[int64]janus.Tuple, len(tuples))
	for _, tp := range tuples {
		live[tp.ID] = tp
	}
	exact := func(f janus.Func) float64 {
		var sum, cnt float64
		for _, tp := range live {
			sum += tp.Val(0)
			cnt++
		}
		if f == janus.FuncCount {
			return cnt
		}
		return sum
	}

	ctx := context.Background()
	gen := workload.NewQueryGen(17, tuples, []int{0})
	check := func(phase string) {
		t.Helper()
		for _, f := range []janus.Func{janus.FuncCount, janus.FuncSum} {
			req := janus.Request{Template: "trips", Query: janus.Query{Func: f, AggIndex: -1, Rect: janus.Universe(1)}}
			remote, err := coord.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			local, err := group.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			one, err := single.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			truth := exact(f)
			if remote.Result.Estimate != local.Result.Estimate ||
				remote.Result.Interval.Lo() != local.Result.Interval.Lo() ||
				remote.Result.Interval.Hi() != local.Result.Interval.Hi() {
				t.Errorf("%s %v: remote %v±[%v,%v] differs from in-process %v±[%v,%v]",
					phase, f, remote.Result.Estimate, remote.Result.Interval.Lo(), remote.Result.Interval.Hi(),
					local.Result.Estimate, local.Result.Interval.Lo(), local.Result.Interval.Hi())
			}
			if diff := remote.Result.Estimate - truth; diff > 1e-6 || diff < -1e-6 {
				t.Errorf("%s %v: remote covering answer %v vs exact %v", phase, f, remote.Result.Estimate, truth)
			}
			if diff := remote.Result.Estimate - one.Result.Estimate; diff > 1e-6 || diff < -1e-6 {
				t.Errorf("%s %v: remote %v vs single engine %v", phase, f, remote.Result.Estimate, one.Result.Estimate)
			}
			if remote.SampleSize != local.SampleSize || remote.Population != local.Population {
				t.Errorf("%s %v: metadata mismatch: remote %d/%d vs local %d/%d",
					phase, f, remote.SampleSize, remote.Population, local.SampleSize, local.Population)
			}
		}
		// Arbitrary rectangles must merge byte-identically too (same
		// partials arriving over the wire, same pooled-CI math).
		for _, f := range []janus.Func{janus.FuncCount, janus.FuncSum, janus.FuncAvg} {
			for _, q := range gen.Workload(50, f) {
				req := janus.Request{Template: "trips", Query: q}
				remote, err := coord.Do(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				local, err := group.Do(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				if remote.Result.Estimate != local.Result.Estimate ||
					remote.Result.Interval.Lo() != local.Result.Interval.Lo() ||
					remote.Result.Interval.Hi() != local.Result.Interval.Hi() {
					t.Fatalf("%s %v over %v: remote %v±[%v,%v] vs local %v±[%v,%v]",
						phase, f, q.Rect,
						remote.Result.Estimate, remote.Result.Interval.Lo(), remote.Result.Interval.Hi(),
						local.Result.Estimate, local.Result.Interval.Lo(), local.Result.Interval.Hi())
				}
			}
		}
	}
	check("base")

	// Same mutation wave through both surfaces: fresh cross-shard inserts
	// plus a scattered delete (including some unknown ids, which must
	// surface as one merged BatchIDError on both).
	fresh, err := workload.Generate(workload.NYCTaxi, 3000, 5_000_000, 43)
	if err != nil {
		t.Fatal(err)
	}
	var doomed []int64
	for i := 0; i < rows; i += 3 {
		doomed = append(doomed, tuples[i].ID)
	}
	unknown := []int64{90_000_001, 90_000_002}
	mixed := append(append([]int64(nil), doomed...), unknown...)
	for name, eng := range map[string]interface {
		InsertBatch([]janus.Tuple) error
		DeleteBatch([]int64) (int, error)
	}{"remote": coord, "local": group} {
		if err := eng.InsertBatch(fresh); err != nil {
			t.Fatalf("%s InsertBatch: %v", name, err)
		}
		n, err := eng.DeleteBatch(mixed)
		if n != len(doomed) {
			t.Fatalf("%s DeleteBatch applied %d, want %d", name, n, len(doomed))
		}
		var bid *janus.BatchIDError
		if !errors.As(err, &bid) {
			t.Fatalf("%s DeleteBatch error = %v, want BatchIDError", name, err)
		}
		if len(bid.IDs) != len(unknown) || bid.IDs[0] != unknown[0] || bid.IDs[1] != unknown[1] {
			t.Fatalf("%s DeleteBatch missing ids = %v, want %v", name, bid.IDs, unknown)
		}
	}
	if err := single.InsertBatch(fresh); err != nil {
		t.Fatal(err)
	}
	if _, err := single.DeleteBatch(doomed); err != nil {
		t.Fatal(err)
	}
	for _, tp := range fresh {
		live[tp.ID] = tp
	}
	for _, id := range doomed {
		delete(live, id)
	}
	check("after updates")

	// Admin surface parity: merged stats must count the same rows.
	st := coord.Stats()
	if st.ArchiveRows != group.Stats().ArchiveRows {
		t.Errorf("merged stats: remote %d archive rows vs local %d", st.ArchiveRows, group.Stats().ArchiveRows)
	}
	if got := coord.Templates(); len(got) != 1 || got[0] != "trips" {
		t.Errorf("coordinator templates = %v", got)
	}
	if _, ok := coord.Template("trips"); !ok {
		t.Error("coordinator cannot fetch the template declaration")
	}
	tstats, err := coord.StatsFor("trips")
	if err != nil {
		t.Fatal(err)
	}
	lstats, err := group.StatsFor("trips")
	if err != nil {
		t.Fatal(err)
	}
	if tstats.Population != lstats.Population {
		t.Errorf("StatsFor population: remote %d vs local %d", tstats.Population, lstats.Population)
	}
}

// durableShard is one drill shard's full local state.
type durableShard struct {
	store *janus.Store
	eng   *janus.Engine
	node  *Node
	addr  string
	kill  func()
}

func bootDurableShard(t *testing.T, boot []janus.Tuple, shard int, cfg janus.Config) *durableShard {
	t.Helper()
	st, err := janus.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	st.Broker().PublishInsertBatch(boot)
	eng := janus.NewEngine(cfg.WithShardSeed(shard), st.Broker())
	if err := eng.AddTemplate(clusterTemplate()); err != nil {
		t.Fatal(err)
	}
	ds := &durableShard{store: st, eng: eng, node: NewNode(eng, st)}
	ds.addr, ds.kill = serveNode(t, ds.node)
	return ds
}

// bootRows generates the seed partitioned across k shards — engines need a
// non-empty archive before a template can initialize.
func bootRows(t *testing.T, n, k int) ([]janus.Tuple, [][]janus.Tuple) {
	t.Helper()
	boot, err := workload.Generate(workload.NYCTaxi, n, 50_000_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	return boot, janus.SplitByShard(boot, k)
}

// TestClusterFailoverDrill is the kill-a-shard-node drill: a 2-shard
// cluster where shard 0 has a warm standby. Acknowledged batches flow
// through the coordinator, shard 0's node is killed, and the next query
// must fail over to the promoted standby with (a) zero acknowledged-write
// loss and (b) answers byte-identical to an uncrashed in-process reference
// fed the same stream.
func TestClusterFailoverDrill(t *testing.T) {
	cfg := clusterConfig()
	ctx := context.Background()

	boot, bootParts := bootRows(t, 2000, 2)
	s0 := bootDurableShard(t, bootParts[0], 0, cfg)
	s1 := bootDurableShard(t, bootParts[1], 1, cfg)

	// Seed batches through the shards' engines are not needed: everything
	// goes through the coordinator so every write is an acknowledged write.
	coord, err := NewCoordinator([]string{s0.addr, s1.addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var acked []janus.Tuple
	sendWave := func(c *Coordinator, n, base int) {
		t.Helper()
		wave, err := workload.Generate(workload.NYCTaxi, n, int64(base), int64(base+7))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.InsertBatch(wave); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, wave...)
	}
	sendWave(coord, 2000, 0)

	// The standby bootstraps from shard 0's checkpoint, then tails its log.
	if _, err := s0.store.WriteCheckpoint(s0.eng); err != nil {
		t.Fatal(err)
	}
	sb, err := NewStandby(ctx, t.TempDir(), transport.NewClient(s0.addr), cfg.WithShardSeed(0))
	if err != nil {
		t.Fatal(err)
	}
	sbNode := NewStandbyNode(sb)
	sbAddr, _ := serveNode(t, sbNode)
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	runDone := make(chan error, 1)
	go func() { runDone <- sb.Run(runCtx, 2*time.Millisecond) }()

	// More acknowledged writes land after the checkpoint — the log tail the
	// standby must stream to be promotable.
	coordHA, err := NewCoordinator([]string{s0.addr, s1.addr}, map[int]string{0: sbAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer coordHA.Close()
	coordHA.RegisterMetrics(metrics.NewRegistry())
	sendWave(coordHA, 1500, 1_000_000)
	var doomed []int64
	for i := 0; i < len(acked); i += 5 {
		doomed = append(doomed, acked[i].ID)
	}
	if _, err := coordHA.DeleteBatch(doomed); err != nil {
		t.Fatal(err)
	}

	// Wait for the standby to reach shard 0's offsets (every acked write).
	b0 := s0.store.Broker()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ins, del := sb.Offsets()
		if ins >= b0.Inserts.Len() && del >= b0.Deletes.Len() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never caught up: %d/%d vs %d/%d", ins, del, b0.Inserts.Len(), b0.Deletes.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// --- kill shard 0's node -------------------------------------------
	s0.kill()

	// The next queries drive the failover and must answer from the
	// promoted standby as if nothing happened.
	req := janus.Request{Template: "trips", Query: janus.Query{Func: janus.FuncCount, AggIndex: -1, Rect: janus.Universe(1)}}
	resp, err := coordHA.Do(ctx, req)
	if err != nil {
		t.Fatalf("query after kill: %v", err)
	}
	wantRows := float64(len(boot) + len(acked) - len(doomed))
	if resp.Result.Estimate != wantRows {
		t.Fatalf("post-failover COUNT = %v, want %v: acknowledged writes lost", resp.Result.Estimate, wantRows)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("standby run loop: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("standby replication loop did not exit after promotion")
	}

	// Zero acknowledged-write loss, checked row by row against the
	// promoted engine's archive (shard 0's rows) and shard 1's.
	promoted := sbNode.Engine()
	if promoted == nil {
		t.Fatal("standby node did not promote")
	}
	doomedSet := make(map[int64]bool, len(doomed))
	for _, id := range doomed {
		doomedSet[id] = true
	}
	archives := []interface {
		Get(int64) (janus.Tuple, bool)
	}{promoted.Broker().Archive(), s1.eng.Broker().Archive()}
	for _, tp := range acked {
		arch := archives[janus.ShardIndex(tp.ID, 2)]
		got, ok := arch.Get(tp.ID)
		if doomedSet[tp.ID] {
			if ok {
				t.Fatalf("acknowledged delete %d resurrected after failover", tp.ID)
			}
			continue
		}
		if !ok {
			t.Fatalf("acknowledged insert %d lost in failover", tp.ID)
		}
		if got.Key[0] != tp.Key[0] || got.Vals[0] != tp.Vals[0] {
			t.Fatalf("acknowledged insert %d corrupted: %+v vs %+v", tp.ID, got, tp)
		}
	}

	// Ingest keeps working on the failed-over cluster.
	sendWave(coordHA, 500, 2_000_000)

	// Byte-identical answers vs an uncrashed in-process reference fed the
	// same acknowledged stream in the same order.
	ref := buildGroup(t, boot, 2, cfg)
	if err := ref.InsertBatch(acked[:3500]); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.DeleteBatch(doomed); err != nil {
		t.Fatal(err)
	}
	if err := ref.InsertBatch(acked[3500:]); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewQueryGen(3, acked[:2000], []int{0})
	for _, fn := range []janus.Func{janus.FuncSum, janus.FuncCount, janus.FuncAvg} {
		for _, q := range gen.Workload(40, fn) {
			want, errW := ref.Do(ctx, janus.Request{Template: "trips", Query: q})
			got, errG := coordHA.Do(ctx, janus.Request{Template: "trips", Query: q})
			if (errW == nil) != (errG == nil) {
				t.Fatalf("func %v over %v: error mismatch %v vs %v", fn, q.Rect, errW, errG)
			}
			if errW != nil {
				continue
			}
			if want.Result.Estimate != got.Result.Estimate ||
				want.Result.Interval.Lo() != got.Result.Interval.Lo() ||
				want.Result.Interval.Hi() != got.Result.Interval.Hi() {
				t.Fatalf("func %v over %v: failed-over cluster answers %v±[%v,%v], uncrashed reference %v±[%v,%v]",
					fn, q.Rect, got.Result.Estimate, got.Result.Interval.Lo(), got.Result.Interval.Hi(),
					want.Result.Estimate, want.Result.Interval.Lo(), want.Result.Interval.Hi())
			}
		}
	}
}

// TestFailoverRefusesBehindStandby proves the promotion gate: a standby
// that has not replicated up to the acknowledged watermark must not be
// promoted — the shard reports unavailable instead of silently serving a
// state with holes.
func TestFailoverRefusesBehindStandby(t *testing.T) {
	cfg := clusterConfig()
	ctx := context.Background()
	_, bootParts := bootRows(t, 1000, 1)
	s0 := bootDurableShard(t, bootParts[0], 0, cfg)

	coord, err := NewCoordinator([]string{s0.addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	wave, err := workload.Generate(workload.NYCTaxi, 2000, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.InsertBatch(wave); err != nil {
		t.Fatal(err)
	}
	if _, err := s0.store.WriteCheckpoint(s0.eng); err != nil {
		t.Fatal(err)
	}

	// Bootstrap the standby but never stream the tail past the checkpoint.
	sb, err := NewStandby(ctx, t.TempDir(), transport.NewClient(s0.addr), cfg.WithShardSeed(0))
	if err != nil {
		t.Fatal(err)
	}
	sbAddr, _ := serveNode(t, NewStandbyNode(sb))

	coordHA, err := NewCoordinator([]string{s0.addr}, map[int]string{0: sbAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer coordHA.Close()
	// Acknowledge one more batch the standby will never see, raising the
	// watermark past its offsets.
	wave2, err := workload.Generate(workload.NYCTaxi, 500, 1_000_000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := coordHA.InsertBatch(wave2); err != nil {
		t.Fatal(err)
	}

	s0.kill()
	_, err = coordHA.Do(ctx, janus.Request{Template: "trips", Query: janus.Query{Func: janus.FuncCount, AggIndex: -1, Rect: janus.Universe(1)}})
	if !errors.Is(err, janus.ErrShardUnavailable) {
		t.Fatalf("query with a behind standby = %v, want ErrShardUnavailable", err)
	}
	if !strings.Contains(fmt.Sprint(err), "shard 0") {
		t.Fatalf("unavailability error does not name the shard: %v", err)
	}
	if sbNodeEngineNil := sb.Store(); sbNodeEngineNil == nil {
		t.Fatal("standby store vanished")
	}
}

// TestCoordinatorRejectsMinSyncOffset pins the documented contract:
// watermark waits do not apply behind a coordinator.
func TestCoordinatorRejectsMinSyncOffset(t *testing.T) {
	cfg := clusterConfig()
	boot, _ := bootRows(t, 500, 1)
	addr := bootEphemeralShard(t, boot, 0, cfg)
	coord, err := NewCoordinator([]string{addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	_, err = coord.Do(context.Background(), janus.Request{Template: "trips", MinSyncOffset: 5,
		Query: janus.Query{Func: janus.FuncCount, AggIndex: -1, Rect: janus.Universe(1)}})
	if !errors.Is(err, janus.ErrInvalidRequest) {
		t.Fatalf("MinSyncOffset through a coordinator = %v, want ErrInvalidRequest", err)
	}
}

// TestNodeRefusesRetiredInstallType sends a node message type 11, the
// retired install, and checks it answers "unknown message type": the
// number stays unused, so a peer from before the retirement is refused
// rather than misparsed.
func TestNodeRefusesRetiredInstallType(t *testing.T) {
	addr, _ := serveNode(t, NewNode(janus.NewEngine(clusterConfig(), janus.NewBroker()), nil))
	cl := transport.NewClient(addr)
	defer cl.Close()
	_, err := cl.Call(context.Background(), 11, "", []byte("an old install body"))
	if err == nil || !strings.Contains(err.Error(), "unknown message type 11") {
		t.Fatalf("type 11 answered %v, want an unknown-message-type refusal", err)
	}
}
