package cluster

import (
	"context"
	"errors"
	"math"
	"net"
	"testing"
	"time"

	janus "janusaqp"
	"janusaqp/client"
	"janusaqp/internal/routertest"
	"janusaqp/internal/server"
	"janusaqp/internal/transport"
	"janusaqp/internal/workload"
)

// serveClient exposes a frame handler on loopback and returns a binary
// client dialed at it, both torn down with the test.
func serveClient(t *testing.T, h transport.Handler) *client.Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(h)
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(srv.Close)
	cl := client.Dial(ln.Addr().String())
	t.Cleanup(cl.Close)
	return cl
}

// serveEdge is serveClient over a ClientEdge in front of any server.Engine.
func serveEdge(t *testing.T, eng server.Engine) *client.Client {
	return serveClient(t, NewClientEdge(eng, nil))
}

// clientDo adapts a binary client to the validation table's surface.
func clientDo(cl *client.Client) func(context.Context, janus.Request) (janus.Response, error) {
	return func(ctx context.Context, req janus.Request) (janus.Response, error) {
		a, err := cl.Query(ctx, req)
		return routertest.Answer(a.Estimate, a.HalfWidth), err
	}
}

// TestRequestValidationClientWire runs the one validation table through
// the binary client protocol at each place it is served — an engine's
// client edge, a coordinator's, and a shard node's own client-query
// listener: the error body must decode to the sentinel
// janus.Request.Validate gave the request in process.
func TestRequestValidationClientWire(t *testing.T) {
	cfg := clusterConfig()
	boot, parts := bootRows(t, 2000, 2)
	single := buildGroup(t, boot, 1, cfg).Shard(0)
	coord, err := NewCoordinator([]string{bootEphemeralShard(t, parts[0], 0, cfg), bootEphemeralShard(t, parts[1], 1, cfg)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	for _, s := range []struct {
		name   string
		cl     *client.Client
		direct server.Engine
	}{
		{"engine-edge", serveEdge(t, single), single},
		{"coordinator-edge", serveEdge(t, coord), coord},
		{"shard-node", serveClient(t, NewNode(single, nil)), single},
	} {
		t.Run(s.name, func(t *testing.T) {
			routertest.RunValidation(t, routertest.QuerySurface{Template: "trips", Do: clientDo(s.cl), Reference: s.direct.Do})
		})
	}
}

// TestIngestTableClientWire runs the one ingest table through the two RPC
// ingest surfaces: a client edge gated on a write-health hook, and a
// durable shard node gated on its own store (severed by closing it).
func TestIngestTableClientWire(t *testing.T) {
	cfg := clusterConfig()
	fresh, err := workload.Generate(workload.NYCTaxi, 8, 5_000_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	surface := func(cl *client.Client, eng *janus.Engine, live janus.Tuple, breakLog func()) routertest.IngestSurface {
		return routertest.IngestSurface{
			Ingest: func(tuples []janus.Tuple, ids []int64) (int, int, []int64, error) {
				ack, err := cl.Ingest(context.Background(), tuples, ids)
				return ack.Inserted, ack.Deleted, ack.Missing, err
			},
			BreakLog: breakLog,
			Rows:     func() int64 { return eng.Stats().ArchiveRows },
			Live:     live,
			Fresh:    fresh,
		}
	}
	t.Run("client-edge", func(t *testing.T) {
		boot, _ := bootRows(t, 1000, 1)
		eng := buildGroup(t, boot, 1, cfg).Shard(0)
		health, breakLog := routertest.BreakableHealth()
		cl := serveClient(t, NewClientEdge(eng, health))
		routertest.RunIngest(t, surface(cl, eng, boot[0], breakLog))
	})
	t.Run("shard-node", func(t *testing.T) {
		boot, _ := bootRows(t, 1000, 1)
		ds := bootDurableShard(t, boot, 0, cfg)
		cl := client.Dial(ds.addr)
		defer cl.Close()
		routertest.RunIngest(t, surface(cl, ds.eng, boot[0], func() {
			if err := ds.store.Close(); err != nil {
				t.Fatal(err)
			}
		}))
	})
}

// TestCoordinatorRejectsMalformedLocally: a coordinator none of whose
// peers can be reached still knows a malformed request when it sees one —
// validation runs before the fan-out, not on shard 0.
func TestCoordinatorRejectsMalformedLocally(t *testing.T) {
	coord, err := NewCoordinator([]string{"127.0.0.1:1", "127.0.0.1:1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	count := janus.Query{Func: janus.FuncCount, AggIndex: -1, Rect: janus.Rect{Min: janus.Point{math.NaN()}, Max: janus.Point{1}}}
	_, err = coord.Do(ctx, janus.Request{Template: "trips", Query: count})
	if !errors.Is(err, janus.ErrInvalidRequest) || errors.Is(err, janus.ErrShardUnavailable) {
		t.Fatalf("NaN bound with every peer down = %v, want ErrInvalidRequest alone", err)
	}
	count.Rect = janus.Universe(1)
	if _, err = coord.Do(ctx, janus.Request{Template: "trips", Query: count}); !errors.Is(err, janus.ErrShardUnavailable) {
		t.Fatalf("well-formed request with every peer down = %v, want ErrShardUnavailable", err)
	}
}

// sameAnswer requires a binary client answer to match a direct engine
// response float-bit for float-bit: the client protocol is a codec, never
// a different estimator, at every serving topology.
func sameAnswer(t *testing.T, surface string, got client.Answer, want janus.Response) {
	t.Helper()
	bits := func(field string, a, b float64) {
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: %s diverged: binary %v vs direct %v", surface, field, a, b)
		}
	}
	bits("estimate", got.Estimate, want.Result.Estimate)
	bits("lo", got.Lo, want.Result.Interval.Lo())
	bits("hi", got.Hi, want.Result.Interval.Hi())
	bits("halfWidth", got.HalfWidth, want.Result.Interval.HalfWidth)
	if got.Covered != want.Result.Covered || got.PartialLeaves != want.Result.Partial || got.Outer != want.Result.Outer {
		t.Fatalf("%s: leaf counts diverged: binary %+v vs direct %+v", surface, got, want.Result)
	}
	if got.Template != want.Template || got.SampleSize != want.SampleSize || got.Population != want.Population {
		t.Fatalf("%s: metadata diverged: binary %q/%d/%d vs direct %q/%d/%d",
			surface, got.Template, got.SampleSize, got.Population,
			want.Template, want.SampleSize, want.Population)
	}
}

// TestBinaryClientEquivalence is the client protocol's fixed-seed
// correctness proof across every serving topology: answers fetched through
// the binary client — against a single engine's edge, a 4-shard in-process
// group's edge, a coordinator's edge, and a shard node's RPC listener —
// must be bit-identical to the same surface answering in process. The wire
// may never change an estimate.
func TestBinaryClientEquivalence(t *testing.T) {
	const rows, k = 20000, 4
	tuples, err := workload.Generate(workload.NYCTaxi, rows, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := clusterConfig()

	single := buildGroup(t, tuples, 1, cfg)
	group := buildGroup(t, tuples, k, cfg)
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
	// A shard node serving the whole dataset, with its engine kept in hand
	// as the direct reference — the node's own MsgClientQuery listener (no
	// ClientEdge in front) must agree with its engine bit for bit. (It is
	// not compared against single: a plain engine folds its interval
	// directly while a 1-shard group pools partials, one ulp apart.)
	nodeBroker := janus.NewBroker()
	nodeBroker.PublishInsertBatch(tuples)
	nodeEng := janus.NewEngine(cfg.WithShardSeed(0), nodeBroker)
	if err := nodeEng.AddTemplate(clusterTemplate()); err != nil {
		t.Fatal(err)
	}
	for nodeEng.PumpCatchUp() {
	}
	nodeAddr, _ := serveNode(t, NewNode(nodeEng, nil))

	surfaces := []struct {
		name   string
		cl     *client.Client
		direct server.Engine
	}{
		{"single-edge", serveEdge(t, single), single},
		{"group-edge", serveEdge(t, group), group},
		{"coordinator-edge", serveEdge(t, coord), coord},
		{"shard-node", client.Dial(nodeAddr), nodeEng},
	}
	defer surfaces[3].cl.Close()

	ctx := context.Background()
	gen := workload.NewQueryGen(17, tuples, []int{0})
	// Each case pairs the request a client sends with the request an
	// embedded caller would issue. They differ only for unbounded
	// predicates: ±Inf universe bounds are server-resolved (clients omit
	// the rect; the edge completes it), so the wire form carries no rect
	// where the direct form carries Universe(1).
	type pair struct{ wire, direct janus.Request }
	var queries []pair
	for _, f := range []janus.Func{janus.FuncCount, janus.FuncSum, janus.FuncAvg} {
		queries = append(queries, pair{
			wire:   janus.Request{Template: "trips", Query: janus.Query{Func: f, AggIndex: -1}},
			direct: janus.Request{Template: "trips", Query: janus.Query{Func: f, AggIndex: -1, Rect: janus.Universe(1)}},
		})
		for _, q := range gen.Workload(25, f) {
			req := janus.Request{Template: "trips", Query: q}
			queries = append(queries, pair{wire: req, direct: req})
		}
	}
	// One request exercising the confidence override on the wire (SQL
	// equivalence is the server binary codec suite's job; these surfaces
	// register no SQL schema).
	queries = append(queries, pair{
		wire: janus.Request{Template: "trips", Confidence: 0.99,
			Query: janus.Query{Func: janus.FuncSum, AggIndex: -1}},
		direct: janus.Request{Template: "trips", Confidence: 0.99,
			Query: janus.Query{Func: janus.FuncSum, AggIndex: -1, Rect: janus.Universe(1)}},
	})

	check := func(phase string) {
		t.Helper()
		for _, s := range surfaces {
			for _, p := range queries {
				want, err := s.direct.Do(ctx, p.direct)
				if err != nil {
					t.Fatalf("%s %s: direct: %v", phase, s.name, err)
				}
				got, err := s.cl.Query(ctx, p.wire)
				if err != nil {
					t.Fatalf("%s %s: binary: %v", phase, s.name, err)
				}
				sameAnswer(t, phase+" "+s.name, got, want)
			}
		}
	}
	check("base")

	// Drive the same mutation wave through the binary client against the
	// coordinator and directly into the in-process groups: equivalence must
	// survive ingest, and the binary ack must carry the same merged
	// missing-id report the direct BatchIDError does.
	fresh, err := workload.Generate(workload.NYCTaxi, 2000, 5_000_000, 43)
	if err != nil {
		t.Fatal(err)
	}
	var doomed []int64
	for i := 0; i < rows; i += 4 {
		doomed = append(doomed, tuples[i].ID)
	}
	unknown := []int64{90_000_001, 90_000_002}
	mixed := append(append([]int64(nil), doomed...), unknown...)

	coordCl := surfaces[2].cl
	ack, err := coordCl.Ingest(ctx, fresh, nil)
	if err != nil || ack.Inserted != len(fresh) {
		t.Fatalf("binary insert ack %+v, err %v", ack, err)
	}
	ack, err = coordCl.Ingest(ctx, nil, mixed)
	if err != nil {
		t.Fatalf("binary delete: %v", err)
	}
	if ack.Deleted != len(doomed) || len(ack.Missing) != len(unknown) ||
		ack.Missing[0] != unknown[0] || ack.Missing[1] != unknown[1] {
		t.Fatalf("binary delete ack %+v, want %d deleted and missing %v", ack, len(doomed), unknown)
	}
	for name, eng := range map[string]server.Engine{"single": single, "group": group} {
		if err := eng.InsertBatch(fresh); err != nil {
			t.Fatalf("%s InsertBatch: %v", name, err)
		}
		n, err := eng.DeleteBatch(mixed)
		var bid *janus.BatchIDError
		if n != len(doomed) || !errors.As(err, &bid) {
			t.Fatalf("%s DeleteBatch: applied %d, err %v", name, n, err)
		}
	}
	// The whole-dataset node mirrors single's mutations over its own RPC
	// ingest path.
	nodeCl := surfaces[3].cl
	if _, err := nodeCl.Ingest(ctx, fresh, nil); err != nil {
		t.Fatal(err)
	}
	if ack, err := nodeCl.Ingest(ctx, nil, mixed); err != nil || ack.Deleted != len(doomed) {
		t.Fatalf("node delete ack %+v, err %v", ack, err)
	}
	check("after updates")

	// Typed sentinels survive every hop: an unknown template fails with
	// ErrUnknownTemplate whether it died at the edge, the coordinator's
	// fan-out, or the shard node.
	for _, s := range surfaces {
		if _, err := s.cl.Query(ctx, janus.Request{Template: "nope"}); !errors.Is(err, janus.ErrUnknownTemplate) {
			t.Fatalf("%s: unknown template error = %v", s.name, err)
		}
		if _, err := s.cl.Ingest(ctx, nil, nil); !errors.Is(err, janus.ErrInvalidRequest) {
			t.Fatalf("%s: empty batch error = %v", s.name, err)
		}
	}
}
