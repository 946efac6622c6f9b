// Package routertest holds the contracts every serving surface must honor,
// each as one table run from the tests of whichever package owns a surface:
//
//   - Run: the scatter-gather contract of a janus.Router surface — over a
//     ShardGroup from the root package's tests and over a Coordinator
//     fronting loopback nodes from internal/cluster's. The policy lives in
//     one place (janus.Router); the table keeps the two wrappers from
//     drifting away from it.
//   - RunValidation: what a well-formed request is (janus.Request.Validate)
//     — through Do on an engine, a group and a coordinator, both HTTP
//     codecs, and the binary client edges.
//   - RunIngest: what applying a client ingest batch means
//     (server.ApplyIngest) — through the JSON and binary HTTP codecs, the
//     client edge, and a shard node.
package routertest

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	janus "janusaqp"
	"janusaqp/internal/stats"
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
		{"the validation table", func(t *testing.T) {
			RunValidation(t, QuerySurface{Template: template, Do: s.Do})
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

// ErrInexpressible is what a QuerySurface's Do returns for a request its
// wire cannot carry (JSON has no NaN and no query-level confidence); the
// case is skipped on that surface.
var ErrInexpressible = errors.New("routertest: request cannot be expressed on this wire")

// QuerySurface is one way of asking a question of an engine that serves
// Template with a single predicate dimension.
type QuerySurface struct {
	Template string
	// Do answers one request through the surface; errors come back as the
	// surface's client sees them, sentinel restored.
	Do func(ctx context.Context, req janus.Request) (janus.Response, error)
	// Reference is set on a client wire, which cannot (JSON) or may not
	// (binary) carry explicit infinite bounds: it is Do of the engine behind
	// the wire, which the absent-rect answer is compared against instead.
	Reference func(ctx context.Context, req janus.Request) (janus.Response, error)
}

// Answer is the Response a wire adapter rebuilds from the estimate and
// half-width its result carries — what the validation table compares.
func Answer(estimate, halfWidth float64) janus.Response {
	return janus.Response{Result: janus.Result{
		Estimate: estimate,
		Interval: stats.Interval{Estimate: estimate, HalfWidth: halfWidth},
	}}
}

// RunValidation runs the one table of malformed and boundary requests
// through a surface: every malformed request must fail with the sentinel
// janus.Request.Validate (or the engine's resolution) gives it, and an
// absent rect must answer exactly what the explicit universe answers.
func RunValidation(t *testing.T, s QuerySurface) {
	t.Helper()
	nan := math.NaN()
	rect := func(min, max janus.Point) janus.Query {
		return janus.Query{Func: janus.FuncCount, AggIndex: -1, Rect: janus.Rect{Min: min, Max: max}}
	}
	bounded := rect(janus.Point{0}, janus.Point{1e12})
	structured := func(q janus.Query) janus.Request { return janus.Request{Template: s.Template, Query: q} }
	withConf := func(c float64) janus.Request {
		return janus.Request{Template: s.Template, Query: bounded, Confidence: c}
	}
	withQueryConf := func(c float64) janus.Request {
		q := bounded
		q.Confidence = c
		return structured(q)
	}
	sql := "SELECT COUNT(*) FROM " + s.Template
	cases := []struct {
		name string
		req  janus.Request
		want error
	}{
		{"both SQL and Template", janus.Request{SQL: sql, Template: s.Template}, janus.ErrInvalidRequest},
		{"neither SQL nor Template", janus.Request{Query: bounded}, janus.ErrInvalidRequest},
		{"OnKeys with SQL", janus.Request{SQL: sql, OnKeys: []int{0}}, janus.ErrInvalidRequest},
		{"confidence NaN", withConf(nan), janus.ErrInvalidRequest},
		{"confidence -0.1", withConf(-0.1), janus.ErrInvalidRequest},
		{"confidence 1", withConf(1), janus.ErrInvalidRequest},
		{"confidence 1.5", withConf(1.5), janus.ErrInvalidRequest},
		{"query confidence NaN", withQueryConf(nan), janus.ErrInvalidRequest},
		{"query confidence -0.1", withQueryConf(-0.1), janus.ErrInvalidRequest},
		{"query confidence 1", withQueryConf(1), janus.ErrInvalidRequest},
		{"query confidence 1.5", withQueryConf(1.5), janus.ErrInvalidRequest},
		{"unsupported aggregate", structured(janus.Query{Func: 42, AggIndex: -1, Rect: bounded.Rect}), janus.ErrInvalidRequest},
		{"NaN lower bound", structured(rect(janus.Point{nan}, janus.Point{10})), janus.ErrInvalidRequest},
		{"NaN upper bound", structured(rect(janus.Point{0}, janus.Point{nan})), janus.ErrInvalidRequest},
		{"inverted bound", structured(rect(janus.Point{10}, janus.Point{5})), janus.ErrInvalidRequest},
		{"ragged sides", structured(rect(janus.Point{1, 2}, janus.Point{3})), janus.ErrInvalidRequest},
		{"rect wider than the template", structured(rect(janus.Point{1, 2}, janus.Point{3, 4})), janus.ErrInvalidRequest},
		{"rect/OnKeys arity mismatch", janus.Request{Template: s.Template, Query: bounded, OnKeys: []int{0, 1}}, janus.ErrInvalidRequest},
		{"unknown template", janus.Request{Template: "nope", Query: bounded}, janus.ErrUnknownTemplate},
		{"confidence just inside (0,1)", withConf(0.999), nil},
		{"query confidence just inside (0,1)", withQueryConf(0.001), nil},
		{"OnKeys with matching arity", janus.Request{Template: s.Template, Query: bounded, OnKeys: []int{1}}, nil},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.Do(ctx, tc.req)
			if errors.Is(err, ErrInexpressible) {
				t.Skip(err)
			}
			if !errors.Is(err, tc.want) { // errors.Is(err, nil) holds only for a nil err
				t.Fatalf("Do(%+v) = %v, want %v", tc.req, err, tc.want)
			}
			if tc.want == janus.ErrInvalidRequest && errors.Is(err, janus.ErrShardUnavailable) {
				t.Fatalf("Do(%+v) = %v: a malformed request reached a shard", tc.req, err)
			}
		})
	}
	t.Run("absent rect answers the explicit universe", func(t *testing.T) {
		absent := structured(janus.Query{Func: janus.FuncCount, AggIndex: -1})
		explicit := structured(janus.Query{Func: janus.FuncCount, AggIndex: -1, Rect: janus.Universe(1)})
		got, err := s.Do(ctx, absent)
		if err != nil {
			t.Fatal(err)
		}
		reference := s.Do
		if s.Reference != nil {
			reference = s.Reference
			if _, err := s.Do(ctx, explicit); !errors.Is(err, janus.ErrInvalidRequest) && !errors.Is(err, ErrInexpressible) {
				t.Fatalf("explicit infinite bounds from a client = %v, want ErrInvalidRequest", err)
			}
		}
		want, err := reference(ctx, explicit)
		if err != nil {
			t.Fatal(err)
		}
		if got.Result.Estimate != want.Result.Estimate || got.Result.Interval != want.Result.Interval || got.Result.Estimate <= 0 {
			t.Fatalf("absent rect answered %+v, explicit universe %+v", got.Result, want.Result)
		}
	})
}

// IngestSurface is one way of applying a client ingest batch to an engine.
type IngestSurface struct {
	// Ingest applies one batch through the surface and returns the ack as
	// its client sees it, errors with the sentinel restored.
	Ingest func(tuples []janus.Tuple, deleteIDs []int64) (inserted, deleted int, missing []int64, err error)
	// BreakLog makes the durable log behind the surface stop persisting.
	BreakLog func()
	// Rows reports the engine's live row count.
	Rows func() int64
	// Live is a row the engine holds; Fresh are valid rows it does not.
	Live  janus.Tuple
	Fresh []janus.Tuple
}

// BreakableHealth returns a write-health hook for surfaces that take one
// (server.Options.WriteHealth, cluster.NewClientEdge) and the BreakLog that
// makes it start failing.
func BreakableHealth() (health func() error, breakLog func()) {
	var broken atomic.Bool
	return func() error {
		if broken.Load() {
			return errors.New("disk gone")
		}
		return nil
	}, func() { broken.Store(true) }
}

// RunIngest runs the one table of ingest cases through a surface, ending
// with the log failure (which the surface does not recover from).
func RunIngest(t *testing.T, s IngestSurface) {
	t.Helper()
	before := s.Rows()
	if _, _, _, err := s.Ingest(nil, nil); !errors.Is(err, janus.ErrInvalidRequest) {
		t.Fatalf("empty batch = %v, want ErrInvalidRequest", err)
	}
	// A duplicate id rejects its whole batch: nothing of it lands.
	if _, _, _, err := s.Ingest([]janus.Tuple{s.Fresh[0], s.Live}, nil); !errors.Is(err, janus.ErrDuplicateID) {
		t.Fatalf("duplicate id = %v, want ErrDuplicateID", err)
	}
	if got := s.Rows(); got != before {
		t.Fatalf("a rejected batch changed the row count %d -> %d", before, got)
	}
	if ins, del, missing, err := s.Ingest(s.Fresh[:2], nil); ins != 2 || del != 0 || len(missing) != 0 || err != nil {
		t.Fatalf("insert-only = %d/%d missing %v, %v; want 2 inserted", ins, del, missing, err)
	}
	// Delete-only, and unknown ids are data, not a failure.
	unknown := s.Fresh[2].ID
	ins, del, missing, err := s.Ingest(nil, []int64{s.Fresh[0].ID, unknown})
	if ins != 0 || del != 1 || !slices.Equal(missing, []int64{unknown}) || err != nil {
		t.Fatalf("delete-only = %d/%d missing %v, %v; want 1 deleted, missing [%d]", ins, del, missing, err, unknown)
	}
	if _, del, missing, err := s.Ingest(nil, []int64{unknown}); del != 0 || !slices.Equal(missing, []int64{unknown}) || err != nil {
		t.Fatalf("all-unknown delete = %d missing %v, %v; want an ack listing the id", del, missing, err)
	}
	// Once the log stops persisting, the batch that hit the failed write —
	// inserts or deletes — is not acknowledged.
	s.BreakLog()
	if _, _, _, err := s.Ingest(s.Fresh[3:4], nil); !errors.Is(err, janus.ErrShardUnavailable) {
		t.Fatalf("insert after the log failed = %v, want ErrShardUnavailable", err)
	}
	if _, _, _, err := s.Ingest(nil, []int64{s.Fresh[1].ID}); !errors.Is(err, janus.ErrShardUnavailable) {
		t.Fatalf("delete after the log failed = %v, want ErrShardUnavailable", err)
	}
}
