package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	janus "janusaqp"
	"janusaqp/client"
	"janusaqp/internal/cluster"
	"janusaqp/internal/server"
	"janusaqp/internal/transport"
	"janusaqp/internal/workload"
)

// answer is what a client sees of one query, whatever the topology.
type answer struct {
	est, lo, hi      float64
	covered, partial int
	samples          int
	trace            []janus.TraceStage // only when the request asked for it
}

// system is one built scenario: the client-observed entry points plus the
// handles the checks, the span observers and the layer probes need.
type system struct {
	// query answers one request the way this topology's client would.
	// A zero Query.Rect means the universe.
	query func(ctx context.Context, req janus.Request) (answer, error)
	// ingest applies one insert batch and one delete batch.
	ingest func(ins []janus.Tuple, del []int64) error
	// pump folds one catch-up batch on every engine.
	pump func()
	// engines are the shard engines in shard order (one for unsharded).
	engines []*janus.Engine
	// setObserver installs fn on every engine with its shard index.
	setObserver func(fn janus.SpanObserver)
	store       *janus.Store // topoDurable only
	rpcAddr     string       // an RPC listener to ping (RPC topologies)
	httpURL     string       // topoHTTPGroup2 only, with the next two
	httpClient  *http.Client
	group       *janus.ShardGroup // what the HTTP server routes to

	closers []func()
}

func (s *system) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// stats merges the engines' counters.
func (s *system) stats() janus.EngineStats {
	parts := make([]janus.EngineStats, len(s.engines))
	for i, e := range s.engines {
		parts[i] = e.Stats()
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return janus.MergeShardStats(parts)
}

// synopsisBytes is the sum of SynopsisBytes over templates and shards.
func (s *system) synopsisBytes() int64 {
	var total int64
	for _, e := range s.engines {
		for _, t := range e.Stats().Templates {
			total += t.SynopsisBytes
		}
	}
	return total
}

func fromResponse(r janus.Response) answer {
	return answer{
		est: r.Result.Estimate, lo: r.Result.Interval.Lo(), hi: r.Result.Interval.Hi(),
		covered: r.Result.Covered, partial: r.Result.Partial,
		samples: r.SampleSize, trace: r.Trace,
	}
}

// withUniverse fills an absent rectangle for the entry points that take a
// resolved request (the wire codecs resolve it server-side instead).
func withUniverse(req janus.Request, templates []janus.Template) janus.Request {
	if req.SQL != "" || len(req.Query.Rect.Min) > 0 {
		return req
	}
	for _, t := range templates {
		if t.Name == req.Template {
			req.Query.Rect = janus.Universe(len(t.PredicateDims))
		}
	}
	return req
}

// directQuery answers through Do on an engine, a group or a coordinator.
func directQuery(eng server.Engine, sc scenario) func(context.Context, janus.Request) (answer, error) {
	return func(ctx context.Context, req janus.Request) (answer, error) {
		resp, err := eng.Do(ctx, withUniverse(req, sc.templates))
		return fromResponse(resp), err
	}
}

// ingestBoth is the two-call ingest of the engine-shaped entry points.
func ingestBoth(eng server.Engine, ins []janus.Tuple, del []int64) error {
	if err := eng.InsertBatch(ins); err != nil {
		return err
	}
	if len(del) == 0 {
		return nil
	}
	n, err := eng.DeleteBatch(del)
	if err != nil {
		return err
	}
	if n != len(del) {
		return fmt.Errorf("deleted %d of %d ids", n, len(del))
	}
	return nil
}

// register adds the scenario's templates (and the SQL schema) to an engine
// or a shard group.
func register(sc scenario, eng interface {
	AddTemplate(janus.Template) error
	RegisterSchema(string, janus.TableSchema) error
}) error {
	for _, t := range sc.templates {
		if err := eng.AddTemplate(t); err != nil {
			return err
		}
	}
	if sc.sql {
		return eng.RegisterSchema(tmpl1D.Name, tripsSchema)
	}
	return nil
}

// serveRPC puts h on a loopback listener and returns its address.
func (s *system) serveRPC(h transport.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := transport.NewServer(h)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns nil after Close; an accept error ends serving and the clients fail
	}()
	s.closers = append(s.closers, func() { srv.Close(); <-done })
	return ln.Addr().String(), nil
}

// build is the scenario's set-up: generate -> publish -> AddTemplate (which
// runs catch-up to its target) -> servers listening. dir holds the durable
// store. It returns the system and the bootstrap tuples.
func build(sc scenario, seed int64, dir string) (*system, []janus.Tuple, error) {
	tuples, err := workload.Generate(workload.NYCTaxi, sc.rows, 0, seed)
	if err != nil {
		return nil, nil, err
	}
	s := &system{}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	cfg := sc.config(seed)

	shards := 1
	if sc.topology == topoHTTPGroup2 || sc.topology == topoCluster2 {
		shards = 2
	}
	parts := [][]janus.Tuple{tuples}
	if shards > 1 {
		parts = janus.SplitByShard(tuples, shards)
	}
	for i, part := range parts {
		b := janus.NewBroker()
		if sc.topology == topoDurable {
			st, err := janus.OpenStore(dir)
			if err != nil {
				return nil, nil, err
			}
			s.store = st
			s.closers = append(s.closers, func() { _ = st.Close() }) // idempotent; the run closes it itself before recovering
			b = st.Broker()
		}
		b.PublishInsertBatch(part)
		ecfg := cfg
		if shards > 1 {
			ecfg = cfg.WithShardSeed(i)
		}
		s.engines = append(s.engines, janus.NewEngine(ecfg, b))
	}
	s.setObserver = func(fn janus.SpanObserver) {
		for i, e := range s.engines {
			if fn == nil {
				e.SetSpanObserver(nil)
				continue
			}
			e.SetSpanObserver(func(span string, _ int, d time.Duration) { fn(span, i, d) })
		}
	}
	s.pump = func() {
		for _, e := range s.engines {
			e.PumpCatchUp()
		}
	}

	switch sc.topology {
	case topoEngine, topoDurable:
		eng := s.engines[0]
		if err := register(sc, eng); err != nil {
			return nil, nil, err
		}
		if s.store != nil {
			// A cold durable boot writes its first checkpoint before serving.
			if _, err := s.store.WriteCheckpoint(eng); err != nil {
				return nil, nil, err
			}
		}
		s.query = directQuery(eng, sc)
		s.ingest = func(ins []janus.Tuple, del []int64) error { return ingestBoth(eng, ins, del) }

	case topoRPC:
		eng := s.engines[0]
		if err := register(sc, eng); err != nil {
			return nil, nil, err
		}
		addr, err := s.serveRPC(cluster.NewClientEdge(eng, nil))
		if err != nil {
			return nil, nil, err
		}
		s.rpcAddr = addr
		// One client per load goroutine: connection 1 queries, 2 ingests.
		qc, ic := client.Dial(addr), client.Dial(addr)
		s.closers = append(s.closers, qc.Close, ic.Close)
		s.query = func(ctx context.Context, req janus.Request) (answer, error) {
			a, err := qc.Query(ctx, req)
			return answer{est: a.Estimate, lo: a.Lo, hi: a.Hi, covered: a.Covered, partial: a.PartialLeaves, samples: a.SampleSize}, err
		}
		s.ingest = func(ins []janus.Tuple, del []int64) error {
			ack, err := ic.Ingest(context.Background(), ins, del)
			if err == nil && (ack.Inserted != len(ins) || ack.Deleted != len(del)) {
				err = fmt.Errorf("ack %d/%d of %d/%d", ack.Inserted, ack.Deleted, len(ins), len(del))
			}
			return err
		}
		if err := qc.Ping(context.Background()); err != nil {
			return nil, nil, err
		}

	case topoHTTPGroup2:
		group, err := janus.NewShardGroup(s.engines)
		if err != nil {
			return nil, nil, err
		}
		if err := register(sc, group); err != nil {
			return nil, nil, err
		}
		s.group = group
		hsrv := server.New(group, server.Options{})
		hs := httptest.NewServer(hsrv.Handler())
		s.closers = append(s.closers, hsrv.Close, hs.Close)
		s.httpURL, s.httpClient = hs.URL, hs.Client()
		s.query = s.httpQuery
		s.ingest = s.httpIngest

	case topoCluster2:
		peers := make([]string, len(s.engines))
		for i, eng := range s.engines {
			if err := register(sc, eng); err != nil {
				return nil, nil, err
			}
			if peers[i], err = s.serveRPC(cluster.NewNode(eng, nil)); err != nil {
				return nil, nil, err
			}
		}
		s.rpcAddr = peers[0]
		coord, err := cluster.NewCoordinator(peers, nil)
		if err != nil {
			return nil, nil, err
		}
		s.closers = append(s.closers, coord.Close)
		s.query = directQuery(coord, sc)
		s.ingest = func(ins []janus.Tuple, del []int64) error { return ingestBoth(coord, ins, del) }
		if _, err := coord.StatsFor(sc.templates[0].Name); err != nil {
			return nil, nil, err
		}
	}
	ok = true
	return s, tuples, nil
}

// post sends one JSON body and decodes the 200 reply into out.
func (s *system) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.httpURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := s.httpClient.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, reply)
	}
	return json.Unmarshal(reply, out)
}

// httpQuery pays what a JSON client pays: marshal, POST, decode.
func (s *system) httpQuery(ctx context.Context, req janus.Request) (answer, error) {
	wire := server.QueryRequestV2{Trace: req.Trace}
	wire.SQL = req.SQL
	if req.SQL == "" {
		wire.Template = req.Template
		wire.Func = req.Query.Func.String()
		wire.Min, wire.Max = req.Query.Rect.Min, req.Query.Rect.Max
	}
	var res server.QueryResultV2
	if err := s.post(ctx, "/v2/query", wire, &res); err != nil {
		return answer{}, err
	}
	if res.Error != "" {
		return answer{}, errors.New(res.Error)
	}
	a := answer{est: res.Estimate, lo: res.Lo, hi: res.Hi, covered: res.Covered, partial: res.Partial, samples: res.SampleSize}
	for _, st := range res.Trace {
		shard := -1
		if st.Shard != nil {
			shard = *st.Shard
		}
		a.trace = append(a.trace, janus.TraceStage{Stage: st.Stage, Shard: shard, Dur: time.Duration(st.Micros * float64(time.Microsecond))})
	}
	return a, nil
}

func (s *system) httpIngest(ins []janus.Tuple, del []int64) error {
	wire := server.IngestRequest{Tuples: make([]server.WireTuple, len(ins)), DeleteIDs: del}
	for i, t := range ins {
		wire.Tuples[i] = server.WireTuple{ID: t.ID, Key: t.Key, Vals: t.Vals}
	}
	var ack server.IngestResponse
	if err := s.post(context.Background(), "/v2/ingest", wire, &ack); err != nil {
		return err
	}
	if ack.Inserted != len(ins) || ack.Deleted != len(del) {
		return fmt.Errorf("ack %d/%d of %d/%d", ack.Inserted, ack.Deleted, len(ins), len(del))
	}
	return nil
}
