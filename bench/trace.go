package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	janus "janusaqp"
	"janusaqp/internal/server"
	"janusaqp/internal/sqlparse"
	"janusaqp/internal/stats"
	"janusaqp/internal/transport"
)

// The traced run decomposes a workload into per-layer numbers from outside
// the program: Request.Trace stages, SetSpanObserver spans, and timed calls
// into each module's public functions. Shares of the run, the rest being
// left to the probes (which are bounded by iteration counts):
const (
	tracePlainRead  = 0.2 // untraced reader, the base of trace.overhead_frac
	traceTracedRead = 0.2 // the same reader with Request.Trace set
	traceWrite      = 0.4 // the writer with span observers installed
	traceMixed      = 0.35

	probeCalls   = 2000   // iterations of each per-request probe
	probeBatches = 40     // batch pairs of the broker probe
	maxSpans     = 20_000 // spans kept for the file; durations beyond it still count
)

// span is one recorded interval; times are ns since the tracer started.
// Parent is the span that caused it, Req the client operation it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req,omitempty"`
	Name   string `json:"name"`
	Shard  int    `json:"shard"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer holds spans in memory until the run ends, and every duration by
// name for the per-layer aggregates. Observers call it from the reader's,
// the writer's and the servers' goroutines.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
	durs    map[string][]float64 // microseconds, by span or stage name

	covered, partial, samples []float64
	rpcMax                    []float64 // slowest shard's rpc stage per request
}

func newTracer() *tracer { return &tracer{t0: time.Now(), durs: map[string][]float64{}} }

// add records one span ending at end, caused by the client operation
// parent (0: none, or resolved when the spans are written); it returns the
// span's id (0 when the in-memory cap dropped it; the duration still counts).
func (t *tracer) add(name string, shard, parent int, end time.Time, d time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.durs[name] = append(t.durs[name], float64(d)/float64(time.Microsecond))
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := len(t.spans) + 1
	e := end.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: parent, Name: name, Shard: shard, Start: e - d.Nanoseconds(), End: e})
	return id
}

// observe is the SpanObserver installed on every engine and the store. The
// observer is told a duration when the span ends, so the end is now.
func (t *tracer) observe(name string, shard int, d time.Duration) {
	t.add(name, shard, 0, time.Now(), d)
}

// query records one traced client query: the client-observed span and its
// stages as children. Group-level stages (shard < 0) run back to back from
// the start of the query; per-shard stages start with the scatter.
func (t *tracer) query(a answer, sm sample) {
	id := t.add("client.query", -1, 0, sm.end, sm.dur)
	at := sm.end.Add(-sm.dur)
	scatterAt := at
	slowest := 0.0
	for _, st := range a.trace {
		if st.Shard >= 0 {
			t.add(st.Stage, st.Shard, id, scatterAt.Add(st.Dur), st.Dur)
			if st.Stage == janus.StageRPC {
				slowest = max(slowest, float64(st.Dur)/float64(time.Microsecond))
			}
			continue
		}
		if st.Stage == janus.StageScatter {
			scatterAt = at
		}
		at = at.Add(st.Dur)
		t.add(st.Stage, -1, id, at, st.Dur)
	}
	t.mu.Lock()
	t.covered = append(t.covered, float64(a.covered))
	t.partial = append(t.partial, float64(a.partial))
	t.samples = append(t.samples, float64(a.samples))
	if slowest > 0 {
		t.rpcMax = append(t.rpcMax, slowest)
	}
	t.mu.Unlock()
}

// ops records the writer's client-observed operations after its loop.
func (t *tracer) ops(name string, samples []sample) {
	for _, sm := range samples {
		t.add(name, -1, 0, sm.end, sm.dur)
	}
}

func (t *tracer) median(name string) float64 { return stats.Median(t.durs[name]) }

func (t *tracer) totalMs(name string) float64 {
	sum := 0.0
	for _, d := range t.durs[name] {
		sum += d
	}
	return sum / 1000
}

// writeSpans resolves the parent of every observed span (the client
// operation of its side whose interval holds the span's end) and writes
// one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var reads, writes []span
	for _, s := range t.spans {
		switch s.Name {
		case "client.query":
			reads = append(reads, s)
		case "client.ingest":
			writes = append(writes, s)
		}
	}
	holder := func(ops []span, at int64) int {
		i := sort.Search(len(ops), func(i int) bool { return ops[i].End >= at })
		if i < len(ops) && ops[i].Start <= at {
			return ops[i].ID
		}
		return 0
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i].End < reads[j].End })
	sort.Slice(writes, func(i, j int) bool { return writes[i].End < writes[j].End })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if s.Parent == 0 && s.Name != "client.query" && s.Name != "client.ingest" {
			if s.Name == janus.SpanShardAnswer {
				s.Parent = holder(reads, s.End)
			} else {
				s.Parent = holder(writes, s.End)
			}
			s.Req = s.Parent
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(bw, "{\"dropped\":%d}\n", t.dropped)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTraced is the traced run: the per-layer metrics.
func runTraced(p *phases, rec *record) *tracer {
	t := newTracer()
	m := rec.Metrics
	p.s.setObserver(t.observe)
	if p.s.store != nil {
		p.s.store.SetSpanObserver(t.observe)
	}
	var plain, traced, writes []sample
	var lag time.Duration
	reads := func() {
		plain = p.read(tracePlainRead, false, nil).samples
		traced = p.read(traceTracedRead, true, t.query).samples
	}
	churn := func() {
		writes = p.churn(traceWrite).samples
	}
	switch p.sc.load {
	case readMain:
		reads()
		p.evaluate(rec)
		churn()
	case churnMain:
		churn()
		p.evaluate(rec)
		reads()
	case mixed:
		r1, w1, lag1 := p.mixed(traceMixed, false, nil)
		r2, w2, lag2 := p.mixed(traceMixed, true, t.query)
		plain, traced = r1.samples, r2.samples
		writes, lag = append(w1.samples, w2.samples...), max(lag1, lag2)
		p.evaluate(rec)
	}
	t.ops("client.ingest", writes)
	p.s.setObserver(nil)

	// Harness-side diagnostics.
	all := append(append([]sample{}, plain...), traced...)
	m.set("client.query_mean_us", meanus(all))
	m.set("client.query_p99_us", stats.Percentile(durs(all, byDur, time.Microsecond), 0.99))
	m.set("client.query_max_ms", stats.Percentile(durs(all, byDur, time.Millisecond), 1))
	acks := durs(writes, byLat, time.Millisecond)
	m.set("client.ingest_ack_p50_ms", stats.Median(acks))
	m.set("client.ingest_ack_p99_ms", stats.Percentile(acks, 0.99))
	m.set("client.ingest_lag_max_ms", float64(lag)/float64(time.Millisecond))

	// Stages of the traced queries and what they examined.
	for stage, name := range map[string]string{
		janus.StageResolve: "janus.resolve_us", janus.StageAnswer: "janus.answer_us",
		janus.StageScatter: "janus.scatter_us", janus.StageMerge: "janus.merge_us",
	} {
		m.set(name, t.median(stage))
	}
	m.set("cluster.rpc_us", stats.Median(t.rpcMax))
	m.set("core.covered_per_query", stats.Mean(t.covered))
	m.set("core.partial_per_query", stats.Mean(t.partial))
	m.set("core.samples_per_query", stats.Mean(t.samples))

	// Engine spans of the write side, and the engines' own counters.
	m.set("janus.insert_batch_us", t.median(janus.SpanInsertBatch))
	m.set("janus.delete_batch_us", t.median(janus.SpanDeleteBatch))
	m.set("janus.trigger_eval_ms", t.totalMs(janus.SpanTriggerEval))
	m.set("janus.reinit_ms", t.totalMs(janus.SpanReinit))
	m.set("janus.catchup_ms", t.totalMs(janus.SpanCatchUp))
	longest := 0.0
	for _, name := range []string{janus.SpanInsertBatch, janus.SpanDeleteBatch, janus.SpanTriggerEval, janus.SpanReinit, janus.SpanCatchUp} {
		longest = max(longest, stats.Percentile(t.durs[name], 1)/1000)
	}
	m.set("janus.span_max_ms", longest)
	st := p.s.stats()
	m.set("janus.reinits", float64(st.Reinits))
	m.set("janus.triggers_fired", float64(st.TriggersFired))
	m.set("janus.triggers_rejected", float64(st.TriggersRejected))
	m.set("janus.partial_repartitions", float64(st.PartialRepartitions))
	if p.s.store != nil {
		m.set("store.checkpoint_ms", t.median(janus.SpanCheckpointSave)/1000)
		m.set("store.fsync_ms", t.median(janus.SpanCheckpointFsync)/1000)
		m.set("store.compact_ms", t.median(janus.SpanCompactRotate)/1000)
		m.set("store.fsyncs", float64(len(t.durs[janus.SpanCheckpointFsync])))
	}

	probe(p, m)
	attribute(p.sc, m, p50us(plain), p50us(traced), rec)
	return t
}

// timeCalls returns the median duration in microseconds of n calls of fn.
func timeCalls(n int, fn func(i int)) float64 {
	inner, _ := timePairs(n, fn, func(int) {})
	return inner
}

// timePairs times inner(i) and outer(i) for each i and returns the median
// inner duration and the median of outer minus inner, both in microseconds.
// Pairing call by call keeps drift out of the difference; whichever runs
// second finds the caches warm, so the order alternates.
func timePairs(n int, inner, outer func(i int)) (innerUs, extraUs float64) {
	timeOne := func(fn func(int), i int) time.Duration {
		t0 := time.Now()
		fn(i)
		return time.Since(t0)
	}
	in, extra := make([]float64, n), make([]float64, n)
	for i := range in {
		var a, b time.Duration
		if i%2 == 0 {
			a, b = timeOne(inner, i), timeOne(outer, i)
		} else {
			b, a = timeOne(outer, i), timeOne(inner, i)
		}
		in[i] = float64(a) / float64(time.Microsecond)
		extra[i] = float64(b-a) / float64(time.Microsecond)
	}
	return stats.Median(in), stats.Median(extra)
}

// probe times calls into single layers on the quiesced system, with the
// workload's own requests. A layer the topology does not use is not probed.
func probe(p *phases, m values) {
	ctx := context.Background()
	s, sc := p.s, p.sc
	reqs := make([]janus.Request, probeCalls)
	for i := range reqs {
		reqs[i] = withUniverse(p.reqs.next(), sc.templates)
	}

	if sc.sql {
		resolve := func(string) (sqlparse.Schema, bool) { return tripsSchema, true }
		m.set("sqlparse.compile_us", timeCalls(probeCalls, func(i int) {
			_, _, _ = sqlparse.CompileSQL(reqs[i].SQL, resolve) // the texts were answered in the read loop
		}))
	}

	if sc.topology == topoRPC || sc.topology == topoCluster2 {
		sample := transport.QueryResult{Estimate: 1, Lo: 0, Hi: 2, HalfWidth: 1, Template: sc.templates[0].Name, SampleSize: 1, Population: 1}
		var buf []byte
		m.set("transport.codec_us", timeCalls(probeCalls, func(i int) {
			_, _ = transport.DecodeQueryRequest(transport.EncodeQueryRequest(reqs[i])) // own encoding
			buf = transport.AppendQueryResult(buf[:0], sample)
			_, _ = transport.DecodeQueryResult(buf)
		}))
		rpc := transport.NewClient(s.rpcAddr)
		m.set("transport.rtt_us", timeCalls(probeCalls, func(int) {
			_, _ = rpc.Call(ctx, transport.MsgPing, "", nil) // an unreachable listener already failed the loops
		}))
		rpc.Close()
	}

	if sc.topology == topoRPC {
		eng := s.engines[0]
		bodies := make([][]byte, len(reqs))
		for i, r := range reqs {
			bodies[i] = transport.EncodeQueryRequest(r)
		}
		var buf []byte
		_, self := timePairs(probeCalls,
			func(i int) { _, _ = eng.Do(ctx, reqs[i]) },
			func(i int) { buf, _ = server.AnswerBinary(ctx, eng, bodies[i], buf[:0]) })
		m.set("server.binary_self_us", self)
		// Trace does not cross the binary wire: take the engine's stages
		// from direct traced calls with the same requests.
		var resolve, answer []float64
		for _, r := range reqs {
			r.Trace = true
			resp, err := eng.Do(ctx, r)
			if err != nil {
				continue
			}
			for _, st := range resp.Trace {
				us := float64(st.Dur) / float64(time.Microsecond)
				switch st.Stage {
				case janus.StageResolve:
					resolve = append(resolve, us)
				case janus.StageAnswer:
					answer = append(answer, us)
				}
			}
		}
		m.set("janus.resolve_us", stats.Median(resolve))
		m.set("janus.answer_us", stats.Median(answer))
	}

	if sc.topology == topoHTTPGroup2 {
		_, self := timePairs(probeCalls,
			func(i int) { _, _ = s.group.Do(ctx, reqs[i]) },
			func(i int) { _, _ = s.query(ctx, reqs[i]) })
		m.set("server.json_self_us", self)
	}

	if sc.load == churnMain {
		// The writer's next batches into a memory broker and, on the
		// durable workload, into a fresh store's broker: the difference is
		// the write-through to the segment logs.
		src := *p.w // a copy: the probe must not slide the live window
		live := src.live()
		type batch struct {
			ins []janus.Tuple
			del []int64
		}
		var batches []batch
		for len(batches) < probeBatches {
			ins, del, ok := src.take(churnBatch)
			if !ok {
				break
			}
			batches = append(batches, batch{ins, del})
		}
		publishTo := func(b *janus.Broker) func(int) {
			b.PublishInsertBatch(live)
			return func(i int) {
				b.PublishInsertBatch(batches[i].ins)
				b.PublishDeleteBatch(batches[i].del)
			}
		}
		inMemory := publishTo(janus.NewBroker())
		if s.store == nil {
			m.set("broker.publish_us", timeCalls(len(batches), inMemory))
		} else {
			dir := filepath.Join(s.store.Dir(), "probe")
			if st, err := janus.OpenStore(dir); err == nil {
				publish, logWrite := timePairs(len(batches), inMemory, publishTo(st.Broker()))
				m.set("broker.publish_us", publish)
				m.set("broker.log_write_us", logWrite)
				_ = st.Close() // a probe's scratch store; nothing reads it back
			}
			_ = os.RemoveAll(dir)
		}
	}
}

// attribute sets the read path's layer self-times beside the untraced
// client median: what share no layer measurement explains, and what the
// tracing itself cost.
func attribute(sc scenario, m values, plainP50, tracedP50 float64, rec *record) {
	get := func(name string) float64 { return m[name].Value }
	var layers []string
	switch sc.topology {
	case topoEngine, topoDurable:
		layers = []string{"janus.resolve_us", "janus.answer_us"}
	case topoRPC:
		layers = []string{"transport.rtt_us", "server.binary_self_us", "janus.resolve_us", "janus.answer_us"}
	case topoHTTPGroup2:
		layers = []string{"server.json_self_us", "janus.resolve_us", "janus.scatter_us", "janus.merge_us"}
	case topoCluster2:
		layers = []string{"janus.resolve_us", "janus.scatter_us", "janus.merge_us"}
	}
	sum := 0.0
	for _, name := range layers {
		sum += get(name)
		rec.Attribution = append(rec.Attribution, fmt.Sprintf("%-24s %9.2f us  %5.1f%%", name, get(name), 100*get(name)/plainP50))
	}
	m.set("trace.unattributed_frac", 1-sum/plainP50)
	m.set("trace.overhead_frac", tracedP50/plainP50-1)
	rec.Attribution = append(rec.Attribution,
		fmt.Sprintf("%-24s %9.2f us  (untraced client p50; traced %.2f us)", "query_p50_us", plainP50, tracedP50),
		fmt.Sprintf("unattributed_frac %.3f  trace_overhead_frac %.3f", 1-sum/plainP50, tracedP50/plainP50-1))
}

// storeFootprint reports the data directory's size per byte of live user
// data (8 bytes per id, key and value attribute).
func storeFootprint(m values, dir string, liveRows int) {
	var size int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				size += info.Size()
			}
		}
		return nil // a file rotated away mid-walk is simply not counted
	})
	const userBytesPerRow = 8 * (1 + 3 + 3)
	m.set("store.bytes_per_user_byte", float64(size)/float64(liveRows*userBytesPerRow))
}
