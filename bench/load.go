package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	janus "janusaqp"
	"janusaqp/internal/stats"
	"janusaqp/internal/workload"
)

// sample is one completed operation of a timed loop.
type sample struct {
	end time.Time     // when the reply arrived
	dur time.Duration // send -> reply
	lat time.Duration // due -> reply; equals dur in a closed loop
	n   int           // tuples acknowledged (write ops)
}

// timed is what one loop measured: its samples in completion order, when
// it started and how long it was meant to run.
type timed struct {
	samples []sample
	start   time.Time
	length  time.Duration
}

// limit ends a loop at a time or after a number of operations, whichever
// comes first. The driver runs time-bounded; the smoke test bounds ops so
// the final state is the same on every run.
type limit struct {
	dur time.Duration
	ops int // 0 = unbounded
}

func (l limit) scaled(f float64) limit {
	out := limit{dur: time.Duration(float64(l.dur) * f)}
	if l.ops > 0 {
		out.ops = max(1, int(float64(l.ops)*f))
	}
	return out
}

// tally counts operations against failures for the whole run.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < 20 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// stat cuts the loop into `segments` equal time slices, applies f to each
// non-empty slice, and returns the median of the slice values, their spread
// (IQR/median) and the sample count. Samples past the loop's length (the
// paced writer's grace) fall in the last slice.
func (t timed) stat(f func([]sample) float64) (value, spread float64, n int) {
	samples := t.samples
	if len(samples) == 0 {
		return 0, 0, 0
	}
	var vals []float64
	lo := 0
	for seg := 1; seg <= segments; seg++ {
		end := t.start.Add(time.Duration(float64(t.length) * float64(seg) / segments))
		hi := lo
		for hi < len(samples) && (!samples[hi].end.After(end) || seg == segments) {
			hi++
		}
		if hi > lo {
			vals = append(vals, f(samples[lo:hi]))
		}
		lo = hi
	}
	return stats.Median(vals), spreadOf(vals), len(samples)
}

func durs(samples []sample, pick func(sample) time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(pick(s)) / float64(unit)
	}
	return out
}

func byDur(s sample) time.Duration { return s.dur }
func byLat(s sample) time.Duration { return s.lat }

func p50us(s []sample) float64  { return stats.Median(durs(s, byDur, time.Microsecond)) }
func meanus(s []sample) float64 { return stats.Mean(durs(s, byDur, time.Microsecond)) }

// busyRate is acknowledged tuples per second of writer busy time. In the
// closed loop busy time is wall time; for the paced writer it is the time
// it spent waiting for acks, so the value is the rate it could sustain.
func busyRate(s []sample) float64 {
	var n int
	var busy time.Duration
	for _, x := range s {
		n += x.n
		busy += x.dur
	}
	if busy == 0 {
		return 0
	}
	return float64(n) / busy.Seconds()
}

// --- requests ---------------------------------------------------------------

// aggregate mix of the read loop: SUM/COUNT/AVG/MIN/MAX 40/20/20/10/10.
var readMix = []janus.Func{
	janus.FuncSum, janus.FuncSum, janus.FuncSum, janus.FuncSum,
	janus.FuncCount, janus.FuncCount, janus.FuncAvg, janus.FuncAvg,
	janus.FuncMin, janus.FuncMax,
}

// evalMix is the accuracy set: the aggregates with a confidence interval.
var evalMix = []janus.Func{janus.FuncSum, janus.FuncCount, janus.FuncAvg}

// sqlText renders q as a statement against the trips schema, bounds at
// full precision so the exact answer is over the same rectangle.
func sqlText(q janus.Query) string {
	col := "(" + tripsSchema.AggCols[0] + ")"
	if q.Func == janus.FuncCount {
		col = "(*)"
	}
	return "SELECT " + q.Func.String() + col + " FROM " + tripsSchema.Table +
		" WHERE " + tripsSchema.PredCols[0] + " BETWEEN " +
		strconv.FormatFloat(q.Rect.Min[0], 'g', -1, 64) + " AND " +
		strconv.FormatFloat(q.Rect.Max[0], 'g', -1, 64)
}

// asRequest puts q in the scenario's request form.
func (sc scenario) asRequest(t janus.Template, q janus.Query) janus.Request {
	if sc.sql {
		return janus.Request{SQL: sqlText(q)}
	}
	return janus.Request{Template: t.Name, Query: q}
}

// requests is the reader's deterministic request source.
type requests struct {
	sc   scenario
	pool []janus.Request // structured: cycled; SQL: the hot texts
	i    int
	rng  *rand.Rand
	gens []*workload.QueryGen // one per template
}

// newRequests draws rectangles over the extent of tuples (sides 1-25%).
func newRequests(sc scenario, seed int64, tuples []janus.Tuple, mix []janus.Func, n int) *requests {
	r := &requests{sc: sc, rng: rand.New(rand.NewSource(seed))}
	for i, t := range sc.templates {
		r.gens = append(r.gens, workload.NewQueryGen(seed+int64(i)+1, tuples, t.PredicateDims))
	}
	for i := 0; i < n; i++ {
		r.pool = append(r.pool, r.draw(mix[i%len(mix)]))
	}
	return r
}

// draw is one read-loop request. The reader queries the scenario's first
// template only: a latency median over two templates of different cost
// sits between two modes and flips with the slightest shift.
func (r *requests) draw(f janus.Func) janus.Request {
	return r.sc.asRequest(r.sc.templates[0], r.gens[0].Next(f))
}

// next is the read loop's request: the pool in order, except that the SQL
// form picks hot texts at random and replaces one in coldOneIn by a text
// whose literals were never sent before.
func (r *requests) next() janus.Request {
	r.i++
	if !r.sc.sql {
		return r.pool[r.i%len(r.pool)]
	}
	if r.rng.Intn(coldOneIn) == 0 {
		return r.draw(readMix[r.rng.Intn(len(readMix))])
	}
	return r.pool[r.rng.Intn(len(r.pool))]
}

// --- read loop --------------------------------------------------------------

// readLoop is the one closed-loop query client: the next request goes out
// when the previous reply is in. Only the call is timed.
func readLoop(s *system, reqs *requests, lim limit, trace bool, tl *tally, each func(answer, sample)) timed {
	ctx := context.Background()
	var out []sample
	start := time.Now()
	for ops := 0; lim.ops == 0 || ops < lim.ops; ops++ {
		if time.Since(start) >= lim.dur {
			break
		}
		req := reqs.next()
		req.Trace = trace
		t0 := time.Now()
		a, err := s.query(ctx, req)
		t1 := time.Now()
		tl.attempted++
		sm := sample{end: t1, dur: t1.Sub(t0), lat: t1.Sub(t0)}
		switch {
		case err != nil:
			tl.fail("query: %v", err)
			continue
		case math.IsNaN(a.est) || math.IsInf(a.est, 0):
			tl.fail("query: non-finite estimate")
			continue
		case sm.dur > replyLimit:
			tl.fail("query: reply took %v", sm.dur)
		}
		out = append(out, sm)
		if each != nil {
			each(a, sm)
		}
	}
	return timed{out, start, lim.dur}
}

// --- write loops ------------------------------------------------------------

// window is the sliding live set: all[lo:hi] is live, arrivals continue at
// hi and the oldest rows leave at lo.
type window struct {
	all    []janus.Tuple
	lo, hi int
}

func (w *window) live() []janus.Tuple { return w.all[w.lo:w.hi] }

// take returns the next n arrivals and the n oldest live ids and slides the
// window; ok is false when the arrival pool has run dry.
func (w *window) take(n int) (ins []janus.Tuple, del []int64, ok bool) {
	if w.hi+n > len(w.all) {
		return nil, nil, false
	}
	ins = w.all[w.hi : w.hi+n]
	del = make([]int64, n)
	for i := range del {
		del[i] = w.all[w.lo+i].ID
	}
	w.hi += n
	w.lo += n
	return ins, del, true
}

// writeOp applies one batch pair and folds one catch-up batch, as the
// daemon's catch-up thread would between acks.
func writeOp(s *system, ins []janus.Tuple, del []int64) error {
	if err := s.ingest(ins, del); err != nil {
		return err
	}
	s.pump()
	return nil
}

// churnLoop is the one closed-loop writer: InsertBatch(512) ->
// DeleteBatch(512 oldest) -> PumpCatchUp, again as soon as it returns.
// every, when set, runs after each checkpointEvery-th pair inside the
// writer's time (the daemon's checkpointer blocks writers the same way).
func churnLoop(s *system, w *window, lim limit, tl *tally, every func() error) timed {
	var out []sample
	start := time.Now()
	for ops := 0; lim.ops == 0 || ops < lim.ops; ops++ {
		if time.Since(start) >= lim.dur {
			break
		}
		ins, del, ok := w.take(churnBatch)
		if !ok {
			break
		}
		t0 := time.Now()
		err := writeOp(s, ins, del)
		t1 := time.Now()
		tl.attempted++
		sm := sample{end: t1, dur: t1.Sub(t0), lat: t1.Sub(t0), n: 2 * churnBatch}
		if err != nil {
			tl.fail("churn: %v", err)
			continue
		}
		if sm.dur > replyLimit {
			tl.fail("churn: batch took %v", sm.dur)
		}
		if every != nil && (ops+1)%checkpointEvery == 0 {
			if err := every(); err != nil {
				tl.fail("checkpoint: %v", err)
			}
			sm.end = time.Now()
			sm.dur = sm.end.Sub(t0)
		}
		out = append(out, sm)
	}
	return timed{out, start, lim.dur}
}

// pacedLoop is the open-loop writer: one batch pair every pacedTick whether
// or not the previous one is back, each timed from when it was due. It
// returns the samples and how late the generator ran at worst.
func pacedLoop(s *system, w *window, lim limit, tl *tally) (timed, time.Duration) {
	var out []sample
	var lagMax time.Duration
	start := time.Now()
	ticks := int(lim.dur / pacedTick)
	if lim.ops > 0 {
		ticks = min(ticks, lim.ops)
	}
	for k := 0; k < ticks; k++ {
		due := start.Add(time.Duration(k) * pacedTick)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ins, del, ok := w.take(pacedBatch)
		if !ok || time.Since(start) > lim.dur+pacedGrace {
			tl.attempted += ticks - k
			for ; k < ticks; k++ {
				tl.fail("ingest: scheduled batch %d never sent", k)
			}
			break
		}
		t0 := time.Now()
		err := writeOp(s, ins, del)
		t1 := time.Now()
		tl.attempted++
		lagMax = max(lagMax, t0.Sub(due))
		if err != nil {
			tl.fail("ingest: %v", err)
			continue
		}
		sm := sample{end: t1, dur: t1.Sub(t0), lat: t1.Sub(due), n: 2 * pacedBatch}
		if sm.lat > replyLimit {
			tl.fail("ingest: ack took %v from due", sm.lat)
		}
		out = append(out, sm)
	}
	return timed{out, start, lim.dur}, lagMax
}
