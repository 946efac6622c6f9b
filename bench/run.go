package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	janus "janusaqp"
	"janusaqp/internal/stats"
	"janusaqp/internal/workload"
)

// options is one invocation. The driver sets seed, seconds and trace; the
// rest are defaults the smoke test overrides to bound the run by operation
// counts, which makes its final state repeat exactly.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	// setups is how many times the scenario is set up; setup_s is the
	// median and the last one built is measured.
	setups int
	// shrink divides rows and pool; readOps/writeOps bound each loop
	// (0 = bounded by time only).
	shrink            int
	readOps, writeOps int
}

// record is the full result of one run. Its last-line summary on standard
// output carries only correct/attempted/failed/metrics.
type record struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	GoVersion  string   `json:"goVersion"`
	NumCPU     int      `json:"nproc"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Degraded   bool     `json:"degraded,omitempty"`
	Correct    bool     `json:"correct"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Notes      []string `json:"notes,omitempty"`
	Metrics    values   `json:"metrics"`
	// Accuracy is the evaluation set's outcome; both kinds of run take it
	// and are held to the workload's ceiling and floor.
	RelErrP50  float64 `json:"relErrP50"`
	CICoverage float64 `json:"ciCoverage"`
	// Attribution is the traced run's layer table for the read path.
	Attribution []string `json:"attribution,omitempty"`
}

// run executes one scenario and returns its record. An error means the
// benchmark itself could not run; a wrong answer or a failed operation is
// reported in the record instead.
func run(sc scenario, opt options) (*record, error) {
	if opt.shrink > 1 {
		sc.rows /= opt.shrink
		sc.pool /= opt.shrink
		// The accuracy gates are frozen for the full-size tables.
		sc.relErrCeil, sc.minCoverage = math.Inf(1), 0
	}
	rec := &record{
		Workload: sc.name, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		// Reader and writer of a mixed workload would time-slice one core.
		Degraded: sc.load == mixed && runtime.GOMAXPROCS(0) < 2,
		Metrics:  values{},
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(opt.outDir, sc.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var (
		s          *system
		boot       []janus.Tuple
		setupTimes []float64
		storeDir   string
	)
	for i := 0; i < max(1, opt.setups); i++ {
		if s != nil {
			s.close()
		}
		storeDir = filepath.Join(work, fmt.Sprintf("store-%d", i))
		t0 := time.Now()
		if s, boot, err = build(sc, opt.seed, storeDir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer s.close()

	// The same generator call, longer: its first rows are the bootstrap
	// table and the rest continue the arrival order.
	all, err := workload.Generate(workload.NYCTaxi, sc.rows+sc.pool, 0, opt.seed)
	if err != nil {
		return nil, err
	}
	w := &window{all: all, hi: sc.rows}
	n := requestPool
	if sc.sql {
		n = hotTexts
	}
	reqs := newRequests(sc, opt.seed+100, boot, readMix, n)
	tl := &tally{}
	ph := phases{
		s: s, sc: sc, reqs: reqs, w: w, tl: tl, seed: opt.seed,
		total:   time.Duration(opt.seconds * float64(time.Second)),
		readOps: opt.readOps, writeOps: opt.writeOps,
	}
	if s.store != nil {
		ph.checkpoint = func() error {
			if _, err := s.store.WriteCheckpoint(s.engines[0]); err != nil {
				return err
			}
			_, err := s.store.Compact()
			return err
		}
	}

	var tr *tracer
	if opt.trace {
		tr = runTraced(&ph, rec)
	} else {
		runPlain(&ph, rec)
		rec.Metrics.set("setup_s", stats.Median(setupTimes))
	}

	if s.store != nil {
		restore, err := recoverAndCheck(s, sc, opt.seed, storeDir, w.live(), tl)
		if err != nil {
			tl.attempted++
			tl.fail("recover: %v", err)
		}
		if opt.trace {
			rec.Metrics.set("store.restore_s", restore.Seconds())
			storeFootprint(rec.Metrics, storeDir, len(w.live()))
		}
	}
	if opt.trace {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rec.Metrics.set("client.heap_mb", float64(ms.HeapAlloc)/1e6)
		rec.Metrics.fill(perLayer)
		if err := tr.writeSpans(filepath.Join(opt.outDir, "spans-"+sc.name+".jsonl")); err != nil {
			return nil, err
		}
	}
	rec.Attempted, rec.Failed, rec.Notes = tl.attempted, tl.failed, tl.notes
	rec.Correct = tl.failed == 0
	return rec, nil
}

// phases carries what the timed loops of one run share.
type phases struct {
	s                 *system
	sc                scenario
	reqs              *requests
	w                 *window
	tl                *tally
	seed              int64
	total             time.Duration
	readOps, writeOps int
	checkpoint        func() error // durable only
}

// Each timed loop follows an untimed warm-up and a forced collection: with
// hundreds of MB of arrivals on the heap a collection costs a tenth of a
// short loop, and whether one happened to fall inside it decided the run.

// read runs the reader for share of the run.
func (p *phases) read(share float64, trace bool, each func(answer, sample)) timed {
	lim := limit{dur: time.Duration(float64(p.total) * share), ops: p.readOps}
	readLoop(p.s, p.reqs, lim.scaled(warmShare), trace, p.tl, nil)
	runtime.GC()
	return readLoop(p.s, p.reqs, lim, trace, p.tl, each)
}

// churn runs the closed-loop writer for share of the run.
func (p *phases) churn(share float64) timed {
	lim := limit{dur: time.Duration(float64(p.total) * share), ops: p.writeOps}
	churnLoop(p.s, p.w, lim.scaled(warmShare), p.tl, nil)
	runtime.GC()
	return churnLoop(p.s, p.w, lim, p.tl, p.checkpoint)
}

// both runs the reader beside the paced writer once.
func (p *phases) both(rl, wl limit, trace bool, each func(answer, sample)) (reads, writes timed, lag time.Duration) {
	var wtl tally
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		writes, lag = pacedLoop(p.s, p.w, wl, &wtl)
	}()
	reads = readLoop(p.s, p.reqs, rl, trace, p.tl, each)
	wg.Wait()
	p.tl.attempted += wtl.attempted
	p.tl.failed += wtl.failed
	p.tl.notes = append(p.tl.notes, wtl.notes...)
	return reads, writes, lag
}

// mixed runs the reader beside the paced writer for share of the run. The
// warm-up is both loops together, so the timed phase starts with the
// connections open and both code paths hot.
func (p *phases) mixed(share float64, trace bool, each func(answer, sample)) (reads, writes timed, lag time.Duration) {
	rl := limit{dur: time.Duration(float64(p.total) * share), ops: p.readOps}
	wl := limit{dur: rl.dur, ops: p.writeOps}
	p.both(rl.scaled(warmShare), wl.scaled(warmShare), trace, nil)
	runtime.GC()
	return p.both(rl, wl, trace, each)
}

// evaluate takes accuracy and synopsis size on the quiesced system. It runs
// right after the scenario's own loop: the read workloads' short write loop
// (no re-partitioning, the whole table replaced) comes after it, so their
// accuracy is that of the data the reader queried.
func (p *phases) evaluate(rec *record) {
	acc := evaluate(p.s, p.sc, p.seed+200, p.w.live(), p.tl)
	rec.RelErrP50, rec.CICoverage = acc.relErrP50, acc.coverage
	if rec.Trace {
		rec.Metrics.set("core.rel_err_p50", acc.relErrP50)
		rec.Metrics.set("core.ci_coverage", acc.coverage)
	} else {
		rec.Metrics.set("synopsis_mb", float64(p.s.synopsisBytes())/1e6)
	}
}

// runPlain is the untraced run: the end-to-end metrics.
func runPlain(p *phases, rec *record) {
	var reads, writes timed
	switch p.sc.load {
	case readMain:
		reads = p.read(mainShare, false, nil)
		p.evaluate(rec)
		writes = p.churn(1 - mainShare)
	case churnMain:
		writes = p.churn(mainShare)
		p.evaluate(rec)
		reads = p.read(1-mainShare, false, nil)
	case mixed:
		reads, writes, _ = p.mixed(1, false, nil)
		p.evaluate(rec)
	}
	v, spread, n := reads.stat(p50us)
	rec.Metrics.setStat("query_p50_us", v, spread, n)
	v, spread, n = writes.stat(busyRate)
	rec.Metrics.setStat("updates_per_s", v, spread, n)
}

// recoverAndCheck is durable-churn's restart: close the store, reopen it,
// recover, and time how long until the first correct answer; then hold the
// recovered engine to the same evaluation as the live one.
func recoverAndCheck(s *system, sc scenario, seed int64, dir string, live []janus.Tuple, tl *tally) (time.Duration, error) {
	if err := s.store.Close(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	st, err := janus.OpenStore(dir)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	eng, _, err := st.Recover(sc.config(seed))
	if err != nil {
		return 0, err
	}
	resp, err := eng.Do(context.Background(), janus.Request{
		Template: sc.templates[0].Name,
		Query:    janus.Query{Func: janus.FuncCount, AggIndex: -1, Rect: janus.Universe(len(sc.templates[0].PredicateDims))},
	})
	restore := time.Since(t0)
	if err != nil {
		return restore, err
	}
	tl.attempted++
	if got := resp.Result.Estimate; got != float64(len(live)) {
		tl.fail("recovered universe count %.1f, live rows %d", got, len(live))
	}
	evaluate(&system{query: directQuery(eng, sc)}, sc, seed+200, live, tl)
	return restore, nil
}
