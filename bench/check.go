package main

import (
	"context"
	"math"
	"math/rand"

	janus "janusaqp"
	"janusaqp/internal/stats"
	"janusaqp/internal/workload"
)

// accuracy is the outcome of the evaluation set on the quiesced system.
type accuracy struct {
	relErrP50 float64
	coverage  float64
}

// evaluate answers evalQueries SUM/COUNT/AVG queries through the
// topology's own query path and compares them with workload.Truth rebuilt
// from the live set (the paper's method, section 6.1.2). It also holds
// COUNT over the universe to the exact live row count, so a sharded or
// remote merge that loses or double counts a shard fails here.
func evaluate(s *system, sc scenario, seed int64, live []janus.Tuple, tl *tally) accuracy {
	ctx := context.Background()
	reqs := newRequests(sc, seed, live, evalMix, 0)
	// Arrival order is sorted on the time attributes; a k-d index built in
	// that order degenerates, so the truth is loaded in a shuffled order.
	order := rand.New(rand.NewSource(seed)).Perm(len(live))
	var relErrs []float64
	covered, judged := 0, 0
	per := evalQueries / len(sc.templates)
	for k, t := range sc.templates {
		truth := workload.NewTruth(len(live[0].Key), t.PredicateDims, t.AggIndex)
		for _, i := range order {
			truth.Insert(live[i])
		}
		for i := 0; i < per; i++ {
			q := reqs.gens[k].Next(evalMix[i%len(evalMix)])
			want := truth.Answer(q)
			tl.attempted++
			got, err := s.query(ctx, sc.asRequest(t, q))
			if err != nil {
				tl.fail("eval %s: %v", t.Name, err)
				continue
			}
			if math.IsNaN(got.est) || math.IsInf(got.est, 0) {
				tl.fail("eval %s: non-finite estimate", t.Name)
				continue
			}
			if want == 0 {
				continue // empty region: no relative error to take
			}
			judged++
			relErrs = append(relErrs, math.Abs(got.est-want)/math.Abs(want))
			if want >= got.lo && want <= got.hi {
				covered++
			}
		}

		tl.attempted++
		count := janus.Request{Template: t.Name, Query: janus.Query{Func: janus.FuncCount, AggIndex: -1}}
		if sc.sql {
			count = janus.Request{SQL: "SELECT COUNT(*) FROM " + tripsSchema.Table}
		}
		got, err := s.query(ctx, count)
		n := float64(len(live))
		switch {
		case err != nil:
			tl.fail("universe count %s: %v", t.Name, err)
		case math.Abs(got.est-n) > (got.hi-got.lo)/2+1e-6:
			tl.fail("universe count %s: %.1f +- %.1f, live rows %d", t.Name, got.est, (got.hi-got.lo)/2, len(live))
		}
	}
	acc := accuracy{relErrP50: stats.Median(relErrs)}
	if judged > 0 {
		acc.coverage = float64(covered) / float64(judged)
	}
	tl.attempted++
	if acc.coverage < sc.minCoverage {
		tl.fail("CI coverage %.3f of %d queries is below %.2f", acc.coverage, judged, sc.minCoverage)
	}
	tl.attempted++
	if acc.relErrP50 > sc.relErrCeil {
		tl.fail("rel_err_p50 %.4f exceeds the ceiling %.4f", acc.relErrP50, sc.relErrCeil)
	}
	return acc
}
