// Command janusbench regenerates the tables and figures of the JanusAQP
// paper's evaluation from this reproduction. Each experiment prints the
// same rows/series the paper reports, plus a shape-check note.
//
// Usage:
//
//	janusbench -exp table2            # one experiment
//	janusbench -exp all -rows 300000  # everything at a larger scale
//	janusbench -list
//
// Experiments: table2, fig5, fig6, fig7, fig8, fig9, fig10, table3,
// ablation-beta, ablation-catchup, ablation-partial. Table 4 (Appendix A's
// Kafka samplers) is not reproduced: the broker runs in process, so there
// is no transfer cost to measure.
//
// Serving performance (latency, throughput, restart, per-layer cost) is
// measured by the repository benchmark instead: see bench/README.md and
// BENCHMARK.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"janusaqp/internal/experiments"
)

// experimentList is every experiment, in the order -exp all runs them and
// -list prints them.
var experimentList = []struct {
	name string
	run  func(experiments.Options) (*experiments.Table, error)
}{
	{"table2", experiments.RunTable2},
	{"fig5", experiments.RunFigure5},
	{"fig6", experiments.RunFigure6},
	{"fig7", experiments.RunFigure7},
	{"fig8", experiments.RunFigure8},
	{"fig9", experiments.RunFigure9},
	{"fig10", experiments.RunFigure10},
	{"table3", experiments.RunTable3},
	{"ablation-beta", experiments.RunAblationBeta},
	{"ablation-catchup", experiments.RunAblationCatchupSeed},
	{"ablation-partial", experiments.RunAblationPartialRepartition},
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (or 'all')")
	rows := flag.Int("rows", 0, "dataset size (0 = default 120000; paper scale is millions)")
	queries := flag.Int("queries", 0, "workload size (0 = default 400; paper uses 2000)")
	seed := flag.Int64("seed", 1, "random seed")
	quick := flag.Bool("quick", false, "shrink everything for a fast smoke run")
	list := flag.Bool("list", false, "list available experiments")
	flag.Parse()

	if *list {
		for _, e := range experimentList {
			fmt.Println(e.name)
		}
		return
	}

	opts := experiments.Options{Rows: *rows, Queries: *queries, Seed: *seed, Quick: *quick}
	ran := false
	for _, e := range experimentList {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		start := time.Now()
		tbl, err := e.run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		tbl.Fprint(os.Stdout)
		fmt.Printf("[%s completed in %.1fs]\n\n", e.name, time.Since(start).Seconds())
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
}
