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
// table4, ablation-beta, ablation-catchup, ablation-partial,
// ablation-histogram.
//
// Serving performance (latency, throughput, restart, per-layer cost) is
// measured by the repository benchmark instead: see bench/README.md and
// BENCHMARK.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"janusaqp/internal/experiments"
)

type runner func(experiments.Options) (*experiments.Table, error)

var registry = map[string]runner{
	"table2":             experiments.RunTable2,
	"fig5":               experiments.RunFigure5,
	"fig6":               experiments.RunFigure6,
	"fig7":               experiments.RunFigure7,
	"fig8":               experiments.RunFigure8,
	"fig9":               experiments.RunFigure9,
	"fig10":              experiments.RunFigure10,
	"table3":             experiments.RunTable3,
	"table4":             experiments.RunTable4,
	"ablation-beta":      experiments.RunAblationBeta,
	"ablation-catchup":   experiments.RunAblationCatchupSeed,
	"ablation-partial":   experiments.RunAblationPartialRepartition,
	"ablation-histogram": experiments.RunAblationHistogram,
}

// order fixes the printing sequence for -exp all.
var order = []string{
	"table2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"table3", "table4", "ablation-beta", "ablation-catchup",
	"ablation-partial", "ablation-histogram",
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
		names := make([]string, 0, len(registry))
		for name := range registry {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}

	opts := experiments.Options{Rows: *rows, Queries: *queries, Seed: *seed, Quick: *quick}
	var names []string
	if *exp == "all" {
		names = order
	} else {
		if _, ok := registry[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			os.Exit(2)
		}
		names = []string{*exp}
	}
	for _, name := range names {
		start := time.Now()
		tbl, err := registry[name](opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		tbl.Fprint(os.Stdout)
		fmt.Printf("[%s completed in %.1fs]\n\n", name, time.Since(start).Seconds())
	}
}
