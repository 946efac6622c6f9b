// Command bench is the repository's one benchmark: seven named workloads
// over the JanusAQP serving stack, each run in one process with its servers
// on loopback listeners. The untraced run (-trace 0) reports the end-to-end
// metrics; the traced run (-trace 1) decomposes the same workload into
// per-layer numbers taken from outside the program. See README.md.
//
//	bench -workload engine-scan3d -seed 1 -seconds 10 -trace 0
//	bench -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "the only source of randomness: data, queries, SQL literals, engine Config.Seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	out := flag.String("out", "", "append the full run record, one JSON object per line, to this file (input of -compare)")
	outDir := flag.String("dir", "bench/out", "scratch directory: durable stores during a run, span files after a traced one")
	compare := flag.Bool("compare", false, "compare two record files: bench -compare a.jsonl b.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("-compare needs two record files")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	sc, ok := findScenario(*workload)
	if !ok {
		fatal("unknown workload %q; have %s", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 {
		fatal("-seconds must be positive")
	}
	rec, err := run(sc, options{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir, setups: 3})
	if err != nil {
		fatal("%s: %v", sc.name, err)
	}
	report(rec)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fatal("%v", err)
		}
	}
	// The last line of standard output is the summary the driver reads.
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]brief `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]brief{}}
	for name, v := range rec.Metrics {
		summary.Metrics[name] = brief{v.Value, v.Unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

type brief struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.name
	}
	return names
}

// report prints the record for a person, on standard error so standard
// output ends with the summary line alone.
func report(rec *record) {
	w := os.Stderr
	fmt.Fprintf(w, "%s seed=%d seconds=%g trace=%v %s nproc=%d GOMAXPROCS=%d\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.GoVersion, rec.NumCPU, rec.GoMaxProcs)
	if rec.Degraded {
		fmt.Fprintln(w, "  degraded: GOMAXPROCS < 2, reader and writer time-slice one core; -compare will not judge this run")
	}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		v := rec.Metrics[d.Name]
		fmt.Fprintf(w, "  %-28s %14.4f %-6s", d.Name, v.Value, v.Unit)
		if v.N > 0 {
			fmt.Fprintf(w, " spread %.3f n=%d", v.Spread, v.N)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-28s %14.4f ratio  (ceiling; CI coverage %.3f)\n", "rel_err_p50", rec.RelErrP50, rec.CICoverage)
	for _, line := range rec.Attribution {
		fmt.Fprintln(w, "  | "+line)
	}
	fmt.Fprintf(w, "  ops_attempted %d ops_failed %d correct %v\n", rec.Attempted, rec.Failed, rec.Correct)
	for _, n := range rec.Notes {
		fmt.Fprintln(w, "  ! "+n)
	}
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
