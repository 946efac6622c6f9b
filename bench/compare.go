package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"janusaqp/internal/stats"
)

// readRecords loads a file of run records, one JSON object per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// side is one file's untraced runs of one workload.
type side struct {
	byMetric map[string][]float64
	degraded bool
	failed   int
}

func sidesOf(recs []record) map[string]*side {
	out := map[string]*side{}
	for _, r := range recs {
		if r.Trace {
			continue
		}
		s := out[r.Workload]
		if s == nil {
			s = &side{byMetric: map[string][]float64{}}
			out[r.Workload] = s
		}
		s.degraded = s.degraded || r.Degraded
		s.failed += r.Failed
		for name, v := range r.Metrics {
			s.byMetric[name] = append(s.byMetric[name], v.Value)
		}
	}
	return out
}

// spreadOf is the distance between the quartiles as a share of the median.
func spreadOf(vals []float64) float64 {
	med := stats.Median(vals)
	if med == 0 {
		return 0
	}
	return (stats.Percentile(vals, 0.75) - stats.Percentile(vals, 0.25)) / med
}

// compareFiles applies each end-to-end metric's bound to every workload
// both files hold, one row per pairing, with b judged against a:
//
//	ok          b's median is no worse than a's by more than the bound
//	worse       it is
//	unresolved  a side's run-to-run spread is wider than the bound
//	degraded    a mixed workload ran on fewer than two cores: not judged
//
// It reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	recsA, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	recsB, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	a, b := sidesOf(recsA), sidesOf(recsB)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median\tb median\tchange\tspread a\tspread b\tbound\tverdict")
	counts := map[string]int{}
	for _, sc := range scenarios {
		sa, sb := a[sc.name], b[sc.name]
		if sa == nil || sb == nil {
			continue
		}
		for _, d := range endToEnd {
			va, vb := sa.byMetric[d.Name], sb.byMetric[d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := stats.Median(va), stats.Median(vb)
			// change is positive when b is worse.
			change := (mb - ma) / ma
			if d.Better == higher {
				change = -change
			}
			spA, spB := spreadOf(va), spreadOf(vb)
			verdict := "ok"
			switch {
			case sa.degraded || sb.degraded:
				verdict = "degraded"
			case spA > d.Bound || spB > d.Bound:
				verdict = "unresolved"
			case change > d.Bound:
				verdict = "worse"
				worse = true
			}
			counts[verdict]++
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%+.1f%%\t%.3f\t%.3f\t%.2f\t%s\n",
				sc.name, d.Name, ma, mb, 100*change, spA, spB, d.Bound, verdict)
		}
		if sb.failed > sa.failed {
			fmt.Fprintf(tw, "%s\tops_failed\t%d\t%d\t\t\t\t\tworse\n", sc.name, sa.failed, sb.failed)
			counts["worse"]++
			worse = true
		}
	}
	if err := tw.Flush(); err != nil {
		return worse, err
	}
	fmt.Fprintf(w, "ok %d  worse %d  unresolved %d  degraded %d\n",
		counts["ok"], counts["worse"], counts["unresolved"], counts["degraded"])
	return worse, nil
}
