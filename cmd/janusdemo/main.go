// Command janusdemo runs an interactive end-to-end demonstration of
// JanusAQP: it streams a synthetic NYC-taxi workload of insertions and
// deletions through the broker, keeps a synopsis maintained online, and
// periodically answers a fixed dashboard of queries — printing estimate,
// confidence interval, and the exact answer side by side so the
// approximation quality is visible as data flows.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	janus "janusaqp"
	"janusaqp/internal/workload"
)

func main() {
	rows := flag.Int("rows", 100000, "total tuples to stream")
	reportEvery := flag.Int("report", 10000, "print the dashboard every N updates")
	flag.Parse()

	tuples, err := workload.Generate(workload.NYCTaxi, *rows, 0, 7)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	initial := *rows / 10

	b := janus.NewBroker()
	for _, t := range tuples[:initial] {
		b.PublishInsert(t)
	}
	eng := janus.NewEngine(janus.Config{
		LeafNodes:       128,
		SampleRate:      0.01,
		CatchUpRate:     0.10,
		AutoRepartition: true,
		Seed:            7,
	}, b)
	if err := eng.AddTemplate(janus.Template{
		Name:          "trips",
		PredicateDims: []int{0}, // pickup time
		AggIndex:      0,        // trip distance
		Agg:           janus.Sum,
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	truth := workload.NewTruth(3, []int{0}, 0)
	for _, t := range tuples[:initial] {
		truth.Insert(t)
	}

	fmt.Printf("JanusAQP demo: %d initial rows, streaming %d more with 10%% deletions\n\n",
		initial, len(tuples)-initial)

	span := tuples[len(tuples)-1].Key[0]
	dashboard := []struct {
		name string
		q    janus.Query
	}{
		{"total distance (all time)", janus.Query{Func: janus.FuncSum, AggIndex: -1, Rect: janus.Universe(1)}},
		{"trips in first quarter", janus.Query{Func: janus.FuncCount, AggIndex: -1,
			Rect: janus.NewRect(janus.Point{0}, janus.Point{span / 4})}},
		{"avg distance mid-window", janus.Query{Func: janus.FuncAvg, AggIndex: -1,
			Rect: janus.NewRect(janus.Point{span / 3}, janus.Point{2 * span / 3})}},
	}

	ctx := context.Background()
	report := func(done int) {
		st, _ := eng.StatsFor("trips")
		fmt.Printf("--- after %d updates (catch-up %.0f%%, synopsis %.1f KB, reinits %d) ---\n",
			done, st.CatchUpProgress*100, float64(st.SynopsisBytes)/1024, eng.Stats().Reinits)
		for _, d := range dashboard {
			resp, err := eng.Do(ctx, janus.Request{Template: "trips", Query: d.q})
			if err != nil {
				fmt.Printf("  %-28s error: %v\n", d.name, err)
				continue
			}
			exact := truth.Answer(d.q)
			fmt.Printf("  %-28s est %14.1f  ±%10.1f   exact %14.1f  (%d samples, %v)\n",
				d.name, resp.Result.Estimate, resp.Result.Interval.HalfWidth, exact,
				resp.SampleSize, resp.Elapsed)
		}
		fmt.Println()
	}

	report(0)
	// Stream in batches: each batch publishes and applies under one
	// update-lock acquisition (the v2 ingest fast path), with the 10%
	// deletions collected per batch the same way.
	const batch = 100
	deleteEvery := 10
	done := 0
	for lo := initial; lo < len(tuples); lo += batch {
		hi := lo + batch
		if hi > len(tuples) {
			hi = len(tuples)
		}
		if err := eng.InsertBatch(tuples[lo:hi]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var victims []int64
		for _, t := range tuples[lo:hi] {
			truth.Insert(t)
			done++
			if done%deleteEvery == 0 {
				victims = append(victims, tuples[done%initial].ID)
			}
		}
		// Mirror into the ground truth only the victims that were live;
		// DeleteBatch reports the rest through a BatchIDError.
		_, err := eng.DeleteBatch(victims)
		gone := map[int64]bool{}
		var bid *janus.BatchIDError
		if errors.As(err, &bid) {
			for _, id := range bid.IDs {
				gone[id] = true
			}
		}
		for _, id := range victims {
			if !gone[id] {
				truth.Delete(id)
			}
		}
		if done%*reportEvery < batch && done >= *reportEvery {
			report(done)
		}
	}
	report(done)
	fmt.Println("demo complete")
}
