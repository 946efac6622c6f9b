// Iotmonitor shows JanusAQP as the backend of an internet-of-things
// monitoring service (the paper's second motivating application): sensors
// report continuously, a dashboard asks sliding-window aggregates, and the
// operator occasionally invalidates whole spans of readings after a sensor
// is found faulty — a burst of deletions concentrated in one region of the
// time domain, exactly the pattern that forces re-partitioning
// (Section 6.8).
//
// Run with:
//
//	go run ./examples/iotmonitor
package main

import (
	"context"
	"fmt"
	"log"

	janus "janusaqp"
	"janusaqp/internal/workload"
)

func main() {
	const rows = 100000
	tuples, err := workload.Generate(workload.IntelWireless, rows, 0, 5)
	if err != nil {
		log.Fatal(err)
	}
	initial := rows / 2

	b := janus.NewBroker()
	for _, t := range tuples[:initial] {
		b.PublishInsert(t)
	}
	eng := janus.NewEngine(janus.Config{
		LeafNodes:       128,
		SampleRate:      0.02,
		CatchUpRate:     0.10,
		AutoRepartition: true,
		Beta:            5,
		Seed:            5,
	}, b)
	if err := eng.AddTemplate(janus.Template{
		Name:          "light",
		PredicateDims: []int{0}, // time
		AggIndex:      0,        // light level
		Agg:           janus.Sum,
	}); err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	window := func(lo, hi float64) janus.Rect {
		return janus.NewRect(janus.Point{lo}, janus.Point{hi})
	}
	ask := func(q janus.Query) janus.Result {
		resp, err := eng.Do(ctx, janus.Request{Template: "light", Query: q})
		if err != nil {
			log.Fatal(err)
		}
		return resp.Result
	}
	show := func(label string) {
		avg := ask(janus.Query{
			Func: janus.FuncAvg, AggIndex: -1,
			Rect: window(0, float64(initial)*30),
		})
		cnt := ask(janus.Query{
			Func: janus.FuncCount, AggIndex: -1,
			Rect: window(0, float64(rows)*30),
		})
		fmt.Printf("%-34s avg light %8.2f ±%.2f   live readings ~%.0f   reinits %d\n",
			label, avg.Estimate, avg.Interval.HalfWidth, cnt.Estimate, eng.Stats().Reinits)
	}

	show("initial fleet state:")

	// Live reporting continues: each gateway flush is one atomic batch.
	const flush = 512
	for lo := initial; lo < initial*3/2; lo += flush {
		hi := min(lo+flush, initial*3/2)
		if err := eng.InsertBatch(tuples[lo:hi]); err != nil {
			log.Fatal(err)
		}
	}
	show("after 25k new readings:")

	// A sensor audit invalidates a contiguous day of readings: deletions
	// concentrated in one time span (out-of-band invalidation, Section 1),
	// applied as one batch under one update-lock acquisition.
	const day = 86400.0
	lo, hi := 5*day, 6*day
	var victims []int64
	for _, t := range tuples[:initial] {
		if t.Key[0] >= lo && t.Key[0] < hi {
			victims = append(victims, t.ID)
		}
	}
	invalidated, err := eng.DeleteBatch(victims)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\naudit invalidated %d readings from day 6\n\n", invalidated)
	show("after the audit:")

	// The invalidated window now reads near zero.
	res := ask(janus.Query{Func: janus.FuncCount, AggIndex: -1, Rect: window(lo, hi)})
	fmt.Printf("%-34s %.0f ±%.0f (expect ~0)\n", "readings left in day 6:", res.Estimate, res.Interval.HalfWidth)
}
