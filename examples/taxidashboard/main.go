// Taxidashboard drives JanusAQP through the broker's streaming interface
// (the PSoup architecture of Section 3.2): instead of calling the engine
// directly, a producer appends insert/delete records to the broker topics
// and a background follow loop tails them in order while query traffic
// runs concurrently — demonstrating that both data and queries are streams
// with well-defined arrival-time semantics, including read-your-writes via
// Request.MinSyncOffset.
//
// It also exercises the multi-template mode: the same pooled sample backs
// a pickup-time tree and answers ad-hoc queries over drop-off time via the
// Section 5.5 uniform fallback (Request.OnKeys).
//
// Run with:
//
//	go run ./examples/taxidashboard
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	janus "janusaqp"
	"janusaqp/internal/workload"
)

func main() {
	const rows = 80000
	tuples, err := workload.Generate(workload.NYCTaxi, rows, 0, 11)
	if err != nil {
		log.Fatal(err)
	}
	initial := rows / 4

	// Producer side: historical data goes straight to the broker.
	b := janus.NewBroker()
	for _, t := range tuples[:initial] {
		b.PublishInsert(t)
	}
	eng := janus.NewEngine(janus.Config{
		LeafNodes:   128,
		SampleRate:  0.01,
		CatchUpRate: 0.10,
		Seed:        11,
	}, b)
	if err := eng.AddTemplate(janus.Template{
		Name:          "byPickup",
		PredicateDims: []int{0},
		AggIndex:      0, // trip distance
		Agg:           janus.Sum,
	}); err != nil {
		log.Fatal(err)
	}

	// Consumer side: an external producer writes to its own broker's
	// topics; a follow loop tails them in arrival order while the
	// dashboard queries concurrently — the PSoup deployment shape.
	producer := janus.NewBroker() // the external stream
	ctx, cancel := context.WithCancel(context.Background())
	followed := make(chan int)
	var state janus.SyncState
	go func() {
		followed <- eng.Follow(ctx, producer, &state, time.Millisecond)
	}()
	for _, t := range tuples[initial:] {
		producer.PublishInsert(t)
	}
	// The producer's high-water mark is the offset its last publish landed
	// at; MinSyncOffset makes the next query wait until the follow loop has
	// applied everything up to it — read-your-writes over the stream.
	highWater := producer.Inserts.Len()

	span := tuples[rows-1].Key[0]
	qctx, qcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer qcancel()
	resp, err := eng.Do(qctx, janus.Request{
		Template: "byPickup",
		Query: janus.Query{
			Func: janus.FuncSum, AggIndex: -1,
			Rect: janus.NewRect(janus.Point{span / 2}, janus.Point{span}),
		},
		MinSyncOffset: highWater,
	})
	if err != nil {
		log.Fatal(err)
	}
	cancel()
	applied := <-followed
	fmt.Printf("consumer applied %d streamed trips (synced offset %d)\n\n",
		applied, eng.FollowOffsets().InsertOffset)
	res := resp.Result
	fmt.Printf("distance in second half of stream:  %12.0f ±%.0f\n", res.Estimate, res.Interval.HalfWidth)

	// Cross-attribute: fare instead of distance, same tree (Section 5.5).
	fare, err := eng.Do(qctx, janus.Request{
		Template: "byPickup",
		Query: janus.Query{
			Func: janus.FuncAvg, AggIndex: 1,
			Rect: janus.NewRect(janus.Point{0}, janus.Point{span / 2}),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("avg fare in first half:              %12.2f ±%.2f\n", fare.Result.Estimate, fare.Result.Interval.HalfWidth)

	// Cross-predicate: drop-off time via the uniform-sample fallback.
	drop, err := eng.Do(qctx, janus.Request{
		Template: "byPickup",
		Query: janus.Query{
			Func: janus.FuncCount,
			Rect: janus.NewRect(janus.Point{span / 4}, janus.Point{span / 2}),
		},
		OnKeys: []int{1}, // dropoffTime
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trips by drop-off window (fallback): %12.0f ±%.0f\n", drop.Result.Estimate, drop.Result.Interval.HalfWidth)
}
