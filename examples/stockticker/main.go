// Stockticker reproduces the paper's motivating use case (Section 1): a
// low-latency approximate SQL interface over a high-frequency stream of
// exchange orders, where new orders flood in continuously and a small but
// significant fraction is later canceled (deleted out-of-band).
//
// The example streams synthetic NASDAQ-style ETF bars through JanusAQP,
// cancels ~5% of them asynchronously, and serves a trading dashboard:
// total traded volume in a price band, order counts in a date range, and
// the average close over a volume band — each in well under a millisecond,
// with confidence intervals, and without ever touching the base data.
//
// Run with:
//
//	go run ./examples/stockticker
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"

	janus "janusaqp"
	"janusaqp/internal/workload"
)

func main() {
	const rows = 120000
	tuples, err := workload.Generate(workload.ETFPrices, rows, 0, 99)
	if err != nil {
		log.Fatal(err)
	}
	// Key layout: date, open, high, low, close, volume. Vals: volume, close.
	initial := rows / 5

	b := janus.NewBroker()
	for _, t := range tuples[:initial] {
		b.PublishInsert(t)
	}
	eng := janus.NewEngine(janus.Config{
		LeafNodes:       128,
		SampleRate:      0.01,
		CatchUpRate:     0.10,
		AutoRepartition: true,
		Seed:            99,
	}, b)

	// Two templates, as a trading desk would define them:
	// volume filtered by close price, and volume filtered by date.
	if err := eng.AddTemplate(janus.Template{
		Name: "volumeByPrice", PredicateDims: []int{4}, AggIndex: 0, Agg: janus.Sum,
	}); err != nil {
		log.Fatal(err)
	}
	if err := eng.AddTemplate(janus.Template{
		Name: "volumeByDate", PredicateDims: []int{0}, AggIndex: 0, Agg: janus.Sum,
	}); err != nil {
		log.Fatal(err)
	}

	// Stream the rest of the market data in exchange-feed batches; each
	// batch also carries the ~5% of past orders canceled alongside it —
	// the shape /v2/ingest sends over the wire.
	rng := rand.New(rand.NewSource(3))
	canceled := 0
	const feedBatch = 256
	for lo := initial; lo < rows; lo += feedBatch {
		hi := min(lo+feedBatch, rows)
		if err := eng.InsertBatch(tuples[lo:hi]); err != nil {
			log.Fatal(err)
		}
		var cancels []int64
		for i := lo; i < hi; i++ {
			if rng.Float64() < 0.05 {
				cancels = append(cancels, tuples[rng.Intn(i)].ID)
			}
		}
		n, err := eng.DeleteBatch(cancels)
		var missing *janus.BatchIDError
		if err != nil && !errors.As(err, &missing) {
			log.Fatal(err) // already-canceled orders are fine; anything else is not
		}
		canceled += n
	}
	fmt.Printf("streamed %d orders, canceled %d (%.1f%%), %d re-partitions\n\n",
		rows-initial, canceled, 100*float64(canceled)/float64(rows-initial), eng.Stats().Reinits)

	dashboard := []struct {
		name     string
		template string
		q        janus.Query
	}{
		{"volume with close in $50-$100", "volumeByPrice",
			janus.Query{Func: janus.FuncSum, AggIndex: -1, Rect: janus.NewRect(janus.Point{50}, janus.Point{100})}},
		{"orders in first 500 sessions", "volumeByDate",
			janus.Query{Func: janus.FuncCount, AggIndex: -1, Rect: janus.NewRect(janus.Point{0}, janus.Point{500})}},
		{"avg volume, sessions 500-1500", "volumeByDate",
			janus.Query{Func: janus.FuncAvg, AggIndex: -1, Rect: janus.NewRect(janus.Point{500}, janus.Point{1500})}},
		{"max volume, cheap stocks", "volumeByPrice",
			janus.Query{Func: janus.FuncMax, AggIndex: -1, Rect: janus.NewRect(janus.Point{0}, janus.Point{25})}},
	}
	// The desk wants tighter 99% intervals — a per-request option on the
	// unified entry point, no per-template configuration needed.
	ctx := context.Background()
	for _, d := range dashboard {
		resp, err := eng.Do(ctx, janus.Request{
			Template:   d.template,
			Query:      d.q,
			Confidence: 0.99,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-32s %14.0f  ±%12.0f   (%v, %s, %d samples)\n",
			d.name, resp.Result.Estimate, resp.Result.Interval.HalfWidth,
			resp.Elapsed, d.template, resp.SampleSize)
	}
}
