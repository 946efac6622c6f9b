// Quickstart: the minimal end-to-end use of JanusAQP.
//
// It loads a small table into the broker, builds one synopsis, streams a
// few updates, and answers an approximate SUM with its confidence interval.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	janus "janusaqp"
)

func main() {
	rng := rand.New(rand.NewSource(1))

	// 1. Load historical data into the broker (the archival store).
	//    Each tuple: Key = predicate attributes, Vals = aggregation
	//    attributes, ID unique.
	b := janus.NewBroker()
	var id int64
	for i := 0; i < 50000; i++ {
		b.PublishInsert(janus.Tuple{
			ID:   id,
			Key:  janus.Point{rng.Float64() * 100}, // e.g. a timestamp
			Vals: []float64{rng.ExpFloat64() * 10}, // e.g. an amount
		})
		id++
	}

	// 2. Build an engine and declare the query template you care about:
	//    SELECT SUM(amount) FROM D WHERE key BETWEEN lo AND hi.
	eng := janus.NewEngine(janus.Config{
		LeafNodes:   128,  // partition-tree leaves
		SampleRate:  0.01, // 1% pooled stratified sample
		CatchUpRate: 0.10, // each build's catch-up folds 10% of the data
	}, b)
	if err := eng.AddTemplate(janus.Template{
		Name:          "amounts",
		PredicateDims: []int{0},
		AggIndex:      0,
		Agg:           janus.Sum,
	}); err != nil {
		log.Fatal(err)
	}

	// 3. Stream live updates in batches: the whole batch publishes and
	//    applies under one lock round trip, and a malformed tuple rejects
	//    the batch with a typed error instead of panicking.
	var deletions []int64
	batch := make([]janus.Tuple, 0, 500)
	for i := 0; i < 5000; i++ {
		batch = append(batch, janus.Tuple{
			ID:   id,
			Key:  janus.Point{rng.Float64() * 100},
			Vals: []float64{rng.ExpFloat64() * 10},
		})
		id++
		if i%10 == 0 {
			deletions = append(deletions, int64(i)) // cancel an old record
		}
		if len(batch) == cap(batch) {
			if err := eng.InsertBatch(batch); err != nil {
				log.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := eng.InsertBatch(batch); err != nil {
		log.Fatal(err)
	}
	if _, err := eng.DeleteBatch(deletions); err != nil {
		log.Fatal(err) // only unknown ids are reported here
	}

	// 4. Query through the unified v2 entry point. The response carries
	//    the 95% confidence interval plus the answering metadata.
	ctx := context.Background()
	resp, err := eng.Do(ctx, janus.Request{
		Template: "amounts",
		Query: janus.Query{
			Func: janus.FuncSum,
			Rect: janus.NewRect(janus.Point{25}, janus.Point{75}),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	res := resp.Result
	fmt.Printf("SUM(amount) over key in [25, 75]:\n")
	fmt.Printf("  estimate: %.1f\n", res.Estimate)
	fmt.Printf("  95%% CI:   [%.1f, %.1f]\n", res.Interval.Lo(), res.Interval.Hi())
	fmt.Printf("  decomposition: %d covered nodes + %d partial leaves\n", res.Covered, res.Partial)
	fmt.Printf("  answered from %d samples over ~%d rows in %v\n",
		resp.SampleSize, resp.Population, resp.Elapsed)

	// Other aggregates reuse the same synopsis.
	for _, f := range []janus.Func{janus.FuncCount, janus.FuncAvg, janus.FuncMin, janus.FuncMax} {
		r, err := eng.Do(ctx, janus.Request{
			Template: "amounts",
			Query: janus.Query{
				Func: f,
				Rect: janus.NewRect(janus.Point{25}, janus.Point{75}),
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-5v = %.2f\n", f, r.Result.Estimate)
	}
}
