// Command janusql is an interactive approximate-SQL shell over a streaming
// dataset — the "low-latency SQL interface for approximate aggregate
// queries" of the paper's introduction.
//
// It loads a synthetic dataset, keeps streaming the remainder in the
// background while you type, and answers statements like
//
//	SELECT SUM(tripDistance) FROM trips WHERE pickupTime BETWEEN 0 AND 86400
//	SELECT AVG(fareAmount) FROM trips WITH CONFIDENCE 0.99
//	SELECT COUNT(*) FROM trips WHERE pickupTime >= 43200
//
// Type \help for the schema and \quit to exit.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	janus "janusaqp"
	"janusaqp/internal/workload"
)

func main() {
	rows := flag.Int("rows", 150000, "dataset size")
	flag.Parse()

	tuples, err := workload.Generate(workload.NYCTaxi, *rows, 0, 21)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	initial := *rows / 2
	b := janus.NewBroker()
	for _, t := range tuples[:initial] {
		b.PublishInsert(t)
	}
	eng := janus.NewEngine(janus.Config{
		LeafNodes:       128,
		SampleRate:      0.01,
		CatchUpRate:     0.10,
		AutoRepartition: true,
		Seed:            21,
	}, b)
	if err := eng.AddTemplate(janus.Template{
		Name:          "trips",
		PredicateDims: []int{0},
		AggIndex:      0,
		Agg:           janus.Sum,
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := eng.RegisterSchema("trips", janus.TableSchema{
		Table:    "trips",
		PredCols: []string{"pickupTime"},
		AggCols:  []string{"tripDistance", "fareAmount", "passengerCount"},
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Stream the second half in the background while the shell is live,
	// in small batches so each batch costs one update-lock round trip.
	var streamed int
	var mu sync.Mutex
	go func() {
		const batch = 64
		for lo := initial; lo < len(tuples); lo += batch {
			hi := min(lo+batch, len(tuples))
			if err := eng.InsertBatch(tuples[lo:hi]); err != nil {
				fmt.Fprintln(os.Stderr, "stream:", err)
				return
			}
			mu.Lock()
			streamed += hi - lo
			mu.Unlock()
			time.Sleep(3 * time.Millisecond)
		}
	}()

	fmt.Printf("janusql — %d rows loaded, %d streaming in the background\n", initial, *rows-initial)
	fmt.Println(`table trips(pickupTime | tripDistance, fareAmount, passengerCount); \help for help`)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("janusql> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\quit` || line == `\q`:
			return
		case line == `\help`:
			fmt.Println("SELECT SUM|COUNT|AVG|MIN|MAX|VARIANCE|STDDEV(col|*) FROM trips")
			fmt.Println("  [WHERE pickupTime <op> x [AND ...]] [WITH CONFIDENCE 0.xx]")
			continue
		case line == `\status`:
			mu.Lock()
			n := streamed
			mu.Unlock()
			st, err := eng.StatsFor("trips")
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("streamed %d/%d, catch-up %.0f%%, reinits %d, synopsis %.1f KB\n",
				n, *rows-initial, st.CatchUpProgress*100,
				eng.Stats().Reinits, float64(st.SynopsisBytes)/1024)
			continue
		}
		// Each statement is one v2 request with a per-query deadline — a
		// shell should never hang on a wedged engine.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		resp, err := eng.Do(ctx, janus.Request{SQL: line})
		cancel()
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		res := resp.Result
		if res.Interval.HalfWidth > 0 {
			fmt.Printf("%.4f  ±%.4f  (95%% CI [%.4f, %.4f], %v, %d samples, catch-up %.0f%%)\n",
				res.Estimate, res.Interval.HalfWidth, res.Interval.Lo(), res.Interval.Hi(),
				resp.Elapsed.Round(time.Microsecond), resp.SampleSize, resp.CatchUpProgress*100)
		} else {
			fmt.Printf("%.4f  (%v)\n", res.Estimate, resp.Elapsed.Round(time.Microsecond))
		}
	}
}
