package experiments

import (
	"fmt"
	"sync"
	"time"

	"janusaqp/internal/baselines"
	"janusaqp/internal/workload"

	janus "janusaqp"
)

// RunFigure5 reproduces Figure 5: (left) insertion and deletion throughput
// of JanusAQP with a 12-worker pool as the existing-data ratio varies from
// 0.1 to 0.9 of the NYC Taxi dataset; (right) re-optimization cost of
// JanusAQP versus re-training cost of the learned baseline as progress
// grows.
func RunFigure5(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	spec := specFor(workload.NYCTaxi)
	tuples, err := workload.Generate(spec.name, opts.Rows, 0, opts.Seed)
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		Title:  "Figure 5: update throughput (12 workers) and re-optimization cost, NYC Taxi",
		Header: []string{"ratio", "insert req/s", "delete req/s", "Janus re-opt", "Learned re-train"},
	}
	ratios := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	if opts.Quick {
		ratios = []float64{0.1, 0.5, 0.9}
	}
	const workers = 12
	batch := opts.Rows / 10
	if batch > 20000 {
		batch = 20000
	}
	for _, r := range ratios {
		existing := int(r * float64(len(tuples)))
		eng, err := seedEngine(spec, tuples, existing, janus.Config{
			LeafNodes: 128, SampleRate: 0.01, CatchUpRate: 0.10, Seed: opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		// Fresh tuples for the insertion burst.
		fresh, _ := workload.Generate(spec.name, batch, int64(len(tuples)+1_000_000), opts.Seed+int64(r*100))
		insRate := timedParallel(workers, fresh, func(t workloadTuple) { mustInsert(eng, t) })
		// Delete the tuples just inserted (guaranteed to exist).
		delRate := timedParallel(workers, fresh, func(t workloadTuple) { mustDelete(eng, t.ID) })

		// Re-optimization cost at this progress point.
		reopt, err := eng.Reinitialize("main")
		if err != nil {
			return nil, err
		}
		learned := baselines.NewLearned(1, spec.aggVal)
		train := projectSample(tuples[:maxInt(existing, 100)], spec, opts.Seed+9, existing/10)
		trainStart := time.Now()
		learned.Train(train, int64(existing))
		trainCost := time.Since(trainStart)

		tbl.AddRow(
			fmt.Sprintf("%.1f", r),
			fmt.Sprintf("%.0f", insRate),
			fmt.Sprintf("%.0f", delRate),
			secs(reopt),
			secs(trainCost),
		)
	}
	tbl.Notes = append(tbl.Notes,
		"shape check: throughput is flat in the existing-data ratio; Janus re-opt cost grows with data but stays well below learned re-training")
	return tbl, nil
}

// timedParallel feeds work through n workers and returns operations/second.
func timedParallel(workers int, work []workloadTuple, op func(workloadTuple)) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	chunk := (len(work) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if lo >= len(work) {
			break
		}
		if hi > len(work) {
			hi = len(work)
		}
		wg.Add(1)
		go func(part []workloadTuple) {
			defer wg.Done()
			for _, t := range part {
				op(t)
			}
		}(work[lo:hi])
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(len(work)) / elapsed
}
