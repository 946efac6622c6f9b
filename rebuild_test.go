package janus

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"janusaqp/internal/workload"
)

var updateRebuild = flag.Bool("update", false, "rewrite testdata/rebuild.golden from the current engine")

// TestMain checkpoints a one-row engine before any test runs. gob numbers
// a type the first time the process encodes it and writes the numbers into
// the stream, so checkpoint bytes would otherwise depend on which tests
// encoded what before; numbering the checkpoint types first makes the
// rebuild fixture's hashes the same under any -run selection or order.
func TestMain(m *testing.M) {
	b := NewBroker()
	b.PublishInsert(Tuple{ID: 1, Key: Point{0}, Vals: []float64{0}})
	eng := NewEngine(Config{}, b)
	if err := eng.AddTemplate(Template{Name: "t", PredicateDims: []int{0}}); err != nil {
		panic(err)
	}
	if _, err := eng.Checkpoint(io.Discard); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// rebuildTemplates are the two shapes the rebuild fixture pins: a 1-D
// template (binary-search partitioner) and a 3-D one (KD partitioner).
var rebuildTemplates = []Template{
	{Name: "cube", PredicateDims: []int{0, 1, 2}, AggIndex: 1, Agg: Sum},
	{Name: "trips", PredicateDims: []int{0}, AggIndex: 0, Agg: Sum},
}

// TestRebuildGolden pins every path that builds a synopsis — AddTemplate,
// Reinitialize, and the Section 5.4 trigger both with full re-initialization
// and with the Appendix E partial rebuild tried first — to
// testdata/rebuild.golden. After each phase it records the checkpoint
// image's SHA-256, the engine counters, and the estimate and half-width bits
// of a universe and two rect queries per template, so a moved draw,
// partitioning or statistic anywhere in a rebuild shows up as a diff.
// Regenerate with -update only for a deliberate behaviour change.
func TestRebuildGolden(t *testing.T) {
	b, tuples := seedBroker(t, workload.NYCTaxi, 6000)
	eng := NewEngine(Config{
		LeafNodes: 16, SampleRate: 0.03, CatchUpRate: 0.3, Beta: 2,
		AutoRepartition: true, TriggerCooldown: 200, Seed: 28,
	}, b)

	var got bytes.Buffer
	record := func(phase string) {
		t.Helper()
		var img bytes.Buffer
		if _, err := eng.Checkpoint(&img); err != nil {
			t.Fatal(err)
		}
		st := eng.Stats()
		fmt.Fprintf(&got, "%s checkpoint=%x reinits=%d fired=%d rejected=%d partial=%d\n",
			phase, sha256.Sum256(img.Bytes()), st.Reinits, st.TriggersFired, st.TriggersRejected, st.PartialRepartitions)
		for _, tm := range rebuildTemplates {
			qs := []Query{{Func: FuncSum, AggIndex: -1, Rect: Universe(len(tm.PredicateDims))}}
			qs = append(qs, workload.NewQueryGen(3, tuples, tm.PredicateDims).Workload(2, FuncSum)...)
			for i, q := range qs {
				res, err := query(eng, tm.Name, q)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&got, "  %s q%d estimate=%016x halfwidth=%016x\n",
					tm.Name, i, math.Float64bits(res.Estimate), math.Float64bits(res.Interval.HalfWidth))
			}
		}
	}

	// A sliding window skewed into a narrow future pickup window with wild
	// values: each batch lands where no leaf expects it and evicts the
	// oldest base rows, so triggers fire and candidates are both adopted
	// and turned down.
	rng := rand.New(rand.NewSource(29))
	nextID, oldest := int64(1_000_000), 0
	churn := func(batches int) {
		t.Helper()
		for range batches {
			batch := make([]Tuple, 50)
			for j := range batch {
				x := 1e6 + rng.Float64()*1000
				batch[j] = Tuple{ID: nextID, Key: Point{x, x + 600, math.Mod(x, 86400)}, Vals: []float64{rng.Float64() * 500, rng.Float64() * 200, 1}}
				nextID++
			}
			if err := eng.InsertBatch(batch); err != nil {
				t.Fatal(err)
			}
			ids := make([]int64, len(batch))
			for j := range ids {
				ids[j] = tuples[oldest].ID
				oldest++
			}
			if _, err := eng.DeleteBatch(ids); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, tm := range rebuildTemplates {
		if err := eng.AddTemplate(tm); err != nil {
			t.Fatal(err)
		}
	}
	record("add")
	for _, tm := range rebuildTemplates {
		if _, err := eng.Reinitialize(tm.Name); err != nil {
			t.Fatal(err)
		}
	}
	record("reinitialize")
	before := eng.Stats()
	churn(40)
	after := eng.Stats()
	if after.Reinits == before.Reinits || after.TriggersRejected == before.TriggersRejected {
		t.Fatalf("churn must adopt and reject a candidate: reinits %d→%d, rejected %d→%d",
			before.Reinits, after.Reinits, before.TriggersRejected, after.TriggersRejected)
	}
	record("churn")
	eng.upd.Lock()
	eng.cfg.PartialRepartition = true
	eng.upd.Unlock()
	churn(40)
	if eng.Stats().PartialRepartitions == 0 {
		t.Fatal("churn with PartialRepartition must rebuild a subtree")
	}
	record("churn-partial")

	path := filepath.Join("testdata", "rebuild.golden")
	if *updateRebuild {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("rebuild history diverged from %s:\n--- got\n%s--- want\n%s", path, got.Bytes(), want)
	}
}
