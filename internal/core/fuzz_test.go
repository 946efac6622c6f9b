package core

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"slices"
	"testing"

	"janusaqp/internal/data"
	"janusaqp/internal/geom"
	"janusaqp/internal/kdindex"
	"janusaqp/internal/maxvar"
	"janusaqp/internal/partition"
)

// fuzzSeedSynopsis encodes a small but fully featured synopsis (catch-up
// partially run, inserts, deletes) to seed the corpus with structurally
// valid bytes the fuzzer can mutate.
func fuzzSeedSynopsis() []byte {
	rng := rand.New(rand.NewSource(5))
	tuples := makeTuples(rng, 600, 0)
	cfg := Config{Dims: 1, NumVals: 2, AggIndex: 0, Agg: maxvar.Sum, K: 4, SampleLowerBound: 32, Seed: 9}
	o := maxvar.New(cfg.Agg, cfg.Dims, cfg.Delta)
	pooled := tuples[:64]
	for _, s := range pooled {
		o.Insert(kdindex.Entry{Point: s.Key, Val: s.Val(cfg.AggIndex), ID: s.ID})
	}
	bp := partition.KD(o, partition.Options{K: cfg.K})
	dpt := New(cfg, bp, pooled, int64(len(tuples)), slices.Clone(tuples), nil)
	dpt.CatchUp(128)
	for _, tp := range makeTuples(rng, 40, 10_000) {
		dpt.Insert(tp)
	}
	dpt.Delete(tuples[0])
	var buf bytes.Buffer
	if err := dpt.Encode(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzDecode asserts the crash-recovery trust boundary: Decode over
// arbitrary bytes — corrupted or truncated checkpoint images included —
// must return an error or a synopsis that answers queries, and must never
// panic. Checked-in corpus lives in testdata/fuzz/FuzzDecode.
func FuzzDecode(f *testing.F) {
	seed := fuzzSeedSynopsis()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:1])
	f.Add([]byte{})
	flipped := append([]byte(nil), seed...)
	for i := 20; i < len(flipped); i += 97 {
		flipped[i] ^= 0x5a
	}
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, raw []byte) {
		dpt, err := Decode(bytes.NewReader(raw), nil)
		if err != nil {
			if dpt != nil {
				t.Fatal("Decode returned both a synopsis and an error")
			}
			return
		}
		// A synopsis that decoded cleanly must serve the read and update
		// paths without panicking — recovery puts it straight into traffic.
		d := dpt.Config().Dims
		for _, fn := range []Func{FuncSum, FuncCount, FuncAvg, FuncMin, FuncMax} {
			_, _ = dpt.Answer(Query{Func: fn, AggIndex: -1, Rect: geom.Universe(d)})
		}
		key := make(geom.Point, maxKeyArity(dpt.Config()))
		dpt.Insert(data.Tuple{ID: 1 << 60, Key: key, Vals: make([]float64, dpt.Config().NumVals)})
	})
}

// TestDecodeRejectsShortValsTuples pins the restore-side mirror of live
// ingest admission: a persisted stratum or reservoir tuple with fewer
// aggregation attributes than the config tracks must fail validation —
// estimators read Val(i) for every tracked column, and a short slice
// silently yields zeros, skewing SUM/AVG with no error.
func TestDecodeRejectsShortValsTuples(t *testing.T) {
	corrupt := func(mutate func(p *persistDPT)) []byte {
		var p persistDPT
		if err := gob.NewDecoder(bytes.NewReader(fuzzSeedSynopsis())).Decode(&p); err != nil {
			t.Fatal(err)
		}
		mutate(&p)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&p); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	shortenReservoir := corrupt(func(p *persistDPT) {
		p.Reservoir[0].Vals = p.Reservoir[0].Vals[:1] // config tracks 2
	})
	if _, err := Decode(bytes.NewReader(shortenReservoir), nil); err == nil {
		t.Fatal("reservoir tuple with short Vals decoded without error")
	}
	shortenStratum := corrupt(func(p *persistDPT) {
		n := p.Root
		for !n.IsLeaf {
			n = n.Left
		}
		if len(n.Stratum) == 0 {
			t.Fatal("test setup: first leaf has an empty stratum")
		}
		n.Stratum[0].Vals = nil
	})
	if _, err := Decode(bytes.NewReader(shortenStratum), nil); err == nil {
		t.Fatal("stratum tuple with short Vals decoded without error")
	}
}

// maxKeyArity returns the tuple key arity the synopsis's projection reads.
func maxKeyArity(cfg Config) int {
	n := cfg.Dims
	for _, d := range cfg.PredicateDims {
		if d+1 > n {
			n = d + 1
		}
	}
	return n
}
