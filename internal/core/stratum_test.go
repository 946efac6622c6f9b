package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"janusaqp/internal/data"
	"janusaqp/internal/geom"
	"janusaqp/internal/maxvar"
)

// checkFlatStrata asserts that every stratum's flat store mirrors the
// reservoir: each id is sampled, indexed by pos, and carries its reservoir
// tuple's key projected onto the predicate dims and its NumVals values
// (Tuple.Val, so 0 past the tuple's own), and every key lies within its
// stratum's [lo, hi] bounds.
func checkFlatStrata(t *testing.T, dpt *DPT, when string) {
	t.Helper()
	d, nv := dpt.cfg.Dims, dpt.cfg.NumVals
	for li, l := range dpt.leaves {
		s := l.stratum
		if len(s.keys) != len(s.ids)*d || len(s.vals) != len(s.ids)*nv || len(s.pos) != len(s.ids) {
			t.Fatalf("%s: leaf %d holds %d ids, %d keys, %d vals, %d positions", when, li, len(s.ids), len(s.keys), len(s.vals), len(s.pos))
		}
		checkBounds(t, s, fmt.Sprintf("%s: leaf %d", when, li))
		for i, id := range s.ids {
			tp, ok := dpt.res.Get(id)
			if !ok {
				t.Fatalf("%s: leaf %d sample %d is not in the reservoir", when, li, id)
			}
			if s.pos[id] != i {
				t.Fatalf("%s: leaf %d sample %d at %d, pos says %d", when, li, id, i, s.pos[id])
			}
			if key := dpt.project(tp)[:d]; !sameBits(s.keys[i*d:(i+1)*d], key) {
				t.Fatalf("%s: leaf %d sample %d key %v, projected reservoir key %v", when, li, id, s.keys[i*d:(i+1)*d], key)
			}
			for a := range nv {
				if math.Float64bits(s.vals[i*nv+a]) != math.Float64bits(tp.Val(a)) {
					t.Fatalf("%s: leaf %d sample %d value %d is %g, reservoir %g", when, li, id, a, s.vals[i*nv+a], tp.Val(a))
				}
			}
		}
	}
}

// tupleStratum is the stratum as it was when it held whole tuples: the
// reference for the order the flat store's swap-delete must keep.
type tupleStratum struct {
	items []data.Tuple
	pos   map[int64]int
}

func (s *tupleStratum) add(t data.Tuple) {
	if i, ok := s.pos[t.ID]; ok {
		s.items[i] = t
		return
	}
	s.pos[t.ID] = len(s.items)
	s.items = append(s.items, t)
}

func (s *tupleStratum) remove(id int64) bool {
	i, ok := s.pos[id]
	if !ok {
		return false
	}
	last := len(s.items) - 1
	delete(s.pos, id)
	if i != last {
		s.items[i] = s.items[last]
		s.pos[s.items[i].ID] = i
	}
	s.items = s.items[:last]
	return true
}

// TestStratumMatchesTupleModel drives the flat store and the tuple model
// through one random history of adds (fresh ids and in-place overwrites)
// and removes (held and absent ids) on a projecting synopsis, with tuples
// shorter than NumVals, and requires the same order and contents after
// every step.
func TestStratumMatchesTupleModel(t *testing.T) {
	dpt := &DPT{cfg: Config{PredicateDims: []int{2, 0}, Dims: 2, NumVals: 3}}
	flat, model := newStratum(dpt.cfg), &tupleStratum{pos: make(map[int64]int)}
	rng := rand.New(rand.NewSource(31))
	for step := 0; step < 4000; step++ {
		id := int64(rng.Intn(200))
		if rng.Intn(3) == 0 {
			if got, want := flat.remove(id), model.remove(id); got != want {
				t.Fatalf("step %d: remove(%d) = %v, model %v", step, id, got, want)
			}
		} else {
			tp := data.Tuple{ID: id, Key: geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}, Vals: make([]float64, rng.Intn(4))}
			for a := range tp.Vals {
				tp.Vals[a] = rng.NormFloat64()
			}
			flat.add(tp, dpt.project(tp))
			model.add(tp)
		}
		if flat.len() != len(model.items) {
			t.Fatalf("step %d: %d samples, model %d", step, flat.len(), len(model.items))
		}
		for i, tp := range model.items {
			key, vals := flat.keys[i*2:i*2+2], flat.vals[i*3:i*3+3]
			if flat.ids[i] != tp.ID || flat.pos[tp.ID] != i || !sameBits(key, tp.Project([]int{2, 0})) ||
				!sameBits(vals, []float64{tp.Val(0), tp.Val(1), tp.Val(2)}) {
				t.Fatalf("step %d: slot %d holds id %d key %v vals %v, model %+v", step, i, flat.ids[i], key, vals, tp)
			}
		}
	}
}

// TestAnswerPartialAllocs pins the tree-path estimator's allocations per
// call at the count measured before strata were flat: 6 for every Func,
// all of them the frontier walk's node lists growing. The stratum scans
// allocate nothing, whatever the number of samples they read.
func TestAnswerPartialAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tuples := makeTuples(rng, 20000, 0)
	cfg := Config{PredicateDims: []int{0}, Dims: 1, NumVals: 2, Agg: maxvar.Sum, K: 64, SampleLowerBound: 2000, Seed: 3}
	dpt, _ := buildDPT(t, tuples, cfg)
	dpt.CatchUpTarget(0.1)
	rect := geom.NewRect(geom.Point{137}, geom.Point{611})
	for _, f := range []Func{FuncSum, FuncCount, FuncAvg, FuncMin, FuncMax, FuncVariance, FuncStdDev} {
		q := Query{Func: f, AggIndex: -1, Rect: rect}
		p, err := dpt.AnswerPartial(q)
		if err != nil {
			t.Fatal(err)
		}
		if p.PartialLeaves == 0 {
			t.Fatal("test setup: the rect touches no partial leaf")
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := dpt.AnswerPartial(q); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 6 {
			t.Errorf("%v: AnswerPartial allocates %.0f/op, want <= 6", f, allocs)
		}
	}
}
