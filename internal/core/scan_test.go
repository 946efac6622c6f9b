package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"janusaqp/internal/data"
	"janusaqp/internal/geom"
	"janusaqp/internal/stats"
)

// refScan is the stratum scan before key bounds and narrowing: one pass
// over every sample, rejecting it on the first dimension rect excludes. It
// is the reference stratum.scan must match bit for bit.
func refScan(s *stratum, rect geom.Rect, aggIdx int, ext *stats.ExtremeMerge) (matching stats.Moments) {
	d, nv := s.d, s.nv
	lo, hi := rect.Min[:d], rect.Max[:d]
samples:
	for i := range s.ids {
		for j, v := range s.keys[i*d : i*d+d] {
			if v < lo[j] || v > hi[j] {
				continue samples
			}
		}
		fold(&matching, ext, s.vals[i*nv+aggIdx])
	}
	return matching
}

// checkScan requires s.scan and refScan to agree bit for bit on rect, for
// every aggIdx, without an extreme accumulator and with one of each kind.
func checkScan(t testing.TB, s *stratum, rect geom.Rect, what string) {
	t.Helper()
	same := func(a, b stats.Moments) bool {
		return a.N == b.N && sameBits([]float64{a.Sum, a.SumSq}, []float64{b.Sum, b.SumSq})
	}
	for a := range s.nv {
		if got, want := s.scan(rect, a, nil), refScan(s, rect, a, nil); !same(got, want) {
			t.Fatalf("%s: agg %d rect %v: scan %+v, reference %+v", what, a, rect, got, want)
		}
		for _, keepMax := range []bool{false, true} {
			gotExt, wantExt := stats.NewExtremeMerge(keepMax), stats.NewExtremeMerge(keepMax)
			got, want := s.scan(rect, a, gotExt), refScan(s, rect, a, wantExt)
			gv, gs := gotExt.Extreme()
			wv, ws := wantExt.Extreme()
			if !same(got, want) || gs != ws || math.Float64bits(gv) != math.Float64bits(wv) {
				t.Fatalf("%s: agg %d keepMax %v rect %v: scan %+v extreme (%v, %v), reference %+v extreme (%v, %v)",
					what, a, keepMax, rect, got, gv, gs, want, wv, ws)
			}
		}
	}
}

// checkBounds requires every key of s to lie within its stratum's [lo, hi].
func checkBounds(t testing.TB, s *stratum, what string) {
	t.Helper()
	if len(s.lo) != s.d || len(s.hi) != s.d {
		t.Fatalf("%s: %d-D stratum holds %d lo and %d hi bounds", what, s.d, len(s.lo), len(s.hi))
	}
	for i := range s.ids {
		for j, v := range s.keys[i*s.d : (i+1)*s.d] {
			if v < s.lo[j] || v > s.hi[j] {
				t.Fatalf("%s: sample %d key[%d] = %g outside the stratum's bounds [%g, %g]", what, s.ids[i], j, v, s.lo[j], s.hi[j])
			}
		}
	}
}

// scanQueries returns the rectangles checked against a d-dimensional
// stratum: ones that miss its bounds in one dimension, span them (with
// ±Inf and finite edges), cut 1..d dimensions at the tie values or at
// random, and inverted and fully random ones.
func scanQueries(rng *rand.Rand, s *stratum, ties [][2]float64) []geom.Rect {
	d := s.d
	span := func() geom.Rect {
		r := geom.NewRect(make(geom.Point, d), make(geom.Point, d))
		for j := range d {
			r.Min[j], r.Max[j] = math.Inf(-1), math.Inf(1)
			if rng.Intn(2) == 0 && s.len() > 0 {
				r.Min[j], r.Max[j] = s.lo[j]-rng.Float64(), s.hi[j]+rng.Float64()
			}
		}
		return r
	}
	edge := func(j int) float64 {
		switch rng.Intn(5) {
		case 0:
			return rng.Float64() * 100
		case 1:
			return math.Inf(-1 + 2*rng.Intn(2))
		default:
			return ties[j][rng.Intn(2)]
		}
	}
	var out []geom.Rect
	out = append(out, span(), span())
	for j := range d {
		miss := span()
		if s.len() > 0 && !math.IsNaN(s.hi[j]) && !math.IsInf(s.hi[j], 0) {
			miss.Min[j], miss.Max[j] = s.hi[j]+1, s.hi[j]+2
		} else {
			miss.Min[j], miss.Max[j] = 101, 102
		}
		out = append(out, miss)
	}
	for cuts := 1; cuts <= d; cuts++ {
		for range 3 {
			r := span()
			for _, j := range rng.Perm(d)[:cuts] {
				r.Min[j], r.Max[j] = edge(j), edge(j)
				if r.Min[j] > r.Max[j] {
					r.Min[j], r.Max[j] = r.Max[j], r.Min[j]
				}
			}
			out = append(out, r)
		}
	}
	inverted, random := span(), span()
	for j := range d {
		inverted.Min[j], inverted.Max[j] = ties[j][1], ties[j][0]
		random.Min[j], random.Max[j] = edge(j), edge(j)
	}
	return append(out, inverted, random)
}

// TestStratumScanMatchesReference drives the bounded, narrowing scan and
// the reference through the same strata — d ∈ {1, 2, 3, 5}, sizes around
// the 256-sample block, a third of key coordinates tied to a query bound,
// some strata with ±Inf and NaN keys — and requires identical Moments and
// extremes for every query, before and after removes leave the bounds
// stale, and after re-adds and overwrites widen them again.
func TestStratumScanMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, d := range []int{1, 2, 3, 5} {
			for _, size := range []int{0, 1, 255, 256, 257, 1000} {
				rng := rand.New(rand.NewSource(seed*1000 + int64(d*10+size)))
				wild := seed == 4 // a few ±Inf and NaN key coordinates
				ties := make([][2]float64, d)
				for j := range ties {
					ties[j] = [2]float64{20 + rng.Float64()*20, 60 + rng.Float64()*20}
				}
				s := newStratum(Config{Dims: d, NumVals: 2})
				key := make(geom.Point, d)
				addSample := func(id int64) {
					for j := range key {
						switch {
						case wild && rng.Intn(100) == 0:
							key[j] = []float64{math.Inf(-1), math.Inf(1), math.NaN()}[rng.Intn(3)]
						case rng.Intn(3) == 0:
							key[j] = ties[j][rng.Intn(2)]
						default:
							key[j] = rng.Float64() * 100
						}
					}
					s.add(data.Tuple{ID: id, Vals: []float64{rng.NormFloat64() * 10, rng.Float64()}}, key)
				}
				for i := range size {
					addSample(int64(i))
				}
				check := func(when string) {
					checkBounds(t, s, when)
					for _, r := range scanQueries(rng, s, ties) {
						checkScan(t, s, r, when)
					}
				}
				what := func(phase string) string {
					return fmt.Sprintf("seed %d, d %d, %d samples %s", seed, d, size, phase)
				}
				check(what("built"))
				// Drop the sample holding each dimension's largest key, then
				// half of the rest, so the bounds go stale.
				for j := range d {
					top := -1
					for i := range s.ids {
						if top < 0 || s.keys[i*d+j] > s.keys[top*d+j] {
							top = i
						}
					}
					if top >= 0 {
						s.remove(s.ids[top])
					}
				}
				for _, id := range rng.Perm(size)[:size/2] {
					s.remove(int64(id))
				}
				check(what("after removes"))
				// Re-adds overwrite held ids, restore removed ones and add new.
				for range size / 4 {
					addSample(int64(rng.Intn(size + size/4)))
				}
				check(what("after re-adds"))
			}
		}
	}
}

// FuzzStratumScan runs a random add/remove history over one stratum and
// checks every query along the way against the reference scan. raw[0]
// picks d (1..5), raw[1] seeds a pre-fill of up to 1020 samples; then
// records of 2+2d bytes are an add (id, key), a remove (id) or a query
// (2d bound bytes). Bound and key bytes map to small integers, so ties are
// common, and the top bytes to -Inf, +Inf and NaN.
func FuzzStratumScan(f *testing.F) {
	f.Add([]byte{2, 0})
	f.Add([]byte{3, 80, 2, 0, 1, 5, 9, 2, 7, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 {
			return
		}
		d := 1 + int(raw[0]%5)
		val := func(b byte) float64 {
			switch b {
			case 255:
				return math.NaN()
			case 254:
				return math.Inf(1)
			case 253:
				return math.Inf(-1)
			}
			return float64(b % 32)
		}
		s := newStratum(Config{Dims: d, NumVals: 1})
		key := make(geom.Point, d)
		rng := rand.New(rand.NewSource(int64(raw[1])))
		for i := range 4 * int(raw[1]) {
			for j := range key {
				key[j] = float64(rng.Intn(32))
			}
			s.add(data.Tuple{ID: int64(1000 + i), Vals: []float64{rng.NormFloat64()}}, key)
		}
		rec := 2 + 2*d
		for i := 2; i+rec <= len(raw) && i < 2+200*rec; i += rec {
			op, id, b := raw[i]%3, int64(raw[i+1]), raw[i+2:i+rec]
			switch op {
			case 0:
				for j := range key {
					key[j] = val(b[j])
				}
				s.add(data.Tuple{ID: id, Vals: []float64{val(b[d]) - 16}}, key)
			case 1:
				s.remove(id)
				s.remove(1000 + 4*id)
			case 2:
				r := geom.NewRect(make(geom.Point, d), make(geom.Point, d))
				for j := range d {
					r.Min[j], r.Max[j] = val(b[2*j]), val(b[2*j+1])
				}
				checkScan(t, s, r, "fuzz")
			}
			checkBounds(t, s, "fuzz")
		}
		checkScan(t, s, geom.NewRect(make(geom.Point, d), make(geom.Point, d)), "fuzz final")
	})
}
