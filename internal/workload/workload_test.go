package workload

import (
	"math"
	"testing"

	"janusaqp/internal/core"
	"janusaqp/internal/geom"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, name := range []string{IntelWireless, NYCTaxi, ETFPrices} {
		a, err := Generate(name, 500, 0, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(name, 500, 0, 42)
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Key[0] != b[i].Key[0] || a[i].Vals[0] != b[i].Vals[0] {
				t.Fatalf("%s: generation not deterministic at row %d", name, i)
			}
		}
		c, _ := Generate(name, 500, 0, 43)
		same := true
		for i := range a {
			if a[i].Vals[0] != c[i].Vals[0] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: different seeds produced identical data", name)
		}
	}
	if _, err := Generate("nope", 10, 0, 1); err == nil {
		t.Error("unknown dataset must error")
	}
}

func TestGenerateIDsAndShapes(t *testing.T) {
	cases := []struct {
		name       string
		keys, vals int
	}{
		{IntelWireless, 1, 4},
		{NYCTaxi, 3, 3},
		{ETFPrices, 6, 2},
	}
	for _, c := range cases {
		tuples, err := Generate(c.name, 1000, 5000, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, tp := range tuples {
			if tp.ID != 5000+int64(i) {
				t.Fatalf("%s: ID %d at row %d, want %d", c.name, tp.ID, i, 5000+i)
			}
			if len(tp.Key) != c.keys || len(tp.Vals) != c.vals {
				t.Fatalf("%s: shape %d/%d, want %d/%d", c.name, len(tp.Key), len(tp.Vals), c.keys, c.vals)
			}
			for _, v := range append(append([]float64{}, tp.Key...), tp.Vals...) {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: non-finite attribute in row %d", c.name, i)
				}
			}
		}
	}
}

func TestIntelDiurnalShape(t *testing.T) {
	tuples, _ := Generate(IntelWireless, 5760, 0, 7) // two days at 30s cadence
	var nightSum, daySum float64
	var nightN, dayN int
	for _, tp := range tuples {
		phase := math.Mod(tp.Key[0], 86400) / 86400
		if phase > 0.3 && phase < 0.7 {
			daySum += tp.Vals[0]
			dayN++
		} else if phase < 0.2 || phase > 0.8 {
			nightSum += tp.Vals[0]
			nightN++
		}
	}
	if daySum/float64(dayN) < 20*(nightSum/float64(nightN)+1) {
		t.Errorf("daytime light (%.1f) should dwarf nighttime (%.1f)", daySum/float64(dayN), nightSum/float64(nightN))
	}
}

func TestTaxiArrivalOrderAndHeavyTail(t *testing.T) {
	tuples, _ := Generate(NYCTaxi, 20000, 0, 9)
	prev := -1.0
	var over10 int
	for _, tp := range tuples {
		if tp.Key[0] < prev {
			t.Fatal("pickup times must be nondecreasing")
		}
		prev = tp.Key[0]
		if tp.Key[1] <= tp.Key[0] {
			t.Fatal("dropoff must follow pickup")
		}
		if tp.Vals[0] > 10 {
			over10++
		}
	}
	frac := float64(over10) / float64(len(tuples))
	if frac < 0.01 || frac > 0.3 {
		t.Errorf("trips over 10 miles: %.1f%%, want a heavy but minor tail", frac*100)
	}
}

func TestETFVolumeSpansOrders(t *testing.T) {
	tuples, _ := Generate(ETFPrices, 20000, 0, 11)
	min, max := math.Inf(1), math.Inf(-1)
	for _, tp := range tuples {
		v := tp.Vals[0]
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		// OHLC sanity: high >= open, close; low <= open, close.
		if tp.Key[2] < tp.Key[1] || tp.Key[2] < tp.Key[4] || tp.Key[3] > tp.Key[1] || tp.Key[3] > tp.Key[4] {
			t.Fatal("OHLC invariants violated")
		}
	}
	if max/min < 100 {
		t.Errorf("volume range %.1fx too narrow for a lognormal market", max/min)
	}
}

func TestQueryGenProducesInRangeQueries(t *testing.T) {
	tuples, _ := Generate(NYCTaxi, 5000, 0, 13)
	g := NewQueryGen(1, tuples, []int{0})
	ext := g.extent
	for i := 0; i < 200; i++ {
		q := g.Next(core.FuncSum)
		if q.Rect.Dims() != 1 {
			t.Fatal("projected query must be 1-d")
		}
		w := q.Rect.Extent(0)
		if w <= 0 || w > ext.Extent(0)*0.3 {
			t.Errorf("query width %g outside expected fraction bounds", w)
		}
	}
	// Full-key generator.
	g5 := NewQueryGen(2, tuples, nil)
	if g5.Next(core.FuncCount).Rect.Dims() != 3 {
		t.Error("nil dims should use all key attributes")
	}
}

func TestTruthMatchesBruteForce(t *testing.T) {
	tuples, _ := Generate(IntelWireless, 3000, 0, 15)
	tr := NewTruth(1, nil, 0)
	for _, tp := range tuples {
		tr.Insert(tp)
	}
	// Delete a slice of them.
	for _, tp := range tuples[1000:1500] {
		tr.Delete(tp.ID)
	}
	live := map[int64]bool{}
	for _, tp := range tuples {
		live[tp.ID] = true
	}
	for _, tp := range tuples[1000:1500] {
		live[tp.ID] = false
	}
	// Delete-then-reinsert: a returning id counts once, at its new row.
	for _, tp := range tuples[1000:1100] {
		tr.Insert(tp)
		live[tp.ID] = true
	}
	rect := geom.NewRect(geom.Point{10000}, geom.Point{50000})
	for _, f := range []core.Func{core.FuncSum, core.FuncCount, core.FuncAvg, core.FuncMin, core.FuncMax} {
		got := tr.Answer(core.Query{Func: f, Rect: rect})
		var sum, cnt float64
		min, max := math.Inf(1), math.Inf(-1)
		for _, tp := range tuples {
			if live[tp.ID] && rect.Contains(tp.Key) {
				sum += tp.Vals[0]
				cnt++
				if tp.Vals[0] < min {
					min = tp.Vals[0]
				}
				if tp.Vals[0] > max {
					max = tp.Vals[0]
				}
			}
		}
		var want float64
		switch f {
		case core.FuncSum:
			want = sum
		case core.FuncCount:
			want = cnt
		case core.FuncAvg:
			want = sum / cnt
		case core.FuncMin:
			want = min
		case core.FuncMax:
			want = max
		}
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Errorf("%v: truth %g, brute force %g", f, got, want)
		}
	}
	if tr.Len() != 2600 {
		t.Errorf("Len = %d, want 2600", tr.Len())
	}
}

func TestTruthProjection(t *testing.T) {
	tuples, _ := Generate(ETFPrices, 2000, 0, 17)
	// Project onto the volume attribute (index 5) aggregating close (val 1).
	tr := NewTruth(6, []int{5}, 1)
	for _, tp := range tuples {
		tr.Insert(tp)
	}
	q := core.Query{Func: core.FuncCount, Rect: geom.Universe(1)}
	if got := tr.Answer(q); got != 2000 {
		t.Errorf("projected COUNT = %g, want 2000", got)
	}
}
