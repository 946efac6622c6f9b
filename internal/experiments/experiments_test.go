package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func quick() Options { return Options{Quick: true, Seed: 1} }

// cell parses a table cell like "1.23%" or "0.456s" or "1234" to a float.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	s = strings.TrimSuffix(s, "ms")
	s = strings.TrimSuffix(s, "s")
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("unparseable cell %q: %v", s, err)
	}
	return v
}

func render(t *testing.T, tbl *Table) string {
	t.Helper()
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	return buf.String()
}

func TestTable2Shape(t *testing.T) {
	tbl, err := RunTable2(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + render(t, tbl))
	if len(tbl.Rows) != 9 { // 3 datasets x 3 progress points
		t.Fatalf("rows = %d, want 9", len(tbl.Rows))
	}
	janusWins := 0
	for _, r := range tbl.Rows {
		janusErr := cell(t, r[2])
		rsErr := cell(t, r[4])
		srsErr := cell(t, r[5])
		if janusErr < rsErr && janusErr < srsErr {
			janusWins++
		}
	}
	// The paper's headline: JanusAQP has the best accuracy. Allow a couple
	// of upsets at quick-mode sample sizes.
	if janusWins < 6 {
		t.Errorf("JanusAQP beat RS+SRS in only %d/9 cells", janusWins)
	}
	// RS latency grows with progress within a dataset; Janus stays low.
	for ds := 0; ds < 3; ds++ {
		early := cell(t, tbl.Rows[ds*3][8])  // RS ms at 20%
		late := cell(t, tbl.Rows[ds*3+2][8]) // RS ms at 90%
		if late < early {
			t.Logf("dataset %d: RS latency did not grow (%.3f -> %.3f) — acceptable at quick scale", ds, early, late)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	tbl, err := RunFigure5(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + render(t, tbl))
	if len(tbl.Rows) < 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		ins := cell(t, r[1])
		if ins < 1000 {
			t.Errorf("insert throughput %.0f req/s implausibly low", ins)
		}
	}
	// Throughput roughly flat across ratios: max/min within 5x.
	insFirst, insLast := cell(t, tbl.Rows[0][1]), cell(t, tbl.Rows[len(tbl.Rows)-1][1])
	if insFirst/insLast > 5 || insLast/insFirst > 5 {
		t.Errorf("throughput not flat: %.0f vs %.0f", insFirst, insLast)
	}
}

func TestFigure6Shape(t *testing.T) {
	tbl, err := RunFigure6(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + render(t, tbl))
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 datasets", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		lo := cell(t, r[1])
		hi := cell(t, r[5])
		// Error stays roughly stable: no order-of-magnitude blowup from
		// spread-out deletions.
		if hi > 10*lo+5 {
			t.Errorf("%s: error exploded under deletions: %.2f%% -> %.2f%%", r[0], lo, hi)
		}
	}
}

func TestFigure7Shape(t *testing.T) {
	tbl, err := RunFigure7(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + render(t, tbl))
	for _, r := range tbl.Rows {
		if goal, reached := cell(t, r[0]), cell(t, r[4]); reached < goal {
			t.Errorf("catch-up goal %s: the synopsis reached only %s", r[0], r[4])
		}
	}
	first := cell(t, tbl.Rows[0][1])
	last := cell(t, tbl.Rows[len(tbl.Rows)-1][1])
	if last > first*1.2 {
		t.Errorf("catch-up made P95 error worse: %.2f%% -> %.2f%%", first, last)
	}
}

func TestFigure8Shape(t *testing.T) {
	tbl, err := RunFigure8(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + render(t, tbl))
	for _, r := range tbl.Rows {
		pickPick := cell(t, r[1])
		dropPick := cell(t, r[2])
		dropDrop := cell(t, r[3])
		if dropPick < pickPick/2 {
			t.Errorf("progress %s: wrong-attribute queries (%.2f%%) should not beat native ones (%.2f%%)", r[0], dropPick, pickPick)
		}
		if dropDrop > dropPick*3+2 {
			t.Errorf("progress %s: re-partitioned synopsis (%.2f%%) should recover most accuracy vs fallback (%.2f%%)", r[0], dropDrop, dropPick)
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	tbl, err := RunFigure9(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + render(t, tbl))
	wins := 0
	for _, r := range tbl.Rows {
		if cell(t, r[1]) <= cell(t, r[2]) {
			wins++
		}
	}
	if wins == 0 {
		t.Error("Janus never beat the learned model on 5-D error")
	}
}

func TestFigure10Shape(t *testing.T) {
	tbl, err := RunFigure10(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + render(t, tbl))
	last := tbl.Rows[len(tbl.Rows)-1]
	dptSkew, janusSkew := cell(t, last[1]), cell(t, last[2])
	if janusSkew > dptSkew {
		t.Errorf("under skewed inserts Janus (%.2f%%) should beat static DPT (%.2f%%) by the end", janusSkew, dptSkew)
	}
}

func TestTable3Shape(t *testing.T) {
	tbl, err := RunTable3(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + render(t, tbl))
	first, last := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	dpGrowth := cell(t, last[1]) / (cell(t, first[1]) + 1e-9)
	bsGrowth := cell(t, last[2]) / (cell(t, first[2]) + 1e-9)
	if dpGrowth < bsGrowth {
		t.Errorf("DP time should grow faster with k than BS (DP x%.1f vs BS x%.1f)", dpGrowth, bsGrowth)
	}
	for _, r := range tbl.Rows {
		if cell(t, r[2]) > cell(t, r[1])*2+0.001 {
			t.Errorf("k=%s: BS (%ss) should not be slower than DP (%ss)", r[0], r[2], r[1])
		}
	}
}

func TestAblationBeta(t *testing.T) {
	tbl, err := RunAblationBeta(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + render(t, tbl))
	eager := cell(t, tbl.Rows[0][1])              // reinits at beta=2
	lazy := cell(t, tbl.Rows[len(tbl.Rows)-1][1]) // reinits at beta=100
	if eager < lazy {
		t.Errorf("smaller beta should re-partition at least as often: %g vs %g", eager, lazy)
	}
}

func TestAblationCatchupSeed(t *testing.T) {
	tbl, err := RunAblationCatchupSeed(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + render(t, tbl))
	at0 := cell(t, tbl.Rows[0][1])
	at10 := cell(t, tbl.Rows[0][2])
	if reached := cell(t, tbl.Rows[0][3]); reached < 10 {
		t.Errorf("the 10%% catch-up synopsis reached only %.2f%%", reached)
	}
	if at10 > at0*1.2 {
		t.Errorf("catch-up should not hurt: %.2f%% -> %.2f%%", at0, at10)
	}
	if at0 > 100 {
		t.Errorf("seeded synopsis unusable at t=0: %.2f%%", at0)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "x", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tbl.AddRow("1", "2")
	out := render(t, tbl)
	if !strings.Contains(out, "== x ==") || !strings.Contains(out, "note: n") {
		t.Errorf("rendering missing pieces:\n%s", out)
	}
}

func TestAblationPartialRepartition(t *testing.T) {
	tbl, err := RunAblationPartialRepartition(quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + render(t, tbl))
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 strategies", len(tbl.Rows))
	}
	for _, r := range tbl.Rows[1:] {
		if cell(t, r[2]) == 0 {
			t.Errorf("strategy %s performed no partial rebuilds", r[0])
		}
	}
}
