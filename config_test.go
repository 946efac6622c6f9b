package janus

import (
	"math/rand"
	"testing"
	"time"

	"janusaqp/internal/workload"
)

// knobObservation is what TestConfigKnobCensus reads off an engine through
// the public API after a fixed skewed insert stream.
type knobObservation struct {
	leaves, sampleSize, numVals                      int
	catchUp                                          float64
	triggerEvals, fired, rejected, reinits, partials int
	sum                                              float64 // universe SUM estimate
}

// observeKnobs builds a taxi engine under cfg, streams skewed inserts (the
// Figure 10 scenario, which fires triggers), and observes it.
func observeKnobs(t *testing.T, cfg Config) knobObservation {
	t.Helper()
	b, _ := seedBroker(t, workload.NYCTaxi, 8000)
	eng := NewEngine(cfg, b)
	var o knobObservation
	eng.SetSpanObserver(func(span string, _ int, _ time.Duration) {
		if span == SpanTriggerEval {
			o.triggerEvals++
		}
	})
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	ts, err := eng.StatsFor("trips")
	if err != nil {
		t.Fatal(err)
	}
	o.leaves, o.sampleSize, o.numVals, o.catchUp = ts.Leaves, ts.SampleSize, ts.NumVals, ts.CatchUpProgress
	rng := rand.New(rand.NewSource(82))
	id := int64(7_000_000)
	for batch := 0; batch < 256; batch++ {
		ins := make([]Tuple, 16)
		for i := range ins {
			ins[i] = Tuple{ID: id, Key: Point{2e6 + rng.Float64()*500, 2e6 + 1000, 40000}, Vals: []float64{rng.Float64() * 1000, 1, 1}}
			id++
		}
		if err := eng.InsertBatch(ins); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	o.fired, o.rejected, o.reinits, o.partials = st.TriggersFired, st.TriggersRejected, st.Reinits, st.PartialRepartitions
	res, err := query(eng, "trips", Query{Func: FuncSum, AggIndex: 0, Rect: Universe(1)})
	if err != nil {
		t.Fatal(err)
	}
	o.sum = res.Estimate
	return o
}

// TestConfigKnobCensus gives every Config field one row: an engine built
// with the row's non-default value must differ from the same engine built
// without it, in an observable the field exists to move. A field that
// withDefaults overwrites or the engine never reads fails its row.
func TestConfigKnobCensus(t *testing.T) {
	triggers := Config{AutoRepartition: true, TriggerCooldown: 64, Beta: 2}
	partial := triggers
	partial.PartialRepartition = true
	rows := []struct {
		field string
		base  Config
		set   func(*Config)
		moved func(base, got knobObservation) bool
	}{
		{"LeafNodes", Config{}, func(c *Config) { c.LeafNodes = 16 },
			func(b, g knobObservation) bool { return g.leaves < b.leaves }},
		{"SampleRate", Config{}, func(c *Config) { c.SampleRate = 0.1 },
			func(b, g knobObservation) bool { return g.sampleSize > b.sampleSize }},
		{"MinSamples", Config{}, func(c *Config) { c.MinSamples = 1000 },
			func(b, g knobObservation) bool { return g.sampleSize > b.sampleSize }},
		{"CatchUpRate", Config{}, func(c *Config) { c.CatchUpRate = 0.5 },
			func(b, g knobObservation) bool { return g.catchUp > b.catchUp }},
		{"Beta", triggers, func(c *Config) { c.Beta = 1000 },
			func(b, g knobObservation) bool { return g.rejected > b.rejected }},
		{"NumVals", Config{}, func(c *Config) { c.NumVals = 1 },
			func(b, g knobObservation) bool { return g.numVals == 1 && b.numVals != 1 }},
		{"AutoRepartition", Config{}, func(c *Config) { c.AutoRepartition = true },
			func(b, g knobObservation) bool { return g.triggerEvals > 0 && b.triggerEvals == 0 }},
		{"TriggerCooldown", Config{AutoRepartition: true}, func(c *Config) { c.TriggerCooldown = 64 },
			func(b, g knobObservation) bool { return g.triggerEvals > b.triggerEvals }},
		{"PartialRepartition", triggers, func(c *Config) { c.PartialRepartition = true },
			func(b, g knobObservation) bool { return g.partials > 0 && b.partials == 0 }},
		{"Psi", partial, func(c *Config) { c.Psi = 1 },
			func(b, g knobObservation) bool { return g.partials > 0 && b.partials > 0 && g.partials != b.partials }},
		{"Seed", Config{}, func(c *Config) { c.Seed = 99 },
			func(b, g knobObservation) bool { return g.sum != b.sum }},
	}
	for _, row := range rows {
		t.Run(row.field, func(t *testing.T) {
			cfg := row.base
			row.set(&cfg)
			base, got := observeKnobs(t, row.base), observeKnobs(t, cfg)
			if !row.moved(base, got) {
				t.Errorf("setting %s did not move its observable:\nwithout %+v\nwith    %+v", row.field, base, got)
			}
		})
	}
}
