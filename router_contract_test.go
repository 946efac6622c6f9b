package janus_test

import (
	"testing"

	janus "janusaqp"
	"janusaqp/internal/routertest"
	"janusaqp/internal/workload"
)

// TestRouterContractShardGroup runs the shared scatter-gather contract
// over an in-process ShardGroup; internal/cluster runs the same table over
// a Coordinator.
func TestRouterContractShardGroup(t *testing.T) {
	routertest.Run(t, func(t *testing.T, engines []*janus.Engine) routertest.Subject {
		g, err := janus.NewShardGroup(engines)
		if err != nil {
			t.Fatal(err)
		}
		return g
	})
}

// TestRequestValidationEngine runs the shared validation table through
// Engine.Do — the library entry point every other surface ends in. (The
// router contract above runs the same table through ShardGroup.Do.)
func TestRequestValidationEngine(t *testing.T) {
	boot, err := workload.Generate(workload.NYCTaxi, 4000, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	b := janus.NewBroker()
	b.PublishInsertBatch(boot)
	eng := janus.NewEngine(janus.Config{LeafNodes: 16, SampleRate: 0.05, CatchUpRate: 1.0, Seed: 9}, b)
	if err := eng.AddTemplate(janus.Template{Name: "trips", PredicateDims: []int{0}, AggIndex: 0, Agg: janus.Sum}); err != nil {
		t.Fatal(err)
	}
	routertest.RunValidation(t, routertest.QuerySurface{Template: "trips", Do: eng.Do})
}
