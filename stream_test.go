package janus

import (
	"context"
	"testing"

	"janusaqp/internal/stats"
	"janusaqp/internal/workload"
)

func TestSyncFollowsExternalStream(t *testing.T) {
	b, tuples := seedBroker(t, workload.NYCTaxi, 10000)
	eng := NewEngine(Config{LeafNodes: 16, SampleRate: 0.05, CatchUpRate: 1.0, Seed: 61}, b)
	if err := eng.AddTemplate(taxiTemplate()); err != nil {
		t.Fatal(err)
	}
	// An external producer publishes to its own broker.
	producer := NewBroker()
	fresh, _ := workload.Generate(workload.NYCTaxi, 4000, 1_000_000, 62)
	for _, tp := range fresh[:2000] {
		producer.PublishInsert(tp)
	}
	var st SyncState
	if n := eng.Sync(context.Background(), producer, &st); n != 2000 {
		t.Fatalf("Sync applied %d, want 2000", n)
	}
	// More arrivals plus deletions of earlier tuples.
	for _, tp := range fresh[2000:] {
		producer.PublishInsert(tp)
	}
	for _, tp := range fresh[:500] {
		producer.PublishDelete(tp.ID)
	}
	if n := eng.Sync(context.Background(), producer, &st); n != 2500 {
		t.Fatalf("second Sync applied %d, want 2500", n)
	}
	// Idempotent when drained.
	if n := eng.Sync(context.Background(), producer, &st); n != 0 {
		t.Fatalf("drained Sync applied %d, want 0", n)
	}
	res, err := query(eng, "trips", Query{Func: FuncCount, AggIndex: -1, Rect: Universe(1)})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(10000 + 4000 - 500)
	if re := stats.RelativeError(res.Estimate, want); re > 0.02 {
		t.Errorf("COUNT after sync = %g, want ~%g", res.Estimate, want)
	}
	_ = tuples
}
