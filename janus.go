// Package janus is the public API of JanusAQP: a dynamic approximate query
// processing (DAQP) system supporting SUM, COUNT, AVG, MIN, and MAX queries
// with rectangular predicates under arbitrary insertions and deletions,
// reproducing "JanusAQP: Efficient Partition Tree Maintenance for Dynamic
// Approximate Query Processing" (ICDE 2023).
//
// The system maintains one Dynamic Partition Tree (DPT) synopsis per query
// template (Section 3.1 of the paper). Each synopsis combines a
// hierarchical aggregation of the data with stratified samples over its
// leaf partitions, answers queries from the synopsis alone, and
// continuously monitors its own error to trigger re-partitioning.
//
// Basic usage (batched typed-error ingest, one context-aware read entry
// point):
//
//	b := janus.NewBroker()
//	// ... publish historical data to b ...
//	eng := janus.NewEngine(janus.Config{}, b)
//	eng.AddTemplate(janus.Template{
//	    Name:          "trips",
//	    PredicateDims: []int{0},
//	    AggIndex:      0,
//	    Agg:           janus.Sum,
//	})
//	err := eng.InsertBatch(tuples)    // streaming updates, atomic per batch
//	resp, _ := eng.Do(ctx, janus.Request{
//	    Template: "trips",
//	    Query: janus.Query{
//	        Func: janus.FuncSum,
//	        Rect: janus.NewRect(janus.Point{lo}, janus.Point{hi}),
//	    },
//	})
//	res := resp.Result
//	fmt.Println(res.Estimate, res.Interval.Lo(), res.Interval.Hi())
//
// The same Request type carries SQL statements (Request.SQL, after
// RegisterSchema), on-keys queries (Request.OnKeys, Section 5.5), and
// per-request options: confidence level, a deadline via ctx, and
// read-your-writes against a followed broker (Request.MinSyncOffset).
package janus

import (
	"janusaqp/internal/broker"
	"janusaqp/internal/core"
	"janusaqp/internal/data"
	"janusaqp/internal/geom"
	"janusaqp/internal/maxvar"
)

// Tuple is one relational row: predicate attributes in Key, aggregation
// attributes in Vals, identified by a unique ID.
type Tuple = data.Tuple

// Point is a location in predicate-attribute space.
type Point = geom.Point

// Rect is a closed rectangular predicate region.
type Rect = geom.Rect

// NewRect builds a rectangle from its corners.
func NewRect(min, max Point) Rect { return geom.NewRect(min, max) }

// Universe returns the unbounded d-dimensional predicate region.
func Universe(d int) Rect { return geom.Universe(d) }

// Query is an aggregate over a rectangular predicate.
type Query = core.Query

// Result is an approximate answer with a confidence interval.
type Result = core.Result

// Func identifies an aggregation function in a query.
type Func = core.Func

// Aggregation functions for queries.
const (
	FuncSum   = core.FuncSum
	FuncCount = core.FuncCount
	FuncAvg   = core.FuncAvg
	FuncMin   = core.FuncMin
	FuncMax   = core.FuncMax
)

// Agg identifies the focus aggregate a synopsis is optimized for.
type Agg = maxvar.Agg

// Focus aggregates for synopsis optimization.
const (
	Count = maxvar.Count
	Sum   = maxvar.Sum
	Avg   = maxvar.Avg
)

// Broker is the Kafka-like streaming substrate: ordered insert/delete
// topics plus archival storage of the current table.
type Broker = broker.Broker

// NewBroker returns an empty broker.
func NewBroker() *Broker { return broker.New() }

// Template declares one query-template synopsis (Section 3.1): which
// attributes filter (PredicateDims indexes into Tuple.Key), which attribute
// aggregates (AggIndex into Tuple.Vals), and the focus aggregate to
// optimize the partitioning for.
type Template struct {
	Name          string
	PredicateDims []int
	AggIndex      int
	Agg           Agg
}

// Config tunes an Engine. Zero values select the paper's defaults.
type Config struct {
	// LeafNodes is the number of leaf partitions k (default 128).
	LeafNodes int
	// SampleRate is the pooled-sample fraction of the data (default 0.01).
	SampleRate float64
	// MinSamples floors the pooled sample size m (default 256).
	MinSamples int
	// CatchUpRate is the fraction of the base population the catch-up
	// phase consumes before it stops (default 0.10).
	CatchUpRate float64
	// Beta is the re-partitioning drift threshold (default 10).
	Beta float64
	// NumVals is how many aggregation attributes each synopsis tracks
	// (default: all attributes of the first tuple seen).
	NumVals int
	// AutoRepartition enables trigger-driven re-partitioning (Section 5.4).
	// Disabled it yields the "DPT-only" baseline of the evaluation.
	AutoRepartition bool
	// CatchUpBatch is the number of snapshot tuples folded per catch-up
	// pump (default 2048).
	CatchUpBatch int
	// TriggerCooldown is the minimum number of updates between candidate
	// re-partitioning evaluations (default 1024).
	TriggerCooldown int
	// PartialRepartition makes triggers rebuild only the subtree around
	// the problematic leaf (Appendix E) instead of the whole tree.
	PartialRepartition bool
	// Psi is the number of levels above the problematic leaf a partial
	// re-partition rebuilds (default 3).
	Psi int
	// Seed drives all randomized components (sampling, shuffling).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.LeafNodes <= 0 {
		c.LeafNodes = 128
	}
	if c.SampleRate <= 0 {
		c.SampleRate = 0.01
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 256
	}
	if c.CatchUpRate <= 0 {
		c.CatchUpRate = 0.10
	}
	if c.Beta <= 1 {
		c.Beta = 10
	}
	if c.CatchUpBatch <= 0 {
		c.CatchUpBatch = 2048
	}
	if c.TriggerCooldown <= 0 {
		c.TriggerCooldown = 1024
	}
	if c.Psi <= 0 {
		c.Psi = 3
	}
	return c
}
