package main

import (
	"time"

	janus "janusaqp"
)

// topology is how requests reach the engine(s).
type topology int

const (
	// topoEngine calls one in-process Engine directly.
	topoEngine topology = iota
	// topoDurable is topoEngine over an OpenStore broker: every publish is
	// written through to the segment logs, with periodic checkpoints.
	topoDurable
	// topoRPC is client.Client -> transport -> cluster.ClientEdge -> Engine.
	topoRPC
	// topoHTTPGroup2 is HTTP/JSON /v2 against server.New(ShardGroup K=2).
	topoHTTPGroup2
	// topoCluster2 is a cluster.Coordinator over two cluster.Nodes on
	// loopback RPC.
	topoCluster2
)

// loadKind is how the read loop and the write loop share the timed phase.
type loadKind int

const (
	// readMain runs the closed-loop reader for mainShare of the phase,
	// then the closed-loop churn writer for the rest.
	readMain loadKind = iota
	// churnMain runs the closed-loop churn writer first, then the reader.
	churnMain
	// mixed runs the closed-loop reader beside the paced open-loop writer
	// for the whole phase.
	mixed
)

// Fixed load shape shared by every scenario.
const (
	// mainShare is the share of the timed phase the scenario's own loop
	// gets in the sequential load kinds; the other loop gets the rest, so
	// every workload reports every end-to-end metric.
	mainShare = 0.7
	// warmShare is the untimed warm-up run before each loop, as a share of
	// that loop's timed length.
	warmShare = 0.1
	// segments is how many equal parts a timed loop is cut into; a metric
	// is the median of its per-segment values.
	segments = 5

	churnBatch = 512 // closed-loop writer: inserts, then as many oldest deletes
	pacedBatch = 100 // paced writer: inserts + as many oldest deletes per tick
	pacedTick  = 20 * time.Millisecond
	// pacedGrace is how long past the end of the phase the paced writer may
	// run to send batches that came due inside it; a batch still unsent
	// after that counts as failed.
	pacedGrace = 5 * time.Second
	// replyLimit fails any single operation slower than this.
	replyLimit = 5 * time.Second

	// checkpointEvery is the durable writer's WriteCheckpoint+Compact
	// cadence in batch pairs (about one cycle every 1-2 s on the seed).
	checkpointEvery = 8

	evalQueries = 400  // accuracy evaluation set, split over the templates
	hotTexts    = 256  // engine-sql1d: distinct repeated SQL texts
	coldOneIn   = 5    // engine-sql1d: one request in five is a never-repeated text
	requestPool = 4096 // distinct structured requests the reader cycles through
)

var (
	tmpl1D = janus.Template{Name: "trips", PredicateDims: []int{0}, AggIndex: 0, Agg: janus.Sum}
	tmpl3D = janus.Template{Name: "trips3d", PredicateDims: []int{0, 1, 2}, AggIndex: 0, Agg: janus.Sum}

	// tripsSchema is what janusd registers for its bootstrap template.
	tripsSchema = janus.TableSchema{
		Table:    "trips",
		PredCols: []string{"pickupTime"},
		AggCols:  []string{"tripDistance", "fareAmount", "passengerCount"},
	}
)

// scenario is one workload: data size x template x request form x topology
// x read loop x write loop x durability. Everything not named here is the
// janusd default (128 leaves, catch-up 0.10).
type scenario struct {
	name string
	why  string
	// rows is the bootstrap table; pool is how many later arrivals the
	// writer may insert (the phase ends early if it runs dry).
	rows, pool int
	sampleRate float64
	// auto is Config.AutoRepartition. It is off only on the two read
	// workloads, whose short write loop then measures bare synopsis
	// maintenance; with it on, a 3-D 20k-sample candidate partitioning per
	// 1024 updates would leave that loop two batches long.
	auto      bool
	templates []janus.Template
	topology  topology
	sql       bool
	load      loadKind
	// relErrCeil fails the run when the evaluation set's median relative
	// error exceeds it: twice the median over the baseline's seeds on the
	// seed commit. minCoverage fails it when fewer of the set's 95%
	// intervals hold the exact answer: the baseline's lowest, less a tenth.
	relErrCeil, minCoverage float64
}

// scenarios is the benchmark. Sizes are a quarter to a half of what a
// 10-15 s phase would allow because 158 runs must fit the driver's cap.
var scenarios = []scenario{
	{
		name: "engine-scan3d",
		why:  "in-process 3-D queries over 20k samples, a synopsis larger than L2: tree walk + stratum scan are >90% of latency; resolve, codecs, log idle",
		rows: 200_000, pool: 400_000, sampleRate: 0.05,
		templates: []janus.Template{tmpl3D}, topology: topoEngine, load: readMain,
		relErrCeil: 0.13, minCoverage: 0.75,
	},
	{
		name: "engine-sql1d",
		why:  "in-process SQL over a small cache-resident 1-D synopsis, 80% hot texts 20% never-repeated: where resolve/sqlparse has its largest share",
		rows: 100_000, pool: 700_000, sampleRate: 0.01,
		templates: []janus.Template{tmpl1D}, topology: topoEngine, sql: true, load: readMain,
		relErrCeil: 0.06, minCoverage: 0.75,
	},
	{
		name: "engine-churn",
		why:  "closed-loop sliding-window insert/delete, two templates: update path, reservoir re-draws, triggers, re-init; no codec, no log",
		rows: 50_000, pool: 200_000, sampleRate: 0.01, auto: true,
		templates: []janus.Template{tmpl3D, tmpl1D}, topology: topoEngine, load: churnMain,
		relErrCeil: 0.16, minCoverage: 0.65,
	},
	{
		name: "durable-churn",
		why:  "engine-churn's op stream through OpenStore: adds log append, checkpoint encode, fsync, rotation; then restart and recover",
		rows: 50_000, pool: 200_000, sampleRate: 0.01, auto: true,
		templates: []janus.Template{tmpl3D, tmpl1D}, topology: topoDurable, load: churnMain,
		relErrCeil: 0.16, minCoverage: 0.65,
	},
	{
		name: "rpc-mixed",
		why:  "binary client over loopback RPC to one engine, queries beside paced ingest: codec + framing + socket and reader/writer lock contention",
		rows: 200_000, pool: 100_000, sampleRate: 0.01, auto: true,
		templates: []janus.Template{tmpl1D}, topology: topoRPC, load: mixed,
		relErrCeil: 0.04, minCoverage: 0.75,
	},
	{
		name: "http-group2-mixed",
		why:  "HTTP/JSON /v2 against a 2-shard ShardGroup, same mix as rpc-mixed: JSON codec + net/http + in-process scatter/merge",
		rows: 200_000, pool: 100_000, sampleRate: 0.01, auto: true,
		templates: []janus.Template{tmpl1D}, topology: topoHTTPGroup2, load: mixed,
		relErrCeil: 0.04, minCoverage: 0.75,
	},
	{
		name: "cluster2-mixed",
		why:  "Coordinator over two Nodes on loopback RPC, same mix as rpc-mixed: per-shard RPC, slowest-shard wait, remote merge",
		rows: 200_000, pool: 100_000, sampleRate: 0.01, auto: true,
		templates: []janus.Template{tmpl1D}, topology: topoCluster2, load: mixed,
		relErrCeil: 0.04, minCoverage: 0.75,
	},
}

func findScenario(name string) (scenario, bool) {
	for _, sc := range scenarios {
		if sc.name == name {
			return sc, true
		}
	}
	return scenario{}, false
}

// config is the engine configuration of a scenario.
func (sc scenario) config(seed int64) janus.Config {
	return janus.Config{
		LeafNodes:       128,
		SampleRate:      sc.sampleRate,
		CatchUpRate:     0.10,
		AutoRepartition: sc.auto,
		Seed:            seed,
	}
}
