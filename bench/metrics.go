package main

// metricDef is one named metric, as BENCHMARK.json lists it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen;
// per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees. Every workload reports every
// one of them (the untraced run).
var endToEnd = []metricDef{
	{"query_p50_us", "us", lower, 0.25},
	{"updates_per_s", "1/s", higher, 0.25},
	{"synopsis_mb", "MB", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
}

// perLayer is what the traced run reports: harness-side diagnostics and one
// group per module of this repository. A layer a workload does not use
// reports 0 there.
var perLayer = []metricDef{
	{"client.query_mean_us", "us", lower, 0},
	{"client.query_p99_us", "us", lower, 0},
	{"client.query_max_ms", "ms", lower, 0},
	{"client.ingest_ack_p50_ms", "ms", lower, 0},
	{"client.ingest_ack_p99_ms", "ms", lower, 0},
	{"client.ingest_lag_max_ms", "ms", lower, 0},
	{"client.heap_mb", "MB", lower, 0},

	{"trace.unattributed_frac", "ratio", lower, 0},
	{"trace.overhead_frac", "ratio", lower, 0},

	{"janus.resolve_us", "us", lower, 0},
	{"janus.answer_us", "us", lower, 0},
	{"janus.scatter_us", "us", lower, 0},
	{"janus.merge_us", "us", lower, 0},
	{"cluster.rpc_us", "us", lower, 0},
	{"sqlparse.compile_us", "us", lower, 0},
	{"core.covered_per_query", "count", lower, 0},
	{"core.partial_per_query", "count", lower, 0},
	{"core.samples_per_query", "count", lower, 0},
	{"core.rel_err_p50", "ratio", lower, 0},
	{"core.ci_coverage", "ratio", higher, 0},
	{"transport.codec_us", "us", lower, 0},
	{"transport.rtt_us", "us", lower, 0},
	{"server.binary_self_us", "us", lower, 0},
	{"server.json_self_us", "us", lower, 0},

	{"janus.insert_batch_us", "us", lower, 0},
	{"janus.delete_batch_us", "us", lower, 0},
	{"janus.trigger_eval_ms", "ms", lower, 0},
	{"janus.reinit_ms", "ms", lower, 0},
	{"janus.catchup_ms", "ms", lower, 0},
	{"janus.span_max_ms", "ms", lower, 0},
	{"janus.reinits", "count", lower, 0},
	{"janus.triggers_fired", "count", lower, 0},
	{"janus.triggers_rejected", "count", lower, 0},
	{"janus.partial_repartitions", "count", lower, 0},

	{"broker.publish_us", "us", lower, 0},
	{"broker.log_write_us", "us", lower, 0},
	{"store.checkpoint_ms", "ms", lower, 0},
	{"store.fsync_ms", "ms", lower, 0},
	{"store.compact_ms", "ms", lower, 0},
	{"store.fsyncs", "count", lower, 0},
	{"store.bytes_per_user_byte", "ratio", lower, 0},
	{"store.restore_s", "s", lower, 0},
}

// value is one measured metric in a run record.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is IQR/median over the timed loop's segments and N the number
	// of samples behind Value, where the metric comes from a timed loop.
	Spread float64 `json:"spread,omitempty"`
	N      int     `json:"n,omitempty"`
}

// values collects a run's metrics against the declared names.
type values map[string]value

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}

func (v values) set(name string, x float64) { v[name] = value{Value: x, Unit: unitOf(name)} }

func (v values) setStat(name string, x, spread float64, n int) {
	v[name] = value{Value: x, Unit: unitOf(name), Spread: spread, N: n}
}

// fill reports 0 for every declared metric the run did not take.
func (v values) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := v[d.Name]; !ok {
			v[d.Name] = value{Unit: d.Unit}
		}
	}
}
