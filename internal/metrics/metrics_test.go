package metrics

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value() = %d, want 5", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("Value() = %d, want 8000", got)
	}
}

func TestHistogramCountSum(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Fatalf("Count() = %d, want 4", got)
	}
	if got := h.Sum(); math.Abs(got-5.555) > 1e-9 {
		t.Fatalf("Sum() = %g, want 5.555", got)
	}
}

func TestRegistryReusesMetrics(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("reqs_total", "requests")
	c2 := r.Counter("reqs_total", "requests")
	if c1 != c2 {
		t.Fatal("Counter() returned distinct instances for one name")
	}
	h1 := r.Histogram("latency_seconds", "latency")
	h2 := r.Histogram("latency_seconds", "latency")
	if h1 != h2 {
		t.Fatal("Histogram() returned distinct instances for one name")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("janusd_requests_total", "total requests").Add(7)
	h := r.Histogram("janusd_latency_seconds", "request latency")
	h.Observe(0.0003)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE janusd_requests_total counter",
		"janusd_requests_total 7",
		"# TYPE janusd_latency_seconds histogram",
		`janusd_latency_seconds_bucket{le="+Inf"} 2`,
		"janusd_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket counts must be non-decreasing.
	last := -1
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "janusd_latency_seconds_bucket") {
			n, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			if n < last {
				t.Fatalf("bucket counts decreased: %q after %d", line, last)
			}
			last = n
		}
	}
}

func TestHistogramVecSeries(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("janusd_shard_seconds", "shard", "per-shard latency")
	v.With("0").Observe(0.001)
	v.With("1").Observe(0.002)
	v.With("1").Observe(0.003)
	if got := v.With("1").Count(); got != 2 {
		t.Fatalf("shard=1 count = %d, want 2", got)
	}
	if got := v.With("0").Count(); got != 1 {
		t.Fatalf("shard=0 count = %d, want 1", got)
	}
}

func TestVecConcurrent(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("conc_seconds", "k", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := strconv.Itoa(i % 2)
			for j := 0; j < 1000; j++ {
				v.With(key).Observe(0.001)
			}
		}(i)
	}
	wg.Wait()
	if got := v.With("0").Count() + v.With("1").Count(); got != 8000 {
		t.Fatalf("total across series = %d, want 8000", got)
	}
}

func TestEscapeLabel(t *testing.T) {
	cases := map[string]string{
		"plain":      "plain",
		`back\slash`: `back\\slash`,
		`quo"te`:     `quo\"te`,
		"new\nline":  `new\nline`,
	}
	for in, want := range cases {
		if got := escapeLabel(in); got != want {
			t.Errorf("escapeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePrometheusGolden pins the exact exposition output for a small
// registry covering every metric family, then runs it through a minimal
// Prometheus text-format parser to prove a standard scraper would accept
// it.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_reqs_total", "total requests").Add(3)
	r.GaugeFunc("t_rows", "archive rows", func() float64 { return 120 })
	hv := r.HistogramVec("t_shard_seconds", "shard", "by shard")
	hv.With("0").Observe(0.0002)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	golden := []string{
		"# HELP t_reqs_total total requests",
		"# TYPE t_reqs_total counter",
		"t_reqs_total 3",
		"# HELP t_rows archive rows",
		"# TYPE t_rows gauge",
		"t_rows 120",
		"# HELP t_shard_seconds by shard",
		"# TYPE t_shard_seconds histogram",
		`t_shard_seconds_bucket{shard="0",le="0.0001"} 0`,
		`t_shard_seconds_bucket{shard="0",le="0.00025"} 1`,
	}
	idx := 0
	for _, want := range golden {
		at := strings.Index(out[idx:], want)
		if at < 0 {
			t.Fatalf("output missing (or out of order) %q:\n%s", want, out)
		}
		idx += at + len(want)
	}
	if !strings.Contains(out, `t_shard_seconds_bucket{shard="0",le="+Inf"} 1`) {
		t.Fatalf("missing +Inf bucket for labeled histogram:\n%s", out)
	}
	if !strings.Contains(out, `t_shard_seconds_count{shard="0"} 1`) {
		t.Fatalf("missing labeled _count:\n%s", out)
	}

	if err := validateExposition(out); err != nil {
		t.Fatalf("exposition output rejected by text-format parser: %v\n%s", err, out)
	}
}

// validateExposition is a minimal Prometheus text-format (0.0.4) parser:
// every non-comment line must be `name[{label="value",...}] value`,
// every sample must follow a TYPE declaration for its family, histogram
// families must emit _bucket/_sum/_count with an +Inf bucket, and label
// blocks must be well-formed with escaped values.
func validateExposition(out string) error {
	types := map[string]string{}
	bucketsSeen := map[string]bool{} // histogram family -> saw +Inf bucket
	samplesSeen := map[string]bool{} // family -> any sample
	for ln, line := range strings.Split(out, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return errorfLine(ln, line, "malformed TYPE")
			}
			switch fields[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return errorfLine(ln, line, "unknown type %q", fields[3])
			}
			types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			return errorfLine(ln, line, "unknown comment")
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return errorfLine(ln, line, "%v", err)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return errorfLine(ln, line, "bad value %q", value)
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && types[base] == "histogram" {
				family = base
				if suffix == "_bucket" && labels["le"] == "+Inf" {
					bucketsSeen[base] = true
				}
				break
			}
		}
		typ, ok := types[family]
		if !ok {
			return errorfLine(ln, line, "sample %q precedes its TYPE", name)
		}
		if typ == "histogram" && family == name {
			return errorfLine(ln, line, "bare sample for histogram family")
		}
		samplesSeen[family] = true
	}
	for fam, typ := range types {
		if typ == "histogram" && samplesSeen[fam] && !bucketsSeen[fam] {
			return errorf("histogram %s has no +Inf bucket", fam)
		}
	}
	return nil
}

func parseSample(line string) (name string, labels map[string]string, value string, err error) {
	labels = map[string]string{}
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", nil, "", errorf("no value separator")
	}
	id, value := line[:sp], line[sp+1:]
	brace := strings.IndexByte(id, '{')
	if brace < 0 {
		return id, labels, value, nil
	}
	if !strings.HasSuffix(id, "}") {
		return "", nil, "", errorf("unterminated label block")
	}
	name = id[:brace]
	body := id[brace+1 : len(id)-1]
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
			return "", nil, "", errorf("malformed label pair in %q", body)
		}
		key := body[:eq]
		rest := body[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case '\\', '"':
					val.WriteByte(rest[i])
				case 'n':
					val.WriteByte('\n')
				default:
					return "", nil, "", errorf("bad escape \\%c", rest[i])
				}
				continue
			}
			if rest[i] == '"' {
				break
			}
			val.WriteByte(rest[i])
		}
		if i == len(rest) {
			return "", nil, "", errorf("unterminated label value")
		}
		labels[key] = val.String()
		body = rest[i+1:]
		if strings.HasPrefix(body, ",") {
			body = body[1:]
		} else if body != "" {
			return "", nil, "", errorf("junk after label value: %q", body)
		}
	}
	return name, labels, value, nil
}

func errorf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

func errorfLine(ln int, line, format string, args ...any) error {
	return fmt.Errorf("line %d (%q): "+format, append([]any{ln + 1, line}, args...)...)
}
