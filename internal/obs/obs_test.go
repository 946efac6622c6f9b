package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestRequestIDUniqueAndShaped(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := RequestID()
		if seen[id] {
			t.Fatalf("duplicate request id %q", id)
		}
		seen[id] = true
		parts := strings.Split(id, "-")
		if len(parts) != 2 || len(parts[0]) != 8 {
			t.Fatalf("malformed request id %q", id)
		}
	}
}

func TestRequestIDContextRoundTrip(t *testing.T) {
	ctx := WithRequestID(context.Background(), "abc-01")
	if got := RequestIDFrom(ctx); got != "abc-01" {
		t.Fatalf("RequestIDFrom = %q, want abc-01", got)
	}
	if got := RequestIDFrom(context.Background()); got != "" {
		t.Fatalf("RequestIDFrom(empty ctx) = %q, want empty", got)
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug":   slog.LevelDebug,
		"INFO":    slog.LevelInfo,
		"warn":    slog.LevelWarn,
		"warning": slog.LevelWarn,
		"error":   slog.LevelError,
		"bogus":   slog.LevelInfo,
		"":        slog.LevelInfo,
	}
	for in, want := range cases {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestNewLoggerJSONFormat(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelInfo, "json", "testcomp")
	l.Info("hello", "k", "v")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v (%q)", err, buf.String())
	}
	if rec["component"] != "testcomp" || rec["k"] != "v" || rec["msg"] != "hello" {
		t.Fatalf("unexpected record: %v", rec)
	}
}

func TestNewLoggerLevelGate(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelWarn, "text", "")
	l.Info("suppressed")
	if buf.Len() != 0 {
		t.Fatalf("info record leaked past warn gate: %q", buf.String())
	}
	l.Warn("emitted")
	if !strings.Contains(buf.String(), "emitted") {
		t.Fatalf("warn record missing: %q", buf.String())
	}
}

func TestSlowQueryLogThreshold(t *testing.T) {
	var buf bytes.Buffer
	sq := &SlowQueryLog{
		Threshold: 10 * time.Millisecond,
		Logger:    NewLogger(&buf, slog.LevelInfo, "json", ""),
	}
	sq.Note("req-1", "sql", "SELECT ...", 5*time.Millisecond)
	if buf.Len() != 0 {
		t.Fatalf("fast query logged: %q", buf.String())
	}
	sq.Note("req-2", "sql", "SELECT ...", 20*time.Millisecond)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("slow-query record not JSON: %v", err)
	}
	if rec["requestId"] != "req-2" || rec["kind"] != "sql" {
		t.Fatalf("unexpected slow-query record: %v", rec)
	}
	if rec["elapsedMicros"].(float64) != 20000 {
		t.Fatalf("elapsedMicros = %v, want 20000", rec["elapsedMicros"])
	}
}

func TestSlowQueryLogDisabled(t *testing.T) {
	var nilLog *SlowQueryLog
	nilLog.Note("r", "sql", "q", time.Second) // must not panic
	var buf bytes.Buffer
	zero := &SlowQueryLog{Logger: NewLogger(&buf, slog.LevelInfo, "text", "")}
	zero.Note("r", "sql", "q", time.Second)
	if buf.Len() != 0 {
		t.Fatalf("zero-threshold slow-query log emitted: %q", buf.String())
	}
}
