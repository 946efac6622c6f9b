// Package obs provides the lightweight observability primitives shared by
// janusd and the engine tiers: request-ID generation, context plumbing for
// those IDs, a slog-based component logger factory, and a slow-query log.
// Everything here is deliberately tiny — the hot path pays one atomic load
// when instrumentation is disabled, and nothing in this package takes a
// lock on a per-request basis.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync/atomic"
	"time"
)

// idPrefix is a per-process random prefix so request IDs from different
// daemon instances never collide; idSeq is the per-process monotonic
// counter appended to it. Together they make IDs cheap (one atomic add,
// no syscall per request) yet globally distinguishable.
var (
	idPrefix = newIDPrefix()
	idSeq    atomic.Uint64
)

func newIDPrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to a
		// fixed prefix rather than panicking in an observability helper.
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}

// RequestID returns a fresh request identifier of the form
// "a1b2c3d4-000042": a per-process random prefix plus a monotonic
// sequence number. It never blocks and never allocates beyond the
// returned string.
func RequestID() string {
	return fmt.Sprintf("%s-%06x", idPrefix, idSeq.Add(1))
}

// ctxKey is the private context key type for request IDs.
type ctxKey struct{}

// WithRequestID returns ctx carrying the given request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// RequestIDFrom extracts the request ID carried by ctx, or "" if none.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKey{}).(string)
	return id
}

// ParseLevel maps a -log-level flag value onto a slog.Level. Unknown
// values fall back to Info so a typo'd flag degrades rather than hiding
// all logs.
func ParseLevel(s string) slog.Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// NewLogger builds the daemon's component logger: format is "json" or
// "text" (anything else means text), level gates emission. The component
// name is attached to every record so multi-component logs interleave
// legibly.
func NewLogger(w io.Writer, level slog.Level, format, component string) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if strings.EqualFold(strings.TrimSpace(format), "json") {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	l := slog.New(h)
	if component != "" {
		l = l.With("component", component)
	}
	return l
}

// SlowQueryLog emits one structured record per query whose total latency
// crosses Threshold. A zero Threshold or nil Logger disables it; the
// disabled check is two loads, no branch into slog.
type SlowQueryLog struct {
	Threshold time.Duration
	Logger    *slog.Logger
}

// Note emits one slow-query record when elapsed crosses the threshold;
// below it (or disabled) it returns after two loads and a compare.
func (s *SlowQueryLog) Note(requestID, kind, source string, elapsed time.Duration) {
	if s == nil || s.Logger == nil || s.Threshold <= 0 || elapsed < s.Threshold {
		return
	}
	s.Logger.Warn("slow query",
		"requestId", requestID,
		"kind", kind,
		"query", source,
		"elapsedMicros", elapsed.Microseconds(),
		"thresholdMicros", s.Threshold.Microseconds(),
	)
}
