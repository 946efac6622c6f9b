package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Client is a pooled RPC client for one node address. Connections are
// dialed lazily, used for one in-flight call at a time, and parked in a
// small idle pool between calls; any I/O error discards the connection
// rather than risking a desynchronized frame stream.
//
// Client methods are safe for concurrent use — concurrent calls each get
// their own connection.
type Client struct {
	addr string

	// DialTimeout bounds one dial attempt (default 2s).
	DialTimeout time.Duration
	// CallTimeout bounds one round-trip when the caller's ctx carries no
	// deadline (default 5s) — a cluster hop must never hang forever.
	CallTimeout time.Duration
	// MaxIdle caps the parked-connection pool (default 4).
	MaxIdle int

	mu     sync.Mutex
	idle   []net.Conn
	closed bool

	dials  atomic.Int64
	active atomic.Int64
}

// NewClient returns a client for the node at addr (host:port).
func NewClient(addr string) *Client {
	return &Client{addr: addr, DialTimeout: 2 * time.Second, CallTimeout: 5 * time.Second, MaxIdle: 4}
}

// PoolStats is a point-in-time view of the client's connection pool, for
// export as gauges.
type PoolStats struct {
	Idle   int
	Active int
	Dials  int64
}

// Stats reports the pool state.
func (c *Client) Stats() PoolStats {
	c.mu.Lock()
	idle := len(c.idle)
	c.mu.Unlock()
	return PoolStats{Idle: idle, Active: int(c.active.Load()), Dials: c.dials.Load()}
}

// ErrClientClosed is returned by calls on a Client after Close. Without
// the latch, get() would happily dial fresh connections on a closed client
// and leak them straight back out of the pool.
var ErrClientClosed = errors.New("transport: client is closed")

// Close discards every idle connection and latches the client closed:
// subsequent calls fail with ErrClientClosed instead of dialing. In-flight
// calls finish on their own connections, which are then rejected from the
// pool.
func (c *Client) Close() {
	c.mu.Lock()
	conns := c.idle
	c.idle = nil
	c.closed = true
	c.mu.Unlock()
	for _, conn := range conns {
		_ = conn.Close()
	}
}

// get returns a pooled connection or dials a fresh one. A closed client
// never dials: the closed check and the idle pop share the critical
// section, so no connection can be handed out after Close drained the pool.
func (c *Client) get(ctx context.Context) (net.Conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	if n := len(c.idle); n > 0 {
		conn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()
	d := net.Dialer{Timeout: c.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, err // *net.OpError with Op "dial": see IsDialError
	}
	c.dials.Add(1)
	return conn, nil
}

// put parks a healthy connection for reuse, or closes it when the pool is
// full or the client closed.
func (c *Client) put(conn net.Conn) {
	c.mu.Lock()
	if c.closed || len(c.idle) >= c.MaxIdle {
		c.mu.Unlock()
		_ = conn.Close()
		return
	}
	c.idle = append(c.idle, conn)
	c.mu.Unlock()
}

// deadline resolves the absolute I/O deadline for one call: the ctx
// deadline when it carries one, else now+CallTimeout.
func (c *Client) deadline(ctx context.Context) time.Time {
	if dl, ok := ctx.Deadline(); ok {
		return dl
	}
	return time.Now().Add(c.CallTimeout)
}

// TransportError marks a failure of the RPC exchange itself — dial, I/O,
// deadline, torn frame — as opposed to an error the remote handler
// returned. Retry and failover policies key on this distinction: an
// exchange failure leaves the request's fate unknown, a handler error is
// a definitive answer.
type TransportError struct {
	Method string
	Addr   string
	Err    error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("transport: %s %s: %v", e.Method, e.Addr, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// Call performs one round-trip: send a frame of the given type, body, and
// request ID, and return the response frame. Exchange failures return a
// *TransportError; a response with FlagError decodes to the shard-side
// error (with its typed sentinel restored) — the connection is still
// healthy then and returns to the pool, so application errors do not cost
// a reconnect, only transport failures do.
func (c *Client) Call(ctx context.Context, typ byte, requestID string, body []byte) (Frame, error) {
	conn, err := c.get(ctx)
	if err != nil {
		return Frame{}, &TransportError{Method: MethodName(typ), Addr: c.addr, Err: err}
	}
	f, err := c.roundTrip(ctx, conn, typ, requestID, body)
	if err != nil {
		_ = conn.Close()
		return Frame{}, &TransportError{Method: MethodName(typ), Addr: c.addr, Err: err}
	}
	if f.Flags&FlagError != 0 {
		c.put(conn)
		return Frame{}, DecodeErrorBody(f.Body)
	}
	c.put(conn)
	return f, nil
}

// Stream performs one request whose response is a chunk sequence: fn
// receives each chunk's body in order, and Stream returns after the
// terminal frame (no FlagMore). Used by checkpoint fetch, whose image can
// exceed one frame.
func (c *Client) Stream(ctx context.Context, typ byte, requestID string, body []byte, fn func(chunk []byte) error) error {
	fail := func(err error) error {
		return &TransportError{Method: MethodName(typ), Addr: c.addr, Err: err}
	}
	conn, err := c.get(ctx)
	if err != nil {
		return fail(err)
	}
	// Streams count toward the active gauge exactly like round-trips, so
	// pool stats do not under-report during a long checkpoint fetch.
	c.active.Add(1)
	defer c.active.Add(-1)
	if err := conn.SetDeadline(c.deadline(ctx)); err != nil {
		_ = conn.Close()
		return fail(err)
	}
	if err := WriteFrame(conn, Frame{Type: typ, RequestID: requestID, Body: body}); err != nil {
		_ = conn.Close()
		return fail(err)
	}
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			_ = conn.Close()
			return fail(err)
		}
		if f.Type != typ {
			_ = conn.Close()
			return fail(fmt.Errorf("response type %s does not match", MethodName(f.Type)))
		}
		if f.Flags&FlagError != 0 {
			c.put(conn)
			return DecodeErrorBody(f.Body)
		}
		if err := fn(f.Body); err != nil {
			// The consumer bailed mid-stream; the rest of the chunks are
			// still on the wire, so the connection cannot be reused.
			_ = conn.Close()
			return err
		}
		if f.Flags&FlagMore == 0 {
			c.put(conn)
			return nil
		}
	}
}

// roundTrip writes the request and reads the single response frame under
// the call deadline.
func (c *Client) roundTrip(ctx context.Context, conn net.Conn, typ byte, requestID string, body []byte) (Frame, error) {
	c.active.Add(1)
	defer c.active.Add(-1)
	if err := conn.SetDeadline(c.deadline(ctx)); err != nil {
		return Frame{}, err
	}
	if err := WriteFrame(conn, Frame{Type: typ, RequestID: requestID, Body: body}); err != nil {
		return Frame{}, err
	}
	f, err := ReadFrame(conn)
	if err != nil {
		return Frame{}, err
	}
	if f.Type != typ {
		return Frame{}, fmt.Errorf("response type %s does not match request", MethodName(f.Type))
	}
	return f, nil
}

// IsDialError reports whether err failed before the request could have
// reached the server — the connection was never established — which makes
// a retry safe even for non-idempotent methods.
func IsDialError(err error) bool {
	var oe *net.OpError
	return errors.As(err, &oe) && oe.Op == "dial"
}

// IsTransient reports whether err is the signature of a died connection —
// a stale pooled conn, a peer restart, a reset — rather than of a slow or
// wrong answer. Transient errors are worth one retry on a fresh
// connection for idempotent methods; deadline expiry and cancellation are
// NOT transient (retrying cannot beat an expired budget).
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return false
	}
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EPIPE) ||
		IsDialError(err)
}
