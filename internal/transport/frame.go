// Package transport is the inter-node wire protocol of a distributed
// janusd cluster: length-prefixed, CRC-framed binary messages over TCP.
// Nothing on this path is HTTP or JSON — ingest frames carry the broker's
// fixed-width tuple-chunk codec and query frames carry a compact partial-
// result encoding — so the coordinator/shard hop costs codec work
// proportional to the data, not to a reflective text encoding.
//
// One frame is:
//
//	[uint32 length][uint32 CRC-32 of payload][payload]
//	payload: [u8 type][u8 flags][u16 request-ID length][request ID][body]
//
// all little-endian. The request ID rides the header so a coordinator-side
// request ID (PR 6) stitches coordinator and shard spans, traces, and
// slow-query logs into one request without the body codecs knowing about
// observability. Responses echo the request's type and ID; an error
// response sets FlagError and carries an errorBody; a streamed response
// (checkpoint fetch) sends chunks with FlagMore set and terminates with a
// final frame without it.
//
// The decoder holds the same line as the segment-log reader (OpenTopic):
// corrupt, truncated, or oversized frames error — never panic — and
// allocation is bounded by the bytes actually received, not by a length
// word an attacker controls.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Message types. Requests and responses share the type; direction is
// implied by which side sent the frame.
const (
	// MsgPing reports a node's role and replicated log offsets — the
	// health probe and the standby caught-up check.
	MsgPing = byte(iota + 1)
	// MsgQuery answers one resolved-or-raw engine Request in mergeable
	// partial form (queryReqBody / queryReplyBody).
	MsgQuery
	// MsgIngest applies one hash-routed sub-batch of inserts and deletes
	// (ingestReqBody / ingestReplyBody, tuple payload via
	// broker.EncodeTupleChunk).
	MsgIngest
	// MsgFetchCheckpoint streams the node's durable checkpoint.db bytes
	// (chunked replies, FlagMore until the terminal empty frame).
	MsgFetchCheckpoint
	// MsgPollLog polls one segment-log topic from an offset — the standby
	// replication tail stream (pollReqBody / pollReplyBody, records via
	// broker.EncodeRecordBatch).
	MsgPollLog
	// MsgPromote turns a caught-up standby into the serving primary.
	MsgPromote
	// MsgStats fetches the node's EngineStats (JSON body; admin path, not
	// the data path).
	MsgStats
	// MsgTemplates fetches the node's template declarations (JSON body).
	MsgTemplates
	// MsgStatsFor fetches one template's synopsis stats (JSON reply).
	MsgStatsFor
	// MsgClientQuery answers one client query with the merged final result
	// (queryReqBody / queryResultBody) — the client-edge counterpart of
	// MsgQuery, whose reply is a mergeable partial only a coordinator can
	// use.
	MsgClientQuery
	// Type 11 was install, a removed coordinator-driven reshard's state
	// transfer. It stays retired and must never be reused, so an old peer
	// that sends it gets "unknown message type", not a misparse. New
	// message types append here: the constants are the wire format.
	_
)

// Frame flags.
const (
	// FlagError marks a response whose body is an errorBody.
	FlagError = byte(1 << 0)
	// FlagMore marks a streamed response chunk with more frames to follow.
	FlagMore = byte(1 << 1)
)

// MaxFrameBytes caps one frame's payload, and the HTTP surface caps every
// request body at it too: any ingest batch the JSON front door accepts
// fits one binary frame, and a corrupt length word can never demand a
// larger allocation than a legitimate peer could.
const MaxFrameBytes = 32 << 20

// frameHeaderLen is the fixed prefix before the payload: length + CRC.
const frameHeaderLen = 8

// payloadFixedLen is the payload's fixed prefix: type, flags, ID length.
const payloadFixedLen = 4

// Frame is one decoded message.
type Frame struct {
	Type      byte
	Flags     byte
	RequestID string
	Body      []byte
}

// AppendFrame appends f's encoding to buf and returns it, or errors when
// the frame violates the size bounds the decoder enforces.
func AppendFrame(buf []byte, f Frame) ([]byte, error) {
	if len(f.RequestID) > 0xffff {
		return buf, fmt.Errorf("transport: request ID of %d bytes exceeds the 64 KiB field", len(f.RequestID))
	}
	n := payloadFixedLen + len(f.RequestID) + len(f.Body)
	if n > MaxFrameBytes {
		return buf, fmt.Errorf("transport: frame payload of %d bytes exceeds MaxFrameBytes (%d)", n, MaxFrameBytes)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	crcAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // CRC placeholder
	payloadAt := len(buf)
	buf = append(buf, f.Type, f.Flags)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(f.RequestID)))
	buf = append(buf, f.RequestID...)
	buf = append(buf, f.Body...)
	binary.LittleEndian.PutUint32(buf[crcAt:], crc32.ChecksumIEEE(buf[payloadAt:]))
	return buf, nil
}

// frameBufPool recycles frame write buffers across calls: one round trip
// used to cost one header+payload allocation per frame on each side, which
// dominated the serving hot path's per-request garbage.
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4<<10)
		return &b
	},
}

// maxPooledFrameBytes caps the capacity a buffer may keep when returned to
// the pool: a rare 32 MiB ingest frame must not pin its allocation forever.
const maxPooledFrameBytes = 1 << 20

// WriteFrame encodes f and writes it to w in one Write call (one frame
// must reach the socket as one write so a concurrent reader never sees a
// torn prefix from an interleaved writer). The encoding buffer is pooled.
func WriteFrame(w io.Writer, f Frame) error {
	bp := frameBufPool.Get().(*[]byte)
	buf, err := AppendFrame((*bp)[:0], f)
	if err == nil {
		_, werr := w.Write(buf)
		if werr != nil {
			err = fmt.Errorf("transport: writing frame: %w", werr)
		}
	}
	if cap(buf) <= maxPooledFrameBytes {
		*bp = buf[:0]
		frameBufPool.Put(bp)
	}
	return err
}

// readChunk is the step size the frame body is read in: allocation grows
// with bytes actually received, so a frame header lying about its length
// costs at most one chunk of memory before the read fails.
const readChunk = 64 << 10

// ReadFrame decodes one frame from r. Errors are terminal for the
// connection: a frame that fails its CRC or declares an out-of-bounds
// length leaves the stream position meaningless.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Frame{}, fmt.Errorf("transport: truncated frame header: %w", err)
		}
		return Frame{}, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:4]))
	sum := binary.LittleEndian.Uint32(hdr[4:])
	if n < payloadFixedLen || n > MaxFrameBytes {
		return Frame{}, fmt.Errorf("transport: frame declares %d payload bytes (want %d..%d)", n, payloadFixedLen, MaxFrameBytes)
	}
	payload := make([]byte, 0, min(n, readChunk))
	for len(payload) < n {
		step := min(n-len(payload), readChunk)
		at := len(payload)
		payload = append(payload, make([]byte, step)...)
		if _, err := io.ReadFull(r, payload[at:]); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, fmt.Errorf("transport: truncated frame payload (%d of %d bytes): %w", at, n, err)
		}
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return Frame{}, fmt.Errorf("transport: frame payload fails its checksum")
	}
	idLen := int(binary.LittleEndian.Uint16(payload[2:]))
	if payloadFixedLen+idLen > n {
		return Frame{}, fmt.Errorf("transport: frame declares a %d-byte request ID in a %d-byte payload", idLen, n)
	}
	return Frame{
		Type:      payload[0],
		Flags:     payload[1],
		RequestID: string(payload[payloadFixedLen : payloadFixedLen+idLen]),
		Body:      payload[payloadFixedLen+idLen:],
	}, nil
}

// readFrameInto decodes one frame from r, reusing buf as the payload
// buffer — the zero-allocation form of ReadFrame for a sequentially served
// connection. The returned Frame's Body aliases the returned buffer, so it
// is valid only until the next readFrameInto call with that buffer; the
// buffer grows in readChunk steps on a cold start exactly like ReadFrame,
// so a lying length word still cannot force a large allocation before the
// read fails.
func readFrameInto(r io.Reader, buf []byte) (Frame, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Frame{}, buf, fmt.Errorf("transport: truncated frame header: %w", err)
		}
		return Frame{}, buf, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:4]))
	sum := binary.LittleEndian.Uint32(hdr[4:])
	if n < payloadFixedLen || n > MaxFrameBytes {
		return Frame{}, buf, fmt.Errorf("transport: frame declares %d payload bytes (want %d..%d)", n, payloadFixedLen, MaxFrameBytes)
	}
	payload := buf[:0]
	for len(payload) < n {
		step := min(n-len(payload), max(readChunk, cap(payload)-len(payload)))
		at := len(payload)
		payload = append(payload, make([]byte, step)...)[:at+step]
		if _, err := io.ReadFull(r, payload[at:]); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, payload[:0], fmt.Errorf("transport: truncated frame payload (%d of %d bytes): %w", at, n, err)
		}
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return Frame{}, payload[:0], fmt.Errorf("transport: frame payload fails its checksum")
	}
	idLen := int(binary.LittleEndian.Uint16(payload[2:]))
	if payloadFixedLen+idLen > n {
		return Frame{}, payload[:0], fmt.Errorf("transport: frame declares a %d-byte request ID in a %d-byte payload", idLen, n)
	}
	return Frame{
		Type:      payload[0],
		Flags:     payload[1],
		RequestID: string(payload[payloadFixedLen : payloadFixedLen+idLen]),
		Body:      payload[payloadFixedLen+idLen:],
	}, payload, nil
}

// DecodeFrame decodes one frame from the front of p, returning the frame
// and how many bytes it consumed — the byte-slice form ReadFrame is built
// on conceptually, and the surface the fuzz target drives.
func DecodeFrame(p []byte) (Frame, int, error) {
	if len(p) < frameHeaderLen {
		return Frame{}, 0, fmt.Errorf("transport: truncated frame header")
	}
	n := int(binary.LittleEndian.Uint32(p[:4]))
	if n < payloadFixedLen || n > MaxFrameBytes {
		return Frame{}, 0, fmt.Errorf("transport: frame declares %d payload bytes (want %d..%d)", n, payloadFixedLen, MaxFrameBytes)
	}
	if len(p) < frameHeaderLen+n {
		return Frame{}, 0, fmt.Errorf("transport: truncated frame payload (%d of %d bytes)", len(p)-frameHeaderLen, n)
	}
	sum := binary.LittleEndian.Uint32(p[4:])
	payload := p[frameHeaderLen : frameHeaderLen+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return Frame{}, 0, fmt.Errorf("transport: frame payload fails its checksum")
	}
	idLen := int(binary.LittleEndian.Uint16(payload[2:]))
	if payloadFixedLen+idLen > n {
		return Frame{}, 0, fmt.Errorf("transport: frame declares a %d-byte request ID in a %d-byte payload", idLen, n)
	}
	return Frame{
		Type:      payload[0],
		Flags:     payload[1],
		RequestID: string(payload[payloadFixedLen : payloadFixedLen+idLen]),
		Body:      append([]byte(nil), payload[payloadFixedLen+idLen:]...),
	}, frameHeaderLen + n, nil
}
