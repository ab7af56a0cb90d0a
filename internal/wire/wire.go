// Package wire is the compact binary framing for CST scheduling traffic:
// the request/answer protocol cstserved speaks on its -wire-addr TCP
// listener, built for persistent pipelined connections and an
// allocation-free hot path.
//
// The design reuses the packing idiom of internal/ctrl's fixed-width
// control words — every field has one unambiguous binary form — but packs
// with varints instead of fixed uint32s because scheduling requests are
// dominated by tiny integers (PE indices, request ids): a typical pair
// request frame is 9 bytes against ~60 for its HTTP/JSON equivalent,
// before HTTP headers.
//
// Stream layout. Each frame type has exactly one layout:
//
//	hello     := "CSTW" version:uint8           (client → server)
//	accept    := "CSTW" version:uint8           (server → client)
//	frame     := length:uvarint payload
//	payload   := type:uint8 body
//	pairs     := count:uvarint (src:uvarint dst:uvarint)*
//	reqtrace  := trace:uvarint span:uvarint flags:uint8
//	answer    := trace:uvarint errlen:uvarint err:bytes
//
//	type  frame       body
//	0x01  request     id:uvarint src:uvarint dst:uvarint deadline_ms:uvarint reqtrace
//	0x02  response    id:uvarint status:uvarint shard:varint arrival:varint
//	                  dispatched:varint finished:varint latency_rounds:varint answer
//	0x03  setreq      id:uvarint n:uvarint pairs reqtrace
//	0x04  setresp     id:uvarint status:uvarint rounds:uvarint bound:uvarint
//	                  width:uvarint batches:uvarint residual:uvarint
//	                  units:uvarint strategy:uint8 answer
//	0x05  deltareq    id:uvarint session:uvarint deadline_ms:uvarint
//	                  pairs(remove) pairs(add) reqtrace
//	0x06  deltaresp   id:uvarint session:uvarint status:uvarint rounds:uvarint
//	                  width:uvarint size:uvarint fallback:uint8 answer
//
// The handshake rejects any version but Version: the server always
// answers "CSTW" Version, then closes the connection when the client
// offered something else, and a client that reads any other version
// fails with ErrVersion. Version 0 and bad magic are rejected before any
// answer.
//
// The trace block carries the span-trace context so one request's span
// tree survives the protocol hop (see internal/obs); flags bit 0 =
// sampled, and an untraced request sends three zero bytes. Every answer
// carries the server-assigned trace id (zero when unsampled). The block is
// never optional, so parsing stays deterministic and the unsampled hot
// path stays allocation-free.
//
// Set frames plan an arbitrary, possibly non-well-nested communication set
// with the hybrid planner; MaxFrameBytes doubles as the set size bound (a
// set must pack into one frame, roughly MaxFrameBytes/4 communications for
// multi-byte PE indices). Delta frames mutate a session-scoped set for
// incremental scheduling (padr.Engine.Apply): a first delta against an
// unknown session opens it with an empty set, removes apply before adds,
// and fallback=1 flags a 200 served by a from-scratch run. Size is the
// session set's size after the delta. Every status reuses the HTTP mapping
// of the matching serve result.
//
// The id correlates pipelined requests with their answers: responses may
// return out of submission order (conflict-deferred waves and deadline
// expiries reorder), so clients must match on id, never on arrival order.
//
// Every decode error is one of the typed sentinels below (wrapped with
// detail); decoders never panic on junk and never allocate proportionally
// to a length claim — a frame announcing more than MaxFrameBytes is
// rejected before any buffer grows.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"
)

// Protocol constants.
const (
	// Magic opens both handshake directions.
	Magic = "CSTW"
	// Version is the protocol revision both sides must speak; the handshake
	// rejects every other.
	Version = 4
	// MaxFrameBytes bounds a frame payload. Requests are ~9 bytes and
	// responses ~20 plus a short error string; anything larger is a
	// corrupt or hostile stream.
	MaxFrameBytes = 4096
	// HandshakeBytes is the size of each handshake message.
	HandshakeBytes = len(Magic) + 1
	// maxErr caps an answer's error text; longer text is truncated at
	// encode time because the status code already carries the outcome.
	maxErr = MaxFrameBytes / 2
)

// Frame types.
const (
	// TypeRequest frames a scheduling request (client → server).
	TypeRequest = 0x01
	// TypeResponse frames a terminal answer (server → client).
	TypeResponse = 0x02
	// TypeSetRequest frames a whole-set scheduling request.
	TypeSetRequest = 0x03
	// TypeSetResponse frames a whole-set answer.
	TypeSetResponse = 0x04
	// TypeDeltaRequest frames a session-scoped delta request.
	TypeDeltaRequest = 0x05
	// TypeDeltaResponse frames a delta answer.
	TypeDeltaResponse = 0x06
)

// Trace-block flag bits.
const (
	// FlagSampled marks the request's trace as sampled: the server must
	// record spans for it regardless of its own head-sampling rate.
	FlagSampled = 0x01
)

// Strategy codes a SetResponse carries (matching internal/hybrid's
// strategy names without importing it — wire stays dependency-free).
const (
	// StrategyNone is the zero strategy (non-200 answers).
	StrategyNone = 0
	// StrategyPeel is the circuit-first peel pipeline.
	StrategyPeel = 1
	// StrategyColoring is the pure conflict-coloring plan.
	StrategyColoring = 2
)

// Typed decode errors. Decoders wrap these with detail; match with
// errors.Is.
var (
	// ErrBadMagic rejects a handshake that does not open with Magic.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrVersion rejects a protocol version other than Version (0 is
	// rejected outright by ParseHello).
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrFrameTooLarge rejects a length prefix beyond MaxFrameBytes
	// before any buffer is grown for it.
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrameBytes")
	// ErrTruncated reports a frame or field cut short.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrBadFrame reports structurally invalid bytes: junk varints,
	// out-of-range fields, trailing garbage.
	ErrBadFrame = errors.New("wire: malformed frame")
	// ErrUnknownType reports an unrecognized frame type byte.
	ErrUnknownType = errors.New("wire: unknown frame type")
)

// Request is one scheduling request: schedule the communication Src → Dst,
// optionally bounded by DeadlineMS milliseconds of wall-clock time. ID
// correlates the eventual Response on a pipelined connection.
type Request struct {
	ID         uint64
	Src, Dst   int
	DeadlineMS int64
	// Trace/Span/Flags are the propagated span-trace context (zero =
	// untraced). Flags bit 0 (FlagSampled) forces server-side sampling so
	// a client-initiated trace stays connected across the hop.
	Trace uint64
	Span  uint64
	Flags uint8
}

// Deadline converts DeadlineMS to a duration (0 means the server default).
func (r *Request) Deadline() time.Duration {
	return time.Duration(r.DeadlineMS) * time.Millisecond
}

// Response is the terminal answer for request ID. Status carries the same
// HTTP mapping as serve.Result (200 scheduled, 400 bad endpoints, 429
// backpressure, 500 quarantined, 503 draining, 504 deadline); the round
// fields are meaningful only for status 200. Err is empty on success.
type Response struct {
	ID            uint64
	Status        int
	Shard         int
	Arrival       int
	Dispatched    int
	Finished      int
	LatencyRounds int
	Err           string
	// Trace is the server-assigned trace id (zero when the request was not
	// sampled) — the handle for /trace/flight lookups.
	Trace uint64
}

// SetRequest is one whole-set scheduling request: plan the communication
// set Pairs over an N-PE fabric with the hybrid scheduler. The set may mix
// orientations and cross arbitrarily; validation happens server-side so a
// malformed set costs a status answer, not a dead connection.
type SetRequest struct {
	ID uint64
	// N is the PE count the pairs index into.
	N int
	// Pairs are the (src, dst) communications.
	Pairs [][2]int
	// Trace/Span/Flags are the propagated span-trace context.
	Trace uint64
	Span  uint64
	Flags uint8
}

// SetResponse is the terminal answer for set request ID. Status reuses the
// HTTP mapping (200 planned, 400 invalid set, 413 set too large, 501
// planner disabled); the plan fields are meaningful only for status 200.
// Units is the composite power bill, Strategy one of the Strategy* codes.
type SetResponse struct {
	ID       uint64
	Status   int
	Rounds   int
	Bound    int
	Width    int
	Batches  int
	Residual int
	Units    int64
	Strategy uint8
	Err      string
	// Trace is the server-assigned trace id (zero when unsampled).
	Trace uint64
}

// DeltaRequest is one session-scoped incremental scheduling request:
// mutate session Session's communication set by removing the Remove pairs
// and adding the Add pairs, then re-run the schedule incrementally. A
// first delta against an unknown session id opens it with an empty set.
type DeltaRequest struct {
	ID         uint64
	Session    uint64
	DeadlineMS int64
	// Remove/Add are the (src, dst) mutations; removes apply first.
	Remove [][2]int
	Add    [][2]int
	// Trace/Span/Flags are the propagated span-trace context.
	Trace uint64
	Span  uint64
	Flags uint8
}

// Deadline converts DeadlineMS to a duration (0 means the server default).
func (r *DeltaRequest) Deadline() time.Duration {
	return time.Duration(r.DeadlineMS) * time.Millisecond
}

// DeltaResponse is the terminal answer for delta request ID. Status reuses
// the HTTP mapping (200 applied, 400 invalid delta, 429 session table
// full, 500 failed, 503 draining, 504 deadline); Rounds/Width/Size are
// meaningful only for status 200. Fallback flags a success served by a
// from-scratch fallback run instead of an incremental apply.
type DeltaResponse struct {
	ID      uint64
	Session uint64
	Status  int
	Rounds  int
	Width   int
	// Size is the session's set size after the delta.
	Size     int
	Fallback bool
	Err      string
	// Trace is the server-assigned trace id (zero when unsampled).
	Trace uint64
}

// AppendRequestV appends a complete request frame (length prefix included)
// to buf. It never allocates when buf has capacity. Negative Src/Dst are
// encoded as large uvarints and rejected by the receiver's range check.
// Every frame has the one layout, so version is ignored; the parameter is
// kept for the perfbench ladder, which calls the pair codecs with Version.
func AppendRequestV(buf []byte, r *Request, version uint8) []byte {
	var arr [2 + 6*binary.MaxVarintLen64]byte
	body := append(arr[:0], TypeRequest)
	body = binary.AppendUvarint(body, r.ID)
	body = binary.AppendUvarint(body, uint64(uint(r.Src)))
	body = binary.AppendUvarint(body, uint64(uint(r.Dst)))
	body = binary.AppendUvarint(body, uint64(r.DeadlineMS))
	body = appendTrace(body, r.Trace, r.Span, r.Flags)
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	return append(buf, body...)
}

// AppendResponseV appends a complete response frame to buf (version is
// ignored, as for AppendRequestV).
func AppendResponseV(buf []byte, r *Response, version uint8) []byte {
	var arr [2 + 9*binary.MaxVarintLen64]byte
	body := append(arr[:0], TypeResponse)
	body = binary.AppendUvarint(body, r.ID)
	body = binary.AppendUvarint(body, uint64(uint(r.Status)))
	body = binary.AppendVarint(body, int64(r.Shard))
	body = binary.AppendVarint(body, int64(r.Arrival))
	body = binary.AppendVarint(body, int64(r.Dispatched))
	body = binary.AppendVarint(body, int64(r.Finished))
	body = binary.AppendVarint(body, int64(r.LatencyRounds))
	return appendAnswer(buf, body, r.Trace, r.Err)
}

// AppendSetRequest appends a complete set-request frame to buf, or an
// error when the set cannot fit MaxFrameBytes — the frame bound is the
// protocol's set size limit, checked before any bytes are emitted.
func AppendSetRequest(buf []byte, r *SetRequest) ([]byte, error) {
	body := make([]byte, 0, 2+(5+2*len(r.Pairs))*binary.MaxVarintLen64)
	body = append(body, TypeSetRequest)
	body = binary.AppendUvarint(body, r.ID)
	body = binary.AppendUvarint(body, uint64(uint(r.N)))
	body = appendPairs(body, r.Pairs)
	body = appendTrace(body, r.Trace, r.Span, r.Flags)
	return appendBody(buf, body, "set request")
}

// AppendSetResponse appends a complete set-response frame to buf.
func AppendSetResponse(buf []byte, r *SetResponse) []byte {
	var arr [3 + 10*binary.MaxVarintLen64]byte
	body := append(arr[:0], TypeSetResponse)
	body = binary.AppendUvarint(body, r.ID)
	for _, v := range [...]int{r.Status, r.Rounds, r.Bound, r.Width, r.Batches, r.Residual} {
		body = binary.AppendUvarint(body, uint64(uint(v)))
	}
	body = binary.AppendUvarint(body, uint64(r.Units))
	body = append(body, r.Strategy)
	return appendAnswer(buf, body, r.Trace, r.Err)
}

// AppendDeltaRequest appends a complete delta-request frame to buf, or an
// error when the mutation list cannot fit MaxFrameBytes.
func AppendDeltaRequest(buf []byte, r *DeltaRequest) ([]byte, error) {
	body := make([]byte, 0, 6+(7+2*(len(r.Remove)+len(r.Add)))*binary.MaxVarintLen64)
	body = append(body, TypeDeltaRequest)
	body = binary.AppendUvarint(body, r.ID)
	body = binary.AppendUvarint(body, r.Session)
	body = binary.AppendUvarint(body, uint64(r.DeadlineMS))
	body = appendPairs(body, r.Remove)
	body = appendPairs(body, r.Add)
	body = appendTrace(body, r.Trace, r.Span, r.Flags)
	return appendBody(buf, body, "delta request")
}

// AppendDeltaResponse appends a complete delta-response frame to buf.
func AppendDeltaResponse(buf []byte, r *DeltaResponse) []byte {
	var arr [3 + 9*binary.MaxVarintLen64]byte
	body := append(arr[:0], TypeDeltaResponse)
	body = binary.AppendUvarint(body, r.ID)
	body = binary.AppendUvarint(body, r.Session)
	for _, v := range [...]int{r.Status, r.Rounds, r.Width, r.Size} {
		body = binary.AppendUvarint(body, uint64(uint(v)))
	}
	fallback := byte(0)
	if r.Fallback {
		fallback = 1
	}
	body = append(body, fallback)
	return appendAnswer(buf, body, r.Trace, r.Err)
}

// appendPairs appends a counted (src, dst) pair list.
func appendPairs(body []byte, pairs [][2]int) []byte {
	body = binary.AppendUvarint(body, uint64(len(pairs)))
	for _, p := range pairs {
		body = binary.AppendUvarint(body, uint64(uint(p[0])))
		body = binary.AppendUvarint(body, uint64(uint(p[1])))
	}
	return body
}

// appendTrace appends a request's trace block.
func appendTrace(body []byte, trace, span uint64, flags uint8) []byte {
	body = binary.AppendUvarint(body, trace)
	body = binary.AppendUvarint(body, span)
	return append(body, flags)
}

// appendBody length-prefixes a variable-size request body onto buf,
// refusing one over MaxFrameBytes.
func appendBody(buf, body []byte, what string) ([]byte, error) {
	if len(body) > MaxFrameBytes {
		return buf, fmt.Errorf("%w: %s needs %d bytes", ErrFrameTooLarge, what, len(body))
	}
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	return append(buf, body...), nil
}

// appendAnswer finishes an answer frame: the fixed fields in body, then
// the trace id and the error text, truncated to maxErr.
func appendAnswer(buf, body []byte, trace uint64, errStr string) []byte {
	if len(errStr) > maxErr {
		errStr = errStr[:maxErr]
	}
	body = binary.AppendUvarint(body, trace)
	body = binary.AppendUvarint(body, uint64(len(errStr)))
	buf = binary.AppendUvarint(buf, uint64(len(body)+len(errStr)))
	buf = append(buf, body...)
	return append(buf, errStr...)
}

// ParseRequestV decodes a request body (as returned by DecodeFrame for
// TypeRequest) into req without allocating. The body must be exactly one
// request: trailing bytes are ErrBadFrame. version is ignored, as for
// AppendRequestV.
func ParseRequestV(body []byte, req *Request, version uint8) error {
	id, rest, err := uvarintField(body, "id")
	if err != nil {
		return err
	}
	src, rest, err := uvarintField(rest, "src")
	if err != nil {
		return err
	}
	dst, rest, err := uvarintField(rest, "dst")
	if err != nil {
		return err
	}
	dl, rest, err := uvarintField(rest, "deadline_ms")
	if err != nil {
		return err
	}
	trace, span, flags, err := traceTail(rest, "request")
	if err != nil {
		return err
	}
	if src > math.MaxInt32 || dst > math.MaxInt32 {
		return fmt.Errorf("%w: endpoint out of range", ErrBadFrame)
	}
	if dl > math.MaxInt64/uint64(time.Millisecond) {
		return fmt.Errorf("%w: deadline out of range", ErrBadFrame)
	}
	*req = Request{
		ID:         id,
		Src:        int(src),
		Dst:        int(dst),
		DeadlineMS: int64(dl),
		Trace:      trace,
		Span:       span,
		Flags:      flags,
	}
	return nil
}

// ParseResponseV decodes a response body (as returned by DecodeFrame for
// TypeResponse) into resp. It allocates only for a non-empty error string.
// version is ignored, as for AppendRequestV.
func ParseResponseV(body []byte, resp *Response, version uint8) error {
	id, rest, err := uvarintField(body, "id")
	if err != nil {
		return err
	}
	status, rest, err := uvarintField(rest, "status")
	if err != nil {
		return err
	}
	if status > math.MaxInt32 {
		return fmt.Errorf("%w: status out of range", ErrBadFrame)
	}
	var fields [5]int64
	for i, name := range [...]string{"shard", "arrival", "dispatched", "finished", "latency_rounds"} {
		fields[i], rest, err = varintField(rest, name)
		if err != nil {
			return err
		}
		if fields[i] > math.MaxInt32 || fields[i] < math.MinInt32 {
			return fmt.Errorf("%w: field %s out of range", ErrBadFrame, name)
		}
	}
	trace, errStr, err := answerTail(rest)
	if err != nil {
		return err
	}
	*resp = Response{
		ID:            id,
		Status:        int(status),
		Shard:         int(fields[0]),
		Arrival:       int(fields[1]),
		Dispatched:    int(fields[2]),
		Finished:      int(fields[3]),
		LatencyRounds: int(fields[4]),
		Err:           errStr,
		Trace:         trace,
	}
	return nil
}

// ParseSetRequest decodes a set-request body (as returned by DecodeFrame
// for TypeSetRequest) into req. The pair slice is reused when it has
// capacity. The claimed pair count is checked against the remaining bytes
// (each pair needs at least two) before any allocation sized by it.
func ParseSetRequest(body []byte, req *SetRequest) error {
	id, rest, err := uvarintField(body, "id")
	if err != nil {
		return err
	}
	n, rest, err := uvarintField(rest, "n")
	if err != nil {
		return err
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("%w: fabric size out of range", ErrBadFrame)
	}
	if req.Pairs, rest, err = pairList(rest, req.Pairs, "count"); err != nil {
		return err
	}
	if req.Trace, req.Span, req.Flags, err = traceTail(rest, "set request"); err != nil {
		return err
	}
	req.ID = id
	req.N = int(n)
	return nil
}

// ParseSetResponse decodes a set-response body (as returned by DecodeFrame
// for TypeSetResponse) into resp. It allocates only for a non-empty error
// string.
func ParseSetResponse(body []byte, resp *SetResponse) error {
	id, rest, err := uvarintField(body, "id")
	if err != nil {
		return err
	}
	var fields [6]int
	if rest, err = intFields(rest, fields[:], "status", "rounds", "bound", "width", "batches", "residual"); err != nil {
		return err
	}
	units, rest, err := uvarintField(rest, "units")
	if err != nil {
		return err
	}
	if units > math.MaxInt64 {
		return fmt.Errorf("%w: units out of range", ErrBadFrame)
	}
	if len(rest) == 0 {
		return fmt.Errorf("%w: field strategy", ErrTruncated)
	}
	strategy := rest[0]
	if strategy > StrategyColoring {
		return fmt.Errorf("%w: strategy code %d", ErrBadFrame, strategy)
	}
	trace, errStr, err := answerTail(rest[1:])
	if err != nil {
		return err
	}
	*resp = SetResponse{
		ID:       id,
		Status:   fields[0],
		Rounds:   fields[1],
		Bound:    fields[2],
		Width:    fields[3],
		Batches:  fields[4],
		Residual: fields[5],
		Units:    int64(units),
		Strategy: strategy,
		Err:      errStr,
		Trace:    trace,
	}
	return nil
}

// ParseDeltaRequest decodes a delta-request body (as returned by
// DecodeFrame for TypeDeltaRequest) into req. The pair slices are reused
// when they have capacity; claimed counts are checked against the
// remaining bytes before any allocation sized by them.
func ParseDeltaRequest(body []byte, req *DeltaRequest) error {
	id, rest, err := uvarintField(body, "id")
	if err != nil {
		return err
	}
	session, rest, err := uvarintField(rest, "session")
	if err != nil {
		return err
	}
	dl, rest, err := uvarintField(rest, "deadline_ms")
	if err != nil {
		return err
	}
	if dl > math.MaxInt64/uint64(time.Millisecond) {
		return fmt.Errorf("%w: deadline out of range", ErrBadFrame)
	}
	if req.Remove, rest, err = pairList(rest, req.Remove, "nremove"); err != nil {
		return err
	}
	if req.Add, rest, err = pairList(rest, req.Add, "nadd"); err != nil {
		return err
	}
	if req.Trace, req.Span, req.Flags, err = traceTail(rest, "delta request"); err != nil {
		return err
	}
	req.ID = id
	req.Session = session
	req.DeadlineMS = int64(dl)
	return nil
}

// ParseDeltaResponse decodes a delta-response body (as returned by
// DecodeFrame for TypeDeltaResponse) into resp. It allocates only for a
// non-empty error string.
func ParseDeltaResponse(body []byte, resp *DeltaResponse) error {
	id, rest, err := uvarintField(body, "id")
	if err != nil {
		return err
	}
	session, rest, err := uvarintField(rest, "session")
	if err != nil {
		return err
	}
	var fields [4]int
	if rest, err = intFields(rest, fields[:], "status", "rounds", "width", "size"); err != nil {
		return err
	}
	if len(rest) == 0 {
		return fmt.Errorf("%w: field fallback", ErrTruncated)
	}
	fb := rest[0]
	if fb > 1 {
		return fmt.Errorf("%w: fallback flag %d", ErrBadFrame, fb)
	}
	trace, errStr, err := answerTail(rest[1:])
	if err != nil {
		return err
	}
	*resp = DeltaResponse{
		ID:       id,
		Session:  session,
		Status:   fields[0],
		Rounds:   fields[1],
		Width:    fields[2],
		Size:     fields[3],
		Fallback: fb == 1,
		Err:      errStr,
		Trace:    trace,
	}
	return nil
}

// pairList reads a counted (src, dst) pair list, reusing dst's capacity.
func pairList(b []byte, into [][2]int, name string) ([][2]int, []byte, error) {
	count, rest, err := uvarintField(b, name)
	if err != nil {
		return into, nil, err
	}
	if count > uint64(len(rest))/2 {
		return into, nil, fmt.Errorf("%w: %d pairs claimed with %d bytes left", ErrBadFrame, count, len(rest))
	}
	if cap(into) < int(count) {
		into = make([][2]int, count)
	}
	into = into[:count]
	for i := range into {
		var src, dst uint64
		src, rest, err = uvarintField(rest, "src")
		if err != nil {
			return into, nil, err
		}
		dst, rest, err = uvarintField(rest, "dst")
		if err != nil {
			return into, nil, err
		}
		if src > math.MaxInt32 || dst > math.MaxInt32 {
			return into, nil, fmt.Errorf("%w: endpoint out of range", ErrBadFrame)
		}
		into[i] = [2]int{int(src), int(dst)}
	}
	return into, rest, nil
}

// intFields reads one uvarint per name into out, each bounded by MaxInt32.
func intFields(b []byte, out []int, names ...string) ([]byte, error) {
	for i, name := range names {
		v, rest, err := uvarintField(b, name)
		if err != nil {
			return nil, err
		}
		if v > math.MaxInt32 {
			return nil, fmt.Errorf("%w: field %s out of range", ErrBadFrame, name)
		}
		out[i], b = int(v), rest
	}
	return b, nil
}

// traceTail reads the trace block that ends every request body, rejecting
// trailing bytes after it.
func traceTail(b []byte, what string) (trace, span uint64, flags uint8, err error) {
	trace, rest, err := uvarintField(b, "trace")
	if err != nil {
		return 0, 0, 0, err
	}
	span, rest, err = uvarintField(rest, "span")
	if err != nil {
		return 0, 0, 0, err
	}
	if len(rest) == 0 {
		return 0, 0, 0, fmt.Errorf("%w: field flags", ErrTruncated)
	}
	if len(rest) != 1 {
		return 0, 0, 0, fmt.Errorf("%w: %d trailing bytes after %s", ErrBadFrame, len(rest)-1, what)
	}
	return trace, span, rest[0], nil
}

// answerTail reads the trace id and error text that end every answer body.
func answerTail(b []byte) (trace uint64, errStr string, err error) {
	trace, rest, err := uvarintField(b, "trace")
	if err != nil {
		return 0, "", err
	}
	errLen, rest, err := uvarintField(rest, "errlen")
	if err != nil {
		return 0, "", err
	}
	if uint64(len(rest)) != errLen {
		return 0, "", fmt.Errorf("%w: errlen %d with %d bytes left", ErrBadFrame, errLen, len(rest))
	}
	if errLen != 0 {
		errStr = string(rest)
	}
	return trace, errStr, nil
}

// DecodeFrame parses one length-prefixed frame from the front of b,
// returning the frame type, its body (aliasing b, no copy) and the total
// bytes consumed. Incomplete input returns ErrTruncated; an oversized
// length claim returns ErrFrameTooLarge without consuming or allocating.
func DecodeFrame(b []byte) (typ byte, body []byte, n int, err error) {
	length, ln := binary.Uvarint(b)
	if ln == 0 {
		return 0, nil, 0, fmt.Errorf("%w: length prefix", ErrTruncated)
	}
	if ln < 0 || length > MaxFrameBytes {
		return 0, nil, 0, fmt.Errorf("%w: claimed %d bytes", ErrFrameTooLarge, length)
	}
	if length == 0 {
		return 0, nil, 0, fmt.Errorf("%w: empty payload", ErrBadFrame)
	}
	if uint64(len(b)-ln) < length {
		return 0, nil, 0, fmt.Errorf("%w: payload wants %d bytes, have %d", ErrTruncated, length, len(b)-ln)
	}
	payload := b[ln : ln+int(length)]
	if err := checkType(payload[0]); err != nil {
		return 0, nil, 0, err
	}
	return payload[0], payload[1:], ln + int(length), nil
}

// checkType rejects a frame type byte outside the known set.
func checkType(typ byte) error {
	if typ < TypeRequest || typ > TypeDeltaResponse {
		return fmt.Errorf("%w: 0x%02x", ErrUnknownType, typ)
	}
	return nil
}

// uvarintField reads one uvarint from b, rejecting junk encodings.
func uvarintField(b []byte, name string) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: field %s", badVarintErr(b, n), name)
	}
	return v, b[n:], nil
}

// varintField reads one zigzag varint from b, rejecting junk encodings.
func varintField(b []byte, name string) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: field %s", badVarintErr(b, n), name)
	}
	return v, b[n:], nil
}

// badVarintErr distinguishes a short buffer (truncated) from an
// overlong/overflowing varint (malformed).
func badVarintErr(b []byte, n int) error {
	if n == 0 && len(b) < binary.MaxVarintLen64 {
		return ErrTruncated
	}
	return ErrBadFrame
}

// AppendHello appends a handshake message offering version.
func AppendHello(buf []byte, version uint8) []byte {
	return append(append(buf, Magic...), version)
}

// ParseHello validates a handshake message and returns the offered
// version. Version 0 is ErrVersion — there is no protocol 0.
func ParseHello(b []byte) (uint8, error) {
	if len(b) < HandshakeBytes {
		return 0, fmt.Errorf("%w: handshake wants %d bytes, have %d", ErrTruncated, HandshakeBytes, len(b))
	}
	if string(b[:len(Magic)]) != Magic {
		return 0, fmt.Errorf("%w: %q", ErrBadMagic, b[:len(Magic)])
	}
	v := b[len(Magic)]
	if v == 0 {
		return 0, fmt.Errorf("%w: 0", ErrVersion)
	}
	return v, nil
}

// Reader reads frames off a stream into a reusable buffer: steady-state
// Next calls allocate nothing. It is not safe for concurrent use.
type Reader struct {
	br  *bufio.Reader
	buf []byte
}

// NewReader wraps r for frame reading.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 4096)}
}

// Reset rearms the reader onto a new stream, keeping its buffers.
func (r *Reader) Reset(src io.Reader) { r.br.Reset(src) }

// Next reads one frame and returns its type and body. The body aliases the
// reader's internal buffer and is valid only until the next call. io.EOF
// surfaces as-is at a clean frame boundary; a partial frame is
// io.ErrUnexpectedEOF.
func (r *Reader) Next() (typ byte, body []byte, err error) {
	length, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, nil, err
	}
	if length > MaxFrameBytes {
		return 0, nil, fmt.Errorf("%w: claimed %d bytes", ErrFrameTooLarge, length)
	}
	if length == 0 {
		return 0, nil, fmt.Errorf("%w: empty payload", ErrBadFrame)
	}
	if cap(r.buf) < int(length) {
		r.buf = make([]byte, length)
	}
	payload := r.buf[:length]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	if err := checkType(payload[0]); err != nil {
		return 0, nil, err
	}
	return payload[0], payload[1:], nil
}

// ClientConn is a client side of the wire protocol: one persistent
// connection with pipelined sends. It is not safe for concurrent use; run
// one ClientConn per goroutine (cstload runs one per client).
type ClientConn struct {
	conn    net.Conn
	r       *Reader
	bw      *bufio.Writer
	scratch []byte
}

// Dial connects, performs the handshake and returns a ready connection.
func Dial(addr string, timeout time.Duration) (*ClientConn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c, err := NewClientConn(conn, timeout)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClientConn performs the client handshake over an established
// connection (handy for tests over in-memory pipes). It offers Version and
// fails with ErrVersion when the server answers any other. The timeout
// bounds the handshake only.
func NewClientConn(conn net.Conn, timeout time.Duration) (*ClientConn, error) {
	c := &ClientConn{
		conn: conn,
		r:    NewReader(conn),
		bw:   bufio.NewWriterSize(conn, 4096),
	}
	if timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(timeout))
		defer func() { _ = conn.SetDeadline(time.Time{}) }()
	}
	c.scratch = AppendHello(c.scratch[:0], Version)
	if _, err := conn.Write(c.scratch); err != nil {
		return nil, fmt.Errorf("wire: handshake write: %w", err)
	}
	var accept [HandshakeBytes]byte
	if _, err := io.ReadFull(c.r.br, accept[:]); err != nil {
		return nil, fmt.Errorf("wire: handshake read: %w", err)
	}
	v, err := ParseHello(accept[:])
	if err != nil {
		return nil, err
	}
	if v != Version {
		return nil, fmt.Errorf("%w: server answered v%d, want v%d", ErrVersion, v, Version)
	}
	return c, nil
}

// Send buffers one request frame; call Flush before blocking on Recv.
func (c *ClientConn) Send(req *Request) error {
	return c.write(AppendRequestV(c.scratch[:0], req, Version), nil)
}

// SendSet buffers one whole-set request frame; call Flush before blocking
// on RecvSet.
func (c *ClientConn) SendSet(req *SetRequest) error {
	return c.write(AppendSetRequest(c.scratch[:0], req))
}

// SendDelta buffers one delta-request frame; call Flush before blocking on
// RecvDelta.
func (c *ClientConn) SendDelta(req *DeltaRequest) error {
	return c.write(AppendDeltaRequest(c.scratch[:0], req))
}

// write buffers one encoded frame, keeping its buffer as the next scratch.
func (c *ClientConn) write(frame []byte, err error) error {
	if err != nil {
		return err
	}
	c.scratch = frame
	_, err = c.bw.Write(frame)
	return err
}

// Flush pushes buffered frames onto the wire.
func (c *ClientConn) Flush() error { return c.bw.Flush() }

// Recv blocks for the next response frame and decodes it into resp.
// Responses arrive in completion order, not send order — correlate by ID.
func (c *ClientConn) Recv(resp *Response) error {
	body, err := c.next(TypeResponse)
	if err != nil {
		return err
	}
	return ParseResponseV(body, resp, Version)
}

// RecvSet blocks for the next set-response frame and decodes it into resp.
func (c *ClientConn) RecvSet(resp *SetResponse) error {
	body, err := c.next(TypeSetResponse)
	if err != nil {
		return err
	}
	return ParseSetResponse(body, resp)
}

// RecvDelta blocks for the next delta-response frame and decodes it into resp.
func (c *ClientConn) RecvDelta(resp *DeltaResponse) error {
	body, err := c.next(TypeDeltaResponse)
	if err != nil {
		return err
	}
	return ParseDeltaResponse(body, resp)
}

// next blocks for the next frame and checks that it has type want.
func (c *ClientConn) next(want byte) ([]byte, error) {
	typ, body, err := c.r.Next()
	if err != nil {
		return nil, err
	}
	if typ != want {
		return nil, fmt.Errorf("%w: 0x%02x where 0x%02x was expected", ErrUnknownType, typ, want)
	}
	return body, nil
}

// Close tears the connection down.
func (c *ClientConn) Close() error { return c.conn.Close() }
