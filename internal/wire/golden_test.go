package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"testing"
	"time"
)

// TestRequestFrameGolden pins the canonical request encoding byte for
// byte, the same way the ctrl word and Prometheus exposition goldens pin
// their formats: any drift is a protocol break, not a refactor. An
// untraced request still carries its trace block as three zero bytes.
func TestRequestFrameGolden(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want []byte
	}{
		{
			name: "minimal",
			req:  Request{ID: 1, Src: 3, Dst: 12},
			// length=8 | type | id=1 | src=3 | dst=12 | deadline=0 |
			// trace=0 | span=0 | flags=0
			want: []byte{0x08, 0x01, 0x01, 0x03, 0x0c, 0x00, 0x00, 0x00, 0x00},
		},
		{
			name: "multibyte varints",
			req:  Request{ID: 300, Src: 128, Dst: 129, DeadlineMS: 250},
			// length=12 | type | id=300 (0xac 0x02) | src=128 (0x80 0x01)
			// | dst=129 (0x81 0x01) | deadline=250 (0xfa 0x01) | zero trace block
			want: []byte{0x0c, 0x01, 0xac, 0x02, 0x80, 0x01, 0x81, 0x01, 0xfa, 0x01, 0x00, 0x00, 0x00},
		},
		{
			name: "zero everything",
			req:  Request{},
			want: []byte{0x08, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := AppendRequestV(nil, &tc.req, Version)
			if !bytes.Equal(got, tc.want) {
				t.Fatalf("AppendRequestV(%+v) = % x, want % x", tc.req, got, tc.want)
			}
			typ, body, n, err := DecodeFrame(got)
			if err != nil {
				t.Fatalf("DecodeFrame: %v", err)
			}
			if typ != TypeRequest || n != len(got) {
				t.Fatalf("DecodeFrame: typ=%#x n=%d, want typ=%#x n=%d", typ, n, TypeRequest, len(got))
			}
			var back Request
			if err := ParseRequestV(body, &back, Version); err != nil {
				t.Fatalf("ParseRequestV: %v", err)
			}
			if back != tc.req {
				t.Fatalf("roundtrip: got %+v, want %+v", back, tc.req)
			}
		})
	}
}

// TestResponseFrameGolden pins the canonical response encoding.
func TestResponseFrameGolden(t *testing.T) {
	cases := []struct {
		name string
		resp Response
		want []byte
	}{
		{
			name: "scheduled",
			resp: Response{ID: 1, Status: 200, Shard: 0, Arrival: 1,
				Dispatched: 2, Finished: 6, LatencyRounds: 5},
			// length=11 | type | id=1 | status=200 (0xc8 0x01) |
			// shard=0 | arrival=1 (zigzag 0x02) | dispatched=2 (0x04) |
			// finished=6 (0x0c) | latency=5 (0x0a) | trace=0 | errlen=0
			want: []byte{0x0b, 0x02, 0x01, 0xc8, 0x01, 0x00, 0x02, 0x04, 0x0c, 0x0a, 0x00, 0x00},
		},
		{
			name: "rejected with error text",
			resp: Response{ID: 7, Status: 429, Shard: -1, Err: "queue full"},
			// length=21 | type | id=7 | status=429 (0xad 0x03) |
			// shard=-1 (zigzag 0x01) | arrival..latency=0 | trace=0 |
			// errlen=10 | "queue full"
			want: append([]byte{0x15, 0x02, 0x07, 0xad, 0x03, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a},
				[]byte("queue full")...),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := AppendResponseV(nil, &tc.resp, Version)
			if !bytes.Equal(got, tc.want) {
				t.Fatalf("AppendResponseV(%+v) = % x, want % x", tc.resp, got, tc.want)
			}
			typ, body, n, err := DecodeFrame(got)
			if err != nil {
				t.Fatalf("DecodeFrame: %v", err)
			}
			if typ != TypeResponse || n != len(got) {
				t.Fatalf("DecodeFrame: typ=%#x n=%d, want typ=%#x n=%d", typ, n, TypeResponse, len(got))
			}
			var back Response
			if err := ParseResponseV(body, &back, Version); err != nil {
				t.Fatalf("ParseResponseV: %v", err)
			}
			if back != tc.resp {
				t.Fatalf("roundtrip: got %+v, want %+v", back, tc.resp)
			}
		})
	}
}

// TestSetRequestFrameGolden pins the set-request encoding.
func TestSetRequestFrameGolden(t *testing.T) {
	cases := []struct {
		name string
		req  SetRequest
		want []byte
	}{
		{
			name: "crossing pair of pairs",
			req:  SetRequest{ID: 1, N: 16, Pairs: [][2]int{{0, 8}, {9, 1}}},
			// length=11 | type | id=1 | n=16 | count=2 | 0 8 | 9 1 |
			// zero trace block
			want: []byte{0x0b, 0x03, 0x01, 0x10, 0x02, 0x00, 0x08, 0x09, 0x01, 0x00, 0x00, 0x00},
		},
		{
			name: "empty set",
			req:  SetRequest{ID: 2, N: 4},
			// length=7 | type | id=2 | n=4 | count=0 | zero trace block
			want: []byte{0x07, 0x03, 0x02, 0x04, 0x00, 0x00, 0x00, 0x00},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := AppendSetRequest(nil, &tc.req)
			if err != nil {
				t.Fatalf("AppendSetRequest: %v", err)
			}
			if !bytes.Equal(got, tc.want) {
				t.Fatalf("AppendSetRequest(%+v) = % x, want % x", tc.req, got, tc.want)
			}
			typ, body, n, err := DecodeFrame(got)
			if err != nil || typ != TypeSetRequest || n != len(got) {
				t.Fatalf("DecodeFrame: typ=%#x n=%d err=%v", typ, n, err)
			}
			var back SetRequest
			if err := ParseSetRequest(body, &back); err != nil {
				t.Fatalf("ParseSetRequest: %v", err)
			}
			if back.ID != tc.req.ID || back.N != tc.req.N || len(back.Pairs) != len(tc.req.Pairs) {
				t.Fatalf("roundtrip: got %+v, want %+v", back, tc.req)
			}
			for i := range back.Pairs {
				if back.Pairs[i] != tc.req.Pairs[i] {
					t.Fatalf("pair %d: got %v, want %v", i, back.Pairs[i], tc.req.Pairs[i])
				}
			}
		})
	}

	// An oversized set is refused at encode time, before any frame bytes.
	big := &SetRequest{ID: 1, N: 1 << 20, Pairs: make([][2]int, MaxFrameBytes)}
	for i := range big.Pairs {
		big.Pairs[i] = [2]int{i, i + 1}
	}
	if _, err := AppendSetRequest(nil, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized set: %v, want ErrFrameTooLarge", err)
	}
}

// TestSetResponseFrameGolden pins the set-response encoding.
func TestSetResponseFrameGolden(t *testing.T) {
	cases := []struct {
		name string
		resp SetResponse
		want []byte
	}{
		{
			name: "planned",
			resp: SetResponse{ID: 3, Status: 200, Rounds: 4, Bound: 5, Width: 2,
				Batches: 2, Residual: 1, Units: 33, Strategy: StrategyPeel},
			// length=13 | type | id=3 | status=200 (0xc8 0x01) | rounds=4 |
			// bound=5 | width=2 | batches=2 | residual=1 | units=33 |
			// strategy=1 | trace=0 | errlen=0
			want: []byte{0x0d, 0x04, 0x03, 0xc8, 0x01, 0x04, 0x05, 0x02, 0x02, 0x01, 0x21, 0x01, 0x00, 0x00},
		},
		{
			name: "invalid set",
			resp: SetResponse{ID: 9, Status: 400, Err: "bad set"},
			// length=20 | type | id=9 | status=400 (0x90 0x03) | five zero
			// count fields | units=0 | strategy=0 | trace=0 | errlen=7 |
			// "bad set"
			want: append([]byte{0x14, 0x04, 0x09, 0x90, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07},
				[]byte("bad set")...),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := AppendSetResponse(nil, &tc.resp)
			if !bytes.Equal(got, tc.want) {
				t.Fatalf("AppendSetResponse(%+v) = % x, want % x", tc.resp, got, tc.want)
			}
			typ, body, n, err := DecodeFrame(got)
			if err != nil || typ != TypeSetResponse || n != len(got) {
				t.Fatalf("DecodeFrame: typ=%#x n=%d err=%v", typ, n, err)
			}
			var back SetResponse
			if err := ParseSetResponse(body, &back); err != nil {
				t.Fatalf("ParseSetResponse: %v", err)
			}
			if back != tc.resp {
				t.Fatalf("roundtrip: got %+v, want %+v", back, tc.resp)
			}
		})
	}

	// A junk strategy code is malformed, not silently accepted.
	frame := AppendSetResponse(nil, &SetResponse{ID: 1, Status: 200})
	_, body, _, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), body...)
	bad[len(bad)-3] = 0x07 // strategy byte sits before trace=0 and errlen=0
	var resp SetResponse
	if err := ParseSetResponse(bad, &resp); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("junk strategy: %v, want ErrBadFrame", err)
	}
}

// TestHandshakeGolden pins the handshake bytes and ParseHello's checks.
func TestHandshakeGolden(t *testing.T) {
	hello := AppendHello(nil, Version)
	want := []byte{'C', 'S', 'T', 'W', 0x04}
	if !bytes.Equal(hello, want) {
		t.Fatalf("AppendHello = % x, want % x", hello, want)
	}
	v, err := ParseHello(hello)
	if err != nil || v != Version {
		t.Fatalf("ParseHello = (%d, %v), want (%d, nil)", v, err, Version)
	}

	if _, err := ParseHello([]byte("CSTX\x01")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v, want ErrBadMagic", err)
	}
	if _, err := ParseHello([]byte("CST")); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short handshake: got %v, want ErrTruncated", err)
	}
	if _, err := ParseHello([]byte("CSTW\x00")); !errors.Is(err, ErrVersion) {
		t.Fatalf("version 0: got %v, want ErrVersion", err)
	}
}

// TestVersionNegotiationOverConn drives the client handshake against a
// scripted server: a client accepts a server answering the current
// version and returns ErrVersion for any other answer, older or newer.
func TestVersionNegotiationOverConn(t *testing.T) {
	// handshake runs the client against a server that reads the hello,
	// checks it offers Version and answers with answer.
	handshake := func(answer uint8) (*ClientConn, error) {
		cli, srv := net.Pipe()
		go func() {
			defer srv.Close()
			hello := make([]byte, HandshakeBytes)
			if _, err := io.ReadFull(srv, hello); err != nil {
				return
			}
			if v, err := ParseHello(hello); err != nil || v != Version {
				return
			}
			srv.Write(AppendHello(nil, answer))
		}()
		c, err := NewClientConn(cli, time.Second)
		if err != nil {
			cli.Close()
		}
		return c, err
	}

	t.Run("current server version accepted", func(t *testing.T) {
		c, err := handshake(Version)
		if err != nil {
			t.Fatalf("server answered v%d: %v", Version, err)
		}
		c.Close()
	})

	t.Run("older server version rejected", func(t *testing.T) {
		if _, err := handshake(3); !errors.Is(err, ErrVersion) {
			t.Fatalf("server answered v3: got %v, want ErrVersion", err)
		}
	})

	t.Run("future server version rejected", func(t *testing.T) {
		for _, answer := range []uint8{5, 9} {
			if _, err := handshake(answer); !errors.Is(err, ErrVersion) {
				t.Fatalf("server answered v%d: got %v, want ErrVersion", answer, err)
			}
		}
	})
}

// TestDecodeFrameErrors exercises every typed failure path.
func TestDecodeFrameErrors(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty input", nil, ErrTruncated},
		{"oversized length claim", []byte{0xff, 0xff, 0x01}, ErrFrameTooLarge}, // claims 32767 bytes
		{"zero-length payload", []byte{0x00}, ErrBadFrame},
		{"truncated payload", []byte{0x05, 0x01, 0x01}, ErrTruncated},
		{"unknown type", []byte{0x01, 0x7f}, ErrUnknownType},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := DecodeFrame(tc.in)
			if !errors.Is(err, tc.want) {
				t.Fatalf("DecodeFrame(% x) err = %v, want %v", tc.in, err, tc.want)
			}
		})
	}
}

// TestParseErrors exercises body-level failure paths.
func TestParseErrors(t *testing.T) {
	var req Request
	if err := ParseRequestV([]byte{0x01}, &req, Version); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short request body: %v, want ErrTruncated", err)
	}
	if err := ParseRequestV([]byte{0x01, 0x02, 0x03, 0x00, 0x00, 0x00, 0x00, 0xff}, &req, Version); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing bytes: %v, want ErrBadFrame", err)
	}
	// src beyond int32 (negative Src encoded as huge uvarint lands here).
	huge := AppendRequestV(nil, &Request{Src: -1}, Version)
	_, body, _, err := DecodeFrame(huge)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if err := ParseRequestV(body, &req, Version); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("out-of-range src: %v, want ErrBadFrame", err)
	}
	// Overlong varint (10 bytes of continuation) is malformed, not truncated.
	junk := bytes.Repeat([]byte{0xff}, 11)
	if err := ParseRequestV(junk, &req, Version); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("overflowing varint: %v, want ErrBadFrame", err)
	}

	var resp Response
	if err := ParseResponseV([]byte{0x01, 0xc8}, &resp, Version); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short response body: %v, want ErrTruncated", err)
	}
	// errlen that disagrees with the remaining bytes.
	full := AppendResponseV(nil, &Response{ID: 1, Status: 200, Err: "xy"}, Version)
	_, body, _, err = DecodeFrame(full)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if err := ParseResponseV(body[:len(body)-1], &resp, Version); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("errlen mismatch: %v, want ErrBadFrame", err)
	}
}

// TestDeadlineConversion pins the ms → duration mapping and the range
// guard on absurd deadlines.
func TestDeadlineConversion(t *testing.T) {
	r := Request{DeadlineMS: 250}
	if r.Deadline() != 250*time.Millisecond {
		t.Fatalf("Deadline() = %v, want 250ms", r.Deadline())
	}
	overflow := AppendRequestV(nil, &Request{DeadlineMS: math.MaxInt64}, Version)
	_, body, _, err := DecodeFrame(overflow)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	var back Request
	if err := ParseRequestV(body, &back, Version); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("overflow deadline: %v, want ErrBadFrame", err)
	}
}

// TestReaderStream feeds several frames through a Reader, split across
// arbitrary write boundaries, and checks EOF semantics.
func TestReaderStream(t *testing.T) {
	var stream []byte
	reqs := []Request{{ID: 1, Src: 0, Dst: 5}, {ID: 2, Src: 300, Dst: 301, DeadlineMS: 1000}}
	for i := range reqs {
		stream = AppendRequestV(stream, &reqs[i], Version)
	}
	stream = AppendResponseV(stream, &Response{ID: 1, Status: 200, LatencyRounds: 3}, Version)

	r := NewReader(bytes.NewReader(stream))
	for i := range reqs {
		typ, body, err := r.Next()
		if err != nil || typ != TypeRequest {
			t.Fatalf("frame %d: typ=%#x err=%v", i, typ, err)
		}
		var got Request
		if err := ParseRequestV(body, &got, Version); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got != reqs[i] {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, reqs[i])
		}
	}
	typ, body, err := r.Next()
	if err != nil || typ != TypeResponse {
		t.Fatalf("response frame: typ=%#x err=%v", typ, err)
	}
	var resp Response
	if err := ParseResponseV(body, &resp, Version); err != nil || resp.Status != 200 {
		t.Fatalf("response: %+v err=%v", resp, err)
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("at stream end: %v, want io.EOF", err)
	}

	// A partial trailing frame is an unexpected EOF, not a clean one.
	r.Reset(bytes.NewReader(stream[:len(stream)-2]))
	for i := 0; i < len(reqs); i++ {
		if _, _, err := r.Next(); err != nil {
			t.Fatalf("frame %d after reset: %v", i, err)
		}
	}
	if _, _, err := r.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("partial frame: %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestAppendParseAllocFree pins the encode and decode paths at zero
// allocations once scratch buffers exist — the property the serve hot
// path builds on.
func TestAppendParseAllocFree(t *testing.T) {
	req := Request{ID: 42, Src: 3, Dst: 12, DeadlineMS: 100}
	resp := Response{ID: 42, Status: 200, Shard: 1, Arrival: 2, Dispatched: 3,
		Finished: 9, LatencyRounds: 7}
	buf := make([]byte, 0, 64)

	if n := testing.AllocsPerRun(100, func() {
		buf = AppendRequestV(buf[:0], &req, Version)
		buf = AppendResponseV(buf[:0], &resp, Version)
	}); n != 0 {
		t.Fatalf("append paths allocate %v/op, want 0", n)
	}

	frame := AppendRequestV(nil, &req, Version)
	rframe := AppendResponseV(nil, &resp, Version)
	var gotReq Request
	var gotResp Response
	if n := testing.AllocsPerRun(100, func() {
		_, body, _, err := DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if err := ParseRequestV(body, &gotReq, Version); err != nil {
			t.Fatal(err)
		}
		_, body, _, err = DecodeFrame(rframe)
		if err != nil {
			t.Fatal(err)
		}
		if err := ParseResponseV(body, &gotResp, Version); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("decode paths allocate %v/op, want 0", n)
	}
}

// TestErrTruncationCap pins that an oversized response error string is
// truncated at encode time rather than producing an over-budget frame.
func TestErrTruncationCap(t *testing.T) {
	long := string(bytes.Repeat([]byte{'e'}, MaxFrameBytes))
	frame := AppendResponseV(nil, &Response{ID: 1, Status: 500, Err: long}, Version)
	typ, body, _, err := DecodeFrame(frame)
	if err != nil || typ != TypeResponse {
		t.Fatalf("DecodeFrame: typ=%#x err=%v", typ, err)
	}
	var resp Response
	if err := ParseResponseV(body, &resp, Version); err != nil {
		t.Fatalf("ParseResponse: %v", err)
	}
	if len(resp.Err) != MaxFrameBytes/2 {
		t.Fatalf("err carried %d bytes, want truncation to %d", len(resp.Err), MaxFrameBytes/2)
	}
}
