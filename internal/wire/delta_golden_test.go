package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestDeltaRequestFrameGolden pins the delta-request encoding byte for
// byte: the frame layout is a protocol contract, drift is a break.
func TestDeltaRequestFrameGolden(t *testing.T) {
	cases := []struct {
		name string
		req  DeltaRequest
		want []byte
	}{
		{
			name: "one remove one add",
			req: DeltaRequest{ID: 1, Session: 7, DeadlineMS: 250,
				Remove: [][2]int{{0, 8}}, Add: [][2]int{{0, 2}}},
			// length=14 | type | id=1 | session=7 | deadline=250 (0xfa 0x01)
			// | nremove=1 | 0 8 | nadd=1 | 0 2 | trace=0 | span=0 | flags=0
			want: []byte{0x0e, 0x05, 0x01, 0x07, 0xfa, 0x01,
				0x01, 0x00, 0x08, 0x01, 0x00, 0x02, 0x00, 0x00, 0x00},
		},
		{
			name: "empty delta opens a session",
			req:  DeltaRequest{ID: 2, Session: 1},
			// length=9 | type | id=2 | session=1 | deadline=0 | nremove=0
			// | nadd=0 | trace=0 | span=0 | flags=0
			want: []byte{0x09, 0x05, 0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
		},
		{
			name: "trace context rides along",
			req:  DeltaRequest{ID: 3, Session: 300, Trace: 0xabc, Span: 1, Flags: 1},
			// length=11 | type | id=3 | session=300 (0xac 0x02) | deadline=0
			// | nremove=0 | nadd=0 | trace=0xabc (0xbc 0x15) | span=1 | flags=1
			want: []byte{0x0b, 0x05, 0x03, 0xac, 0x02, 0x00, 0x00, 0x00, 0xbc, 0x15, 0x01, 0x01},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := AppendDeltaRequest(nil, &tc.req)
			if err != nil {
				t.Fatalf("AppendDeltaRequest: %v", err)
			}
			if !bytes.Equal(got, tc.want) {
				t.Fatalf("AppendDeltaRequest(%+v) = % x, want % x", tc.req, got, tc.want)
			}
			typ, body, n, err := DecodeFrame(got)
			if err != nil || typ != TypeDeltaRequest || n != len(got) {
				t.Fatalf("DecodeFrame: typ=%#x n=%d err=%v", typ, n, err)
			}
			var back DeltaRequest
			if err := ParseDeltaRequest(body, &back); err != nil {
				t.Fatalf("ParseDeltaRequest: %v", err)
			}
			// Normalize empty-vs-nil pair slices before the deep compare.
			if len(back.Remove) == 0 {
				back.Remove = nil
			}
			if len(back.Add) == 0 {
				back.Add = nil
			}
			if !reflect.DeepEqual(back, tc.req) {
				t.Fatalf("roundtrip: got %+v, want %+v", back, tc.req)
			}
		})
	}
}

// TestDeltaResponseFrameGolden pins the delta-response encoding.
func TestDeltaResponseFrameGolden(t *testing.T) {
	cases := []struct {
		name string
		resp DeltaResponse
		want []byte
	}{
		{
			name: "applied",
			resp: DeltaResponse{ID: 1, Session: 7, Status: 200, Rounds: 2, Width: 2, Size: 5},
			// length=11 | type | id=1 | session=7 | status=200 (0xc8 0x01)
			// | rounds=2 | width=2 | size=5 | fallback=0 | trace=0 | errlen=0
			want: []byte{0x0b, 0x06, 0x01, 0x07, 0xc8, 0x01, 0x02, 0x02, 0x05, 0x00, 0x00, 0x00},
		},
		{
			name: "served by fallback",
			resp: DeltaResponse{ID: 4, Session: 2, Status: 200, Rounds: 3, Width: 3,
				Size: 8, Fallback: true, Trace: 5},
			// length=11 | type | id=4 | session=2 | status=200 | rounds=3
			// | width=3 | size=8 | fallback=1 | trace=5 | errlen=0
			want: []byte{0x0b, 0x06, 0x04, 0x02, 0xc8, 0x01, 0x03, 0x03, 0x08, 0x01, 0x05, 0x00},
		},
		{
			name: "rejected with error text",
			resp: DeltaResponse{ID: 9, Session: 1, Status: 400, Err: "bad delta"},
			// length=20 | type | id=9 | session=1 | status=400 (0x90 0x03)
			// | rounds=0 | width=0 | size=0 | fallback=0 | trace=0
			// | errlen=9 | "bad delta"
			want: append([]byte{0x14, 0x06, 0x09, 0x01, 0x90, 0x03,
				0x00, 0x00, 0x00, 0x00, 0x00, 0x09}, []byte("bad delta")...),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := AppendDeltaResponse(nil, &tc.resp)
			if !bytes.Equal(got, tc.want) {
				t.Fatalf("AppendDeltaResponse(%+v) = % x, want % x", tc.resp, got, tc.want)
			}
			typ, body, n, err := DecodeFrame(got)
			if err != nil || typ != TypeDeltaResponse || n != len(got) {
				t.Fatalf("DecodeFrame: typ=%#x n=%d err=%v", typ, n, err)
			}
			var back DeltaResponse
			if err := ParseDeltaResponse(body, &back); err != nil {
				t.Fatalf("ParseDeltaResponse: %v", err)
			}
			if back != tc.resp {
				t.Fatalf("roundtrip: got %+v, want %+v", back, tc.resp)
			}
		})
	}

	// A junk fallback byte is malformed, not silently accepted.
	frame := AppendDeltaResponse(nil, &DeltaResponse{ID: 1, Status: 200})
	_, body, _, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), body...)
	bad[len(bad)-3] = 0x07 // fallback byte sits before trace=0, errlen=0
	var resp DeltaResponse
	if err := ParseDeltaResponse(bad, &resp); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("junk fallback: %v, want ErrBadFrame", err)
	}
}

// TestDeadlineOverflowRejected pins the deadline_ms overflow guard with a
// golden hostile frame: a uvarint above MaxInt64/time.Millisecond would
// wrap Request.Deadline() negative if cast blindly, so the parser must
// reject it as malformed on every frame type that carries a deadline.
func TestDeadlineOverflowRejected(t *testing.T) {
	// uvarint encoding of 2^64-1: nine 0xff bytes then 0x01.
	overflow := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}

	// length=17 | type=request | id=1 | src=0 | dst=1 | deadline=2^64-1 |
	// zero trace block
	reqFrame := append(append([]byte{0x11, 0x01, 0x01, 0x00, 0x01}, overflow...), 0x00, 0x00, 0x00)
	typ, body, _, err := DecodeFrame(reqFrame)
	if err != nil || typ != TypeRequest {
		t.Fatalf("DecodeFrame: typ=%#x err=%v", typ, err)
	}
	var req Request
	if err := ParseRequestV(body, &req, Version); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("overflow deadline in request: %v, want ErrBadFrame", err)
	}
	if req.Deadline() < 0 {
		t.Fatalf("negative deadline %v leaked out of a rejected parse", req.Deadline())
	}

	// length=13 | type=deltareq | id=1 | session=1 | deadline=2^64-1
	deltaFrame := append([]byte{0x0d, 0x05, 0x01, 0x01}, overflow...)
	typ, body, _, err = DecodeFrame(deltaFrame)
	if err != nil || typ != TypeDeltaRequest {
		t.Fatalf("DecodeFrame: typ=%#x err=%v", typ, err)
	}
	var dreq DeltaRequest
	if err := ParseDeltaRequest(body, &dreq); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("overflow deadline in delta request: %v, want ErrBadFrame", err)
	}

	// The largest in-range value still parses: a real 292-year deadline.
	maxOK := uint64(int64(^uint64(0)>>1)) / uint64(time.Millisecond)
	ok, err := AppendDeltaRequest(nil, &DeltaRequest{ID: 1, Session: 1, DeadlineMS: int64(maxOK)})
	if err != nil {
		t.Fatal(err)
	}
	_, body, _, err = DecodeFrame(ok)
	if err != nil {
		t.Fatal(err)
	}
	if err := ParseDeltaRequest(body, &dreq); err != nil {
		t.Fatalf("max in-range deadline rejected: %v", err)
	}
	if dreq.Deadline() < 0 {
		t.Fatalf("max in-range deadline went negative: %v", dreq.Deadline())
	}
}

// TestDeltaHostileCounts pins the claimed-count guards: a tiny frame
// claiming a huge pair list must be rejected before any allocation sized
// by the claim.
func TestDeltaHostileCounts(t *testing.T) {
	// length=5 | type | id=1 | session=1 | deadline=0 | nremove=2^31 (claim)
	frame := []byte{0x09, 0x05, 0x01, 0x01, 0x00, 0x80, 0x80, 0x80, 0x80, 0x08}
	_, body, _, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	var req DeltaRequest
	if err := ParseDeltaRequest(body, &req); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("hostile nremove claim: %v, want ErrBadFrame", err)
	}

	// An endpoint above MaxInt32 is out of range for any topology.
	big, err := AppendDeltaRequest(nil, &DeltaRequest{ID: 1, Session: 1,
		Add: [][2]int{{1 << 33, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	_, body, _, err = DecodeFrame(big)
	if err != nil {
		t.Fatal(err)
	}
	if err := ParseDeltaRequest(body, &req); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized endpoint: %v, want ErrBadFrame", err)
	}
}
