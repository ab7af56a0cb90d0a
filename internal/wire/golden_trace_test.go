package wire

import (
	"bytes"
	"testing"
)

// The goldens below pin the trace fields of each frame, which joined the
// layout at protocol revision 3 (hence the V3 in their names).

// TestRequestFrameGoldenV3 pins the request's trace block (trace, span,
// flags) byte for byte. An untraced request carries three explicit zero
// bytes — the block is never optional.
func TestRequestFrameGoldenV3(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want []byte
	}{
		{
			name: "untraced zero block",
			req:  Request{ID: 1, Src: 3, Dst: 12},
			// length=8 | type | id=1 | src=3 | dst=12 | deadline=0 |
			// trace=0 | span=0 | flags=0
			want: []byte{0x08, 0x01, 0x01, 0x03, 0x0c, 0x00, 0x00, 0x00, 0x00},
		},
		{
			name: "sampled trace context",
			req:  Request{ID: 1, Src: 3, Dst: 12, Trace: 128, Span: 1, Flags: FlagSampled},
			// length=9 | type | id=1 | src=3 | dst=12 | deadline=0 |
			// trace=128 (0x80 0x01) | span=1 | flags=1
			want: []byte{0x09, 0x01, 0x01, 0x03, 0x0c, 0x00, 0x80, 0x01, 0x01, 0x01},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := AppendRequestV(nil, &tc.req, Version)
			if !bytes.Equal(got, tc.want) {
				t.Fatalf("AppendRequestV(%+v) = % x, want % x", tc.req, got, tc.want)
			}
			typ, body, n, err := DecodeFrame(got)
			if err != nil || typ != TypeRequest || n != len(got) {
				t.Fatalf("DecodeFrame: typ=%#x n=%d err=%v", typ, n, err)
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

// TestResponseFrameGoldenV3 pins a traced response: the trace-id uvarint
// sits between latency_rounds and errlen.
func TestResponseFrameGoldenV3(t *testing.T) {
	resp := Response{ID: 1, Status: 200, Shard: 0, Arrival: 1,
		Dispatched: 2, Finished: 6, LatencyRounds: 5, Trace: 7}
	// length=11 | type | id=1 | status=200 (0xc8 0x01) | shard=0 |
	// arrival=1 (zigzag 0x02) | dispatched=2 (0x04) | finished=6 (0x0c) |
	// latency=5 (0x0a) | trace=7 | errlen=0
	want := []byte{0x0b, 0x02, 0x01, 0xc8, 0x01, 0x00, 0x02, 0x04, 0x0c, 0x0a, 0x07, 0x00}
	got := AppendResponseV(nil, &resp, Version)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendResponseV = % x, want % x", got, want)
	}
	_, body, _, err := DecodeFrame(got)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	var back Response
	if err := ParseResponseV(body, &back, Version); err != nil {
		t.Fatalf("ParseResponseV: %v", err)
	}
	if back != resp {
		t.Fatalf("roundtrip: got %+v, want %+v", back, resp)
	}
}

// TestSetRequestFrameGoldenV3 pins a traced set request: the trace block
// follows the pair list.
func TestSetRequestFrameGoldenV3(t *testing.T) {
	req := SetRequest{ID: 1, N: 16, Pairs: [][2]int{{0, 8}, {9, 1}},
		Trace: 5, Span: 2, Flags: FlagSampled}
	// length=11 | type | id=1 | n=16 | count=2 | 0 8 | 9 1 | trace=5 |
	// span=2 | flags=1
	want := []byte{0x0b, 0x03, 0x01, 0x10, 0x02, 0x00, 0x08, 0x09, 0x01, 0x05, 0x02, 0x01}
	got, err := AppendSetRequest(nil, &req)
	if err != nil {
		t.Fatalf("AppendSetRequest: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendSetRequest = % x, want % x", got, want)
	}
	_, body, _, err := DecodeFrame(got)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	var back SetRequest
	if err := ParseSetRequest(body, &back); err != nil {
		t.Fatalf("ParseSetRequest: %v", err)
	}
	if back.Trace != 5 || back.Span != 2 || back.Flags != FlagSampled {
		t.Fatalf("trace block lost: %+v", back)
	}
}

// TestSetResponseFrameGoldenV3 pins a traced set response: the trace-id
// uvarint sits between strategy and errlen.
func TestSetResponseFrameGoldenV3(t *testing.T) {
	resp := SetResponse{ID: 3, Status: 200, Rounds: 4, Bound: 5, Width: 2,
		Batches: 2, Residual: 1, Units: 33, Strategy: StrategyPeel, Trace: 9}
	// length=13 | type | id=3 | status=200 (0xc8 0x01) | rounds=4 |
	// bound=5 | width=2 | batches=2 | residual=1 | units=33 | strategy=1 |
	// trace=9 | errlen=0
	want := []byte{0x0d, 0x04, 0x03, 0xc8, 0x01, 0x04, 0x05, 0x02, 0x02, 0x01, 0x21, 0x01, 0x09, 0x00}
	got := AppendSetResponse(nil, &resp)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendSetResponse = % x, want % x", got, want)
	}
	_, body, _, err := DecodeFrame(got)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	var back SetResponse
	if err := ParseSetResponse(body, &back); err != nil {
		t.Fatalf("ParseSetResponse: %v", err)
	}
	if back != resp {
		t.Fatalf("roundtrip: got %+v, want %+v", back, resp)
	}
}
