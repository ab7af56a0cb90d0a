package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cst/internal/obs"
	"cst/internal/wire"
)

// parityRig is one pool behind both transports: an HTTP server and a wire
// server sharing the pool and the planner (nil when disabled).
type parityRig struct {
	pool     *Pool
	url      string
	wireAddr string
	stop     func()
}

// newParityRig builds a 16-PE, 1-shard rig; started=false leaves the
// workers idle so a queued request stays queued.
func newParityRig(t *testing.T, started, planner bool, queueDepth int) *parityRig {
	t.Helper()
	p, err := New(Config{PEs: 16, Shards: 1, QueueDepth: queueDepth})
	if err != nil {
		t.Fatal(err)
	}
	if started {
		p.Start()
	}
	var pl *Planner
	if planner {
		pl = NewPlanner(PlannerConfig{})
	}
	srv := httptest.NewServer(Handler(p, pl, nil, nil))
	ws := NewWireServer(p, WireConfig{Planner: pl})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ws.Serve(ln)
	return &parityRig{pool: p, url: srv.URL, wireAddr: ln.Addr().String(), stop: func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = p.Drain(ctx)
		if err := ws.Shutdown(ctx); err != nil {
			t.Errorf("wire shutdown: %v", err)
		}
		srv.Close()
	}}
}

// parityReq is one request in both encodings: the HTTP path and JSON body,
// and the wire exchange returning the answer's status and error text.
type parityReq struct {
	path string
	body any
	wire func(c *wire.ClientConn) (int, string, error)
}

func pairReq(src, dst int) parityReq {
	return parityReq{"/schedule", ScheduleRequest{Src: src, Dst: dst},
		func(c *wire.ClientConn) (int, string, error) {
			var resp wire.Response
			err := exchange(c, c.Send(&wire.Request{ID: 1, Src: src, Dst: dst}), func() error { return c.Recv(&resp) })
			return resp.Status, resp.Err, err
		}}
}

func deltaReq(session uint64, remove, add [][2]int) parityReq {
	return parityReq{"/schedule-delta", ScheduleDeltaRequest{Session: session, Remove: jsonPairs(remove), Add: jsonPairs(add)},
		func(c *wire.ClientConn) (int, string, error) {
			var resp wire.DeltaResponse
			err := exchange(c, c.SendDelta(&wire.DeltaRequest{ID: 1, Session: session, Remove: remove, Add: add}),
				func() error { return c.RecvDelta(&resp) })
			return resp.Status, resp.Err, err
		}}
}

func setReq(n int, pairs [][2]int) parityReq {
	return parityReq{"/schedule-set", ScheduleSetRequest{N: n, Comms: jsonPairs(pairs)},
		func(c *wire.ClientConn) (int, string, error) {
			var resp wire.SetResponse
			err := exchange(c, c.SendSet(&wire.SetRequest{ID: 1, N: n, Pairs: pairs}),
				func() error { return c.RecvSet(&resp) })
			return resp.Status, resp.Err, err
		}}
}

// exchange flushes a buffered send (sendErr is its result) and receives.
func exchange(c *wire.ClientConn, sendErr error, recv func() error) error {
	if sendErr != nil {
		return sendErr
	}
	if err := c.Flush(); err != nil {
		return err
	}
	return recv()
}

func jsonPairs(pairs [][2]int) []SetComm {
	out := make([]SetComm, len(pairs))
	for i, p := range pairs {
		out[i] = SetComm{Src: p[0], Dst: p[1]}
	}
	return out
}

// overCap is a set of DefaultMaxPlanComms+1 comms: small enough for one
// wire frame, one over the planner's cap.
func overCap() [][2]int {
	pairs := make([][2]int, DefaultMaxPlanComms+1)
	for i := range pairs {
		pairs[i] = [2]int{0, 1}
	}
	return pairs
}

// TestWireHTTPParity sends the same requests over HTTP and over the wire
// protocol and requires the same status and the same error string from
// both: the transports are codecs over one request core, so no outcome
// may depend on which one carried the request. Each HTTP answer must also
// be a JSON body whose status matches the HTTP status code.
func TestWireHTTPParity(t *testing.T) {
	live := newParityRig(t, true, true, 0)
	defer live.stop()
	noPlanner := newParityRig(t, true, false, 0)
	defer noPlanner.stop()

	// full has one 1-slot queue, held by a request its idle worker never
	// takes, so every further admission is backpressured.
	full := newParityRig(t, false, true, 1)
	parked := make(chan Result, 1)
	go func() { parked <- full.pool.Schedule(0, 3, 0) }()
	for full.pool.Snapshot().Admitted == 0 {
		time.Sleep(time.Millisecond)
	}
	defer func() {
		full.stop()
		if res := <-parked; res.Status != http.StatusOK {
			t.Errorf("parked request after drain: %+v", res)
		}
	}()

	draining := newParityRig(t, true, true, 0)
	defer draining.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := draining.pool.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		rig    *parityRig
		http   parityReq
		wire   parityReq // defaults to http
		status int
	}{
		{name: "pair ok", rig: live, http: pairReq(2, 9), status: http.StatusOK},
		{name: "pair bad endpoints", rig: live, http: pairReq(3, 3), status: http.StatusBadRequest},
		{name: "pair queue full", rig: full, http: pairReq(4, 7), status: http.StatusTooManyRequests},
		{name: "pair draining", rig: draining, http: pairReq(4, 7), status: http.StatusServiceUnavailable},
		// Each protocol opens its own session: both are fresh opens.
		{name: "delta ok", rig: live, http: deltaReq(1, nil, [][2]int{{0, 7}}),
			wire: deltaReq(2, nil, [][2]int{{0, 7}}), status: http.StatusOK},
		{name: "delta invalid", rig: live, http: deltaReq(3, [][2]int{{9, 10}}, nil), status: http.StatusBadRequest},
		{name: "delta draining", rig: draining, http: deltaReq(1, nil, [][2]int{{0, 7}}), status: http.StatusServiceUnavailable},
		{name: "set ok", rig: live, http: setReq(16, [][2]int{{0, 8}, {12, 4}, {2, 9}}), status: http.StatusOK},
		{name: "set invalid", rig: live, http: setReq(16, [][2]int{{5, 5}}), status: http.StatusBadRequest},
		{name: "set too large", rig: live, http: setReq(16, overCap()), status: http.StatusRequestEntityTooLarge},
		{name: "set no planner", rig: noPlanner, http: setReq(16, [][2]int{{0, 8}}), status: http.StatusNotImplemented},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, err := json.Marshal(tc.http.body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(tc.rig.url+tc.http.path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var got struct {
				Status int    `json:"status"`
				Err    string `json:"error"`
			}
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatalf("HTTP %d body is not a JSON answer: %v: %q", resp.StatusCode, err, raw)
			}
			if resp.StatusCode != tc.status || got.Status != tc.status {
				t.Fatalf("HTTP = %d (body status %d, %q), want %d", resp.StatusCode, got.Status, got.Err, tc.status)
			}

			wr := tc.wire
			if wr.wire == nil {
				wr = tc.http
			}
			c, err := wire.Dial(tc.rig.wireAddr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			status, errStr, err := wr.wire(c)
			if err != nil {
				t.Fatal(err)
			}
			if status != got.Status || errStr != got.Err {
				t.Fatalf("wire = %d %q, HTTP = %d %q", status, errStr, got.Status, got.Err)
			}
		})
	}
}

// TestWireRejectedVersion pins the one-layout handshake: a hello offering
// any version but wire.Version is answered with "CSTW" wire.Version and
// then closed, and each rejection counts one protocol error.
func TestWireRejectedVersion(t *testing.T) {
	reg := obs.New()
	addr, _, _, teardown := startWire(t, Config{PEs: 8, Shards: 1}, WireConfig{Registry: reg})
	defer teardown()

	protoErrs := func() int64 { return reg.Snapshot().Counters["cst_serve_wire_protocol_errors_total"] }
	want := wire.AppendHello(nil, wire.Version)
	for i, offer := range []uint8{1, 3, 5} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(wire.AppendHello(nil, offer)); err != nil {
			t.Fatal(err)
		}
		// A server that keeps the session open fails here instead of hanging.
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		got, _ := io.ReadAll(conn)
		conn.Close()
		if !bytes.Equal(got, want) {
			t.Fatalf("offer v%d: server sent %q then closed, want exactly %q", offer, got, want)
		}
		deadline := time.Now().Add(5 * time.Second)
		for protoErrs() != int64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("offer v%d: protocol errors = %d, want %d", offer, protoErrs(), i+1)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestHTTPBodyLimit pins the request-body bound: one byte over
// maxBodyBytes is refused 413 before anything is planned, while a
// pretty-printed set at the planner's full comm cap still fits and plans.
func TestHTTPBodyLimit(t *testing.T) {
	reg := obs.New()
	p, err := New(Config{PEs: 16, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer drainOK(t, p)
	srv := httptest.NewServer(Handler(p, NewPlanner(PlannerConfig{Registry: reg}), reg, nil))
	defer srv.Close()

	head, tail := `{"n":16,"comms":[{"src":0,"dst":1}`, `]}`
	over := head + strings.Repeat(" ", maxBodyBytes+1-len(head)-len(tail)) + tail
	if len(over) != maxBodyBytes+1 {
		t.Fatalf("built a %d-byte body, want %d", len(over), maxBodyBytes+1)
	}
	resp, err := http.Post(srv.URL+"/schedule-set", "application/json", strings.NewReader(over))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", resp.StatusCode)
	}
	if got := reg.Snapshot().Counters["cst_hybrid_requests_total"]; got != 0 {
		t.Fatalf("oversized body reached the planner (%d requests)", got)
	}

	// The largest set the planner takes, adjacent pairs over every PE of a
	// 2048-PE fabric, indented.
	req := ScheduleSetRequest{N: 2 * DefaultMaxPlanComms}
	for i := 0; i < DefaultMaxPlanComms; i++ {
		req.Comms = append(req.Comms, SetComm{Src: 2 * i, Dst: 2*i + 1})
	}
	body, err := json.MarshalIndent(req, "", "    ")
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > maxBodyBytes {
		t.Fatalf("pretty-printed full set is %d bytes, over the %d-byte bound", len(body), maxBodyBytes)
	}
	resp, err = http.Post(srv.URL+"/schedule-set", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var res SetResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || res.Status != http.StatusOK {
		t.Fatalf("full-cap set = %d/%d (%s), want 200", resp.StatusCode, res.Status, res.Err)
	}
	scheduled := 0
	for _, round := range res.Schedule {
		scheduled += len(round)
	}
	if scheduled != DefaultMaxPlanComms {
		t.Fatalf("plan schedules %d comms, want %d", scheduled, DefaultMaxPlanComms)
	}
}
