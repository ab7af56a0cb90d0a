package main

import (
	"bytes"
	"context"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cst"
)

func startPool(t *testing.T) (*cst.ServePool, *httptest.Server) {
	t.Helper()
	reg := cst.NewMetrics()
	pool, err := cst.NewServePool(cst.ServeConfig{PEs: 16, Shards: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	pool.Start()
	pl := cst.NewServePlanner(cst.ServePlannerConfig{Registry: reg})
	srv := httptest.NewServer(cst.NewServeHandler(pool, pl, reg, nil))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = pool.Drain(ctx)
	})
	return pool, srv
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-addr", "http://x:1/", "-clients", "2", "-requests", "10"})
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != "http://x:1" {
		t.Errorf("addr not trimmed: %q", o.addr)
	}
	if o.clients != 2 || o.requests != 10 {
		t.Errorf("parsed %+v", o)
	}
	if _, err := parseFlags([]string{"-clients", "0"}); err == nil {
		t.Error("-clients 0: want error")
	}
}

// TestRunAgainstPool drives a real pool end to end: PE discovery via
// /statusz, a fixed request budget, and a report with only expected
// statuses and sane latency quantiles.
func TestRunAgainstPool(t *testing.T) {
	_, srv := startPool(t)
	r, err := run(loadOptions{addr: srv.URL, clients: 3, requests: 60, seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Scheduled + r.Rejected; got != 60 {
		t.Fatalf("scheduled %d + rejected %d != 60", r.Scheduled, r.Rejected)
	}
	if len(r.Unexpected) != 0 {
		t.Fatalf("unexpected statuses: %v", r.Unexpected)
	}
	if r.Scheduled == 0 {
		t.Fatal("nothing scheduled")
	}
	if len(r.Latencies) != r.Scheduled {
		t.Fatalf("%d latencies for %d scheduled", len(r.Latencies), r.Scheduled)
	}
	if r.quantile(0.99) < r.quantile(0.50) {
		t.Fatalf("p99 %v < p50 %v", r.quantile(0.99), r.quantile(0.50))
	}
	if r.throughput() <= 0 {
		t.Fatalf("throughput %f", r.throughput())
	}
}

// TestRunAllRefusedFails pins the exit rule against a pool whose queue
// always refuses: one shard with a one-slot queue, never started, whose
// slot is held by a parked request. Every cstload attempt is a 429, so the
// run must fail, and the summary must print the refused share.
func TestRunAllRefusedFails(t *testing.T) {
	pool, err := cst.NewServePool(cst.ServeConfig{PEs: 16, Shards: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cst.NewServeHandler(pool, nil, nil, nil))
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		pool.Schedule(0, 1, 0) // answered only when the cleanup drain starts the pool
	}()
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := pool.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		<-parked
	})
	for pool.Snapshot().Admitted == 0 {
		time.Sleep(time.Millisecond)
	}

	r, err := run(loadOptions{addr: srv.URL, clients: 2, requests: 20, pes: 16, seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Scheduled != 0 || r.Rejected != 20 {
		t.Fatalf("scheduled %d rejected %d, want 0 and 20", r.Scheduled, r.Rejected)
	}
	if why := r.failure(); why != "no request was scheduled" {
		t.Fatalf("failure() = %q, want the nothing-scheduled verdict", why)
	}
	var b bytes.Buffer
	writeSummary(&b, r)
	if !strings.Contains(b.String(), "20 backpressured (429, 100.0% of attempts)") {
		t.Errorf("summary does not print the refused share:\n%s", b.String())
	}
}

// TestFailureRule pins each branch of the exit rule, including the
// more-than-half 429 threshold on a run that did schedule something.
func TestFailureRule(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    report
		fail bool
	}{
		{"clean", report{Scheduled: 10}, false},
		{"half refused", report{Scheduled: 5, Rejected: 5}, false},
		{"most refused", report{Scheduled: 4, Rejected: 6}, true},
		{"nothing scheduled", report{}, true},
		{"connection errors", report{Scheduled: 10, ConnErrors: 1}, true},
		{"unexpected status", report{Scheduled: 10, Unexpected: map[int]int{500: 1}}, true},
	} {
		if got := tc.r.failure() != ""; got != tc.fail {
			t.Errorf("%s: failure() = %q, want fail=%v", tc.name, tc.r.failure(), tc.fail)
		}
	}
	for _, r := range []report{
		{Scheduled: 4, Rejected: 5, ConnErrors: 1},
		{Scheduled: 4, Rejected: 5, Unexpected: map[int]int{504: 1}},
	} {
		if got := r.rejectedShare(); got != 0.5 {
			t.Errorf("%+v: rejectedShare = %v, want 0.5 (every answer and connection error is an attempt)", r, got)
		}
	}
}

// TestWriteBench pins the stdout format cmd/benchjson ingests. The
// latencies are deliberately unsorted: the quantiles route through
// internal/stats, which sorts its own copy.
func TestWriteBench(t *testing.T) {
	r := &report{
		Elapsed:   time.Second,
		Scheduled: 2,
		Latencies: []time.Duration{3 * time.Millisecond, time.Millisecond},
	}
	var b bytes.Buffer
	writeBench(&b, r)
	for _, line := range []string{
		"BenchmarkServeThroughput 2 500000000.0 ns/op",
		"BenchmarkServeLatencyP50 2 1000000 ns/op",
		"BenchmarkServeLatencyP90 2 3000000 ns/op",
		"BenchmarkServeLatencyP99 2 3000000 ns/op",
		"BenchmarkServeLatencyMax 2 3000000 ns/op",
	} {
		if !strings.Contains(b.String(), line) {
			t.Errorf("bench output missing %q:\n%s", line, b.String())
		}
	}
	b.Reset()
	writeBench(&b, &report{Elapsed: time.Second})
	if b.Len() != 0 {
		t.Errorf("empty run emitted bench lines: %q", b.String())
	}
}

// TestQuantilesUnsorted pins the bug the stats routing fixed: quantiles on
// latencies that arrive unsorted (clients finish interleaved) must still be
// order statistics, and the summary must expose sample count and max.
func TestQuantilesUnsorted(t *testing.T) {
	r := &report{Elapsed: time.Second, Scheduled: 4}
	for _, ms := range []int{40, 10, 30, 20} {
		r.Latencies = append(r.Latencies, time.Duration(ms)*time.Millisecond)
	}
	if got := r.quantile(0.50); got != 20*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := r.max(); got != 40*time.Millisecond {
		t.Errorf("max = %v", got)
	}
	var b bytes.Buffer
	writeSummary(&b, r)
	if !strings.Contains(b.String(), "over 4 samples") || !strings.Contains(b.String(), "max 40ms") {
		t.Errorf("summary missing count/max:\n%s", b.String())
	}
}

// startWirePool adds a wire listener next to the HTTP test server so wire
// runs can still discover PEs over /statusz.
func startWirePool(t *testing.T) (srvURL, wireAddr string) {
	t.Helper()
	pool, srv := startPool(t)
	ws := cst.NewWireServer(pool, cst.WireConfig{
		Planner: cst.NewServePlanner(cst.ServePlannerConfig{}),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ws.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = pool.Drain(ctx)
		_ = ws.Shutdown(ctx)
	})
	return srv.URL, ln.Addr().String()
}

// TestRunWireAgainstPool drives the wire mode end to end with pipelining:
// the full budget is answered, ids correlate, and no connection errors.
func TestRunWireAgainstPool(t *testing.T) {
	srvURL, wireAddr := startWirePool(t)
	r, err := run(loadOptions{addr: srvURL, wireAddr: wireAddr,
		clients: 3, pipeline: 8, requests: 90, seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Wire {
		t.Error("report not flagged as wire")
	}
	if got := r.Scheduled + r.Rejected; got != 90 {
		t.Fatalf("scheduled %d + rejected %d != 90", r.Scheduled, r.Rejected)
	}
	if r.ConnErrors != 0 {
		t.Fatalf("connection errors: %d", r.ConnErrors)
	}
	if len(r.Unexpected) != 0 {
		t.Fatalf("unexpected statuses: %v", r.Unexpected)
	}
	if len(r.Latencies) != r.Scheduled {
		t.Fatalf("%d latencies for %d scheduled", len(r.Latencies), r.Scheduled)
	}
}

// TestRunWireConnError pins the satellite fix: a dead wire endpoint is a
// connection error, not an entry in the Unexpected status map.
func TestRunWireConnError(t *testing.T) {
	r, err := run(loadOptions{wireAddr: "127.0.0.1:1", clients: 2, pipeline: 4,
		requests: 10, pes: 16})
	if err != nil {
		t.Fatal(err)
	}
	if r.ConnErrors == 0 {
		t.Error("dead endpoint produced no connection errors")
	}
	if len(r.Unexpected) != 0 {
		t.Errorf("dead endpoint leaked into Unexpected: %v", r.Unexpected)
	}
	if r.Scheduled != 0 {
		t.Errorf("scheduled %d against a dead endpoint", r.Scheduled)
	}
}

// TestWriteBenchWire pins the Wire series naming and the req/s extra the
// ledger splits protocols on.
func TestWriteBenchWire(t *testing.T) {
	r := &report{
		Wire:      true,
		Elapsed:   time.Second,
		Scheduled: 2,
		Latencies: []time.Duration{3 * time.Millisecond, time.Millisecond},
	}
	var b bytes.Buffer
	writeBench(&b, r)
	for _, line := range []string{
		"BenchmarkServeWireThroughput 2 500000000.0 ns/op 2.0 req/s",
		"BenchmarkServeWireLatencyP50 2 1000000 ns/op",
	} {
		if !strings.Contains(b.String(), line) {
			t.Errorf("bench output missing %q:\n%s", line, b.String())
		}
	}
}

// TestRunSetAgainstPool drives the hybrid set mode over HTTP: every
// generated crossing set must come back planned (200), no unexpected
// statuses.
func TestRunSetAgainstPool(t *testing.T) {
	_, srv := startPool(t)
	r, err := run(loadOptions{addr: srv.URL, clients: 2, requests: 20, seed: 7,
		setWorkload: "crossing", setSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !r.SetMode {
		t.Error("report not flagged as set mode")
	}
	if r.Scheduled != 20 {
		t.Fatalf("planned %d of 20 (unexpected %v, conn errors %d)",
			r.Scheduled, r.Unexpected, r.ConnErrors)
	}
	if len(r.Unexpected) != 0 || r.ConnErrors != 0 {
		t.Fatalf("unexpected %v, conn errors %d", r.Unexpected, r.ConnErrors)
	}
}

// TestRunWireSetAgainstPool drives the same set workloads over the wire
// protocol, including the non-deterministic two-sided random shape.
func TestRunWireSetAgainstPool(t *testing.T) {
	srvURL, wireAddr := startWirePool(t)
	for _, workload := range []string{"bitrev", "random"} {
		r, err := run(loadOptions{addr: srvURL, wireAddr: wireAddr,
			clients: 2, pipeline: 1, requests: 10, seed: 7,
			setWorkload: workload, setSize: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Wire || !r.SetMode {
			t.Errorf("%s: report flags wire=%v set=%v", workload, r.Wire, r.SetMode)
		}
		if r.Scheduled != 10 {
			t.Fatalf("%s: planned %d of 10 (unexpected %v, conn errors %d)",
				workload, r.Scheduled, r.Unexpected, r.ConnErrors)
		}
	}
}

// TestWriteBenchHybrid pins the Hybrid series naming on both transports.
func TestWriteBenchHybrid(t *testing.T) {
	r := &report{
		SetMode:   true,
		Elapsed:   time.Second,
		Scheduled: 2,
		Latencies: []time.Duration{3 * time.Millisecond, time.Millisecond},
	}
	var b bytes.Buffer
	writeBench(&b, r)
	if !strings.Contains(b.String(), "BenchmarkHybridThroughput 2 500000000.0 ns/op 2.0 req/s") {
		t.Errorf("bench output missing Hybrid series:\n%s", b.String())
	}
	r.Wire = true
	b.Reset()
	writeBench(&b, r)
	if !strings.Contains(b.String(), "BenchmarkHybridWireLatencyP50 2 1000000 ns/op") {
		t.Errorf("bench output missing HybridWire series:\n%s", b.String())
	}
}

func TestDiscoverPEsFailure(t *testing.T) {
	if _, err := run(loadOptions{addr: "http://127.0.0.1:1", clients: 1, requests: 1}); err == nil {
		t.Error("unreachable server: want error")
	}
}
