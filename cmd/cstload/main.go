// Command cstload drives a running cstserved with closed-loop clients and
// reports throughput and latency. Each client posts one request, waits for
// its answer, and immediately posts the next; 429 responses count as
// backpressure (with a short backoff), anything outside {2xx, 429} fails
// the run. Transport failures (dial errors, broken connections) are
// tracked as a separate connection-error counter — they are the load
// generator's problem, not a server-side rejection, and mixing the two
// corrupted more than one investigation. The human-readable report goes
// to stderr; stdout carries `go test -bench`-style lines so the output
// pipes straight into cmd/benchjson for BENCH_serve.json.
//
// With -wire the clients speak the binary wire protocol instead of
// HTTP/JSON: each client holds one persistent connection and keeps up to
// -pipeline requests in flight on it, correlating answers by request id.
// Bench lines from a wire run carry a Wire infix
// (BenchmarkServeWireLatencyP50 vs BenchmarkServeLatencyP50) so the two
// protocols track as separate series in the perf ledger.
//
// With -set-workload the clients stop posting single pairs and instead
// submit whole communication sets to the hybrid planner (POST
// /schedule-set, or TypeSetRequest frames in wire mode) — including
// adversarial non-well-nested shapes: bit-reversal ("bitrev"), pairwise
// crossing combs ("crossing"), and arbitrary two-sided random sets
// ("random"). Bench lines switch to a Hybrid prefix (BenchmarkHybrid*,
// BenchmarkHybridWire*) so set planning tracks as its own ledger series.
//
// With -delta-workload each client opens one long-lived delta session
// (session ids spread across the server's pinned shards) and streams
// incremental mutations against it — POST /schedule-delta over HTTP, delta
// frames in wire mode. -delta-overlap sets how much of the session
// set survives each delta (0.9 = 10% churn). Bench lines use a Delta
// prefix (BenchmarkDelta*, BenchmarkDeltaWire*).
//
// Examples:
//
//	cstload -addr http://127.0.0.1:8080 -clients 8 -duration 5s
//	cstload -addr http://127.0.0.1:8080 -requests 500 | benchjson -out BENCH_serve.json
//	cstload -wire 127.0.0.1:8081 -clients 4 -pipeline 16 -requests 2000
//	cstload -addr http://127.0.0.1:8080 -set-workload crossing -set-size 8 -requests 200
//	cstload -wire 127.0.0.1:8081 -set-workload bitrev -requests 200
//	cstload -addr http://127.0.0.1:8080 -delta-workload -delta-overlap 0.9 -requests 500
//	cstload -wire 127.0.0.1:8081 -delta-workload -requests 500
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"cst/internal/comm"
	"cst/internal/obs"
	"cst/internal/serve"
	"cst/internal/stats"
	"cst/internal/wire"
)

type loadOptions struct {
	addr         string
	wireAddr     string
	pipeline     int
	clients      int
	duration     time.Duration
	requests     int
	pes          int
	deadlineMS   int64
	seed         int64
	setWorkload  string
	setSize      int
	deltaMode    bool
	deltaOverlap float64
}

func parseFlags(args []string) (loadOptions, error) {
	fs := flag.NewFlagSet("cstload", flag.ContinueOnError)
	o := loadOptions{}
	fs.StringVar(&o.addr, "addr", "http://127.0.0.1:8080", "cstserved base URL")
	fs.StringVar(&o.wireAddr, "wire", "", "drive the wire protocol at this TCP address instead of HTTP (host:port)")
	fs.IntVar(&o.pipeline, "pipeline", 1, "wire mode: requests kept in flight per connection")
	fs.IntVar(&o.clients, "clients", 4, "closed-loop clients (wire mode: persistent connections)")
	fs.DurationVar(&o.duration, "duration", 3*time.Second, "run length (ignored when -requests > 0)")
	fs.IntVar(&o.requests, "requests", 0, "total request budget across clients (0 = run for -duration)")
	fs.IntVar(&o.pes, "pes", 0, "fabric size for request generation (0 = discover via /statusz)")
	fs.Int64Var(&o.deadlineMS, "deadline-ms", 0, "per-request deadline forwarded to the server (0 = server default)")
	fs.Int64Var(&o.seed, "seed", 1, "request-pattern seed")
	fs.StringVar(&o.setWorkload, "set-workload", "", "submit whole sets to the hybrid planner: bitrev, crossing or random (empty = pair requests)")
	fs.IntVar(&o.setSize, "set-size", 8, "communications per generated set (bitrev ignores this)")
	fs.BoolVar(&o.deltaMode, "delta-workload", false, "drive session-scoped delta scheduling (POST /schedule-delta, or delta frames in wire mode)")
	fs.Float64Var(&o.deltaOverlap, "delta-overlap", 0.9, "delta mode: set overlap ratio between consecutive schedules (0 <= r < 1)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.clients <= 0 {
		return o, fmt.Errorf("cstload: -clients must be positive (got %d)", o.clients)
	}
	if o.pipeline <= 0 {
		return o, fmt.Errorf("cstload: -pipeline must be positive (got %d)", o.pipeline)
	}
	switch o.setWorkload {
	case "", "bitrev", "crossing", "random":
	default:
		return o, fmt.Errorf("cstload: -set-workload must be bitrev, crossing or random (got %q)", o.setWorkload)
	}
	if o.setSize <= 0 {
		return o, fmt.Errorf("cstload: -set-size must be positive (got %d)", o.setSize)
	}
	if o.deltaMode && o.setWorkload != "" {
		return o, fmt.Errorf("cstload: -delta-workload and -set-workload are mutually exclusive")
	}
	if o.deltaOverlap < 0 || o.deltaOverlap >= 1 {
		return o, fmt.Errorf("cstload: -delta-overlap must be in [0, 1) (got %g)", o.deltaOverlap)
	}
	o.addr = strings.TrimRight(o.addr, "/")
	return o, nil
}

// report aggregates one load run.
type report struct {
	Wire       bool
	SetMode    bool
	DeltaMode  bool
	Elapsed    time.Duration
	Scheduled  int // 2xx answers
	Rejected   int // 429 backpressure
	ConnErrors int // transport failures: dials, broken pipes, short reads
	Unexpected map[int]int
	Latencies  []time.Duration // 2xx wall-clock latencies
	// Traces is index-aligned with Latencies: the server-reported trace id
	// of each 2xx answer ("" when the request was not sampled). Failed
	// holds the trace ids of non-2xx/non-429 answers — the server samples
	// every error retroactively, so these link straight to /trace/flight.
	Traces []string
	Failed []failedTrace
}

// failedTrace links one failed request to its server-side span tree.
type failedTrace struct {
	Status  int    `json:"status"`
	TraceID string `json:"trace_id"`
}

// slowTrace is one slowest-request entry in the machine-readable output.
type slowTrace struct {
	TraceID   string `json:"trace_id"`
	LatencyNS int64  `json:"latency_ns"`
}

// slowest returns the k slowest 2xx samples (latency descending).
func (r *report) slowest(k int) []slowTrace {
	idx := make([]int, len(r.Latencies))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return r.Latencies[idx[a]] > r.Latencies[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]slowTrace, 0, k)
	for _, i := range idx[:k] {
		st := slowTrace{LatencyNS: r.Latencies[i].Nanoseconds()}
		if i < len(r.Traces) {
			st.TraceID = r.Traces[i]
		}
		out = append(out, st)
	}
	return out
}

func (r *report) throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Scheduled) / r.Elapsed.Seconds()
}

// nanos returns the 2xx latencies as float64 nanoseconds for the shared
// quantile implementation in internal/stats.
func (r *report) nanos() []float64 {
	xs := make([]float64, len(r.Latencies))
	for i, d := range r.Latencies {
		xs[i] = float64(d.Nanoseconds())
	}
	return xs
}

// quantile returns the nearest-rank q-quantile of the 2xx latencies (0 when
// nothing was scheduled).
func (r *report) quantile(q float64) time.Duration {
	return time.Duration(stats.Quantile(r.nanos(), q))
}

// max returns the slowest 2xx latency.
func (r *report) max() time.Duration {
	return r.quantile(1)
}

// merge folds one client's report into the total.
func (r *report) merge(c *report) {
	r.Scheduled += c.Scheduled
	r.Rejected += c.Rejected
	r.ConnErrors += c.ConnErrors
	for code, n := range c.Unexpected {
		r.Unexpected[code] += n
	}
	r.Latencies = append(r.Latencies, c.Latencies...)
	r.Traces = append(r.Traces, c.Traces...)
	r.Failed = append(r.Failed, c.Failed...)
}

// count sorts a terminal status into the report (latency only for 2xx).
// trace is the server-reported trace id ("" when the answer carried none).
func (r *report) count(status int, lat time.Duration, trace string) {
	switch {
	case status >= 200 && status < 300:
		r.Scheduled++
		r.Latencies = append(r.Latencies, lat)
		r.Traces = append(r.Traces, trace)
	case status == http.StatusTooManyRequests:
		r.Rejected++
	default:
		r.Unexpected[status]++
		if trace != "" {
			r.Failed = append(r.Failed, failedTrace{Status: status, TraceID: trace})
		}
	}
}

// headerTrace extracts the trace id from an X-CST-Trace response header.
func headerTrace(h http.Header) string {
	ctx, ok := obs.ParseTraceHeader(h.Get(obs.TraceHeader))
	if !ok {
		return ""
	}
	return ctx.Trace.String()
}

// wireTrace renders a wire-frame trace id ("" for zero).
func wireTrace(v uint64) string {
	return obs.TraceID(v).String()
}

// discoverPEs asks the server's /statusz for its fabric size.
func discoverPEs(client *http.Client, addr string) (int, error) {
	resp, err := client.Get(addr + "/statusz")
	if err != nil {
		return 0, fmt.Errorf("cstload: /statusz: %w (wire mode still discovers over HTTP; set -pes to skip)", err)
	}
	defer resp.Body.Close()
	var st struct {
		PEs int `json:"pes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("cstload: /statusz: %w", err)
	}
	if st.PEs < 2 {
		return 0, fmt.Errorf("cstload: /statusz reports %d PEs", st.PEs)
	}
	return st.PEs, nil
}

// setGen yields communication sets for the hybrid planner. bitrev is
// deterministic; crossing and random draw fresh sets each call off the
// client's seeded source.
type setGen struct {
	rng      *rand.Rand
	pes      int
	size     int
	workload string
}

func (g *setGen) next() (*comm.Set, error) {
	switch g.workload {
	case "bitrev":
		return comm.BitReversal(g.pes)
	case "crossing":
		// The comb needs 2*size PEs; clamp so small fabrics still load.
		size := g.size
		if 2*size > g.pes {
			size = g.pes / 2
		}
		return comm.CrossingPairs(g.pes, size)
	case "random":
		size := g.size
		if 2*size > g.pes {
			size = g.pes / 2
		}
		return comm.RandomTwoSided(g.rng, g.pes, size)
	}
	return nil, fmt.Errorf("cstload: unknown set workload %q", g.workload)
}

// deltaVariants are the four-leaf-slot communication shapes the delta
// generator rotates through (the same alphabet as the lab's overlap
// sweep, so client- and engine-side measurements describe one workload).
var deltaVariants = [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 2}, {1, 3}}

// deltaGen yields session mutations over a sparse slot set: the first
// call opens the session with the full set, every later call rotates k
// distinct slots to a new variant (k removes + k adds, where k is set by
// the overlap ratio).
type deltaGen struct {
	rng          *rand.Rand
	active, step int
	k            int
	cur          []int
	opened       bool
}

func newDeltaGen(rng *rand.Rand, pes int, overlap float64) (*deltaGen, error) {
	slots := pes / 4
	if slots < 1 {
		return nil, fmt.Errorf("cstload: delta workload needs at least 4 PEs (got %d)", pes)
	}
	active := slots
	if active > 64 {
		active = 64 // the sparse bench shape: disjoint dirty paths
	}
	k := int(float64(active)*(1-overlap) + 0.5)
	if k < 1 {
		k = 1
	}
	return &deltaGen{rng: rng, active: active, step: slots / active, k: k,
		cur: make([]int, active)}, nil
}

func (g *deltaGen) base(i int) int { return 4 * i * g.step }

func (g *deltaGen) next() (remove, add [][2]int) {
	if !g.opened {
		g.opened = true
		for i := 0; i < g.active; i++ {
			v := deltaVariants[g.cur[i]]
			add = append(add, [2]int{g.base(i) + v[0], g.base(i) + v[1]})
		}
		return nil, add
	}
	// Distinct slots per delta: removes run before adds server-side.
	for _, i := range g.rng.Perm(g.active)[:g.k] {
		old := deltaVariants[g.cur[i]]
		g.cur[i] = (g.cur[i] + 1 + g.rng.Intn(len(deltaVariants)-1)) % len(deltaVariants)
		next := deltaVariants[g.cur[i]]
		remove = append(remove, [2]int{g.base(i) + old[0], g.base(i) + old[1]})
		add = append(add, [2]int{g.base(i) + next[0], g.base(i) + next[1]})
	}
	return remove, add
}

// pairGen yields seeded random (src, dst) pairs with src != dst.
type pairGen struct {
	rng *rand.Rand
	pes int
}

func (g *pairGen) next() (int, int) {
	src := g.rng.Intn(g.pes)
	dst := g.rng.Intn(g.pes)
	if src == dst {
		dst = (dst + 1) % g.pes
	}
	return src, dst
}

// budgeter hands out the request budget: a closed channel walk for
// -requests, a wall-clock check for -duration.
type budgeter struct {
	ch       chan struct{}
	deadline time.Time
}

func newBudgeter(o loadOptions) *budgeter {
	b := &budgeter{deadline: time.Now().Add(o.duration)}
	if o.requests > 0 {
		b.ch = make(chan struct{}, o.requests)
		for i := 0; i < o.requests; i++ {
			b.ch <- struct{}{}
		}
		close(b.ch)
	}
	return b
}

// take acquires one request slot; false means the run is over.
func (b *budgeter) take() bool {
	if b.ch != nil {
		_, ok := <-b.ch
		return ok
	}
	return time.Now().Before(b.deadline)
}

// run executes the load and returns the aggregate report. An error means
// the run itself failed (unreachable server); unexpected statuses and
// connection errors are reported in the result for the caller to judge.
func run(o loadOptions) (*report, error) {
	if o.pes == 0 {
		client := &http.Client{Timeout: 30 * time.Second}
		pes, err := discoverPEs(client, o.addr)
		if err != nil {
			return nil, err
		}
		o.pes = pes
	}

	budget := newBudgeter(o)
	reports := make([]report, o.clients)
	sessionBase := uint64(time.Now().UnixNano())
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < o.clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := &reports[g]
			r.Unexpected = make(map[int]int)
			rng := rand.New(rand.NewSource(o.seed + int64(g)))
			switch {
			case o.setWorkload != "":
				gen := &setGen{rng: rng, pes: o.pes, size: o.setSize, workload: o.setWorkload}
				if o.wireAddr != "" {
					runWireSetClient(o, budget, gen, r)
				} else {
					runHTTPClient(o, budget, "/schedule-set", gen.request, r)
				}
			case o.deltaMode:
				gen, err := newDeltaGen(rng, o.pes, o.deltaOverlap)
				if err != nil {
					r.ConnErrors++
					return
				}
				// Each client owns one session; consecutive ids spread the
				// sessions across the server's pinned shards. The time-based
				// base keeps back-to-back runs against one server from
				// colliding with sessions a previous run left warm.
				session := sessionBase + uint64(g)
				if o.wireAddr != "" {
					runWireDeltaClient(o, budget, gen, session, r)
				} else {
					runHTTPClient(o, budget, "/schedule-delta", func() (any, error) {
						remove, add := gen.next()
						return serve.ScheduleDeltaRequest{Session: session, Remove: setComms(remove),
							Add: setComms(add), DeadlineMS: o.deadlineMS}, nil
					}, r)
				}
			default:
				gen := &pairGen{rng: rng, pes: o.pes}
				if o.wireAddr != "" {
					runWireClient(o, budget, gen, r)
				} else {
					runHTTPClient(o, budget, "/schedule", func() (any, error) {
						src, dst := gen.next()
						return serve.ScheduleRequest{Src: src, Dst: dst, DeadlineMS: o.deadlineMS}, nil
					}, r)
				}
			}
		}(g)
	}
	wg.Wait()

	total := &report{
		Wire:       o.wireAddr != "",
		SetMode:    o.setWorkload != "",
		DeltaMode:  o.deltaMode,
		Elapsed:    time.Since(start),
		Unexpected: make(map[int]int),
	}
	for i := range reports {
		total.merge(&reports[i])
	}
	return total, nil
}

// request builds the next set as a POST /schedule-set payload.
func (g *setGen) request() (any, error) {
	s, err := g.next()
	if err != nil {
		return nil, err
	}
	comms := make([]serve.SetComm, s.Len())
	for i, cm := range s.Comms {
		comms[i] = serve.SetComm{Src: cm.Src, Dst: cm.Dst}
	}
	return serve.ScheduleSetRequest{N: s.N, Comms: comms}, nil
}

// setComms converts generator pairs to JSON communications.
func setComms(ps [][2]int) []serve.SetComm {
	out := make([]serve.SetComm, len(ps))
	for i, p := range ps {
		out[i] = serve.SetComm{Src: p[0], Dst: p[1]}
	}
	return out
}

// runHTTPClient is the closed-loop HTTP/JSON client of every request kind:
// one request in flight, POST next's payload to path, count the answer. A
// generator error ends the client as a connection error. On a delta
// session a 400 means client and server state diverged — that is a run
// failure, not noise, so it lands in Unexpected like any other
// non-2xx/429.
func runHTTPClient(o loadOptions, budget *budgeter, path string, next func() (any, error), r *report) {
	client := &http.Client{Timeout: 30 * time.Second}
	for budget.take() {
		payload, err := next()
		if err != nil {
			r.ConnErrors++
			return
		}
		body, _ := json.Marshal(payload)
		t0 := time.Now()
		resp, err := client.Post(o.addr+path, "application/json", bytes.NewReader(body))
		if err != nil {
			r.ConnErrors++
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		r.count(resp.StatusCode, time.Since(t0), headerTrace(resp.Header))
		if resp.StatusCode == http.StatusTooManyRequests {
			time.Sleep(200 * time.Microsecond) // brief backoff under backpressure
		}
	}
}

// runWireSerial drives one persistent wire connection with one request in
// flight: next builds request id (an error ends the client as a
// connection error), send buffers it, and recv returns the answer's id,
// status and trace id. Sets and deltas run this way — set planning is
// server-side CPU work and a session's deltas are ordered on its pinned
// shard, so pipelining either would only measure queueing.
func runWireSerial(o loadOptions, budget *budgeter, r *report, next func(id uint64) error,
	send func(c *wire.ClientConn) error,
	recv func(c *wire.ClientConn) (id uint64, status int, trace uint64, err error)) {
	c, err := wire.Dial(o.wireAddr, 10*time.Second)
	if err != nil {
		r.ConnErrors++
		return
	}
	defer c.Close()
	for id := uint64(1); budget.take(); id++ {
		if err := next(id); err != nil {
			r.ConnErrors++
			return
		}
		t0 := time.Now()
		if err := send(c); err != nil {
			r.ConnErrors++
			return
		}
		if err := c.Flush(); err != nil {
			r.ConnErrors++
			return
		}
		got, status, trace, err := recv(c)
		if err != nil || got != id {
			r.ConnErrors++
			return
		}
		r.count(status, time.Since(t0), wireTrace(trace))
		if status == http.StatusTooManyRequests {
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// runWireDeltaClient drives one session's deltas over a wire connection.
func runWireDeltaClient(o loadOptions, budget *budgeter, gen *deltaGen, session uint64, r *report) {
	var req wire.DeltaRequest
	var resp wire.DeltaResponse
	runWireSerial(o, budget, r,
		func(id uint64) error {
			req.ID = id
			req.Session = session
			req.DeadlineMS = o.deadlineMS
			req.Remove, req.Add = gen.next()
			return nil
		},
		func(c *wire.ClientConn) error { return c.SendDelta(&req) },
		func(c *wire.ClientConn) (uint64, int, uint64, error) {
			err := c.RecvDelta(&resp)
			return resp.ID, resp.Status, resp.Trace, err
		})
}

// runWireSetClient drives set requests over a wire connection.
func runWireSetClient(o loadOptions, budget *budgeter, gen *setGen, r *report) {
	var req wire.SetRequest
	var resp wire.SetResponse
	runWireSerial(o, budget, r,
		func(id uint64) error {
			s, err := gen.next()
			if err != nil {
				return err
			}
			req.ID = id
			req.N = s.N
			req.Pairs = req.Pairs[:0]
			for _, cm := range s.Comms {
				req.Pairs = append(req.Pairs, [2]int{cm.Src, cm.Dst})
			}
			return nil
		},
		func(c *wire.ClientConn) error { return c.SendSet(&req) },
		func(c *wire.ClientConn) (uint64, int, uint64, error) {
			err := c.RecvSet(&resp)
			return resp.ID, resp.Status, resp.Trace, err
		})
}

// runWireClient drives one persistent wire connection with up to
// o.pipeline requests in flight, correlating answers by id. A transport
// failure ends the client (its unresolved in-flight requests count as
// connection errors — they were sent and never answered).
func runWireClient(o loadOptions, budget *budgeter, gen *pairGen, r *report) {
	c, err := wire.Dial(o.wireAddr, 10*time.Second)
	if err != nil {
		r.ConnErrors++
		return
	}
	defer c.Close()

	inflight := make(map[uint64]time.Time, o.pipeline)
	nextID := uint64(1)
	var resp wire.Response

	// recvOne blocks for one answer and counts it; false ends the client.
	recvOne := func() bool {
		if err := c.Recv(&resp); err != nil {
			r.ConnErrors += len(inflight)
			return false
		}
		t0, ok := inflight[resp.ID]
		if !ok {
			// An answer we never asked for: the stream is unusable.
			r.ConnErrors += len(inflight) + 1
			return false
		}
		delete(inflight, resp.ID)
		r.count(resp.Status, time.Since(t0), wireTrace(resp.Trace))
		if resp.Status == http.StatusTooManyRequests {
			time.Sleep(200 * time.Microsecond)
		}
		return true
	}

	for {
		sent := 0
		for len(inflight) < o.pipeline && budget.take() {
			src, dst := gen.next()
			id := nextID
			nextID++
			inflight[id] = time.Now()
			if err := c.Send(&wire.Request{ID: id, Src: src, Dst: dst, DeadlineMS: o.deadlineMS}); err != nil {
				r.ConnErrors += len(inflight)
				return
			}
			sent++
		}
		if len(inflight) == 0 {
			return // budget exhausted and everything answered
		}
		if err := c.Flush(); err != nil {
			r.ConnErrors += len(inflight)
			return
		}
		if sent == 0 {
			// Budget exhausted: drain the tail.
			for len(inflight) > 0 {
				if !recvOne() {
					return
				}
			}
			return
		}
		if !recvOne() {
			return
		}
	}
}

// writeBench emits the report as `go test -bench` result lines, the format
// cmd/benchjson ingests. The throughput line carries a req/s extra metric
// (higher is better, and the ledger gate treats it as such); wire runs use
// a Wire infix so the two protocols stay separate series.
func writeBench(w io.Writer, r *report) {
	n := r.Scheduled
	if n == 0 {
		return
	}
	name := "BenchmarkServe"
	switch {
	case r.SetMode:
		name = "BenchmarkHybrid"
	case r.DeltaMode:
		name = "BenchmarkDelta"
	}
	if r.Wire {
		name += "Wire"
	}
	perOp := float64(r.Elapsed.Nanoseconds()) / float64(n)
	fmt.Fprintf(w, "%sThroughput %d %.1f ns/op %.1f req/s\n", name, n, perOp, r.throughput())
	fmt.Fprintf(w, "%sLatencyP50 %d %d ns/op\n", name, n, r.quantile(0.50).Nanoseconds())
	fmt.Fprintf(w, "%sLatencyP90 %d %d ns/op\n", name, n, r.quantile(0.90).Nanoseconds())
	fmt.Fprintf(w, "%sLatencyP99 %d %d ns/op\n", name, n, r.quantile(0.99).Nanoseconds())
	fmt.Fprintf(w, "%sLatencyMax %d %d ns/op\n", name, n, r.max().Nanoseconds())
	// One machine-readable trace line rides along with the bench output:
	// benchjson skips non-Benchmark lines, so the same stdout pipes into
	// both the perf ledger and trace-chasing scripts.
	line, _ := json.Marshal(struct {
		Slow   []slowTrace   `json:"slow_traces"`
		Failed []failedTrace `json:"failed_traces"`
	}{r.slowest(5), r.Failed})
	fmt.Fprintf(w, "%s\n", line)
}

// maxRejectedShare is the largest share of attempts the server may refuse
// with 429 before the run counts as failed: past it the run measured the
// admission queue, not the scheduler.
const maxRejectedShare = 0.5

// rejectedShare is the 429 share of attempts: every request that got an
// answer or a connection error (0 when nothing was tried).
func (r *report) rejectedShare() float64 {
	attempts := r.Scheduled + r.Rejected + r.ConnErrors
	for _, n := range r.Unexpected {
		attempts += n
	}
	if attempts == 0 {
		return 0
	}
	return float64(r.Rejected) / float64(attempts)
}

// failure reports why the run should exit non-zero, or "" when it passed:
// any unexpected status or connection error, nothing scheduled at all, or
// more than maxRejectedShare of attempts refused with 429.
func (r *report) failure() string {
	switch {
	case len(r.Unexpected) > 0:
		return "unexpected statuses"
	case r.ConnErrors > 0:
		return "connection errors"
	case r.Scheduled == 0:
		return "no request was scheduled"
	case r.rejectedShare() > maxRejectedShare:
		return fmt.Sprintf("%.1f%% of attempts backpressured (limit %.0f%%)", 100*r.rejectedShare(), 100*maxRejectedShare)
	}
	return ""
}

func writeSummary(w io.Writer, r *report) {
	proto := "http"
	if r.Wire {
		proto = "wire"
	}
	fmt.Fprintf(w, "cstload: [%s] %d scheduled, %d backpressured (429, %.1f%% of attempts), %d connection errors in %v\n",
		proto, r.Scheduled, r.Rejected, 100*r.rejectedShare(), r.ConnErrors, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "cstload: %.1f req/s over %d samples, p50 %v, p90 %v, p99 %v, max %v\n",
		r.throughput(), len(r.Latencies),
		r.quantile(0.50).Round(time.Microsecond), r.quantile(0.90).Round(time.Microsecond),
		r.quantile(0.99).Round(time.Microsecond), r.max().Round(time.Microsecond))
	for code, count := range r.Unexpected {
		fmt.Fprintf(w, "cstload: %d unexpected responses with status %d\n", count, code)
	}
	if slow := r.slowest(5); len(slow) > 0 {
		var parts []string
		for _, s := range slow {
			id := s.TraceID
			if id == "" {
				id = "-" // request was not sampled; no server-side span tree
			}
			parts = append(parts, fmt.Sprintf("%s (%v)", id, time.Duration(s.LatencyNS).Round(time.Microsecond)))
		}
		fmt.Fprintf(w, "cstload: slowest traces: %s\n", strings.Join(parts, ", "))
	}
	for _, f := range r.Failed {
		fmt.Fprintf(w, "cstload: failed request: status %d trace %s\n", f.Status, f.TraceID)
	}
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		if err == flag.ErrHelp {
			return
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	r, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	writeSummary(os.Stderr, r)
	writeBench(os.Stdout, r)
	if why := r.failure(); why != "" {
		fmt.Fprintf(os.Stderr, "cstload: FAIL: %s\n", why)
		os.Exit(1)
	}
}
