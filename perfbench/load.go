package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"cst/internal/comm"
	"cst/internal/hybrid"
	"cst/internal/serve"
	"cst/internal/topology"
	"cst/internal/wire"
)

// conns is the number of connections the load process opens per workload.
const conns = 2

// window is the measured interval of a run; load before it is warm-up.
type window struct{ start, end time.Time }

func (w window) contains(t time.Time) bool { return !t.Before(w.start) && t.Before(w.end) }

// pacer spreads rate req/s over conns connections: request i of connection
// c is due at first + i*interval, the connections offset from each other by
// equal shares of the interval.
type pacer struct {
	first    time.Time
	interval time.Duration
}

func newPacer(start time.Time, rate float64, c int) pacer {
	interval := time.Duration(float64(time.Second) * conns / rate)
	return pacer{first: start.Add(time.Duration(c) * interval / conns), interval: interval}
}

func (p pacer) due(i int) time.Time { return p.first.Add(time.Duration(i) * p.interval) }

// loadResult is what one workload's traffic produced.
type loadResult struct {
	attempted, failed int
	firstErr          error
	samples           []time.Duration // latency of each request of the window
	answers           int             // correct answers received inside the window
	sentInWindow      int
	lateMax           time.Duration // open loop: worst send lateness inside the window
	pairFrames        []wire.Response
	deltaFrames       []wire.DeltaResponse
	deltaAnswers      int
	deltaFallbacks    int
	setAnswers        map[int]*serve.SetResult // checked plan per sequence index
}

func (r *loadResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *loadResult) merge(o *loadResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.samples = append(r.samples, o.samples...)
	r.answers += o.answers
	r.sentInWindow += o.sentInWindow
	r.lateMax = max(r.lateMax, o.lateMax)
	r.pairFrames = append(r.pairFrames, o.pairFrames...)
	r.deltaFrames = append(r.deltaFrames, o.deltaFrames...)
	r.deltaAnswers += o.deltaAnswers
	r.deltaFallbacks += o.deltaFallbacks
}

// dialWire opens one wire connection and returns it with its socket, so the
// caller can bound reads with a deadline.
func dialWire(addr string) (*wire.ClientConn, net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, nil, err
	}
	c, err := wire.NewClientConn(nc, 10*time.Second)
	if err != nil {
		nc.Close()
		return nil, nil, err
	}
	return c, nc, nil
}

// keptFrames bounds the answers kept per connection for the codec rung.
const keptFrames = 2048

// runPairWire drives pair requests open loop at rate req/s, split evenly
// over conns connections, from start until win.end. Each request is due at
// a fixed time and timed from then, so a stalled generator or server shows
// as latency, and the worst send lateness is reported.
func runPairWire(addr string, seed int64, pes, shards int, rate float64, start time.Time, win window) *loadResult {
	total := &loadResult{}
	results := make([]loadResult, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pairConn(addr, newPairGen(seed, c, pes), shards, newPacer(start, rate, c), win, &results[c])
		}(c)
	}
	wg.Wait()
	for i := range results {
		total.merge(&results[i])
	}
	return total
}

func pairConn(addr string, gen *pairGen, shards int, p pacer, win window, r *loadResult) {
	n := int(win.end.Sub(p.first)/p.interval) + 1
	r.attempted = n
	c, nc, err := dialWire(addr)
	if err != nil {
		r.failed = n
		r.firstErr = err
		return
	}
	defer c.Close()
	_ = nc.SetReadDeadline(win.end.Add(10 * time.Second))

	recvAt := make([]time.Time, n)
	ok := make([]bool, n)
	var sendErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		var req wire.Request
		for i := 0; i < n; i++ {
			d := p.due(i)
			now := time.Now()
			if now.Before(d) {
				if sendErr = c.Flush(); sendErr != nil {
					return
				}
				time.Sleep(d.Sub(now))
				now = time.Now()
			}
			if win.contains(d) {
				r.sentInWindow++
				r.lateMax = max(r.lateMax, now.Sub(d))
			}
			req.ID = uint64(i + 1)
			req.Src, req.Dst = gen.next()
			if sendErr = c.Send(&req); sendErr != nil {
				return
			}
		}
		sendErr = c.Flush()
	}()

	var resp wire.Response
	for got := 0; got < n; got++ {
		if err := c.Recv(&resp); err != nil {
			break // unanswered requests are counted as failed below
		}
		at := time.Now()
		i := int(resp.ID) - 1
		if i < 0 || i >= n || !recvAt[i].IsZero() {
			r.fail(fmt.Errorf("pair: answer for unknown or repeated id %d", resp.ID))
			break
		}
		recvAt[i] = at
		if err := checkPair(&resp, shards); err != nil {
			r.fail(err)
			continue
		}
		ok[i] = true
		if len(r.pairFrames) < keptFrames {
			r.pairFrames = append(r.pairFrames, resp)
		}
		if win.contains(at) {
			r.answers++
		}
	}
	nc.Close() // unblocks a sender stuck on a dead connection
	<-done
	if sendErr != nil && r.firstErr == nil {
		r.firstErr = fmt.Errorf("pair: send: %w", sendErr)
	}
	for i := 0; i < n; i++ {
		if recvAt[i].IsZero() {
			r.fail(fmt.Errorf("pair: request %d unanswered", i+1))
		}
		if d := p.due(i); win.contains(d) {
			if ok[i] {
				r.samples = append(r.samples, recvAt[i].Sub(d))
			} else {
				r.samples = append(r.samples, failedLatency)
			}
		}
	}
}

// setWorkload holds the seeded set sequence the quality probe and the
// ladder plan, and the facts the checker needs about each set.
type setWorkload struct {
	tree   *topology.Tree
	sets   []*comm.Set
	widths []int
	bodies [][]byte
}

func newSetWorkload(seed int64, count, pes, size int) (*setWorkload, error) {
	tree, err := topology.New(pes)
	if err != nil {
		return nil, err
	}
	sets, err := setSequence(seed, count, pes, size)
	if err != nil {
		return nil, err
	}
	w := &setWorkload{tree: tree, sets: sets, widths: make([]int, count), bodies: make([][]byte, count)}
	for i, s := range sets {
		if w.widths[i], err = s.Width(tree); err != nil {
			return nil, err
		}
		req := serve.ScheduleSetRequest{N: s.N, Comms: make([]serve.SetComm, s.Len())}
		for j, c := range s.Comms {
			req.Comms[j] = serve.SetComm{Src: c.Src, Dst: c.Dst}
		}
		if w.bodies[i], err = json.Marshal(req); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// setCall is one POST /schedule-set request and its answer.
type setCall struct {
	idx    int
	t0, t1 time.Time
	status int
	body   []byte
	err    error
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

func postSet(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (wl *setWorkload) check(sc *setCall) (*serve.SetResult, error) {
	if sc.err != nil {
		return nil, fmt.Errorf("set %d: %w", sc.idx, sc.err)
	}
	if sc.status != http.StatusOK {
		return nil, fmt.Errorf("set %d: HTTP %d", sc.idx, sc.status)
	}
	res := new(serve.SetResult)
	if err := json.Unmarshal(sc.body, res); err != nil {
		return nil, fmt.Errorf("set %d: %w", sc.idx, err)
	}
	if err := checkSet(wl.tree, wl.sets[sc.idx], wl.widths[sc.idx], res); err != nil {
		return nil, fmt.Errorf("set %d: %w", sc.idx, err)
	}
	return res, nil
}

// probeSets sends sets [0, count) once each from one client and checks the
// answers; it gives the plan-quality metrics.
func probeSets(httpAddr string, wl *setWorkload, count int) *loadResult {
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	r := &loadResult{setAnswers: make(map[int]*serve.SetResult)}
	url := "http://" + httpAddr + "/schedule-set"
	for idx := 0; idx < count; idx++ {
		sc := setCall{idx: idx, t0: time.Now()}
		sc.status, sc.body, sc.err = postSet(client, url, wl.bodies[idx])
		sc.t1 = time.Now()
		r.samples = append(r.samples, sc.t1.Sub(sc.t0))
		r.attempted++
		res, err := wl.check(&sc)
		if err != nil {
			r.fail(err)
			continue
		}
		r.setAnswers[idx] = res
	}
	return r
}

// quality is plan quality over the first count sets of the sequence; the
// planner is deterministic, so it is exact for a seed. Sets whose answer
// failed the checker are left out (and already counted as failed).
type quality struct {
	plans                                                     int
	roundsOverWidth, unitsPerComm                             float64
	batchesMean, residualShare, coloringShare, exhaustedShare float64
}

func planQuality(wl *setWorkload, answers map[int]*serve.SetResult, count int) (quality, error) {
	var q quality
	var rounds, width, comms, units, residual, batches, coloring, exhausted int64
	n := 0
	for idx := 0; idx < count; idx++ {
		a, ok := answers[idx]
		if !ok {
			continue
		}
		n++
		rounds += int64(a.Rounds)
		width += int64(a.Width)
		comms += int64(wl.sets[idx].Len())
		units += a.Units
		residual += int64(a.ResidualComms)
		batches += int64(a.Batches)
		if a.Strategy == hybrid.StrategyColoring {
			coloring++
		}
		if a.Exhausted {
			exhausted++
		}
	}
	if n == 0 {
		return q, fmt.Errorf("none of the first %d sets got a correct plan", count)
	}
	q.plans = n
	q.roundsOverWidth = float64(rounds) / float64(width)
	q.unitsPerComm = float64(units) / float64(comms)
	q.batchesMean = float64(batches) / float64(n)
	q.residualShare = float64(residual) / float64(comms)
	q.coloringShare = float64(coloring) / float64(n)
	q.exhaustedShare = float64(exhausted) / float64(n)
	return q, nil
}

// deltaSession is the id of connection c's delta session; consecutive ids
// land on different shards (session % shards).
func deltaSession(c int) uint64 { return 1000 + uint64(c) }

// runDeltaWire drives one delta session per connection, one delta in
// flight, paced to rate req/s in total: delta k of a connection is due at a
// fixed time and sent then, or as soon as the previous answer arrives if
// that is later. It is a closed loop with think time: latency counts from
// the send, and a server too slow for the rate shows as send lateness and
// as answers per second below the rate.
func runDeltaWire(addr string, seed int64, pes int, overlap, rate float64, start time.Time, win window) *loadResult {
	total := &loadResult{}
	results := make([]loadResult, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			deltaConn(addr, seed, c, pes, overlap, newPacer(start, rate, c), win, &results[c])
		}(c)
	}
	wg.Wait()
	for i := range results {
		total.merge(&results[i])
	}
	return total
}

func deltaConn(addr string, seed int64, c, pes int, overlap float64, p pacer, win window, r *loadResult) {
	gen, err := newDeltaGen(seed, c, pes, overlap)
	if err != nil {
		r.attempted, r.failed, r.firstErr = 1, 1, err
		return
	}
	cc, nc, err := dialWire(addr)
	if err != nil {
		r.attempted, r.failed, r.firstErr = 1, 1, err
		return
	}
	defer cc.Close()
	_ = nc.SetDeadline(win.end.Add(10 * time.Second))
	session := deltaSession(c)
	var req wire.DeltaRequest
	var resp wire.DeltaResponse
	for id := uint64(1); ; id++ {
		due := p.due(int(id - 1))
		if !due.Before(win.end) {
			return
		}
		sleepUntil(due)
		req.ID, req.Session = id, session
		req.Remove, req.Add = gen.next()
		r.attempted++
		t0 := time.Now()
		if win.contains(t0) {
			r.sentInWindow++
			r.lateMax = max(r.lateMax, t0.Sub(due))
		}
		err := cc.SendDelta(&req)
		if err == nil {
			err = cc.Flush()
		}
		if err == nil {
			err = cc.RecvDelta(&resp)
		}
		t1 := time.Now()
		if err != nil {
			r.fail(fmt.Errorf("delta: %w", err))
			if win.contains(t0) {
				r.samples = append(r.samples, failedLatency)
			}
			return // the session state is unknown after a transport failure
		}
		if resp.ID != id {
			err = fmt.Errorf("delta: answer id %d, want %d", resp.ID, id)
		} else {
			err = checkDelta(&resp, session, gen.size())
		}
		if err != nil {
			r.fail(err)
		} else {
			r.deltaAnswers++
			if len(r.deltaFrames) < keptFrames {
				r.deltaFrames = append(r.deltaFrames, resp)
			}
			if resp.Fallback {
				r.deltaFallbacks++
			}
		}
		if err == nil && win.contains(t1) {
			r.answers++
		}
		if !win.contains(t0) {
			continue
		}
		if err != nil {
			r.samples = append(r.samples, failedLatency)
		} else {
			r.samples = append(r.samples, t1.Sub(t0))
		}
	}
}
