package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cst/internal/comm"
	"cst/internal/hybrid"
	"cst/internal/online"
	"cst/internal/padr"
	"cst/internal/serve"
	"cst/internal/topology"
	"cst/internal/wire"
)

// The in-process ladder: each rung times calls into one layer's public
// functions on the run's generated inputs, with no socket in between. The
// difference between a workload's client latency and the matching rung is
// what the process boundary and loopback TCP add.

// passes is how often a fast rung repeats its inputs; the median pass is
// reported.
const passes = 15

// timePasses runs fn passes times and returns the median per-op time.
func timePasses(ops int, fn func()) time.Duration {
	per := make([]time.Duration, passes)
	for p := range per {
		t0 := time.Now()
		fn()
		per[p] = time.Since(t0) / time.Duration(ops)
	}
	return medianDur(per)
}

// codecResult is the wire codec rung: per request-and-answer pair.
type codecResult struct {
	encode, decode time.Duration
	frameBytes     float64
}

// codecRung times encoding and decoding the workload's own frames: one op
// is one request frame plus its answer frame.
func codecRung(enc []func([]byte) ([]byte, error), parse func(typ byte, body []byte) error) (codecResult, error) {
	var stream, buf []byte
	var err error
	for _, e := range enc {
		if buf, err = e(buf[:0]); err != nil {
			return codecResult{}, err
		}
		stream = append(stream, buf...)
	}
	ops := len(enc) / 2
	res := codecResult{frameBytes: float64(len(stream)) / float64(ops)}
	res.encode = timePasses(ops, func() {
		for _, e := range enc {
			buf, _ = e(buf[:0])
		}
	})
	rd := bytes.NewReader(stream)
	fr := wire.NewReader(rd)
	var perr error
	res.decode = timePasses(ops, func() {
		rd.Reset(stream)
		fr.Reset(rd)
		for range enc {
			typ, body, err := fr.Next()
			if err == nil {
				err = parse(typ, body)
			}
			if err != nil && perr == nil {
				perr = err
			}
		}
	})
	return res, perr
}

func pairCodec(seed int64, frames []wire.Response) (codecResult, error) {
	if len(frames) == 0 {
		return codecResult{}, fmt.Errorf("no pair answers to encode")
	}
	gen := newPairGen(seed, 0, 64)
	var enc []func([]byte) ([]byte, error)
	for i := range frames {
		req := &wire.Request{ID: frames[i].ID}
		req.Src, req.Dst = gen.next()
		resp := &frames[i]
		enc = append(enc,
			func(b []byte) ([]byte, error) { return wire.AppendRequestV(b, req, wire.Version), nil },
			func(b []byte) ([]byte, error) { return wire.AppendResponseV(b, resp, wire.Version), nil })
	}
	var req wire.Request
	var resp wire.Response
	return codecRung(enc, func(typ byte, body []byte) error {
		if typ == wire.TypeRequest {
			return wire.ParseRequestV(body, &req, wire.Version)
		}
		return wire.ParseResponseV(body, &resp, wire.Version)
	})
}

func deltaCodec(seed int64, frames []wire.DeltaResponse) (codecResult, error) {
	if len(frames) == 0 {
		return codecResult{}, fmt.Errorf("no delta answers to encode")
	}
	gen, err := newDeltaGen(seed, 0, 1024, deltaOverlap)
	if err != nil {
		return codecResult{}, err
	}
	var enc []func([]byte) ([]byte, error)
	for i := range frames {
		req := &wire.DeltaRequest{ID: frames[i].ID, Session: frames[i].Session}
		req.Remove, req.Add = gen.next()
		resp := &frames[i]
		enc = append(enc,
			func(b []byte) ([]byte, error) { return wire.AppendDeltaRequest(b, req) },
			func(b []byte) ([]byte, error) { return wire.AppendDeltaResponse(b, resp), nil })
	}
	var req wire.DeltaRequest
	var resp wire.DeltaResponse
	return codecRung(enc, func(typ byte, body []byte) error {
		if typ == wire.TypeDeltaRequest {
			return wire.ParseDeltaRequest(body, &req)
		}
		return wire.ParseDeltaResponse(body, &resp)
	})
}

// poolRung drives serve.Pool.Schedule in process, open loop at the
// pair-wire rate and config, and returns the median latency from due time.
// Like the wire server's per-connection slots, at most
// conns*serve.DefaultMaxPipeline calls are in flight; a due request waits
// for a slot instead of overflowing the admission queues.
func poolRung(seed int64) (time.Duration, error) {
	p, err := serve.New(serve.Config{PEs: 64, Shards: shards, QueueDepth: 64, BatchMax: 32, BatchWait: 2 * time.Millisecond})
	if err != nil {
		return 0, err
	}
	p.Start()
	const warm, span = 300 * time.Millisecond, 1500 * time.Millisecond
	interval := time.Duration(float64(time.Second) / pairRate)
	n := int(span / interval)
	lat := make([]time.Duration, n)
	var failed atomic.Int64
	gen := newPairGen(seed, 0, 64)
	slots := make(chan struct{}, conns*serve.DefaultMaxPipeline)
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		sleepUntil(due)
		src, dst := gen.next()
		slots <- struct{}{}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			if res := p.Schedule(src, dst, 0); res.Status != http.StatusOK {
				failed.Add(1)
			}
			lat[i] = time.Since(due)
			<-slots
		}(i, due)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		return 0, err
	}
	if f := failed.Load(); f > 0 {
		return 0, fmt.Errorf("pool rung: %d requests failed", f)
	}
	return medianDur(lat[int(warm/interval):]), nil
}

// closedLoop runs op from conns goroutines until span has passed and
// returns the per-op latencies after warm. op gets the goroutine index and
// its op counter, and returns an error to stop the rung.
func closedLoop(warm, span time.Duration, op func(g, i int) error) ([]time.Duration, error) {
	start := time.Now()
	lats := make([][]time.Duration, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; time.Since(start) < span; i++ {
				t0 := time.Now()
				if err := op(g, i); err != nil {
					errs[g] = err
					return
				}
				if t0.Sub(start) >= warm {
					lats[g] = append(lats[g], time.Since(t0))
				}
			}
		}(g)
	}
	wg.Wait()
	var all []time.Duration
	for g := range lats {
		if errs[g] != nil {
			return nil, errs[g]
		}
		all = append(all, lats[g]...)
	}
	return all, nil
}

// deltaPoolRung drives serve.Pool.ScheduleDelta in process, one session
// per goroutine, with the delta-wire config and inputs.
func deltaPoolRung(seed int64) (p50 time.Duration, fallbacks, answers int, err error) {
	p, err := serve.New(serve.Config{PEs: 1024, Shards: shards, QueueDepth: 64, BatchMax: 32, BatchWait: 2 * time.Millisecond})
	if err != nil {
		return 0, 0, 0, err
	}
	p.Start()
	gens := make([]*deltaGen, conns)
	for g := range gens {
		if gens[g], err = newDeltaGen(seed, g, 1024, deltaOverlap); err != nil {
			return 0, 0, 0, err
		}
	}
	var fb, n atomic.Int64
	lat, err := closedLoop(200*time.Millisecond, time.Second, func(g, i int) error {
		remove, add := gens[g].next()
		res := p.ScheduleDelta(deltaSession(g), toComms(remove), toComms(add), 0)
		r := wire.DeltaResponse{ID: uint64(i + 1), Session: res.Session, Status: res.Status,
			Rounds: res.Rounds, Width: res.Width, Size: res.Size, Err: res.Err}
		if err := checkDelta(&r, deltaSession(g), gens[g].size()); err != nil {
			return fmt.Errorf("delta rung: %w", err)
		}
		n.Add(1)
		if res.Fallback {
			fb.Add(1)
		}
		return nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if derr := p.Drain(ctx); err == nil {
		err = derr
	}
	return medianDur(lat), int(fb.Load()), int(n.Load()), err
}

// planRung drives serve.Planner.Plan in process over the set sequence, as
// the HTTP handler calls it (with the round-by-round schedule).
func planRung(wl *setWorkload) (time.Duration, []serve.SetResult, error) {
	pl := serve.NewPlanner(serve.PlannerConfig{})
	var next atomic.Int64
	results := make([]serve.SetResult, len(wl.sets))
	var mu sync.Mutex
	lat, err := closedLoop(200*time.Millisecond, time.Second, func(g, i int) error {
		idx := int(next.Add(1)-1) % len(wl.sets)
		res := pl.Plan(wl.sets[idx], 0, true)
		if err := checkSet(wl.tree, wl.sets[idx], wl.widths[idx], &res); err != nil {
			return fmt.Errorf("plan rung, set %d: %w", idx, err)
		}
		mu.Lock()
		results[idx] = res
		mu.Unlock()
		return nil
	})
	return medianDur(lat), results, err
}

// httpCodecRung times the HTTP/JSON codec on the run's set requests and
// planned results: decode and encode on the server side, encode and
// decode on the client side. One op is one request and its answer.
func httpCodecRung(wl *setWorkload, results []serve.SetResult, count int) (time.Duration, float64, error) {
	var bodies, answers [][]byte
	for idx := 0; idx < count; idx++ {
		if results[idx].Status == 0 {
			return 0, 0, fmt.Errorf("http codec rung: set %d was never planned", idx)
		}
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(&results[idx]); err != nil {
			return 0, 0, err
		}
		bodies = append(bodies, wl.bodies[idx])
		answers = append(answers, b.Bytes())
	}
	var size int
	for i := range bodies {
		size += len(bodies[i]) + len(answers[i])
	}
	var out bytes.Buffer
	var cerr error
	d := timePasses(count, func() {
		for i := range bodies {
			var req serve.ScheduleSetRequest
			var res serve.SetResult
			err := json.NewDecoder(bytes.NewReader(bodies[i])).Decode(&req)
			if err == nil {
				_, err = json.Marshal(req)
			}
			out.Reset()
			if err == nil {
				err = json.NewEncoder(&out).Encode(&results[i])
			}
			if err == nil {
				err = json.Unmarshal(answers[i], &res)
			}
			if err != nil && cerr == nil {
				cerr = err
			}
		}
	})
	return d, float64(size) / float64(count), cerr
}

// onlineRung times the online layer on batches of k endpoint-disjoint
// pairs: Submit each pair, then Drain (Dispatch until the queue is empty).
// It returns the median time per batch and the engine batches the
// simulator ran, right-oriented, for the padr rung.
func onlineRung(seed int64, k, flushes int) (time.Duration, []*comm.Set, error) {
	const pes = 64
	sim, err := online.New(pes)
	if err != nil {
		return 0, nil, err
	}
	rng := newRand(seed, streamOnline)
	var batches []*comm.Set
	lat := make([]time.Duration, 0, flushes)
	batch := make([]comm.Comm, k)
	for f := 0; f < flushes; f++ {
		disjointPairs(rng, pes, batch)
		t0 := time.Now()
		for _, c := range batch {
			if err := sim.Submit(c); err != nil {
				return 0, nil, err
			}
		}
		if err := sim.Drain(); err != nil {
			return 0, nil, err
		}
		lat = append(lat, time.Since(t0))
		batches = appendBatches(batches, sim.TakeCompleted(), pes)
		sim.Recycle()
	}
	return medianDur(lat), batches, nil
}

// appendBatches groups completed requests by their batch (the round it was
// dispatched) and appends each batch as a right-oriented set.
func appendBatches(out []*comm.Set, done []online.Completed, n int) []*comm.Set {
	byRound := make(map[int]*comm.Set)
	var order []int
	for _, c := range done {
		s := byRound[c.Dispatched]
		if s == nil {
			s = &comm.Set{N: n}
			byRound[c.Dispatched] = s
			order = append(order, c.Dispatched)
		}
		s.Comms = append(s.Comms, c.Comm)
	}
	sort.Ints(order)
	for _, r := range order {
		s := byRound[r]
		if !s.Comms[0].RightOriented() {
			s = s.Mirror()
		}
		out = append(out, s)
	}
	return out
}

// padrRunRung times Reset+RunRounds on the engine batches the online rung
// formed, and returns the mean rounds per run.
func padrRunRung(batches []*comm.Set) (time.Duration, float64, error) {
	if len(batches) == 0 {
		return 0, 0, fmt.Errorf("padr rung: no batches")
	}
	tree, err := topology.New(batches[0].N)
	if err != nil {
		return 0, 0, err
	}
	eng, err := padr.New(tree, batches[0])
	if err != nil {
		return 0, 0, err
	}
	rounds := 0
	var rerr error
	d := timePasses(len(batches), func() {
		rounds = 0
		for _, s := range batches {
			err := eng.Reset(s)
			var r int
			if err == nil {
				r, err = eng.RunRounds()
			}
			if err != nil && rerr == nil {
				rerr = err
			}
			rounds += r
		}
	})
	return d, float64(rounds) / float64(len(batches)), rerr
}

// padrApplyRung times Engine.ApplyRounds on the delta-wire mutation stream.
func padrApplyRung(seed int64, ops int) (time.Duration, error) {
	gen, err := newDeltaGen(seed, 0, 1024, deltaOverlap)
	if err != nil {
		return 0, err
	}
	tree, err := topology.New(1024)
	if err != nil {
		return 0, err
	}
	_, add := gen.next()
	eng, err := padr.New(tree, &comm.Set{N: 1024, Comms: toComms(add)})
	if err != nil {
		return 0, err
	}
	if _, err := eng.RunRounds(); err != nil {
		return 0, err
	}
	lat := make([]time.Duration, 0, ops)
	for i := 0; i < ops; i++ {
		remove, add := gen.next()
		d := padr.Delta{Remove: toComms(remove), Add: toComms(add)}
		t0 := time.Now()
		r, err := eng.ApplyRounds(d)
		lat = append(lat, time.Since(t0))
		if err != nil {
			return 0, err
		}
		if r < 1 {
			return 0, fmt.Errorf("padr apply: %d rounds", r)
		}
	}
	return medianDur(lat), nil
}

// onlineDeltaRung times online.Simulator.ApplyDelta on one session.
func onlineDeltaRung(seed int64, ops int) (time.Duration, error) {
	gen, err := newDeltaGen(seed, 0, 1024, deltaOverlap)
	if err != nil {
		return 0, err
	}
	sim, err := online.New(1024)
	if err != nil {
		return 0, err
	}
	lat := make([]time.Duration, 0, ops)
	for i := 0; i <= ops; i++ {
		remove, add := gen.next()
		rm, ad := toComms(remove), toComms(add)
		t0 := time.Now()
		res, err := sim.ApplyDelta(deltaSession(0), rm, ad)
		if i > 0 { // the first delta opens the session from scratch
			lat = append(lat, time.Since(t0))
		}
		if err != nil {
			return 0, err
		}
		if res.Rounds != res.Width || res.Size != gen.size() {
			return 0, fmt.Errorf("online delta: %d rounds, width %d, size %d", res.Rounds, res.Width, res.Size)
		}
	}
	return medianDur(lat), nil
}

// hybridRung times hybrid.Schedule over the set sequence.
func hybridRung(wl *setWorkload) (time.Duration, error) {
	lat := make([]time.Duration, 0, len(wl.sets))
	for _, s := range wl.sets {
		t0 := time.Now()
		p, err := hybrid.Schedule(wl.tree, s)
		lat = append(lat, time.Since(t0))
		if err != nil {
			return 0, err
		}
		if p.Rounds < p.Width || p.Rounds > p.Bound {
			return 0, fmt.Errorf("hybrid: rounds %d outside [%d, %d]", p.Rounds, p.Width, p.Bound)
		}
	}
	return medianDur(lat), nil
}

// roundBatch turns an observed mean batch size into the online rung's k,
// at most the 32 disjoint pairs 64 PEs hold.
func roundBatch(mean float64) int {
	if mean < 1 {
		return 32 // no pair batches observed: use the batch cap
	}
	return min(int(mean+0.5), 32)
}
