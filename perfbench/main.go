// Command perfbench is the repository's serving benchmark. Each run starts
// a fresh cstserved, drives one seeded workload over loopback from this
// single load process (at most two connections, GOMAXPROCS 2), checks every
// answer, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is repeated with 1% span sampling and followed by the in-process layer
// ladder, and the metrics are the per-layer ones.
//
// Usage (from the repository root, after building cmd/cstserved):
//
//	perfbench -server <cstserved binary> -workload pair-wire -seed 1 -seconds 20 -trace 0
//
// perfbench/run.sh builds both binaries and runs this. See
// perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"cst/internal/wire"
)

const (
	shards        = 2     // cstserved's default -shards
	pairRate      = 20000 // pair-wire offered load, req/s
	deltaRate     = 5000  // delta-wire offered load, req/s
	deltaOverlap  = 0.9   // delta-wire: share of the session set each delta keeps
	setCount      = 1024  // length of the seeded set sequence the ladder plans
	setSize       = 16    // communications per set
	qualityCount  = 256   // sets the quality probe plans
	setupRuns     = 25    // server starts per run; setup_s is their median
	warmup        = 2 * time.Second
	probeSession  = 1 << 40 // delta session of the setup probe
	traceRingSize = 65536   // holds a traced window's 1% of spans
)

// workload is one traffic mix and the server configuration it runs on.
type workload struct {
	wire bool     // needs the wire listener
	pes  int      // server fabric size
	args []string // cstserved flags beyond the listeners
}

var workloads = map[string]workload{
	"pair-wire":  {wire: true, pes: 64},
	"delta-wire": {wire: true, pes: 1024, args: []string{"-pes", "1024"}},
}

type options struct {
	server, workload string
	seed             int64
	seconds          int
	trace            int
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.server, "server", "", "cstserved binary to benchmark")
	fs.StringVar(&o.workload, "workload", "", "pair-wire or delta-wire")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measured window per run, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run and per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.server == "" {
		return o, fmt.Errorf("-server is required")
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown -workload %q", o.workload)
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return o, fmt.Errorf("-seconds must be >= 1 and -trace 0 or 1")
	}
	return o, nil
}

func main() {
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	// The load process keeps little live heap; collecting it less often
	// leaves more of the two cores to the server.
	debug.SetGCPercent(400)
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b, err := newBench(o)
	if err == nil {
		err = b.main()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type bench struct {
	options
	wl     workload
	sets   *setWorkload
	client *http.Client // scrapes and trace reads, outside the load's connections
}

func newBench(o options) (*bench, error) {
	sets, err := newSetWorkload(o.seed, setCount, 64, setSize)
	if err != nil {
		return nil, err
	}
	return &bench{options: o, wl: workloads[o.workload], sets: sets,
		client: &http.Client{Timeout: 30 * time.Second}}, nil
}

// outcome is the final JSON line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (b *bench) main() error {
	base, err := b.runOnce(false)
	if err != nil {
		return err
	}
	runs := []*runStats{base}
	var defs []metricDef
	var values map[string]float64
	if b.trace == 0 {
		defs, values = endToEnd, base.endToEnd()
	} else {
		traced, err := b.runOnce(true)
		if err != nil {
			return err
		}
		runs = append(runs, traced)
		if values, err = b.perLayer(base, traced); err != nil {
			return err
		}
		defs = perLayer
	}

	out := outcome{Correct: true, Metrics: make(map[string]metric)}
	for _, r := range runs {
		for _, l := range []*loadResult{r.load, r.probe} {
			if l == nil {
				continue
			}
			out.Attempted += l.attempted
			out.Failed += l.failed
			if l.firstErr != nil {
				out.Correct = false
				fmt.Printf("perfbench: wrong or failed answer: %v\n", l.firstErr)
			}
		}
		out.Attempted += setupRuns
	}
	fmt.Printf("%s seed %d: %d samples in a %ds window; %d failed of %d attempted\n",
		b.workload, b.seed, base.lat.samples, b.seconds, out.Failed, out.Attempted)
	if base.lat.p99OK {
		fmt.Printf("  p99_ms %.4f (diagnostic)\n", ms(base.lat.p99))
	}
	fmt.Printf("  host steal %.1f%% of the machine's CPU time in the window (diagnostic)\n", 100*base.stealShare())
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no value", d.name)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		if d.moves == "" {
			fmt.Printf("  %-24s %14.6g %-6s samples %d\n", d.name, v, d.unit, base.samples(d.name))
		} else {
			fmt.Printf("  %-24s %14.6g %-6s moves %s\n", d.name, v, d.unit, d.moves)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runStats is one server's run: its set-up, the measured window and the
// counters read around it.
type runStats struct {
	setup         time.Duration
	win           window
	load, probe   *loadResult
	lat           latencySummary // over the whole window
	q             quality
	p0, p1        procSample // at the start and the end of the window
	t0, t1        cpuTicks   // machine-wide, at the start and the end of the window
	before, after scrape
	genCPU        time.Duration
	spans         spanStats
}

func (r *runStats) answered() float64 { return float64(r.load.answers) }

// rps is the correct answers per second over the window.
func (r *runStats) rps() float64 { return r.answered() / r.win.end.Sub(r.win.start).Seconds() }

// stealShare is the share of the machine's CPU time in the window that the
// hypervisor gave to other guests.
func (r *runStats) stealShare() float64 {
	return float64(r.t1.steal-r.t0.steal) / float64(max(r.t1.total-r.t0.total, 1))
}

// cpuPerReq is the server's CPU over the window per correct answer, in µs.
func (r *runStats) cpuPerReq() float64 { return us(r.p1.cpu-r.p0.cpu) / max(r.answered(), 1) }

// samples is the number of measurements behind an end-to-end metric.
func (r *runStats) samples(metric string) int {
	switch metric {
	case "setup_s":
		return setupRuns
	case "rss_mb":
		return 1
	case "rounds_over_width", "units_per_comm":
		return r.q.plans
	}
	return r.lat.samples
}

func (r *runStats) endToEnd() map[string]float64 {
	return map[string]float64{
		"rps":               r.rps(),
		"p50_ms":            ms(r.lat.p50),
		"p90_ms":            ms(r.lat.p90),
		"cpu_us_per_req":    r.cpuPerReq(),
		"rss_mb":            float64(r.p1.hwmKiB) / 1024,
		"setup_s":           r.setup.Seconds(),
		"rounds_over_width": r.q.roundsOverWidth,
		"units_per_comm":    r.q.unitsPerComm,
	}
}

func (b *bench) serverArgs(traced bool) []string {
	args := []string{"-addr", "127.0.0.1:0"}
	if b.wl.wire {
		args = append(args, "-wire-addr", "127.0.0.1:0")
	}
	args = append(args, b.wl.args...)
	if traced {
		args = append(args, "-trace-sample", "0.01", "-trace-ring", fmt.Sprint(traceRingSize))
	}
	return args
}

// runOnce starts the server setupRuns times, timing each start to its first
// correct answer, keeps the last one, and measures the workload on it. The
// plan-quality probe runs on the first server, which is then stopped, so
// the measured server's peak RSS belongs to the workload alone.
func (b *bench) runOnce(traced bool) (*runStats, error) {
	rs := &runStats{}
	var setups []time.Duration
	var srv *server
	for k := 0; k < setupRuns; k++ {
		t0 := time.Now()
		s, err := startServer(b.server, b.serverArgs(traced), b.wl.wire)
		if err != nil {
			return nil, err
		}
		if err := b.probe(s); err != nil {
			s.stop()
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		setups = append(setups, time.Since(t0))
		if k == 0 {
			rs.probe = probeSets(s.httpAddr, b.sets, qualityCount)
		}
		if k < setupRuns-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	rs.setup = medianDur(setups)

	start := time.Now().Add(50 * time.Millisecond)
	rs.win = window{start.Add(warmup), start.Add(warmup + time.Duration(b.seconds)*time.Second)}
	loaded := make(chan *loadResult, 1)
	go func() {
		switch b.workload {
		case "pair-wire":
			loaded <- runPairWire(srv.wireAddr, b.seed, b.wl.pes, shards, pairRate, start, rs.win)
		case "delta-wire":
			loaded <- runDeltaWire(srv.wireAddr, b.seed, b.wl.pes, deltaOverlap, deltaRate, start, rs.win)
		}
	}()

	// Counters are read just outside the window so reading them costs the
	// server no CPU inside it.
	var errs []error
	sleepUntil(rs.win.start.Add(-300 * time.Millisecond))
	var err error
	rs.before, err = scrapeServer(b.client, srv.httpAddr)
	errs = append(errs, err)
	sleepUntil(rs.win.start)
	rs.p0, err = readProc(srv.pid())
	errs = append(errs, err)
	rs.t0, err = readCPUTicks()
	errs = append(errs, err)
	cpu0 := selfCPU()
	sleepUntil(rs.win.end)
	rs.p1, err = readProc(srv.pid())
	errs = append(errs, err)
	rs.t1, err = readCPUTicks()
	errs = append(errs, err)
	rs.genCPU = selfCPU() - cpu0
	rs.after, err = scrapeServer(b.client, srv.httpAddr)
	errs = append(errs, err)
	rs.load = <-loaded
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if rs.load.answers == 0 {
		return nil, fmt.Errorf("no correct answers in the window: %v", rs.load.firstErr)
	}
	rs.lat = summarize(rs.load.samples)
	if traced {
		spans, err := fetchSpans(b.client, srv.httpAddr, rs.win)
		if err != nil {
			return nil, err
		}
		rs.spans = analyzeSpans(spans)
	}
	rs.q, err = planQuality(b.sets, rs.probe.setAnswers, qualityCount)
	return rs, err
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// probe sends one request of the workload's kind to a fresh server and
// checks the answer: the end of set-up.
func (b *bench) probe(s *server) error {
	switch b.workload {
	case "pair-wire":
		c, _, err := dialWire(s.wireAddr)
		if err != nil {
			return err
		}
		defer c.Close()
		if err := c.Send(&wire.Request{ID: 1, Src: 0, Dst: 1}); err != nil {
			return err
		}
		var resp wire.Response
		if err := c.Flush(); err != nil {
			return err
		}
		if err := c.Recv(&resp); err != nil {
			return err
		}
		return checkPair(&resp, shards)
	default:
		c, _, err := dialWire(s.wireAddr)
		if err != nil {
			return err
		}
		defer c.Close()
		req := wire.DeltaRequest{ID: 1, Session: probeSession, Add: [][2]int{{0, 1}}}
		if err := c.SendDelta(&req); err != nil {
			return err
		}
		var resp wire.DeltaResponse
		if err := c.Flush(); err != nil {
			return err
		}
		if err := c.RecvDelta(&resp); err != nil {
			return err
		}
		return checkDelta(&resp, probeSession, 1)
	}
}

// perLayer assembles the per-layer metrics from the untraced run (server
// counters, answers), the traced run (spans) and the in-process ladder.
func (b *bench) perLayer(base, traced *runStats) (map[string]float64, error) {
	v := make(map[string]float64)
	n := base.answered()
	met := func(key string) float64 { return base.after.metrics[key] - base.before.metrics[key] }
	mem := func(key string) float64 { return base.after.mem[key] - base.before.mem[key] }

	// serve: sampled spans of the traced run and counters of the untraced one.
	st := traced.spans
	v["serve.queue_wait_us"] = us(st.p50(st.dur, "serve.queue"))
	// A delta is served inline by the shard worker: serve.delta is its
	// dispatch.
	v["serve.dispatch_us"] = us(st.p50(st.dur, "serve.dispatch", "serve.delta"))
	v["serve.write_us"] = us(st.p50(st.dur, "response.write"))
	v["serve.root_self_us"] = us(st.p50(st.self))
	if c := met("cst_serve_batch_size_count"); c > 0 {
		v["serve.batch_size_mean"] = met("cst_serve_batch_size_sum") / c
	} else {
		v["serve.batch_size_mean"] = 0
	}
	v["serve.flushes_per_kreq"] = 1000 * met("cst_serve_flushes_total") / n
	v["serve.rejected"] = met("cst_serve_rejected_total")
	v["serve.expired"] = met("cst_serve_deadline_total")

	// process: MemStats and context switches over the window.
	v["proc.allocs_per_req"] = mem("Mallocs") / n
	v["proc.alloc_bytes_per_req"] = mem("TotalAlloc") / n
	v["proc.gc_per_kreq"] = 1000 * mem("NumGC") / n
	v["proc.ctxsw_per_req"] = float64(base.p1.ctxsw-base.p0.ctxsw) / n

	// answers.
	v["hybrid.batches_mean"] = base.q.batchesMean
	v["hybrid.residual_share"] = base.q.residualShare
	v["hybrid.coloring_share"] = base.q.coloringShare
	v["hybrid.exhausted_share"] = base.q.exhaustedShare
	v["http.plan_p50_us"] = us(medianDur(base.probe.samples))

	// validity.
	v["loadgen.late_max_ms"] = ms(base.load.lateMax)
	v["loadgen.cpu_us_per_req"] = us(base.genCPU) / float64(max(base.load.sentInWindow, 1))
	v["p99_ms"] = ms(base.lat.p99)
	v["samples"] = float64(base.lat.samples)
	v["trace.overhead"] = traced.cpuPerReq() / base.cpuPerReq()
	v["host.steal_share"] = base.stealShare()

	if err := b.ladder(base, v); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	return v, nil
}

// ladder runs the in-process rungs and fills their metrics into v.
func (b *bench) ladder(base *runStats, v map[string]float64) error {
	var codec codecResult
	var err error
	switch b.workload {
	case "pair-wire":
		codec, err = pairCodec(b.seed, base.load.pairFrames)
	case "delta-wire":
		codec, err = deltaCodec(b.seed, base.load.deltaFrames)
	}
	if err != nil {
		return err
	}
	v["wire.encode_ns"] = float64(codec.encode.Nanoseconds())
	v["wire.decode_ns"] = float64(codec.decode.Nanoseconds())
	v["wire.frame_bytes"] = codec.frameBytes

	poolP50, err := poolRung(b.seed)
	if err != nil {
		return err
	}
	deltaP50, fallbacks, deltas, err := deltaPoolRung(b.seed)
	if err != nil {
		return err
	}
	planP50, plans, err := planRung(b.sets)
	if err != nil {
		return err
	}
	v["serve.pool_us"] = us(poolP50)
	v["serve.delta_us"] = us(deltaP50)
	v["serve.plan_us"] = us(planP50)
	rung := map[string]time.Duration{"pair-wire": poolP50, "delta-wire": deltaP50}
	v["socket.us"] = us(base.lat.p50 - rung[b.workload])

	if b.workload == "delta-wire" {
		fallbacks, deltas = base.load.deltaFallbacks, base.load.deltaAnswers
	}
	v["delta.fallback_share"] = float64(fallbacks) / float64(deltas)

	codecT, bodyBytes, err := httpCodecRung(b.sets, plans, qualityCount)
	if err != nil {
		return err
	}
	v["http.codec_us"] = us(codecT)
	v["http.body_bytes"] = bodyBytes

	flushT, batches, err := onlineRung(b.seed, roundBatch(v["serve.batch_size_mean"]), 2000)
	if err != nil {
		return err
	}
	v["online.dispatch_us"] = us(flushT)
	runT, rounds, err := padrRunRung(batches)
	if err != nil {
		return err
	}
	v["padr.run_us"] = us(runT)
	v["padr.rounds_per_run"] = rounds

	if v["online.apply_delta_us"], err = usOf(onlineDeltaRung(b.seed, 3000)); err != nil {
		return err
	}
	if v["padr.apply_us"], err = usOf(padrApplyRung(b.seed, 3000)); err != nil {
		return err
	}
	v["hybrid.schedule_us"], err = usOf(hybridRung(b.sets))
	return err
}

func usOf(d time.Duration, err error) (float64, error) { return us(d), err }
