package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"cst/internal/comm"
	"cst/internal/obs"
)

// ScheduleRequest is the POST /schedule payload.
type ScheduleRequest struct {
	// Src and Dst are PE indices on the shard fabric.
	Src int `json:"src"`
	Dst int `json:"dst"`
	// DeadlineMS optionally bounds the request's wall-clock time in the
	// service, overriding the pool's default. Zero uses the default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// ScheduleSetRequest is the POST /schedule-set payload: a whole
// communication set to plan through the hybrid pipeline. The set need not
// be well nested — crossing and left-oriented pairs are what the hybrid
// planner exists for.
type ScheduleSetRequest struct {
	// N is the PE count (a power of two).
	N int `json:"n"`
	// Comms are the communications to schedule together.
	Comms []SetComm `json:"comms"`
}

// ScheduleDeltaRequest is the POST /schedule-delta payload: a mutation of
// a long-lived session's communication set. Removes apply before adds;
// the session opens on its first delta and stays pinned to one shard.
type ScheduleDeltaRequest struct {
	// Session identifies the delta session; session % shards picks the
	// owning shard worker.
	Session uint64 `json:"session"`
	// Remove lists pairs to drop from the session set; each must be
	// present. Add lists right-oriented pairs to insert.
	Remove []SetComm `json:"remove,omitempty"`
	Add    []SetComm `json:"add,omitempty"`
	// DeadlineMS optionally bounds the request's wall-clock time in the
	// service, overriding the pool's default. Zero uses the default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// maxBodyBytes bounds a request body: room for a pretty-printed set of
// DefaultMaxPlanComms communications with large PE indices. A longer body
// is answered 413 before it is decoded, so no set beyond the planner's cap
// is ever built in memory.
const maxBodyBytes = DefaultMaxPlanComms * 128

// Handler mounts the scheduling API next to the observability surface on
// one mux: POST /schedule, POST /schedule-set, POST /schedule-delta and
// GET /statusz from this package, plus /metrics, /healthz, /trace,
// /trace/flight and /debug/pprof from obs.Handler — one listener serves
// both traffic and introspection. pl may be nil, in which case
// /schedule-set answers 501.
//
// The POST endpoints participate in span tracing: an X-CST-Trace request
// header continues the caller's trace, head sampling opens a fresh one, and
// errored requests are recorded retroactively even when unsampled. Sampled
// responses echo X-CST-Trace and carry trace_id in the body.
func Handler(p *Pool, pl *Planner, reg *obs.Registry, tr *obs.Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", obs.Handler(reg, tr))
	mux.HandleFunc("/schedule", route(tr, "http.schedule", func(req *ScheduleRequest, sctx obs.SpanContext) (answer, int) {
		res := p.schedule(req.Src, req.Dst, time.Duration(req.DeadlineMS)*time.Millisecond, sctx)
		return &res, 0
	}))
	mux.HandleFunc("/schedule-set", route(tr, "http.plan", func(req *ScheduleSetRequest, sctx obs.SpanContext) (answer, int) {
		s := &comm.Set{N: req.N, Comms: comms(req.Comms)}
		res := pl.plan(s, protoHTTP, true, sctx)
		return &res, s.Len()
	}))
	mux.HandleFunc("/schedule-delta", route(tr, "http.delta", func(req *ScheduleDeltaRequest, sctx obs.SpanContext) (answer, int) {
		res := p.scheduleDelta(req.Session, comms(req.Remove), comms(req.Add),
			time.Duration(req.DeadlineMS)*time.Millisecond, sctx)
		return &res, res.Rounds
	}))
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(p.Snapshot())
	})
	return mux
}

// comms converts JSON pairs to communications.
func comms(in []SetComm) []comm.Comm {
	out := make([]comm.Comm, len(in))
	for i, c := range in {
		out[i] = comm.Comm{Src: c.Src, Dst: c.Dst}
	}
	return out
}

// route builds one POST endpoint around serve, which runs a decoded
// request of type T and returns its answer plus the root span's N. route
// owns everything the three endpoints share: the method check, the
// X-CST-Trace continuation and the root span named name, the bounded JSON
// decode (malformed: 400, oversized: 413, both as plain text), retroactive
// sampling of every error, the JSON answer with its trace id, and closing
// the root span.
func route[T any](tr *obs.Tracer, name string, serve func(req *T, sctx obs.SpanContext) (answer, int)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		start := time.Now()
		remote, _ := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
		sp := tr.StartServer(name, "serve", remote)
		var req T
		var ans answer
		var status, n int
		var errmsg string
		var tooLarge *http.MaxBytesError
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); errors.As(err, &tooLarge) {
			status, errmsg = http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes)
		} else if err != nil {
			status, errmsg = http.StatusBadRequest, "bad JSON: "+err.Error()
		} else {
			ans, n = serve(&req, sp.Context())
			status, errmsg, _ = ans.outcome()
		}
		sctx := sp.Context()
		if !sp.Sampled() && (status >= 400 || errmsg != "") {
			sctx = tr.EmitErrorRoot(name, "serve", start, status, errmsg)
		}
		if sctx.Valid() {
			w.Header().Set(obs.TraceHeader, obs.FormatTraceHeader(sctx))
		}
		if ans == nil {
			http.Error(w, errmsg, status)
		} else {
			if sctx.Valid() {
				_, _, traceID := ans.outcome()
				*traceID = sctx.Trace.String()
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			wsp := tr.StartSpan(sctx, "response.write", "serve")
			_ = json.NewEncoder(w).Encode(ans)
			wsp.End()
		}
		sp.SetStatus(status)
		sp.SetN(n)
		sp.SetError(errmsg)
		sp.End()
	}
}
