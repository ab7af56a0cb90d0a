package serve

import (
	"errors"
	"net/http"
	"time"

	"cst/internal/comm"
	"cst/internal/obs"
	"cst/internal/online"
)

// Delta serving: session-scoped incremental scheduling.
//
// A delta session lives on exactly one shard — admission pins it by
// session % shards — so every delta against a session reaches the same
// worker and therefore the same online.Simulator, which owns the
// session's warm engine (see online/delta.go). Deltas ride the normal
// admission channel for ordering and backpressure but are never batched
// with pair requests: the worker serves one inline the moment it is
// dequeued, whether that happens between batches or mid-collection.

// DeltaResult is the terminal answer for one delta request. Status uses
// the pool's HTTP mapping: 200 applied, 400 invalid delta, 429 backpressure
// or session table full, 500 fallback failed, 503 draining, 504 deadline.
type DeltaResult struct {
	Session uint64 `json:"session"`
	// Rounds and Width describe the re-scheduled session set (meaningful
	// only for status 200); Size is the set's size after the delta.
	Rounds int `json:"rounds"`
	Width  int `json:"width"`
	Size   int `json:"size"`
	// Fallback marks a success served by a from-scratch run instead of an
	// incremental apply.
	Fallback bool   `json:"fallback,omitempty"`
	Status   int    `json:"status"`
	Err      string `json:"error,omitempty"`
	TraceID  string `json:"trace_id,omitempty"`
}

func (r *DeltaResult) outcome() (int, string, *string) { return r.Status, r.Err, &r.TraceID }

// serveDelta is the delta payload riding on a call: the mutation lists
// and the answer slot. Wire slots embed one and reuse its comm slices
// across leases.
type serveDelta struct {
	session     uint64
	remove, add []comm.Comm
	res         DeltaResult
}

// ScheduleDelta admits one delta against session and blocks until its
// terminal DeltaResult. Safe for arbitrary concurrent callers.
func (p *Pool) ScheduleDelta(session uint64, remove, add []comm.Comm, deadline time.Duration) DeltaResult {
	return p.scheduleDelta(session, remove, add, deadline, obs.SpanContext{})
}

// scheduleDelta is ScheduleDelta carrying a span context, like schedule.
func (p *Pool) scheduleDelta(session uint64, remove, add []comm.Comm,
	deadline time.Duration, sctx obs.SpanContext) DeltaResult {
	sd := &serveDelta{session: session, remove: remove, add: add}
	c := &call{proto: protoHTTP}
	c.arm(0, 0, sd, deadline)
	c.sctx = sctx
	p.await(c)
	return sd.res
}

// serveDelta answers one dequeued delta call inline on the worker. Deltas
// never reach flush, so the queue-depth decrement happens here.
func (w *worker) serveDelta(c *call) {
	w.pool.met.queueDepth.Add(-1)
	sd := c.delta
	if !c.deadline.IsZero() && !time.Now().Before(c.deadline) {
		w.expired(c, "apply")
		return
	}
	if w.pool.tracer != nil && c.sctx.Valid() {
		// Arm the shard simulator so its online.delta span joins the trace.
		w.sim.SetSpanContext(c.sctx)
		defer w.sim.SetSpanContext(obs.SpanContext{})
	}
	res, err := w.sim.ApplyDelta(sd.session, sd.remove, sd.add)
	sd.res = DeltaResult{Session: sd.session, Rounds: res.Rounds, Width: res.Width,
		Size: res.Size, Fallback: res.Fallback, Status: http.StatusOK}
	if err != nil {
		switch {
		case errors.Is(err, online.ErrDeltaRejected):
			sd.res.Status = http.StatusBadRequest
		case errors.Is(err, online.ErrSessionsFull):
			sd.res.Status = http.StatusTooManyRequests
		default:
			sd.res.Status = http.StatusInternalServerError
		}
		sd.res.Rounds, sd.res.Width = 0, 0
		sd.res.Err = err.Error()
	}
	w.settle(c)
}
