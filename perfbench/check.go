package main

import (
	"fmt"
	"net/http"

	"cst/internal/comm"
	"cst/internal/sched"
	"cst/internal/serve"
	"cst/internal/topology"
	"cst/internal/wire"
)

// The answer checker. Every answer the benchmark receives goes through one
// of these; an error counts the request as failed.

// checkPair accepts a pair answer only when it was scheduled and its round
// stamps are ordered on one of the server's shards.
func checkPair(r *wire.Response, shards int) error {
	if r.Status != http.StatusOK || r.Err != "" {
		return fmt.Errorf("pair %d: status %d %q", r.ID, r.Status, r.Err)
	}
	if r.Shard < 0 || r.Shard >= shards {
		return fmt.Errorf("pair %d: shard %d outside [0,%d)", r.ID, r.Shard, shards)
	}
	if !(r.Arrival <= r.Dispatched && r.Dispatched <= r.Finished) {
		return fmt.Errorf("pair %d: rounds out of order: arrival %d dispatched %d finished %d",
			r.ID, r.Arrival, r.Dispatched, r.Finished)
	}
	if r.LatencyRounds != r.Finished-r.Arrival {
		return fmt.Errorf("pair %d: latency %d rounds, want finished-arrival = %d",
			r.ID, r.LatencyRounds, r.Finished-r.Arrival)
	}
	return nil
}

// checkSet re-verifies a set plan independently of the planner: every
// communication of s appears exactly once, every round is compatible on
// the tree, the reported width is the set's link width, and
// width <= rounds <= bound.
func checkSet(t *topology.Tree, s *comm.Set, width int, res *serve.SetResult) error {
	if res.Status != http.StatusOK || res.Err != "" {
		return fmt.Errorf("set: status %d %q", res.Status, res.Err)
	}
	if len(res.Schedule) != res.Rounds {
		return fmt.Errorf("set: %d rounds reported, %d in the schedule", res.Rounds, len(res.Schedule))
	}
	sc := &sched.Schedule{Set: s, Rounds: make([][]comm.Comm, len(res.Schedule))}
	for i, round := range res.Schedule {
		sc.Rounds[i] = make([]comm.Comm, len(round))
		for j, c := range round {
			sc.Rounds[i][j] = comm.Comm{Src: c.Src, Dst: c.Dst}
		}
	}
	if err := sc.Verify(t); err != nil {
		return fmt.Errorf("set: %w", err)
	}
	if res.Width != width {
		return fmt.Errorf("set: width %d reported, the set's link width is %d", res.Width, width)
	}
	if res.Rounds < res.Width || res.Rounds > res.Bound {
		return fmt.Errorf("set: rounds %d outside [width %d, bound %d]", res.Rounds, res.Width, res.Bound)
	}
	if res.ResidualComms < 0 || res.ResidualComms > s.Len() || res.Units <= 0 {
		return fmt.Errorf("set: residual %d of %d comms, %d units", res.ResidualComms, s.Len(), res.Units)
	}
	return nil
}

// checkDelta accepts a delta answer only when it was applied in exactly
// width rounds (Theorem 5 on the serving path) and the session holds the
// set size the generator expects.
func checkDelta(r *wire.DeltaResponse, session uint64, wantSize int) error {
	if r.Status != http.StatusOK || r.Err != "" {
		return fmt.Errorf("delta %d: status %d %q", r.ID, r.Status, r.Err)
	}
	if r.Session != session {
		return fmt.Errorf("delta %d: session %d, want %d", r.ID, r.Session, session)
	}
	if r.Width < 1 || r.Rounds != r.Width {
		return fmt.Errorf("delta %d: %d rounds for width %d", r.ID, r.Rounds, r.Width)
	}
	if r.Size != wantSize {
		return fmt.Errorf("delta %d: session size %d, want %d", r.ID, r.Size, wantSize)
	}
	return nil
}
