package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"cst/internal/comm"
	"cst/internal/serve"
	"cst/internal/topology"
	"cst/internal/wire"
)

func pairs(seed int64, stream, n int) [][2]int {
	g := newPairGen(seed, stream, 64)
	out := make([][2]int, n)
	for i := range out {
		out[i][0], out[i][1] = g.next()
		if out[i][0] == out[i][1] {
			panic("pair with src == dst")
		}
	}
	return out
}

func deltas(t *testing.T, seed int64, n int) [][2][][2]int {
	t.Helper()
	g, err := newDeltaGen(seed, 0, 1024, deltaOverlap)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][2][][2]int, n)
	for i := range out {
		out[i][0], out[i][1] = g.next()
	}
	return out
}

func TestGeneratorsDeterministic(t *testing.T) {
	if !reflect.DeepEqual(pairs(7, 0, 500), pairs(7, 0, 500)) {
		t.Error("pair generator: same seed gave different pairs")
	}
	if reflect.DeepEqual(pairs(7, 0, 500), pairs(8, 0, 500)) {
		t.Error("pair generator: a new seed gave the same pairs")
	}
	if reflect.DeepEqual(pairs(7, 0, 500), pairs(7, 1, 500)) {
		t.Error("pair generator: both connections got the same pairs")
	}

	a, err := setSequence(7, 64, 64, setSize)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := setSequence(7, 64, 64, setSize)
	c, _ := setSequence(8, 64, 64, setSize)
	if !reflect.DeepEqual(a, b) {
		t.Error("set sequence: same seed gave different sets")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("set sequence: a new seed gave the same sets")
	}
	for i, s := range a {
		if s.Len() != setSize || s.Validate() != nil {
			t.Fatalf("set %d: %d comms, validate %v", i, s.Len(), s.Validate())
		}
	}

	if !reflect.DeepEqual(deltas(t, 7, 200), deltas(t, 7, 200)) {
		t.Error("delta generator: same seed gave different deltas")
	}
	if reflect.DeepEqual(deltas(t, 7, 200), deltas(t, 8, 200)) {
		t.Error("delta generator: a new seed gave the same deltas")
	}
}

func TestDeltaShape(t *testing.T) {
	ds := deltas(t, 3, 50)
	if len(ds[0][0]) != 0 || len(ds[0][1]) != 64 {
		t.Fatalf("opening delta: %d removes, %d adds; want 0 and 64", len(ds[0][0]), len(ds[0][1]))
	}
	for i, d := range ds[1:] {
		if len(d[0]) != 6 || len(d[1]) != 6 {
			t.Fatalf("delta %d: %d removes, %d adds; want 6 and 6", i+1, len(d[0]), len(d[1]))
		}
	}
}

func TestDisjointPairs(t *testing.T) {
	batch := func(seed int64) []comm.Comm {
		out := make([]comm.Comm, 32)
		disjointPairs(newRand(seed, streamOnline), 64, out)
		return out
	}
	a := batch(5)
	if !reflect.DeepEqual(a, batch(5)) {
		t.Error("same seed gave different batches")
	}
	if reflect.DeepEqual(a, batch(6)) {
		t.Error("a new seed gave the same batch")
	}
	seen := make(map[int]bool)
	for _, c := range a {
		if c.Src < 0 || c.Src >= 64 || c.Dst < 0 || c.Dst >= 64 || seen[c.Src] || seen[c.Dst] {
			t.Fatalf("pair %v reuses or leaves the 64 PEs", c)
		}
		seen[c.Src], seen[c.Dst] = true, true
	}
}

func TestSelfTime(t *testing.T) {
	at := func(us int) time.Time { return time.Unix(0, 0).Add(time.Duration(us) * time.Microsecond) }
	spans := []span{
		{Trace: "t", ID: "root", Name: "wire.schedule", Start: at(0), End: at(100)},
		// Two overlapping children cover [10, 60); the third is clipped to
		// the root's end and covers [90, 100).
		{Trace: "t", ID: "a", Parent: "root", Name: "serve.queue", Start: at(10), End: at(40)},
		{Trace: "t", ID: "b", Parent: "root", Name: "serve.dispatch", Start: at(30), End: at(60)},
		{Trace: "t", ID: "c", Parent: "root", Name: "response.write", Start: at(90), End: at(120)},
		// A grandchild counts against its parent only.
		{Trace: "t", ID: "g", Parent: "a", Name: "online.batch", Start: at(15), End: at(20)},
		// Same span id in another trace: not a child of this root.
		{Trace: "u", ID: "x", Parent: "root", Name: "serve.queue", Start: at(0), End: at(100)},
	}
	self := selfTime(spans)
	want := map[string]time.Duration{
		"t/root": 40 * time.Microsecond,
		"t/a":    25 * time.Microsecond,
		"t/b":    30 * time.Microsecond,
		"t/c":    30 * time.Microsecond,
		"t/g":    5 * time.Microsecond,
	}
	for k, w := range want {
		if self[k] != w {
			t.Errorf("self time of %s = %v, want %v", k, self[k], w)
		}
	}
	st := analyzeSpans(spans)
	if got := st.p50(st.self); got != 40*time.Microsecond {
		t.Errorf("root self p50 = %v, want 40µs", got)
	}
}

func TestQuantileSampleRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.90, true}, {99, 0.90, false},
		{1000, 0.99, true}, {999, 0.99, false},
		{20, 0.50, true}, {19, 0.50, false},
	} {
		if got := quantileOK(c.n, c.q); got != c.want {
			t.Errorf("quantileOK(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(100-i) * time.Millisecond
	}
	lat[0] = failedLatency // a failed request misses every limit
	s := summarize(lat)
	if s.samples != 100 || s.p50 != 50*time.Millisecond || s.p90 != 90*time.Millisecond || s.p99OK {
		t.Errorf("summary = %+v, want p50 50ms, p90 90ms, p99 not reportable", s)
	}
	if s.p99 != 99*time.Millisecond {
		t.Errorf("p99 = %v, want 99ms", s.p99)
	}
}

// setFixture is an 8-PE set of a nested pair: 0->3 and 1->2 share the
// upward link out of the {0,1} subtree, so they need two rounds.
func setFixture(t *testing.T) (*topology.Tree, *comm.Set, int) {
	t.Helper()
	tree, err := topology.New(8)
	if err != nil {
		t.Fatal(err)
	}
	s := comm.NewSet(8, comm.Comm{Src: 0, Dst: 3}, comm.Comm{Src: 1, Dst: 2}, comm.Comm{Src: 7, Dst: 5})
	w, err := s.Width(tree)
	if err != nil {
		t.Fatal(err)
	}
	return tree, s, w
}

func TestCheckSet(t *testing.T) {
	tree, s, w := setFixture(t)
	good := serve.SetResult{Status: 200, Rounds: 2, Bound: 2, Width: w, Units: 10,
		Schedule: [][]serve.SetComm{{{Src: 0, Dst: 3}, {Src: 7, Dst: 5}}, {{Src: 1, Dst: 2}}}}
	if err := checkSet(tree, s, w, &good); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}

	dropped := good
	dropped.Schedule = [][]serve.SetComm{{{Src: 0, Dst: 3}, {Src: 7, Dst: 5}}, {}}
	if err := checkSet(tree, s, w, &dropped); err == nil || !strings.Contains(err.Error(), "never scheduled") {
		t.Errorf("plan with a dropped comm: err = %v", err)
	}

	doubled := good
	doubled.Rounds, doubled.Bound = 1, 1
	doubled.Schedule = [][]serve.SetComm{{{Src: 0, Dst: 3}, {Src: 1, Dst: 2}, {Src: 7, Dst: 5}}}
	if err := checkSet(tree, s, w, &doubled); err == nil || !strings.Contains(err.Error(), "used twice") {
		t.Errorf("plan with a doubled edge: err = %v", err)
	}

	overBound := good
	overBound.Bound = 1
	if err := checkSet(tree, s, w, &overBound); err == nil {
		t.Error("plan with rounds > bound accepted")
	}

	wrongWidth := good
	wrongWidth.Width = w + 1
	if err := checkSet(tree, s, w, &wrongWidth); err == nil {
		t.Error("plan with a wrong width accepted")
	}
}

func TestCheckSetOnPlannerOutput(t *testing.T) {
	wl, err := newSetWorkload(5, 32, 64, setSize)
	if err != nil {
		t.Fatal(err)
	}
	pl := serve.NewPlanner(serve.PlannerConfig{})
	for i, s := range wl.sets {
		res := pl.Plan(s, 0, true)
		if err := checkSet(wl.tree, s, wl.widths[i], &res); err != nil {
			t.Fatalf("set %d: planner output rejected: %v", i, err)
		}
	}
}

func TestCheckDelta(t *testing.T) {
	ok := wire.DeltaResponse{ID: 1, Session: 9, Status: 200, Rounds: 2, Width: 2, Size: 64}
	if err := checkDelta(&ok, 9, 64); err != nil {
		t.Fatalf("valid delta answer rejected: %v", err)
	}
	for name, mut := range map[string]func(*wire.DeltaResponse){
		"rounds != width": func(r *wire.DeltaResponse) { r.Rounds = 3 },
		"wrong size":      func(r *wire.DeltaResponse) { r.Size = 63 },
		"wrong session":   func(r *wire.DeltaResponse) { r.Session = 8 },
		"status 429":      func(r *wire.DeltaResponse) { r.Status = 429 },
	} {
		r := ok
		mut(&r)
		if err := checkDelta(&r, 9, 64); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckPair(t *testing.T) {
	ok := wire.Response{ID: 1, Status: 200, Shard: 1, Arrival: 3, Dispatched: 4, Finished: 6, LatencyRounds: 3}
	if err := checkPair(&ok, 2); err != nil {
		t.Fatalf("valid pair answer rejected: %v", err)
	}
	for name, mut := range map[string]func(*wire.Response){
		"dispatched before arrival": func(r *wire.Response) { r.Dispatched = 2 },
		"finished before dispatch":  func(r *wire.Response) { r.Finished = 3; r.LatencyRounds = 0 },
		"status 429":                func(r *wire.Response) { r.Status = 429 },
		"unknown shard":             func(r *wire.Response) { r.Shard = 2 },
	} {
		r := ok
		mut(&r)
		if err := checkPair(&r, 2); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
