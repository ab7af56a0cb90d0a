package lab

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cst/internal/comm"
	"cst/internal/padr"
	"cst/internal/stats"
	"cst/internal/topology"
)

// The delta twin measures the incremental scheduler against its own cost
// model: at overlap ratio r, each delta mutates k = (1−r)·active slots of
// a sparse session set. The incremental apply costs two terms: the Phase 1
// patch over the dirty root paths, O(k·log₂N), and an ordinary Phase 2,
// whose w rounds walk the pending pairs' root paths, O(w·|set|·log₂N). A
// from-scratch Reset+RunRounds pays O(N) for Phase 1 plus the same Phase 2.
// The fitted model c₀ + c₁·k·log₂N puts the Phase 2 term in c₀: at a fixed
// session size and width it does not vary with k, and on the sparse shape
// it is the larger share. The sweep drives both paths over the same seeded
// mutation stream, so besides latency it also pins correctness: the
// post-delta round count must equal the from-scratch reference bit for bit.

// DeltaSweepConfig describes an overlap-ratio sweep of the incremental
// scheduler.
type DeltaSweepConfig struct {
	// N is the tree's leaf count; Active the number of occupied 4-leaf
	// slots in the sparse session set (Active <= N/4). The sparse shape is
	// deliberate: it is the regime where dirty root paths are disjoint and
	// the O(|delta|·log N) Phase 1 term is cleanly testable.
	N, Active int
	// Overlaps are the set-overlap ratios to sweep (e.g. 0.5, 0.75, 0.9);
	// ratio r mutates k = round((1−r)·Active) slots per delta, at least 1.
	Overlaps []float64
	// Phases is how many deltas chain per overlap point; Reps how many
	// timed laps over that chain aggregate into one measurement (median).
	// <= 0 selects 8 and 5.
	Phases, Reps int
	// Seed drives the mutation stream.
	Seed int64
	// GateOverlap and GateRatio define the speedup gate: overlap points at
	// or above GateOverlap must have apply/scratch <= GateRatio. Zero
	// selects 0.9 and 0.5 (the "2x faster at 90% overlap" claim).
	GateOverlap, GateRatio float64
}

func (c DeltaSweepConfig) withDefaults() DeltaSweepConfig {
	if c.N <= 0 {
		c.N = 1024
	}
	if c.Active <= 0 {
		c.Active = 64
	}
	if len(c.Overlaps) == 0 {
		c.Overlaps = []float64{0.5, 0.75, 0.9}
	}
	if c.Phases <= 0 {
		c.Phases = 8
	}
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.GateOverlap == 0 {
		c.GateOverlap = 0.9
	}
	if c.GateRatio == 0 {
		c.GateRatio = 0.5
	}
	return c
}

// DeltaRow is one overlap point's measured-vs-predicted comparison.
type DeltaRow struct {
	N, Active int
	Overlap   float64
	// K is |delta|: slots mutated per apply (each is one remove + one add).
	K int
	// Rounds is the schedule length after the final delta of the chain;
	// ScratchRounds the from-scratch reference on the same set. They must
	// be equal — the differential invariant, theorem-exact in the ledger.
	Rounds, ScratchRounds int
	// ApplyNS and ScratchNS are median per-delta wall-clock costs of the
	// incremental and from-scratch paths over the same mutation stream;
	// Ratio is ApplyNS/ScratchNS. Samples hold every rep.
	ApplyNS, ScratchNS float64
	Ratio              float64
	ApplySamples       []float64
	ScratchSamples     []float64
	// Gated marks the row as subject to the GateRatio speedup bound.
	Gated bool
	// LatPredictedNS and LatBandNS come from the fitted |delta|·log₂N
	// model; WithinBand reports |ApplyNS − predicted| <= band.
	LatPredictedNS, LatBandNS float64
	WithinBand                bool
}

// DeltaSweepResult is a completed overlap sweep plus the fitted apply-cost
// model.
type DeltaSweepResult struct {
	Config DeltaSweepConfig
	Rows   []DeltaRow
	Model  *LatencyModel
}

// deltaStream is a seeded chain of slot mutations over a sparse set.
type deltaStream struct {
	start *comm.Set
	dels  []padr.Delta
	sets  []*comm.Set // canonical set after each delta
}

// buildDeltaStream mirrors the padr benchmark generator: Active occupied
// slots of 4 leaves each, a variant pair per slot, and per phase k
// distinct slots rotated to a different variant (remove old, add new).
func buildDeltaStream(n, active, k, phases int, seed int64) (*deltaStream, error) {
	slots := n / 4
	if active > slots {
		return nil, fmt.Errorf("lab: %d active slots with only %d available at N=%d", active, slots, n)
	}
	step := slots / active
	variants := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 2}, {1, 3}}
	cur := make([]int, active)
	base := func(i int) int { return 4 * i * step }
	setOf := func() *comm.Set {
		s := &comm.Set{N: n}
		for i := 0; i < active; i++ {
			v := variants[cur[i]]
			s.Comms = append(s.Comms, comm.Comm{Src: base(i) + v[0], Dst: base(i) + v[1]})
		}
		return s
	}
	st := &deltaStream{start: setOf()}
	rng := rand.New(rand.NewSource(seed))
	for p := 0; p < phases; p++ {
		var d padr.Delta
		// Distinct slots per delta: removes run before adds, so mutating
		// one slot twice would remove a not-yet-added variant.
		for _, i := range rng.Perm(active)[:k] {
			old := variants[cur[i]]
			cur[i] = (cur[i] + 1 + rng.Intn(len(variants)-1)) % len(variants)
			next := variants[cur[i]]
			d.Remove = append(d.Remove, comm.Comm{Src: base(i) + old[0], Dst: base(i) + old[1]})
			d.Add = append(d.Add, comm.Comm{Src: base(i) + next[0], Dst: base(i) + next[1]})
		}
		st.dels = append(st.dels, d)
		st.sets = append(st.sets, setOf())
	}
	return st, nil
}

// RunDeltaSweep measures every overlap point, fits the apply-cost model
// over the sweep, and scores measured vs predicted.
func RunDeltaSweep(cfg DeltaSweepConfig) (*DeltaSweepResult, error) {
	cfg = cfg.withDefaults()
	tree, err := topology.New(cfg.N)
	if err != nil {
		return nil, err
	}
	res := &DeltaSweepResult{Config: cfg}
	var ms []Measurement
	for _, ov := range cfg.Overlaps {
		k := int(float64(cfg.Active)*(1-ov) + 0.5)
		if k < 1 {
			k = 1
		}
		row, err := measureDelta(tree, cfg, ov, k)
		if err != nil {
			return nil, fmt.Errorf("lab: delta overlap=%.2f: %w", ov, err)
		}
		res.Rows = append(res.Rows, *row)
		ms = append(ms, Measurement{Engine: EngineDelta, Workload: "sparse",
			N: cfg.N, W: row.Rounds, M: k, LatencyNS: row.ApplyNS})
	}
	// The model needs at least as many points as coefficients (2); a
	// single-point sweep still measures, it just cannot band latency.
	if len(ms) >= 2 {
		model, err := FitLatency(EngineDelta, ms)
		if err != nil {
			return nil, err
		}
		res.Model = model
		for i := range res.Rows {
			row := &res.Rows[i]
			row.LatPredictedNS = model.PredictNS(row.N, row.Rounds, row.K)
			row.LatBandNS = model.BandNS(row.LatPredictedNS)
			row.WithinBand = abs(row.ApplyNS-row.LatPredictedNS) <= row.LatBandNS
		}
	} else {
		for i := range res.Rows {
			res.Rows[i].WithinBand = true
		}
	}
	return res, nil
}

// measureDelta times one overlap point: Reps laps of the incremental
// chain (re-anchored off the clock between laps) against Reps laps of
// from-scratch runs over the same post-delta sets.
func measureDelta(tree *topology.Tree, cfg DeltaSweepConfig, ov float64, k int) (*DeltaRow, error) {
	st, err := buildDeltaStream(cfg.N, cfg.Active, k, cfg.Phases, cfg.Seed)
	if err != nil {
		return nil, err
	}
	row := &DeltaRow{N: cfg.N, Active: cfg.Active, Overlap: ov, K: k,
		Gated: ov >= cfg.GateOverlap}

	eng, err := padr.New(tree, st.start.Clone())
	if err != nil {
		return nil, err
	}
	reanchor := func() error {
		if err := eng.Reset(st.start.Clone()); err != nil {
			return err
		}
		_, err := eng.RunRounds()
		return err
	}
	if _, err := eng.RunRounds(); err != nil {
		return nil, err
	}
	// One warm lap so arena growth happens off the clock.
	for _, d := range st.dels {
		if _, err := eng.ApplyRounds(d); err != nil {
			return nil, err
		}
	}
	for rep := 0; rep < cfg.Reps; rep++ {
		if err := reanchor(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		for _, d := range st.dels {
			rounds, err := eng.ApplyRounds(d)
			if err != nil {
				return nil, err
			}
			row.Rounds = rounds
		}
		lap := float64(time.Since(t0).Nanoseconds()) / float64(len(st.dels))
		row.ApplySamples = append(row.ApplySamples, lap)
	}

	// From-scratch baseline: Reset+RunRounds on each post-delta set, on
	// its own engine so no incremental state can leak in.
	scratch, err := padr.New(tree, st.start.Clone())
	if err != nil {
		return nil, err
	}
	for rep := 0; rep < cfg.Reps; rep++ {
		t0 := time.Now()
		for _, s := range st.sets {
			if err := scratch.Reset(s.Clone()); err != nil {
				return nil, err
			}
			rounds, err := scratch.RunRounds()
			if err != nil {
				return nil, err
			}
			row.ScratchRounds = rounds
		}
		lap := float64(time.Since(t0).Nanoseconds()) / float64(len(st.sets))
		row.ScratchSamples = append(row.ScratchSamples, lap)
	}

	row.ApplyNS = stats.Median(row.ApplySamples)
	row.ScratchNS = stats.Median(row.ScratchSamples)
	if row.ScratchNS > 0 {
		row.Ratio = row.ApplyNS / row.ScratchNS
	}
	return row, nil
}

// deltaBenchName is the ledger series key for one overlap point's metric.
func deltaBenchName(n, active int, ov float64, metric string) string {
	return fmt.Sprintf("lab/delta/sparse/N=%d/a=%d/ov=%.0f/%s", n, active, 100*ov, metric)
}

// Entries converts the sweep into ledger entries: theorem-exact rounds
// (incremental must equal from-scratch), banded apply latency, trended
// scratch latency, and — on gated points — the apply/scratch speedup
// bound. The caller stamps provenance via Stamp.Apply.
func (r *DeltaSweepResult) Entries() []Entry {
	var out []Entry
	for _, row := range r.Rows {
		name := func(metric string) string {
			return deltaBenchName(row.N, row.Active, row.Overlap, metric)
		}
		out = append(out, Entry{Bench: name("rounds"), Unit: "rounds",
			Value: float64(row.Rounds), Predicted: float64(row.ScratchRounds), Exact: true})
		apply := Entry{Bench: name("apply_latency"), Unit: "ns/op",
			Value: row.ApplyNS, Samples: len(row.ApplySamples)}
		if r.Model != nil {
			apply.Predicted = row.LatPredictedNS
		}
		out = append(out, apply)
		out = append(out, Entry{Bench: name("scratch_latency"), Unit: "ns/op",
			Value: row.ScratchNS, Samples: len(row.ScratchSamples)})
		ratio := Entry{Bench: name("apply_vs_scratch_ratio"), Unit: "ratio",
			Value: row.Ratio}
		if row.Gated {
			ratio.Predicted = r.Config.GateRatio
			ratio.Bound = true
		}
		out = append(out, ratio)
	}
	return out
}

// Table renders the sweep as markdown.
func (r *DeltaSweepResult) Table() string {
	tab := stats.NewTable("N", "active", "overlap", "|delta|", "rounds inc/scr",
		"apply µs", "scratch µs", "ratio", "predicted µs", "verdict")
	for _, row := range r.Rows {
		verdict := "ok"
		switch {
		case row.Rounds != row.ScratchRounds:
			verdict = "EXACT-MISMATCH"
		case row.Gated && row.Ratio > r.Config.GateRatio:
			verdict = "GATE-EXCEEDED"
		case !row.WithinBand:
			verdict = "OUT-OF-BAND"
		}
		tab.AddRow(row.N, row.Active, fmt.Sprintf("%.0f%%", 100*row.Overlap), row.K,
			fmt.Sprintf("%d/%d", row.Rounds, row.ScratchRounds),
			row.ApplyNS/1e3, row.ScratchNS/1e3,
			fmt.Sprintf("%.2f", row.Ratio), row.LatPredictedNS/1e3, verdict)
	}
	var b strings.Builder
	b.WriteString(tab.Markdown())
	if r.Model != nil {
		fmt.Fprintf(&b, "\nFitted model:\n  %s\n", r.Model)
	}
	return b.String()
}

// Ok reports whether every row's rounds matched the from-scratch
// reference, every gated point met the speedup bound, and every apply
// latency landed inside its band.
func (r *DeltaSweepResult) Ok() bool {
	for _, row := range r.Rows {
		if row.Rounds != row.ScratchRounds || !row.WithinBand {
			return false
		}
		if row.Gated && row.Ratio > r.Config.GateRatio {
			return false
		}
	}
	return true
}
