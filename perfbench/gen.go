package main

import (
	"fmt"
	"math/rand"

	"cst/internal/comm"
)

// Seeded input generators. Every input the benchmark sends is drawn from a
// math/rand source seeded from --seed and a stream number, so the same seed
// yields the same pairs, sets and deltas on every run and in the in-process
// ladder; the server only ever sees the generated inputs.

// Stream numbers keep the generators of one seed independent of each other.
const (
	streamPairs  = 1 // + connection index
	streamSets   = 16
	streamDelta  = 32 // + connection index
	streamOnline = 48
)

func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// pairGen yields uniform random (src, dst) pairs with src != dst.
type pairGen struct {
	rng *rand.Rand
	pes int
}

func newPairGen(seed int64, stream, pes int) *pairGen {
	return &pairGen{rng: newRand(seed, streamPairs+stream), pes: pes}
}

func (g *pairGen) next() (src, dst int) {
	src = g.rng.Intn(g.pes)
	dst = g.rng.Intn(g.pes - 1)
	if dst >= src {
		dst++
	}
	return src, dst
}

// setSequence returns the fixed sequence of count random two-sided sets of
// size comms on pes PEs.
func setSequence(seed int64, count, pes, comms int) ([]*comm.Set, error) {
	rng := newRand(seed, streamSets)
	out := make([]*comm.Set, count)
	for i := range out {
		s, err := comm.RandomTwoSided(rng, pes, comms)
		if err != nil {
			return nil, fmt.Errorf("set %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// disjointPairs fills out with uniform random pairs on pes PEs that share
// no endpoint; len(out) must be at most pes/2.
func disjointPairs(rng *rand.Rand, pes int, out []comm.Comm) {
	perm := rng.Perm(pes)
	for i := range out {
		out[i] = comm.Comm{Src: perm[2*i], Dst: perm[2*i+1]}
	}
}

// deltaVariants are the four-leaf-slot shapes a slot rotates through.
var deltaVariants = [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 2}, {1, 3}}

// deltaGen yields one session's mutations over a sparse slot set: the first
// call opens the session with one communication per active slot; every later
// call moves k distinct slots to another variant (k removes plus k adds),
// with k set by the overlap between consecutive sets.
type deltaGen struct {
	rng    *rand.Rand
	active int
	step   int
	k      int
	cur    []int
	opened bool
}

func newDeltaGen(seed int64, stream, pes int, overlap float64) (*deltaGen, error) {
	slots := pes / 4
	if slots < 1 {
		return nil, fmt.Errorf("delta workload needs at least 4 PEs (got %d)", pes)
	}
	active := min(slots, 64)
	k := max(int(float64(active)*(1-overlap)+0.5), 1)
	return &deltaGen{rng: newRand(seed, streamDelta+stream), active: active,
		step: slots / active, k: k, cur: make([]int, active)}, nil
}

// size is the session set size after every delta.
func (g *deltaGen) size() int { return g.active }

func (g *deltaGen) slot(i int) [2]int {
	base := 4 * i * g.step
	v := deltaVariants[g.cur[i]]
	return [2]int{base + v[0], base + v[1]}
}

func (g *deltaGen) next() (remove, add [][2]int) {
	if !g.opened {
		g.opened = true
		for i := 0; i < g.active; i++ {
			add = append(add, g.slot(i))
		}
		return nil, add
	}
	for _, i := range g.rng.Perm(g.active)[:g.k] {
		remove = append(remove, g.slot(i))
		g.cur[i] = (g.cur[i] + 1 + g.rng.Intn(len(deltaVariants)-1)) % len(deltaVariants)
		add = append(add, g.slot(i))
	}
	return remove, add
}

func toComms(ps [][2]int) []comm.Comm {
	out := make([]comm.Comm, len(ps))
	for i, p := range ps {
		out[i] = comm.Comm{Src: p[0], Dst: p[1]}
	}
	return out
}
