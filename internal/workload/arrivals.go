package workload

import (
	"fmt"
	"math/rand"
)

// Arrivals models a skewed request stream over a fixed key population:
// each Next draws one query key, with popularity following a Zipf law of
// exponent s over a seeded permutation of the population. Unlike
// Generator.Key — which draws fresh (jittered, distinct-friendly) data
// keys — Arrivals deliberately re-issues the same popular keys over and
// over, which is what concentrates traffic onto one leaf's responsible
// peer and makes its tail latency collapse. Skew s = 0 is the uniform
// arrival process (every key equally popular), the control arm of a
// skewed workload.
type Arrivals struct {
	keys []float64 // population in popularity order: keys[0] is hottest
	rng  *rand.Rand
	zipf *rand.Zipf // nil when s == 0 (uniform)
}

// NewArrivals builds an arrival process over the given key population.
// s selects the skew: 0 for uniform arrivals, or any value > 1 for a
// Zipf popularity law (math/rand's Zipf sampler requires s > 1; the
// paper-style sweep uses s in {0, 1.01, 1.5}). Popularity ranks are
// assigned by a seeded shuffle so the hottest key is not simply the
// smallest, and the whole stream is reproducible from (keys, s, seed).
func NewArrivals(keys []float64, s float64, seed int64) (*Arrivals, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("workload: arrivals need a non-empty key population")
	}
	if s != 0 && s <= 1 {
		return nil, fmt.Errorf("workload: arrival skew s = %v unsupported: use 0 (uniform) or s > 1 (Zipf)", s)
	}
	rng := rand.New(rand.NewSource(seed))
	a := &Arrivals{keys: append([]float64(nil), keys...), rng: rng}
	rng.Shuffle(len(a.keys), func(i, j int) { a.keys[i], a.keys[j] = a.keys[j], a.keys[i] })
	if s != 0 {
		a.zipf = rand.NewZipf(rng, s, 1, uint64(len(a.keys)-1))
	}
	return a, nil
}

// Next draws the next query key of the arrival stream.
func (a *Arrivals) Next() float64 {
	if a.zipf == nil {
		return a.keys[a.rng.Intn(len(a.keys))]
	}
	return a.keys[a.zipf.Uint64()]
}

// Hottest returns the most popular key of the stream, the one a skewed
// arrival process hammers hardest (useful for asserting where load
// concentrates in tests and ablations).
func (a *Arrivals) Hottest() float64 { return a.keys[0] }
