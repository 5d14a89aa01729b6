package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lht/internal/dht"
	"lht/internal/lht"
	"lht/internal/simnet"
	"lht/internal/workload"
)

// flakySubstrate wraps a DHT and fails each routed operation with a
// configured probability, the failure marked transient exactly as the
// networked substrates mark theirs. Injection is off until Activate, so
// the index under test is built on a healthy substrate and only the
// query phase sees faults. The rng is seeded, keeping runs reproducible.
type flakySubstrate struct {
	inner dht.DHT

	mu     sync.Mutex
	rng    *rand.Rand
	rate   float64
	active bool
}

func newFlaky(inner dht.DHT, seed int64) *flakySubstrate {
	return &flakySubstrate{inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// Activate starts injecting: each subsequent operation fails with
// probability rate.
func (f *flakySubstrate) Activate(rate float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rate = rate
	f.active = true
}

func (f *flakySubstrate) fault() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.active && f.rng.Float64() < f.rate {
		return dht.MarkTransient(fmt.Errorf("bench: injected fault: %w", simnet.ErrUnreachable))
	}
	return nil
}

func (f *flakySubstrate) Get(ctx context.Context, key string) (dht.Value, error) {
	if err := f.fault(); err != nil {
		return nil, err
	}
	return f.inner.Get(ctx, key)
}

func (f *flakySubstrate) Put(ctx context.Context, key string, v dht.Value) error {
	if err := f.fault(); err != nil {
		return err
	}
	return f.inner.Put(ctx, key, v)
}

func (f *flakySubstrate) Remove(ctx context.Context, key string) error {
	if err := f.fault(); err != nil {
		return err
	}
	return f.inner.Remove(ctx, key)
}

func (f *flakySubstrate) Write(ctx context.Context, key string, v dht.Value) error {
	if err := f.fault(); err != nil {
		return err
	}
	return f.inner.Write(ctx, key, v)
}

func (f *flakySubstrate) PutIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	if err := f.fault(); err != nil {
		return err
	}
	return f.inner.PutIf(ctx, key, v, ifEpoch)
}

func (f *flakySubstrate) CreateIf(ctx context.Context, key string, v dht.Value) error {
	if err := f.fault(); err != nil {
		return err
	}
	return f.inner.CreateIf(ctx, key, v)
}

func (f *flakySubstrate) RemoveIf(ctx context.Context, key string, ifEpoch uint64) error {
	if err := f.fault(); err != nil {
		return err
	}
	return f.inner.RemoveIf(ctx, key, ifEpoch)
}

func (f *flakySubstrate) WriteIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	if err := f.fault(); err != nil {
		return err
	}
	return f.inner.WriteIf(ctx, key, v, ifEpoch)
}

// RunFaultAblation is ablation A5: query success under injected transient
// substrate faults, with and without the retry/backoff policy layer. An
// index of the given size is built on a healthy substrate; the query
// phase (4:1 exact-match to range) then runs while every DHT operation
// fails independently with probability p. Without a policy a single fault
// anywhere in a multi-lookup algorithm kills the query, so success decays
// like (1-p)^lookups; with the default policy each lookup survives up to
// MaxAttempts faults in a row, and success stays near 100% at realistic
// fault rates. The companion result reports the price: policy retries per
// query, each charged as a full DHT-lookup.
func RunFaultAblation(o Options, dist workload.Dist, size int, rates []float64) (Result, Result, error) {
	o = o.WithDefaults()
	success := Result{
		Name:   "A5",
		Title:  fmt.Sprintf("Query success vs substrate fault rate (data size %d)", size),
		XLabel: "fault rate (%)",
		YLabel: "query success (%)",
	}
	retries := Result{
		Name:   "A5b",
		Title:  "Retry cost of the policy layer",
		XLabel: "fault rate (%)",
		YLabel: "retries per query",
	}

	xs := make([]float64, len(rates))
	for i, p := range rates {
		xs[i] = p * 100
	}

	variants := []struct {
		name   string
		policy bool
	}{
		{"no policy", false},
		{"with policy", true},
	}

	ysSuccess := make([][][]float64, len(variants)) // [variant][trial][rate]
	ysRetries := make([][]float64, o.Trials)        // [trial][rate]
	for vi := range variants {
		ysSuccess[vi] = make([][]float64, o.Trials)
	}

	for t := 0; t < o.Trials; t++ {
		gen := workload.NewGenerator(dist, o.Seed+int64(t))
		recs := gen.Records(size)
		for vi, variant := range variants {
			row := make([]float64, 0, len(rates))
			retryRow := make([]float64, 0, len(rates))
			for ri, rate := range rates {
				flaky := newFlaky(dht.NewLocal(), o.Seed+int64(t*1000+ri))
				cfg := lht.Config{SplitThreshold: o.Theta, Depth: o.Depth, Aggregate: o.Agg}
				if variant.policy {
					cfg.Policy = &dht.Policy{
						BaseDelay: 50 * time.Microsecond,
						MaxDelay:  500 * time.Microsecond,
						Seed:      o.Seed + int64(t),
					}
				}
				ix, err := lht.New(flaky, cfg)
				if err != nil {
					return success, retries, err
				}
				for _, r := range recs {
					if _, err := ix.Insert(r); err != nil {
						return success, retries, fmt.Errorf("bench: healthy build failed: %w", err)
					}
				}

				flaky.Activate(rate)
				qrng := rand.New(rand.NewSource(o.Seed + int64(t)))
				before := ix.Metrics()
				ok := 0
				for q := 0; q < o.Queries; q++ {
					var err error
					if q%5 == 4 {
						lo, hi := gen.RangeQuery(0.01)
						_, _, err = ix.Range(lo, hi)
					} else {
						k := recs[qrng.Intn(len(recs))].Key
						_, _, err = ix.Search(k)
					}
					if err == nil {
						ok++
					}
				}
				delta := ix.Metrics().Sub(before)
				row = append(row, 100*float64(ok)/float64(o.Queries))
				retryRow = append(retryRow, float64(delta.Retry.Retries)/float64(o.Queries))
			}
			ysSuccess[vi][t] = row
			if variant.policy {
				ysRetries[t] = retryRow
			}
		}
	}

	for vi, variant := range variants {
		success.Series = append(success.Series, meanSeries("LHT "+variant.name, xs, ysSuccess[vi]))
	}
	retries.Series = append(retries.Series, meanSeries("with policy", xs, ysRetries))
	return success, retries, nil
}
