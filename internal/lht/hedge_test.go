package lht

// Facade wiring for hedged reads: Config.HedgeAfter stacks dht.WithHedging
// below the instrumentation layer, so hedges cost physical round trips but
// never DHT-lookups, and the config validation rejects nonsense.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"lht/internal/dht"
	"lht/internal/record"
)

// slowEveryOther delays every second Get long enough for the hedge to
// fire; all other traffic passes straight through.
type slowEveryOther struct {
	dht.DHT
	gets  atomic.Int64
	delay time.Duration
}

func (s *slowEveryOther) Get(ctx context.Context, key string) (dht.Value, error) {
	if s.gets.Add(1)%2 == 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s.DHT.Get(ctx, key)
}

func TestConfigHedgeAfterValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HedgeAfter = -time.Millisecond
	if _, err := New(dht.NewLocal(), cfg); !errors.Is(err, ErrConfig) {
		t.Fatalf("New with negative HedgeAfter = %v, want ErrConfig", err)
	}
}

// TestHedgedGetsUnderFacade: with HedgeAfter set, searches through a
// substrate with a slow arm stay correct, hedges are counted, and the
// DHT-lookup cost is identical to an unhedged run — hedging lives below
// the cost model.
func TestHedgedGetsUnderFacade(t *testing.T) {
	base := dht.NewLocal()
	cfg := Config{SplitThreshold: 4, Depth: 20, HedgeAfter: 2 * time.Millisecond}
	ix, err := New(&slowEveryOther{DHT: base, delay: 250 * time.Millisecond}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	builder, err := New(base, Config{SplitThreshold: 4, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(base, Config{SplitThreshold: 4, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}

	keys := []float64{0.1, 0.3, 0.7, 0.9}
	for i, k := range keys {
		if _, err := builder.Insert(record.Record{Key: k, Value: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		rec, _, err := ref.Search(k)
		if err != nil || rec.Value[0] != byte(i) {
			t.Fatalf("reference Search(%g) = %v, %v", k, rec, err)
		}
	}
	start := time.Now()
	for i, k := range keys {
		rec, _, err := ix.Search(k)
		if err != nil || rec.Value[0] != byte(i) {
			t.Fatalf("Search(%g) = %v, %v", k, rec, err)
		}
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("hedged searches took %v; hedge never rescued the slow arm", d)
	}

	hf := ix.Metrics()
	rf := ref.Metrics()
	if hf.Health.HedgedGets == 0 || hf.Health.HedgeWins == 0 {
		t.Fatalf("HedgedGets=%d HedgeWins=%d, want both > 0", hf.Health.HedgedGets, hf.Health.HedgeWins)
	}
	if hf.Lookup.Total != rf.Lookup.Total {
		t.Fatalf("hedged run charged %d lookups, reference %d — hedges must not be lookups",
			hf.Lookup.Total, rf.Lookup.Total)
	}
}
