package lht

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"lht/internal/dht"
	"lht/internal/metrics"
	"lht/internal/record"
)

// TestTraceSinkConcurrentRangeRace hammers one bounded Ring sink from
// concurrent range queries and point reads (run with -race): every
// in-flight query emits op events into the same ring while readers drain
// it.
func TestTraceSinkConcurrentRangeRace(t *testing.T) {
	const retain = 128
	ring := metrics.NewRing(retain)
	ix, err := New(dht.NewLocal(), Config{
		SplitThreshold: 8,
		MergeThreshold: 0,
		Depth:          20,
		TraceSink:      ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		if _, err := ix.Insert(record.Record{Key: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for q := 0; q < 25; q++ {
				lo := r.Float64() * 0.8
				if _, _, err := ix.Range(lo, lo+0.2); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := ix.Search(r.Float64()); err != nil && !errors.Is(err, ErrKeyNotFound) {
					t.Error(err)
					return
				}
			}
		}(int64(g) + 1)
	}
	// Concurrent readers: draining the ring must be safe while writers
	// are still emitting.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = ring.Events()
			_ = ring.Len()
		}
	}()
	wg.Wait()
	<-done

	if ring.Total() == 0 {
		t.Fatal("trace ring saw no op events")
	}
	if got := ring.Len(); got != retain {
		t.Fatalf("ring retained %d events, want the full capacity %d", got, retain)
	}
	for _, ev := range ring.Events() {
		if ev.Kind == "" {
			t.Fatalf("event with empty kind: %+v", ev)
		}
	}
}
