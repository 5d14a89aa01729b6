package dht

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"lht/internal/metrics"
)

func TestLocalBasicOps(t *testing.T) {
	d := NewLocal()

	if _, err := d.Get(context.Background(), "a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing = %v, want ErrNotFound", err)
	}
	if err := d.Put(context.Background(), "a", 1); err != nil {
		t.Fatal(err)
	}
	v, err := d.Get(context.Background(), "a")
	if err != nil || v.(int) != 1 {
		t.Fatalf("Get = %v, %v", v, err)
	}
	if err := d.Put(context.Background(), "a", 2); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Get(context.Background(), "a"); v.(int) != 2 {
		t.Fatalf("Put should replace, got %v", v)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
	if err := d.Remove(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove(context.Background(), "a"); err != nil {
		t.Fatal("Remove of absent key must not error:", err)
	}
	if _, err := d.Get(context.Background(), "a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Remove = %v", err)
	}
}

func TestLocalWrite(t *testing.T) {
	d := NewLocal()
	if err := d.Write(context.Background(), "k", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Write to absent key = %v, want ErrNotFound", err)
	}
	if err := d.Put(context.Background(), "k", 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(context.Background(), "k", 2); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Get(context.Background(), "k"); v.(int) != 2 {
		t.Fatalf("Write did not update, got %v", v)
	}
}

func TestLocalKeys(t *testing.T) {
	d := NewLocal()
	want := map[string]bool{"x": true, "y": true, "z": true}
	for k := range want {
		if err := d.Put(context.Background(), k, k); err != nil {
			t.Fatal(err)
		}
	}
	keys := d.Keys()
	if len(keys) != len(want) {
		t.Fatalf("Keys = %v", keys)
	}
	for _, k := range keys {
		if !want[k] {
			t.Fatalf("unexpected key %q", k)
		}
	}
}

func TestLocalConcurrent(t *testing.T) {
	d := NewLocal()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d-%d", g, i)
				if err := d.Put(context.Background(), key, i); err != nil {
					t.Error(err)
					return
				}
				if _, err := d.Get(context.Background(), key); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if d.Len() != 8*200 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestInstrumentedCounting(t *testing.T) {
	var c metrics.Counters
	d := NewInstrumented(NewLocal(), &c)
	if d.Counters() != &c {
		t.Fatal("Counters accessor mismatch")
	}

	_ = d.Put(context.Background(), "a", 1)       // 1 lookup
	_, _ = d.Get(context.Background(), "a")       // 2
	_, _ = d.Get(context.Background(), "missing") // 3, 1 failed
	_ = d.Remove(context.Background(), "a")       // 4
	_ = d.Put(context.Background(), "b", 1)       // 5
	_ = d.Write(context.Background(), "b", 2)     // free

	s := c.Snapshot()
	if s.Lookup.Total != 5 {
		t.Errorf("Lookups = %d, want 5", s.Lookup.Total)
	}
	if s.Lookup.FailedGets != 1 {
		t.Errorf("FailedGets = %d, want 1", s.Lookup.FailedGets)
	}
	if v, err := d.Get(context.Background(), "b"); err != nil || v.(int) != 2 {
		t.Errorf("Write through instrumentation failed: %v, %v", v, err)
	}
}

func TestSnapshotSubAndReset(t *testing.T) {
	var c metrics.Counters
	c.Add(metrics.Lookups, 10)
	c.Add(metrics.FailedGets, 2)
	c.Add(metrics.MovedRecords, 30)
	c.Add(metrics.Splits, 4)
	c.Add(metrics.Merges, 1)
	before := c.Snapshot()
	c.Add(metrics.Lookups, 5)
	c.Add(metrics.MovedRecords, 7)
	diff := c.Snapshot().Sub(before)
	if diff.Lookup.Total != 5 || diff.Lookup.MovedRecords != 7 || diff.Lookup.Splits != 0 {
		t.Errorf("Sub = %+v", diff)
	}
	c.Reset()
	if s := c.Snapshot(); s != (metrics.Snapshot{}) {
		t.Errorf("Reset left %+v", s)
	}
}
