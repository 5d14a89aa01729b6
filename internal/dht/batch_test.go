package dht

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"lht/internal/metrics"
)

// scriptedBatcher is a Local whose batched gets and puts fail chosen keys
// with a transient fault a configured number of times, recording the key
// set of every batch call — the probe for failed-subset retry behavior.
type scriptedBatcher struct {
	*Local

	mu       sync.Mutex
	failures map[string]int // remaining transient failures per key
	getCalls [][]string
	putCalls [][]string
}

func newScriptedBatcher(failures map[string]int) *scriptedBatcher {
	return &scriptedBatcher{Local: NewLocal(), failures: failures}
}

func (s *scriptedBatcher) fail(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failures[key] > 0 {
		s.failures[key]--
		return true
	}
	return false
}

func (s *scriptedBatcher) GetBatch(ctx context.Context, keys []string) ([]Value, []error) {
	s.mu.Lock()
	s.getCalls = append(s.getCalls, append([]string(nil), keys...))
	s.mu.Unlock()
	vals, errs := s.Local.GetBatch(ctx, keys)
	for i, k := range keys {
		if s.fail(k) {
			vals[i], errs[i] = nil, MarkTransient(fmt.Errorf("scripted fault on %q", k))
		}
	}
	return vals, errs
}

func (s *scriptedBatcher) PutBatch(ctx context.Context, kvs []KV) []error {
	keys := make([]string, len(kvs))
	errs := make([]error, len(kvs))
	var ok []KV
	var okIdx []int
	for i, kv := range kvs {
		keys[i] = kv.Key
		if s.fail(kv.Key) {
			errs[i] = MarkTransient(fmt.Errorf("scripted fault on %q", kv.Key))
			continue
		}
		ok = append(ok, kv)
		okIdx = append(okIdx, i)
	}
	s.mu.Lock()
	s.putCalls = append(s.putCalls, keys)
	s.mu.Unlock()
	for j, err := range s.Local.PutBatch(ctx, ok) {
		if err != nil {
			errs[okIdx[j]] = err
		}
	}
	return errs
}

// TestPolicyBatchRetriesOnlyFailedSubset is the acceptance scenario for
// the batch plane's policy composition: a batch of three keys where one
// key fails once and another twice must re-issue exactly the failed
// subset each round, with every attempt charged as a lookup by the
// instrumentation below the policy.
func TestPolicyBatchRetriesOnlyFailedSubset(t *testing.T) {
	ctx := context.Background()
	fake := newScriptedBatcher(map[string]int{"B": 1, "C": 2})
	for _, k := range []string{"A", "B", "C"} {
		if err := fake.Local.Put(ctx, k, "v-"+k); err != nil {
			t.Fatal(err)
		}
	}
	c := &metrics.Counters{}
	d := WithPolicy(NewInstrumented(fake, c), fastPolicy(c))

	vals, errs := d.GetBatch(ctx, []string{"A", "B", "C"})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
	for i, k := range []string{"A", "B", "C"} {
		if vals[i] != "v-"+k {
			t.Fatalf("slot %d = %v, want v-%s", i, vals[i], k)
		}
	}

	wantCalls := [][]string{{"A", "B", "C"}, {"B", "C"}, {"C"}}
	if len(fake.getCalls) != len(wantCalls) {
		t.Fatalf("got %d batch calls %v, want %v", len(fake.getCalls), fake.getCalls, wantCalls)
	}
	for i, call := range fake.getCalls {
		if fmt.Sprint(call) != fmt.Sprint(wantCalls[i]) {
			t.Fatalf("call %d = %v, want %v", i, call, wantCalls[i])
		}
	}

	s := c.Snapshot()
	if s.Lookup.Total != 6 {
		t.Errorf("Lookups = %d, want 6 (3+2+1: every attempt charged)", s.Lookup.Total)
	}
	if s.Batch.Ops != 3 || s.Batch.Keys != 6 {
		t.Errorf("BatchOps/BatchedKeys = %d/%d, want 3/6", s.Batch.Ops, s.Batch.Keys)
	}
	if s.Retry.Retries != 3 {
		t.Errorf("Retries = %d, want 3 (two slots round 1, one slot round 2)", s.Retry.Retries)
	}
	if got := s.RoundTrips(); got != 3 {
		t.Errorf("RoundTrips = %d, want 3", got)
	}
}

// TestPolicyBatchExhaustion: a key that never stops failing surfaces
// ErrRetriesExhausted in its slot only; healthy keys still succeed.
func TestPolicyBatchExhaustion(t *testing.T) {
	ctx := context.Background()
	fake := newScriptedBatcher(map[string]int{"B": 1000})
	c := &metrics.Counters{}
	d := WithPolicy(NewInstrumented(fake, c), fastPolicy(c))

	errs := d.PutBatch(ctx, []KV{{Key: "A", Val: 1}, {Key: "B", Val: 2}})
	if errs[0] != nil {
		t.Fatalf("healthy slot: %v", errs[0])
	}
	if !errors.Is(errs[1], ErrRetriesExhausted) || !IsTransient(errs[1]) {
		t.Fatalf("exhausted slot = %v, want ErrRetriesExhausted and transient", errs[1])
	}
	if v, err := fake.Local.Get(ctx, "A"); err != nil || v != 1 {
		t.Fatalf("A = %v, %v", v, err)
	}
	// 4 attempts for B (1 + 3 retries), 1 for A.
	if s := c.Snapshot(); s.Lookup.Total != 5 || s.Retry.Retries != 3 {
		t.Errorf("Lookups/Retries = %d/%d, want 5/3", s.Lookup.Total, s.Retry.Retries)
	}
}

// TestWithoutBatchHidesBatcher: the wrapper must strip the native batch
// plane so DoGetBatch/DoPutBatch decompose per-op.
func TestWithoutBatchHidesBatcher(t *testing.T) {
	ctx := context.Background()
	inner := NewLocal()
	if _, ok := any(inner).(Batcher); !ok {
		t.Fatal("Local must implement Batcher")
	}
	stripped := WithoutBatch(inner)
	if _, ok := stripped.(Batcher); ok {
		t.Fatal("WithoutBatch result must not implement Batcher")
	}
	// Charging through Instrumented: per-op fallback counts lookups but
	// no batch ops.
	c := &metrics.Counters{}
	d := NewInstrumented(stripped, c)
	if errs := DoPutBatch(ctx, d, []KV{{Key: "a", Val: 1}, {Key: "b", Val: 2}}); errs[0] != nil || errs[1] != nil {
		t.Fatalf("fallback PutBatch: %v", errs)
	}
	vals, errs := DoGetBatch(ctx, d, []string{"a", "b", "missing"})
	if errs[0] != nil || errs[1] != nil || !errors.Is(errs[2], ErrNotFound) {
		t.Fatalf("fallback GetBatch errs: %v", errs)
	}
	if vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("fallback GetBatch vals: %v", vals)
	}
	s := c.Snapshot()
	if s.Lookup.Total != 5 || s.Lookup.FailedGets != 1 {
		t.Errorf("Lookups/FailedGets = %d/%d, want 5/1", s.Lookup.Total, s.Lookup.FailedGets)
	}
	if s.Batch.Ops != 0 || s.Batch.Keys != 0 {
		t.Errorf("per-op fallback tallied batches: %d/%d", s.Batch.Ops, s.Batch.Keys)
	}
	if got := s.RoundTrips(); got != 5 {
		t.Errorf("RoundTrips = %d, want 5 (no batching, one per lookup)", got)
	}
}

// TestInstrumentedNativeBatchCharging: a native batch charges one lookup
// per key plus the batch tallies, and failed slots count as failed gets.
func TestInstrumentedNativeBatchCharging(t *testing.T) {
	ctx := context.Background()
	c := &metrics.Counters{}
	d := NewInstrumented(NewLocal(), c)
	if errs := DoPutBatch(ctx, d, []KV{{Key: "a", Val: 1}, {Key: "b", Val: 2}}); errs[0] != nil || errs[1] != nil {
		t.Fatalf("PutBatch: %v", errs)
	}
	_, errs := DoGetBatch(ctx, d, []string{"a", "b", "missing"})
	if !errors.Is(errs[2], ErrNotFound) {
		t.Fatalf("missing slot = %v", errs[2])
	}
	s := c.Snapshot()
	if s.Lookup.Total != 5 || s.Lookup.FailedGets != 1 {
		t.Errorf("Lookups/FailedGets = %d/%d, want 5/1", s.Lookup.Total, s.Lookup.FailedGets)
	}
	if s.Batch.Ops != 2 || s.Batch.Keys != 5 {
		t.Errorf("BatchOps/BatchedKeys = %d/%d, want 2/5", s.Batch.Ops, s.Batch.Keys)
	}
	if got := s.RoundTrips(); got != 2 {
		t.Errorf("RoundTrips = %d, want 2 (one per batch)", got)
	}
}
