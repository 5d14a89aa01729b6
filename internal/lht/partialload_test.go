package lht

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"lht/internal/dht"
	"lht/internal/record"
)

// allowThen lets a fixed number of puts through, then runs a trip action
// once and fails every later put with the error it returns. The bootstrap
// CreateIf and a load's claim PutIf are puts too, and take from the same
// count, so a test can fail a load before its claim. It does not
// implement dht.Batcher, so batched shippers decompose through it
// per-op in slice order — making the failure point deterministic.
type allowThen struct {
	dht.DHT
	allow int
	trip  func() error
	err   error
}

// gate takes one put from the count, or fails it.
func (a *allowThen) gate(ctx context.Context) error {
	if a.allow > 0 {
		a.allow--
		return nil
	}
	if a.err == nil {
		a.err = a.trip()
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return a.err
}

func (a *allowThen) Put(ctx context.Context, key string, v dht.Value) error {
	if err := a.gate(ctx); err != nil {
		return err
	}
	return a.DHT.Put(ctx, key, v)
}

func (a *allowThen) CreateIf(ctx context.Context, key string, v dht.Value) error {
	if err := a.gate(ctx); err != nil {
		return err
	}
	return a.DHT.CreateIf(ctx, key, v)
}

func (a *allowThen) PutIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	if err := a.gate(ctx); err != nil {
		return err
	}
	return a.DHT.PutIf(ctx, key, v, ifEpoch)
}

func partialLoadRecords(n int) []record.Record {
	rng := rand.New(rand.NewSource(7))
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{Key: rng.Float64(), Value: []byte{byte(i)}}
	}
	return recs
}

// TestBulkLoadPartialOnCancellation: a context cancelled mid-load leaves
// the shipped leaves in place and reports a *PartialLoadError wrapping
// both ErrPartialLoad and the cancellation; a retry then refuses with
// ErrNotEmpty because the partial tree is real data.
func TestBulkLoadPartialOnCancellation(t *testing.T) {
	inner := dht.NewLocal()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Allow the bootstrap probe machinery and the first two leaf puts,
	// then cancel. BatchSize far above the leaf count keeps the whole
	// ship in one chunk, decomposed per-op through the wrapper.
	d := &allowThen{DHT: inner, allow: 2, trip: func() error { cancel(); return context.Canceled }}
	ix, err := New(d, Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 20, BatchSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ix.BulkLoadContext(ctx, partialLoadRecords(200))
	if err == nil {
		t.Fatal("cancelled bulk load succeeded")
	}
	if !errors.Is(err, ErrPartialLoad) {
		t.Fatalf("err = %v, want ErrPartialLoad in the chain", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, must still wrap the cancellation cause", err)
	}
	var ple *PartialLoadError
	if !errors.As(err, &ple) {
		t.Fatalf("err = %T, want *PartialLoadError", err)
	}
	if ple.Shipped < 1 || ple.Shipped >= ple.Total {
		t.Fatalf("Shipped/Total = %d/%d, want a strict partial", ple.Shipped, ple.Total)
	}

	// The shipped leaves are real data: a fresh load attempt must refuse.
	ix2, err := New(inner, Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix2.BulkLoad(partialLoadRecords(10)); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("BulkLoad over a partial tree = %v, want ErrNotEmpty", err)
	}
}

// TestBulkLoadPartialPrefersRealFault: when a substrate fault (not a
// cancellation) kills the load, that fault is the wrapped cause.
func TestBulkLoadPartialPrefersRealFault(t *testing.T) {
	// One put for the bootstrap bucket, one for the first leaf.
	d := &allowThen{DHT: dht.NewLocal(), allow: 2, trip: func() error { return errInjected }}
	ix, err := New(d, Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 20, BatchSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ix.BulkLoad(partialLoadRecords(200))
	if !errors.Is(err, ErrPartialLoad) || !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want ErrPartialLoad wrapping the injected fault", err)
	}
}

// TestBulkLoadNothingShippedIsNotPartial: a load that fails before any
// leaf lands reports the plain cause, not ErrPartialLoad — there is
// nothing partial about an empty tree.
func TestBulkLoadNothingShippedIsNotPartial(t *testing.T) {
	// Only the bootstrap put goes through; every leaf put fails.
	d := &allowThen{DHT: dht.NewLocal(), allow: 1, trip: func() error { return errInjected }}
	ix, err := New(d, Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 20, BatchSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ix.BulkLoad(partialLoadRecords(50))
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want the injected fault", err)
	}
	if errors.Is(err, ErrPartialLoad) {
		t.Fatalf("err = %v claims a partial load with zero leaves shipped", err)
	}
}
