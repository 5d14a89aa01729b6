//go:build !race

package dht

import (
	"context"
	"testing"

	"lht/internal/metrics"
)

// TestStackAddsNoAllocations pins what the retry and instrumentation
// layers cost a primitive in allocations: nothing. It is the in-tree twin
// of the cluster ledger's dht.stack_allocs_per_get; on the ledger's
// get-probe workload an operation is ≈ 12 allocations over 2.6 lookups,
// so one allocation per primitive in either layer would be a fifth more.
// Each layer hands the reified call on by value, which is what keeps it
// off the heap. (Not under the race detector, which allocates on its own.)
//
// Patch and WritePatchIf are the exception, at one: Local refuses a patch,
// and IsTransient allocates the net.Error it tests an unrecognised error
// against. That is the refusal's price, not the layers'. An index pays it
// over Local only for a write's cache-named probe, the one a patch rides,
// and never for an in-place one: only a patch that was applied leads it
// to patch in place.
func TestStackAddsNoAllocations(t *testing.T) {
	ctx := context.Background()
	local := NewLocal()
	stack := WithPolicy(NewInstrumented(local, &metrics.Counters{}), DefaultPolicy())
	var v Value = "v"
	if err := local.Put(ctx, "k", v); err != nil {
		t.Fatal(err)
	}
	keys := []string{"k", "absent"}
	for _, op := range []struct {
		name  string
		extra float64
		run   func(d DHT)
	}{
		{"Get", 0, func(d DHT) { _, _ = d.Get(ctx, "k") }},
		{"Probe", 0, func(d DHT) { _, _ = DoProbe(ctx, d, "k", 7) }},
		{"Put", 0, func(d DHT) { _ = d.Put(ctx, "k", v) }},
		{"PutIf", 0, func(d DHT) { _ = d.PutIf(ctx, "k", v, 0) }},
		{"WriteIf", 0, func(d DHT) { _ = d.WriteIf(ctx, "k", v, 0) }},
		{"Patch", 1, func(d DHT) { _, _ = DoPatch(ctx, d, "k", 7, nil) }},
		{"WritePatchIf", 1, func(d DHT) { _, _ = DoWritePatchIf(ctx, d, "k", nil, 0) }},
		{"GetBatch", 0, func(d DHT) { _, _ = DoGetBatch(ctx, d, keys) }},
		{"ProbeBatch", 0, func(d DHT) { _, _ = DoProbeBatch(ctx, d, keys, 7) }},
	} {
		bare := testing.AllocsPerRun(100, func() { op.run(local) })
		through := testing.AllocsPerRun(100, func() { op.run(stack) })
		if through > bare+op.extra {
			t.Errorf("%s: %v allocations through the stack, %v on the bare substrate, want at most %v more", op.name, through, bare, op.extra)
		}
	}
}
