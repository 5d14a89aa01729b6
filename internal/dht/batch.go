package dht

import "context"

// KV is one key/value pair of a batched put.
type KV struct {
	Key string
	Val Value
}

// Batcher is the optional batched-operation plane of a DHT. A substrate
// that can resolve and ship many keys in fewer round trips than one per
// key implements it natively (Local under one lock pass, chord with one
// routed resolution per responsible peer, tcpnet with one framed message
// per connection); everything else is served by the per-op fallback in
// DoGetBatch / DoPutBatch.
//
// Both methods return positionally aligned results: slot i reports the
// outcome for keys[i] (or kvs[i]), with a nil error slot meaning that key
// succeeded. A batch never fails as a whole — per-key outcomes are
// independent, and a missing key yields ErrNotFound in its slot only.
// PutBatch applies duplicate keys in slice order, so the last occurrence
// wins, matching a sequence of per-op Puts.
//
// Batching changes latency, not the cost model: each batched key is still
// one DHT-lookup (bandwidth); only the number of round trips shrinks.
type Batcher interface {
	// GetBatch returns the values stored under keys. Both returned slices
	// have len(keys) entries; slot i is the outcome for keys[i].
	GetBatch(ctx context.Context, keys []string) ([]Value, []error)

	// PutBatch stores every pair, replacing previous values. The returned
	// slice has len(kvs) entries; slot i is the outcome for kvs[i].
	PutBatch(ctx context.Context, kvs []KV) []error
}

// DoGetBatch fetches keys through d's native GetBatch when d implements
// Batcher, and otherwise decomposes into per-op Gets. Results are
// positionally aligned with keys either way, so callers can program
// against batches without caring what the substrate supports.
func DoGetBatch(ctx context.Context, d DHT, keys []string) ([]Value, []error) {
	if b, ok := d.(Batcher); ok {
		return b.GetBatch(ctx, keys)
	}
	vals := make([]Value, len(keys))
	errs := make([]error, len(keys))
	for i, k := range keys {
		vals[i], errs[i] = d.Get(ctx, k)
	}
	return vals, errs
}

// DoPutBatch stores kvs through d's native PutBatch when d implements
// Batcher, and otherwise decomposes into per-op Puts.
func DoPutBatch(ctx context.Context, d DHT, kvs []KV) []error {
	if b, ok := d.(Batcher); ok {
		return b.PutBatch(ctx, kvs)
	}
	errs := make([]error, len(kvs))
	for i, kv := range kvs {
		errs[i] = d.Put(ctx, kv.Key, kv.Val)
	}
	return errs
}

// withoutBatch hides a substrate's batch planes (GetBatch, PutBatch,
// ProbeBatch): it has the per-key methods only, so every batch falls back
// to per-op calls. Every per-key plane is passed through untouched — the
// wrapper strips batching, not probes or patches. Without the
// pass-through the arms of the A6 ablation would differ in more than
// batching: over tcpnet the per-op arm's lookups and writes would ship
// whole values where the batched arm's ship records.
type withoutBatch struct{ perKey }

// WithoutBatch returns d stripped of its batched-operation plane, forcing
// every batch through the per-op fallback. Benchmarks use it as the
// baseline arm when measuring round trips saved by native batching (the
// A6 ablation); it is also a way to disable batching for a substrate that
// misbehaves under it.
func WithoutBatch(d DHT) DHT { return withoutBatch{perKey{forwardTo{d}}} }
