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

// WireView stands in for DecodeWire on the slots of one viewed multi-get
// (see BatchViewer): it turns a fetched value's serialized form into
// whatever its caller can use of it. Like a WireDecoder it is handed a
// pooled transport buffer it must not keep or alias and never panics on
// malformed input; beyond that it is pure — the same bytes always yield
// an equal value and nothing else changes — because a substrate may run
// it on several goroutines at once, and a retry layer again on a slot's
// second reply. Returning DecodeWire(kind, data) is always legal.
type WireView func(kind byte, data []byte) (Value, error)

// BatchViewer is the optional capability of a Batcher whose values cross
// a wire as WireValues: the multi-get decodes each such value with the
// caller's view, in place of the decoder registered for its kind, while
// the bytes are still in the transport's buffer. A caller that will keep
// only part of each value so never pays for the rest. Everything else
// is GetBatch's contract, slot for slot, and GetBatch is GetBatchView
// with a nil view.
//
// Cost model: the same requests and replies cross the wire, so a viewed
// key is one DHT-lookup and is counted and traced as the batched get it
// stands in for.
type BatchViewer interface {
	Batcher
	// GetBatchView is GetBatch decoding WireValues with view.
	GetBatchView(ctx context.Context, keys []string, view WireView) ([]Value, []error)
}

// DoGetBatchView fetches keys through d's native GetBatchView when d
// implements BatchViewer, and otherwise through DoGetBatch, which returns
// whole values: the caller tells a viewed slot from a whole one by the
// type that comes back, as with a probe.
func DoGetBatchView(ctx context.Context, d DHT, keys []string, view WireView) ([]Value, []error) {
	if b, ok := d.(BatchViewer); ok && view != nil {
		return b.GetBatchView(ctx, keys, view)
	}
	return DoGetBatch(ctx, d, keys)
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
// GetBatchView): it has the per-key methods only, so DoGetBatch /
// DoPutBatch fall back to per-op calls. Every per-key plane is passed
// through untouched — the wrapper strips batching, not CAS, probes or
// patches. Without the pass-through the arms of the A6 ablation would
// differ in more than batching: the per-op arm's conditional puts would
// degrade to fetch-verify emulation (more lookups), and over tcpnet its
// lookups and writes would ship whole values where the batched arm's
// ship records.
type withoutBatch struct{ perKey }

// WithoutBatch returns d stripped of its batched-operation plane, forcing
// every batch through the per-op fallback. Benchmarks use it as the
// baseline arm when measuring round trips saved by native batching (the
// A6 ablation); it is also a way to disable batching for a substrate that
// misbehaves under it.
func WithoutBatch(d DHT) DHT { return withoutBatch{perKey{forwardTo{d}}} }
