package dht

import (
	"context"
	"errors"
	"time"

	"lht/internal/metrics"
)

// Instrumented wraps a DHT and charges every routed operation to a
// metrics.Counters according to the paper's cost model: Get, Put and
// Remove each cost one DHT-lookup; failed Gets are additionally counted so
// experiments can report them; Write is free. Operations that end in
// context cancellation or deadline expiry are also tallied
// (Cancellations / DeadlineExceeded), so fault experiments can separate
// "gave up" from "failed".
//
// Instrumented is also where the observability plane taps the traffic:
// each charged lookup is attributed to the (operation class, algorithm
// phase) cell labelled on the context by the index layer, and — when a
// trace sink is attached — every primitive is timed and emitted as a
// structured OpEvent, so a single slow query can be reconstructed
// span-by-span. Without a sink no clocks are read and the overhead is a
// handful of atomic adds.
type Instrumented struct {
	perKey // every per-key primitive is charged by do
	inner  DHT
	c      *metrics.Counters
	sink   metrics.TraceSink

	// Whether the substrate under inner's passthrough layers batches
	// natively. Where it does not, a batch is decomposed here, through
	// this wrapper's own charged per-op methods, so each key is priced.
	batches bool
}

var (
	_ DHT     = (*Instrumented)(nil)
	_ Batcher = (*Instrumented)(nil)
	_ Prober  = (*Instrumented)(nil)
	_ Patcher = (*Instrumented)(nil)
)

// NewInstrumented wraps inner, charging costs to c. c must not be nil.
func NewInstrumented(inner DHT, c *metrics.Counters) *Instrumented {
	d := &Instrumented{inner: inner, c: c}
	d.perKey = perKey{d}
	_, d.batches = substrateOf(inner).(Batcher)
	return d
}

// Counters returns the counter set this wrapper charges.
func (d *Instrumented) Counters() *metrics.Counters { return d.c }

// SetSink attaches a trace sink receiving one OpEvent per routed
// primitive (nil detaches). Must be called before the wrapper is shared
// across goroutines.
func (d *Instrumented) SetSink(s metrics.TraceSink) { d.sink = s }

// note tallies the context-outcome counters for a finished operation.
func (d *Instrumented) note(err error) {
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		d.c.Add(metrics.Cancellations, 1)
	case errors.Is(err, context.DeadlineExceeded):
		d.c.Add(metrics.DeadlineExceeded, 1)
	}
}

// charge counts n lookups and attributes them to the labels on ctx.
func (d *Instrumented) charge(ctx context.Context, n int64) metrics.Labels {
	lb := metrics.LabelsFrom(ctx)
	if n > 0 {
		d.c.Add(metrics.Lookups, n)
		d.c.AddPhaseLookups(lb.Op, lb.Phase, n)
	}
	return lb
}

// start returns the event start time, or zero when tracing is off so
// the hot path never reads the clock without a sink.
func (d *Instrumented) start() time.Time {
	if d.sink == nil {
		return time.Time{}
	}
	return time.Now()
}

// outcome classifies how a primitive ended for the trace event.
func outcome(err error) (string, string) {
	switch {
	case err == nil:
		return "ok", ""
	case errors.Is(err, ErrNotFound):
		return "not_found", ""
	case errors.Is(err, context.Canceled):
		return "cancelled", ""
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline", ""
	default:
		return "error", err.Error()
	}
}

// emit sends one trace event when a sink is attached.
func (d *Instrumented) emit(lb metrics.Labels, kind, key string, keys int, start time.Time, err error) {
	if d.sink == nil {
		return
	}
	out, detail := outcome(err)
	d.sink.RecordOp(metrics.OpEvent{
		Start:    start,
		Duration: time.Since(start),
		Kind:     kind,
		Key:      key,
		Keys:     keys,
		Op:       lb.Op,
		Phase:    lb.Phase,
		Outcome:  out,
		Err:      detail,
	})
}

// batchErr picks the event-worthy error of a batch: the first non-nil
// slot error, preferring one that is not a cancellation so partial
// failures stay visible.
func batchErr(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil || errors.Is(first, context.Canceled) || errors.Is(first, context.DeadlineExceeded) {
			first = err
		}
	}
	return first
}

// do charges, tallies and traces one per-key primitive by its row of
// prims, whether or not the wrapped substrate serves its plane natively:
// a Probe over a substrate that only Gets is still the one lookup.
//
// A refused WritePatchIf was no lookup and leaves no trace here: the
// caller's fallback is charged. A refused Patch was its probe, and is
// charged and traced as that probe answered. The free in-place writes are
// still traced, since intent writes are part of a mutation's span.
func (d *Instrumented) do(ctx context.Context, c call) (Value, error) {
	p := &prims[c.prim]
	start := d.start()
	v, err := c.on(ctx, d.inner)
	traced := err
	if errors.Is(err, ErrPatchRefused) {
		if c.prim != primPatch {
			return nil, err
		}
		traced = nil
	}
	lb := d.charge(ctx, p.lookups)
	if p.miss && errors.Is(err, ErrNotFound) {
		d.c.Add(metrics.FailedGets, 1)
	}
	d.noteCAS(traced)
	d.emit(lb, p.kind.String(), c.key, 1, start, traced)
	return v, err
}

// GetBatch implements Batcher. When the wrapped substrate batches
// natively, each carried key is still charged as one lookup — batching
// saves round trips, never bandwidth — and the batch itself is tallied in
// BatchOps/BatchedKeys. Otherwise the batch decomposes through this
// wrapper's own per-op Get, which charges each key as it goes.
func (d *Instrumented) GetBatch(ctx context.Context, keys []string) ([]Value, []error) {
	return d.getBatch(ctx, keys, call{prim: primGet})
}

// ProbeBatch implements Prober and is charged, counted and traced as the
// GetBatch it stands in for, whether or not the substrate probes natively.
func (d *Instrumented) ProbeBatch(ctx context.Context, keys []string, hint uint64) ([]Value, []error) {
	return d.getBatch(ctx, keys, call{prim: primProbe, hint: hint})
}

// getBatch is the one body of both: c is the Get or the Probe of a slot.
func (d *Instrumented) getBatch(ctx context.Context, keys []string, c call) ([]Value, []error) {
	if len(keys) == 0 {
		return nil, nil
	}
	if !d.batches {
		return c.each(ctx, d, keys)
	}
	lb := d.charge(ctx, int64(len(keys)))
	d.c.Add(metrics.BatchOps, 1)
	d.c.Add(metrics.BatchedKeys, int64(len(keys)))
	start := d.start()
	vals, errs := c.batch(ctx, d.inner, keys)
	for _, err := range errs {
		if errors.Is(err, ErrNotFound) {
			d.c.Add(metrics.FailedGets, 1)
		}
		d.note(err)
	}
	d.emit(lb, "get_batch", "", len(keys), start, batchErr(errs))
	return vals, errs
}

// PutBatch implements Batcher with the same charging rules as GetBatch.
func (d *Instrumented) PutBatch(ctx context.Context, kvs []KV) []error {
	if len(kvs) == 0 {
		return nil
	}
	if !d.batches {
		errs := make([]error, len(kvs))
		for i, kv := range kvs {
			errs[i] = d.Put(ctx, kv.Key, kv.Val)
		}
		return errs
	}
	lb := d.charge(ctx, int64(len(kvs)))
	d.c.Add(metrics.BatchOps, 1)
	d.c.Add(metrics.BatchedKeys, int64(len(kvs)))
	start := d.start()
	errs := DoPutBatch(ctx, d.inner, kvs)
	for _, err := range errs {
		d.note(err)
	}
	d.emit(lb, "put_batch", "", len(kvs), start, batchErr(errs))
	return errs
}

// noteCAS tallies a finished per-key operation: one CASConflict when a
// compare lost, plus the usual context-outcome counters.
func (d *Instrumented) noteCAS(err error) {
	if errors.Is(err, ErrCASConflict) {
		d.c.Add(metrics.CASConflicts, 1)
	}
	d.note(err)
}
