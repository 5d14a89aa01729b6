package dht

import (
	"context"
	"errors"
	"time"

	"lht/internal/metrics"
)

// Instrumented wraps a DHT and charges every routed operation to a
// metrics.Counters according to the paper's cost model: Get, Put, Take and
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
	inner DHT
	c     *metrics.Counters
	sink  metrics.TraceSink
}

var (
	_ DHT         = (*Instrumented)(nil)
	_ BatchViewer = (*Instrumented)(nil)
	_ Conditional = (*Instrumented)(nil)
	_ Prober      = (*Instrumented)(nil)
	_ Patcher     = (*Instrumented)(nil)
)

// NewInstrumented wraps inner, charging costs to c. c must not be nil.
func NewInstrumented(inner DHT, c *metrics.Counters) *Instrumented {
	return &Instrumented{inner: inner, c: c}
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
	d.c.Add(metrics.Lookups, n)
	d.c.AddPhaseLookups(lb.Op, lb.Phase, n)
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

// Get implements DHT, counting one lookup (and one failed get on miss).
func (d *Instrumented) Get(ctx context.Context, key string) (Value, error) {
	lb := d.charge(ctx, 1)
	start := d.start()
	v, err := d.inner.Get(ctx, key)
	d.noteGet(lb, key, start, err)
	return v, err
}

// Probe implements Prober. It is charged and traced exactly as the Get
// it stands in for, whether or not the wrapped substrate probes natively.
func (d *Instrumented) Probe(ctx context.Context, key string, hint uint64) (Value, error) {
	lb := d.charge(ctx, 1)
	start := d.start()
	v, err := DoProbe(ctx, d.inner, key, hint)
	d.noteGet(lb, key, start, err)
	return v, err
}

// noteGet tallies and traces one finished Get or Probe.
func (d *Instrumented) noteGet(lb metrics.Labels, key string, start time.Time, err error) {
	if errors.Is(err, ErrNotFound) {
		d.c.Add(metrics.FailedGets, 1)
	}
	d.note(err)
	d.emit(lb, "get", key, 1, start, err)
}

// Put implements DHT, counting one lookup.
func (d *Instrumented) Put(ctx context.Context, key string, v Value) error {
	lb := d.charge(ctx, 1)
	start := d.start()
	err := d.inner.Put(ctx, key, v)
	d.note(err)
	d.emit(lb, "put", key, 1, start, err)
	return err
}

// Take implements DHT, counting one lookup.
func (d *Instrumented) Take(ctx context.Context, key string) (Value, error) {
	lb := d.charge(ctx, 1)
	start := d.start()
	v, err := d.inner.Take(ctx, key)
	if errors.Is(err, ErrNotFound) {
		d.c.Add(metrics.FailedGets, 1)
	}
	d.note(err)
	d.emit(lb, "take", key, 1, start, err)
	return v, err
}

// Remove implements DHT, counting one lookup.
func (d *Instrumented) Remove(ctx context.Context, key string) error {
	lb := d.charge(ctx, 1)
	start := d.start()
	err := d.inner.Remove(ctx, key)
	d.note(err)
	d.emit(lb, "remove", key, 1, start, err)
	return err
}

// GetBatch implements Batcher. When the wrapped substrate batches
// natively, each carried key is still charged as one lookup — batching
// saves round trips, never bandwidth — and the batch itself is tallied in
// BatchOps/BatchedKeys. Otherwise the batch decomposes through this
// wrapper's own per-op Get, which charges each key as it goes.
func (d *Instrumented) GetBatch(ctx context.Context, keys []string) ([]Value, []error) {
	return d.GetBatchView(ctx, keys, nil)
}

// GetBatchView implements BatchViewer and is GetBatch's one body: a
// viewed batch is charged, counted and traced exactly as the GetBatch it
// stands in for, whether or not the wrapped substrate views natively.
func (d *Instrumented) GetBatchView(ctx context.Context, keys []string, view WireView) ([]Value, []error) {
	if len(keys) == 0 {
		return nil, nil
	}
	if _, ok := d.inner.(Batcher); !ok {
		vals := make([]Value, len(keys))
		errs := make([]error, len(keys))
		for i, k := range keys {
			vals[i], errs[i] = d.Get(ctx, k)
		}
		return vals, errs
	}
	lb := d.charge(ctx, int64(len(keys)))
	d.c.Add(metrics.BatchOps, 1)
	d.c.Add(metrics.BatchedKeys, int64(len(keys)))
	start := d.start()
	vals, errs := DoGetBatchView(ctx, d.inner, keys, view)
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
	b, ok := d.inner.(Batcher)
	if !ok {
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
	errs := b.PutBatch(ctx, kvs)
	for _, err := range errs {
		d.note(err)
	}
	d.emit(lb, "put_batch", "", len(kvs), start, batchErr(errs))
	return errs
}

// Write implements DHT; it is free in the cost model but still traced,
// since intent writes are part of a mutation's span.
func (d *Instrumented) Write(ctx context.Context, key string, v Value) error {
	start := d.start()
	err := d.inner.Write(ctx, key, v)
	d.note(err)
	if d.sink != nil {
		// Write charges nothing, so the labels were not read yet.
		d.emit(metrics.LabelsFrom(ctx), "write", key, 1, start, err)
	}
	return err
}

// noteCAS tallies a finished conditional operation: one CASConflict when
// the compare lost, plus the usual context-outcome counters.
func (d *Instrumented) noteCAS(err error) {
	if errors.Is(err, ErrCASConflict) {
		d.c.Add(metrics.CASConflicts, 1)
	}
	d.note(err)
}

// PutIf implements Conditional, counting one lookup like Put. When the
// wrapped substrate has no native CAS, the operation decomposes into this
// wrapper's own charged Get + Put (two lookups — the price of emulation)
// and is tallied as a CASFallback.
func (d *Instrumented) PutIf(ctx context.Context, key string, v Value, ifEpoch uint64) error {
	cd, ok := d.inner.(Conditional)
	if !ok {
		d.c.Add(metrics.CASFallbacks, 1)
		err := fallbackPutIf(ctx, d, key, v, ifEpoch)
		d.noteCAS(err)
		return err
	}
	lb := d.charge(ctx, 1)
	start := d.start()
	err := cd.PutIf(ctx, key, v, ifEpoch)
	d.noteCAS(err)
	d.emit(lb, "putif", key, 1, start, err)
	return err
}

// PatchIf implements Patcher. A patch that was applied, lost its
// compare-and-swap or failed in transit is charged, conflict-counted and
// traced exactly as the PutIf it stands in for; a refused one was no
// lookup and leaves no trace here: the caller's fallback is charged.
func (d *Instrumented) PatchIf(ctx context.Context, key string, patch []byte, ifEpoch uint64) (Value, error) {
	start := d.start()
	v, err := DoPatchIf(ctx, d.inner, key, patch, ifEpoch)
	if errors.Is(err, ErrPatchRefused) {
		return nil, err
	}
	lb := d.charge(ctx, 1)
	d.noteCAS(err)
	d.emit(lb, "putif", key, 1, start, err)
	return v, err
}

// CreateIf implements Conditional, counting one lookup like Put.
func (d *Instrumented) CreateIf(ctx context.Context, key string, v Value) error {
	cd, ok := d.inner.(Conditional)
	if !ok {
		d.c.Add(metrics.CASFallbacks, 1)
		err := fallbackCreateIf(ctx, d, key, v)
		d.noteCAS(err)
		return err
	}
	lb := d.charge(ctx, 1)
	start := d.start()
	err := cd.CreateIf(ctx, key, v)
	d.noteCAS(err)
	d.emit(lb, "createif", key, 1, start, err)
	return err
}

// RemoveIf implements Conditional, counting one lookup like Remove.
func (d *Instrumented) RemoveIf(ctx context.Context, key string, ifEpoch uint64) error {
	cd, ok := d.inner.(Conditional)
	if !ok {
		d.c.Add(metrics.CASFallbacks, 1)
		err := fallbackRemoveIf(ctx, d, key, ifEpoch)
		d.noteCAS(err)
		return err
	}
	lb := d.charge(ctx, 1)
	start := d.start()
	err := cd.RemoveIf(ctx, key, ifEpoch)
	d.noteCAS(err)
	d.emit(lb, "removeif", key, 1, start, err)
	return err
}

// WriteIf implements Conditional; like Write it is free in the cost model
// but still traced and conflict-counted.
func (d *Instrumented) WriteIf(ctx context.Context, key string, v Value, ifEpoch uint64) error {
	cd, ok := d.inner.(Conditional)
	if !ok {
		d.c.Add(metrics.CASFallbacks, 1)
		err := fallbackWriteIf(ctx, d, key, v, ifEpoch)
		d.noteCAS(err)
		return err
	}
	start := d.start()
	err := cd.WriteIf(ctx, key, v, ifEpoch)
	d.noteCAS(err)
	if d.sink != nil {
		d.emit(metrics.LabelsFrom(ctx), "writeif", key, 1, start, err)
	}
	return err
}
