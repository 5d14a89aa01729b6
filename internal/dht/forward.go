package dht

import "context"

// This file is the one place a per-key primitive is spelt out: which
// there are (prim), what each stands for (prims), how one is performed on
// a DHT (call.on), and which method reifies as which (perKey). A wrapper
// embeds perKey, or the passthrough base built on it, and declares only
// what it changes; a new per-key capability is a row, a case and a
// method here and reaches the substrate through every wrapper.

// prim names one per-key primitive: the four DHT methods and each method
// of the optional per-key planes (Conditional, Prober, Patcher).
type prim uint8

const (
	primGet prim = iota
	primProbe
	primPut
	primRemove
	primWrite
	primPutIf
	primPatch
	primCreateIf
	primRemoveIf
	primWriteIf
	primWritePatchIf
)

// prims is what the layers that treat every primitive alike need to know
// of each. A Probe is the Get it stands in for, a Patch the Probe it rides
// — applied or not, the one lookup a write's last probe costs — and a
// WritePatchIf the WriteIf it stands in for: scheduled, charged, named and
// traced as one.
// Write, WriteIf and WritePatchIf rewrite a value on the peer already
// holding it and are free in the cost model.
var prims = [...]struct {
	kind        OpKind // the operation class a crash schedule matches and a trace names
	lookups     int64  // DHT-lookups charged
	miss        bool   // an ErrNotFound answer is a failed get
	conditional bool   // a method of Conditional: emulated where the substrate has no CAS
}{
	primGet:          {kind: OpGet, lookups: 1, miss: true},
	primProbe:        {kind: OpGet, lookups: 1, miss: true},
	primPut:          {kind: OpPut, lookups: 1},
	primRemove:       {kind: OpRemove, lookups: 1},
	primWrite:        {kind: OpWrite},
	primPutIf:        {kind: OpPutIf, lookups: 1, conditional: true},
	primPatch:        {kind: OpGet, lookups: 1, miss: true},
	primCreateIf:     {kind: OpCreateIf, lookups: 1, conditional: true},
	primRemoveIf:     {kind: OpRemoveIf, lookups: 1, conditional: true},
	primWriteIf:      {kind: OpWriteIf, conditional: true},
	primWritePatchIf: {kind: OpWriteIf},
}

// call is one per-key primitive as a value. Layers hand it on by value:
// it never escapes, so reifying an operation costs no allocation.
type call struct {
	prim  prim
	key   string
	val   Value  // Put, Write, PutIf, CreateIf, WriteIf
	epoch uint64 // PutIf, RemoveIf, WriteIf, WritePatchIf
	hint  uint64 // Probe, Patch
	patch []byte // Patch, WritePatchIf
}

// on performs c on d. The optional planes go through their Do* helpers,
// so a d without the plane answers as the helper's fallback does: a
// probe with a plain Get, a conditional write by fetch-verify-write, a
// Patch with its probe alone, a WritePatchIf with ErrPatchRefused.
func (c call) on(ctx context.Context, d DHT) (Value, error) {
	switch c.prim {
	case primGet:
		return d.Get(ctx, c.key)
	case primProbe:
		return DoProbe(ctx, d, c.key, c.hint)
	case primPut:
		return nil, d.Put(ctx, c.key, c.val)
	case primRemove:
		return nil, d.Remove(ctx, c.key)
	case primWrite:
		return nil, d.Write(ctx, c.key, c.val)
	case primPutIf:
		return nil, DoPutIf(ctx, d, c.key, c.val, c.epoch)
	case primPatch:
		return DoPatch(ctx, d, c.key, c.hint, c.patch)
	case primCreateIf:
		return nil, DoCreateIf(ctx, d, c.key, c.val)
	case primRemoveIf:
		return nil, DoRemoveIf(ctx, d, c.key, c.epoch)
	case primWriteIf:
		return nil, DoWriteIf(ctx, d, c.key, c.val, c.epoch)
	case primWritePatchIf:
		return DoWritePatchIf(ctx, d, c.key, c.patch, c.epoch)
	}
	panic("dht: unknown primitive")
}

// layer is a wrapper's whole treatment of a per-key primitive.
type layer interface {
	do(ctx context.Context, c call) (Value, error)
}

// perKey implements DHT, Conditional, Prober and Patcher by handing each
// call to l. A wrapper that gives every primitive the same treatment
// (PolicyDHT's retry loop, CrashPoints' schedule, Instrumented's
// charging) embeds it with itself as l and states that treatment once.
type perKey struct{ l layer }

func (k perKey) Get(ctx context.Context, key string) (Value, error) {
	return k.l.do(ctx, call{prim: primGet, key: key})
}

func (k perKey) Probe(ctx context.Context, key string, hint uint64) (Value, error) {
	return k.l.do(ctx, call{prim: primProbe, key: key, hint: hint})
}

func (k perKey) Put(ctx context.Context, key string, v Value) error {
	_, err := k.l.do(ctx, call{prim: primPut, key: key, val: v})
	return err
}

func (k perKey) Remove(ctx context.Context, key string) error {
	_, err := k.l.do(ctx, call{prim: primRemove, key: key})
	return err
}

func (k perKey) Write(ctx context.Context, key string, v Value) error {
	_, err := k.l.do(ctx, call{prim: primWrite, key: key, val: v})
	return err
}

func (k perKey) PutIf(ctx context.Context, key string, v Value, ifEpoch uint64) error {
	_, err := k.l.do(ctx, call{prim: primPutIf, key: key, val: v, epoch: ifEpoch})
	return err
}

func (k perKey) Patch(ctx context.Context, key string, hint uint64, patch []byte) (Value, error) {
	return k.l.do(ctx, call{prim: primPatch, key: key, hint: hint, patch: patch})
}

func (k perKey) CreateIf(ctx context.Context, key string, v Value) error {
	_, err := k.l.do(ctx, call{prim: primCreateIf, key: key, val: v})
	return err
}

func (k perKey) RemoveIf(ctx context.Context, key string, ifEpoch uint64) error {
	_, err := k.l.do(ctx, call{prim: primRemoveIf, key: key, epoch: ifEpoch})
	return err
}

func (k perKey) WriteIf(ctx context.Context, key string, v Value, ifEpoch uint64) error {
	_, err := k.l.do(ctx, call{prim: primWriteIf, key: key, val: v, epoch: ifEpoch})
	return err
}

func (k perKey) WritePatchIf(ctx context.Context, key string, patch []byte, ifEpoch uint64) (Value, error) {
	return k.l.do(ctx, call{prim: primWritePatchIf, key: key, patch: patch, epoch: ifEpoch})
}

// ProbeBatch is the per-op loop of Probe: withoutBatch keeps it, and so
// stays batch-free.
func (k perKey) ProbeBatch(ctx context.Context, keys []string, hint uint64) ([]Value, []error) {
	return call{prim: primProbe, hint: hint}.each(ctx, k.l, keys)
}

// batch performs c, a Get or a Probe short of its key, for keys on d as
// one multi-get, through the plane's Do* helper.
func (c call) batch(ctx context.Context, d DHT, keys []string) ([]Value, []error) {
	if c.prim == primProbe {
		return DoProbeBatch(ctx, d, keys, c.hint)
	}
	return DoGetBatch(ctx, d, keys)
}

// each performs c for keys one key at a time, through l.
func (c call) each(ctx context.Context, l layer, keys []string) ([]Value, []error) {
	vals := make([]Value, len(keys))
	errs := make([]error, len(keys))
	for i, key := range keys {
		c.key = key
		vals[i], errs[i] = l.do(ctx, c)
	}
	return vals, errs
}

// forwardTo is the layer that changes nothing.
type forwardTo struct{ inner DHT }

func (f forwardTo) do(ctx context.Context, c call) (Value, error) { return c.on(ctx, f.inner) }

// passthrough is the forwarding base of a wrapper that changes a method
// or two (the hedger): every DHT method and every optional
// plane reaches inner untouched, through the plane's Do* helper. The
// wrapper overrides what it changes, and a plane it must refuse it
// overrides too, with the reason.
//
// Its method set therefore says nothing of what inner can do. The one
// layer that asks, Instrumented, asks substrateOf.
type passthrough struct {
	perKey
	inner DHT
}

func newPassthrough(inner DHT) passthrough {
	return passthrough{perKey: perKey{forwardTo{inner}}, inner: inner}
}

var (
	_ Batcher     = passthrough{}
	_ Conditional = passthrough{}
	_ Prober      = passthrough{}
	_ Patcher     = passthrough{}
)

func (p passthrough) GetBatch(ctx context.Context, keys []string) ([]Value, []error) {
	return DoGetBatch(ctx, p.inner, keys)
}

func (p passthrough) ProbeBatch(ctx context.Context, keys []string, hint uint64) ([]Value, []error) {
	return DoProbeBatch(ctx, p.inner, keys, hint)
}

func (p passthrough) PutBatch(ctx context.Context, kvs []KV) []error {
	return DoPutBatch(ctx, p.inner, kvs)
}

func (p passthrough) unwrap() DHT { return p.inner }

// substrateOf returns what d's passthrough layers stand on: the DHT whose
// method set tells which optional planes are served natively below d.
func substrateOf(d DHT) DHT {
	for {
		p, ok := d.(interface{ unwrap() DHT })
		if !ok {
			return d
		}
		d = p.unwrap()
	}
}
