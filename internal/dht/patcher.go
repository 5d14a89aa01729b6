package dht

import (
	"context"
	"errors"
)

// ErrPatchRefused reports that a patch was not applied: the substrate (or
// a layer above it) has no Patcher, the stored value's kind has no
// WirePatcher, or the patcher would not apply this patch to these bytes.
// Nothing was written. It is a permanent outcome — IsTransient rejects
// it, so the policy layer never retries it — and never a CAS conflict. A
// refused Patch is still the probe it rode: the value returned beside the
// error is that probe's answer, and it is the one DHT-lookup charged. A
// refused WritePatchIf returns no value and is free: the caller does the
// write the long way and is charged for that.
var ErrPatchRefused = errors.New("dht: patch refused")

// Patcher is the optional substrate capability behind record-sized
// writes. A patch is a write whose caller holds only the change: it sends
// an opaque patch, and the peer storing the value builds the new value
// from the stored bytes and the patch (the kind's WirePatcher), stores it,
// and answers with what the patcher replied — a short acknowledgement or
// the new value whole, the caller learns which from the type that comes
// back (see RegisterWirePatch) — all in the one round trip. It is a
// capability of its own, not a method of Conditional: a layer that
// forwards one need not forward the other.
//
// Patch rides a probe. No epoch guards it: the patcher alone decides, on
// the stored bytes under the store's lock, whether the value it finds is
// one the patch applies to, and the probe's hint says what to answer when
// it is not. The writer therefore learns in one round trip either that
// its write is done or what a Probe of the key would have told it.
//
// Cost model: a Patch is one DHT-lookup whether or not it was applied,
// exactly like the Probe it rides, and is counted, scheduled and traced as
// one; a WritePatchIf is as free as the WriteIf it stands in for, and so
// is its refusal.
type Patcher interface {
	// Patch applies patch to the value under key iff the stored value's
	// kind has a patcher that applies it, and returns the patcher's reply.
	// Otherwise it returns ErrPatchRefused beside what Probe(key, hint)
	// would have returned, or that Probe's error (ErrNotFound for an
	// absent key).
	Patch(ctx context.Context, key string, hint uint64, patch []byte) (Value, error)

	// WritePatchIf is the patch in place of WriteIf: the rewrite of a
	// value by the peer already holding it, which the caller reached with
	// an earlier lookup, iff the stored epoch equals ifEpoch; otherwise a
	// *CASConflictError as WriteIf returns, or ErrPatchRefused. An absent
	// key returns ErrNotFound, as WriteIf does.
	WritePatchIf(ctx context.Context, key string, patch []byte, ifEpoch uint64) (Value, error)
}

// DoPatch patches key through d's native Patch when d implements Patcher,
// and otherwise is the probe alone: DoProbe's answer, beside
// ErrPatchRefused, for nothing below d applies patches.
func DoPatch(ctx context.Context, d DHT, key string, hint uint64, patch []byte) (Value, error) {
	if p, ok := d.(Patcher); ok {
		return p.Patch(ctx, key, hint, patch)
	}
	v, err := DoProbe(ctx, d, key, hint)
	if err != nil {
		return nil, err
	}
	return v, ErrPatchRefused
}

// DoWritePatchIf writes key in place through d's native WritePatchIf when
// d implements Patcher, and is otherwise refused: the caller holds the
// value and writes it whole.
func DoWritePatchIf(ctx context.Context, d DHT, key string, patch []byte, ifEpoch uint64) (Value, error) {
	if p, ok := d.(Patcher); ok {
		return p.WritePatchIf(ctx, key, patch, ifEpoch)
	}
	return nil, ErrPatchRefused
}
