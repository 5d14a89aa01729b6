package dht

import (
	"context"
	"errors"
)

// ErrPatchRefused reports that a patch was not applied and could not have
// been: the substrate (or a layer above it) has no Patcher, the stored
// value's kind has no WirePatcher, or the patcher would not apply this
// patch to these bytes. Nothing was written. It is a permanent outcome —
// IsTransient rejects it, so the policy layer never retries it — and it
// is neither a DHT-lookup nor a CAS conflict: the caller does the write
// the long way (fetch the value, change it, PutIf it) and is charged for
// that.
var ErrPatchRefused = errors.New("dht: patch refused")

// Patcher is the optional substrate capability behind record-sized
// writes. A patch is a PutIf whose caller holds only the change: it sends
// an opaque patch, and the peer storing the value builds the new value
// from the stored bytes and the patch (the kind's WirePatcher), stores it
// iff the stored epoch equals ifEpoch, and answers with what the patcher
// replied — a short acknowledgement or the new value whole, the caller
// learns which from the type that comes back (see RegisterWirePatch) —
// all in the one round trip. It is a capability of its own, not a method
// of Conditional: a layer that forwards one need not forward the other.
//
// Cost model: a PatchIf that is applied or loses its compare-and-swap is
// one DHT-lookup, exactly like the PutIf it stands in for, and is counted
// and traced as one; a WritePatchIf is as free as the WriteIf it stands in
// for; a refused patch of either kind is free.
type Patcher interface {
	// PatchIf applies patch to the value under key iff a value is present
	// and its epoch equals ifEpoch; otherwise it returns a
	// *CASConflictError as PutIf does, or ErrPatchRefused.
	PatchIf(ctx context.Context, key string, patch []byte, ifEpoch uint64) (Value, error)

	// WritePatchIf is PatchIf in place of WriteIf: the rewrite of a value
	// by the peer already holding it, which the caller reached with an
	// earlier lookup. An absent key returns ErrNotFound, as WriteIf does.
	WritePatchIf(ctx context.Context, key string, patch []byte, ifEpoch uint64) (Value, error)
}

// DoPatchIf patches key through d's native PatchIf when d implements
// Patcher, and is otherwise refused: unlike a probe a patch has no
// fallback at this level, for the caller that chose to patch holds no
// value to put.
func DoPatchIf(ctx context.Context, d DHT, key string, patch []byte, ifEpoch uint64) (Value, error) {
	if p, ok := d.(Patcher); ok {
		return p.PatchIf(ctx, key, patch, ifEpoch)
	}
	return nil, ErrPatchRefused
}

// DoWritePatchIf is DoPatchIf's in-place counterpart.
func DoWritePatchIf(ctx context.Context, d DHT, key string, patch []byte, ifEpoch uint64) (Value, error) {
	if p, ok := d.(Patcher); ok {
		return p.WritePatchIf(ctx, key, patch, ifEpoch)
	}
	return nil, ErrPatchRefused
}
