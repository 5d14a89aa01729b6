package dht

import "context"

// Prober is the optional substrate capability behind probes. A probe is a
// Get whose caller may be able to do without most of the value: it passes
// an opaque hint, and the peer storing the value builds the reply from
// the value's bytes and the hint (the kind's WireProjector) — the whole
// value, or a smaller form the kind defines — in the same single round
// trip. The caller learns which from the type of what comes back (see
// RegisterWireProbe). The projector contract is what keeps the storing
// peer a byte store: it only appends to the reply, decodes nothing,
// allocates nothing and never panics, and the whole value is always a
// legal answer, so a substrate is always free to return exactly that.
//
// Cost model: a Probe is one DHT-lookup, exactly like the Get it stands
// in for, and is counted and traced as one; a ProbeBatch likewise is the
// GetBatch it stands in for.
type Prober interface {
	// Probe is Get with a hint for the storing peer.
	Probe(ctx context.Context, key string, hint uint64) (Value, error)
	// ProbeBatch is GetBatch with one hint for every slot, each answered
	// as Probe answers it.
	ProbeBatch(ctx context.Context, keys []string, hint uint64) ([]Value, []error)
}

// DoProbe probes key through d's native Probe when d implements Prober,
// and otherwise falls back to a plain Get, which returns the whole value.
func DoProbe(ctx context.Context, d DHT, key string, hint uint64) (Value, error) {
	if p, ok := d.(Prober); ok {
		return p.Probe(ctx, key, hint)
	}
	return d.Get(ctx, key)
}

// DoProbeBatch is DoProbe for a multi-get: it falls back to DoGetBatch.
func DoProbeBatch(ctx context.Context, d DHT, keys []string, hint uint64) ([]Value, []error) {
	if p, ok := d.(Prober); ok {
		return p.ProbeBatch(ctx, keys, hint)
	}
	return DoGetBatch(ctx, d, keys)
}
