package dht

import (
	"time"

	"lht/internal/metrics"
)

// Stack builds the decorator stack an index client runs over substrate d:
//
//	retry(instrument(coalesce(hedge(d))))
//
// with the hedging layer present when hedgeAfter > 0, the singleflight
// layer when coalesceGets, and the retry layer when policy is non-nil.
// The order is the cost model's. Hedging and coalescing sit below the
// instrumentation: a hedge is a physical round trip, never a logical
// DHT-lookup, and a coalesced read is still charged as the lookup its
// caller issued, so only traffic the model does not count changes. The
// retry layer sits above it, so every attempt is charged. Coalescing sits
// above hedging, so a herd shares one hedged fetch instead of each rider
// racing its own duplicate.
//
// Every layer reports to c; sink, when non-nil, receives one OpEvent per
// routed primitive.
func Stack(d DHT, c *metrics.Counters, hedgeAfter time.Duration, coalesceGets bool, sink metrics.TraceSink, policy *Policy) DHT {
	d = WithHedging(d, hedgeAfter, c)
	if coalesceGets {
		d = WithCoalescing(d, c)
	}
	inst := NewInstrumented(d, c)
	inst.SetSink(sink)
	if policy == nil {
		return inst
	}
	p := *policy
	p.Counters = c
	return WithPolicy(inst, p)
}
