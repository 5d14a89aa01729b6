package dht

import (
	"time"

	"lht/internal/metrics"
)

// Stack builds the decorator stack an index client runs over substrate d:
//
//	retry(instrument(hedge(d)))
//
// with the hedging layer present when hedgeAfter > 0 and the retry layer
// when policy is non-nil. The order is the cost model's. Hedging sits
// below the instrumentation: a hedge is a physical round trip, never a
// logical DHT-lookup, so only traffic the model does not count changes.
// The retry layer sits above it, so every attempt is charged.
//
// Every layer reports to c; sink, when non-nil, receives one OpEvent per
// routed primitive.
func Stack(d DHT, c *metrics.Counters, hedgeAfter time.Duration, sink metrics.TraceSink, policy *Policy) DHT {
	d = WithHedging(d, hedgeAfter, c)
	inst := NewInstrumented(d, c)
	inst.SetSink(sink)
	if policy == nil {
		return inst
	}
	p := *policy
	p.Counters = c
	return WithPolicy(inst, p)
}
