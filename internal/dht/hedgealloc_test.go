//go:build !race

package dht

import (
	"context"
	"testing"
	"time"
)

// TestWarmedHedgeTriggerAddsNoAllocations pins the hedger's quantile
// trigger off the heap: once the latency window holds enough samples to
// set the trigger from its p95, a hedged Get allocates no more than one
// taken while the trigger is still the configured floor. The sort runs in
// a scratch array of the hedger's own. (Not under the race detector,
// which allocates on its own.)
func TestWarmedHedgeTriggerAddsNoAllocations(t *testing.T) {
	ctx := context.Background()
	local := NewLocal()
	if err := local.Put(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	get := func(d DHT) func() {
		return func() {
			if v, err := d.Get(ctx, "k"); err != nil || v != "v" {
				t.Fatalf("Get = %v, %v", v, err)
			}
		}
	}
	// A trigger no Get outlives: every read takes the hedged path, and
	// none fires a duplicate.
	const runs = 10 // with AllocsPerRun's warm-up, short of hedgeMinSamples
	cold := testing.AllocsPerRun(runs, get(WithHedging(local, time.Minute, nil)))

	warmed := WithHedging(local, time.Minute, nil)
	for i := 0; i < hedgeMinSamples; i++ {
		get(warmed)()
	}
	if h := warmed.(*hedger); h.n < hedgeMinSamples {
		t.Fatalf("%d samples after %d Gets: the window is not warmed", h.n, hedgeMinSamples)
	}
	if warm := testing.AllocsPerRun(runs, get(warmed)); warm > cold {
		t.Errorf("a hedged Get allocates %.0f times with the trigger warmed, %.0f cold", warm, cold)
	}
}
