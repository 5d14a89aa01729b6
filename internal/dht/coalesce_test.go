package dht

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lht/internal/metrics"
)

// gatedDHT wraps a Local and blocks every Get until released, so a test
// can pile up concurrent readers on one key deterministically.
type gatedDHT struct {
	*Local
	gets    atomic.Int64
	release chan struct{}
}

func (g *gatedDHT) Get(ctx context.Context, key string) (Value, error) {
	g.gets.Add(1)
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.Local.Get(ctx, key)
}

func TestCoalescingThunderingHerd(t *testing.T) {
	inner := &gatedDHT{Local: NewLocal(), release: make(chan struct{})}
	ctx := context.Background()
	if err := inner.Local.Put(ctx, "hot", 42); err != nil {
		t.Fatal(err)
	}
	var c metrics.Counters
	d := WithCoalescing(inner, &c)

	const herd = 32
	var wg sync.WaitGroup
	errs := make(chan error, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := d.Get(ctx, "hot")
			if err != nil {
				errs <- err
				return
			}
			if v.(int) != 42 {
				t.Errorf("got %v", v)
			}
		}()
	}
	// Wait until the leader is inside the gated inner Get and the rest
	// have had a chance to pile up behind it.
	for inner.gets.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(inner.release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := inner.gets.Load(); got >= herd {
		t.Errorf("inner saw %d gets for a %d-strong herd: nothing coalesced", got, herd)
	}
	phys, rides := inner.gets.Load(), c.Snapshot().Load.CoalescedGets
	if phys+rides != herd {
		t.Errorf("physical gets (%d) + coalesced rides (%d) != herd (%d)", phys, rides, herd)
	}
}

// TestCoalescingFollowerOutlivesLeader pins that a follower whose own
// context is live re-issues the fetch instead of inheriting the
// leader's cancellation.
func TestCoalescingFollowerOutlivesLeader(t *testing.T) {
	inner := &gatedDHT{Local: NewLocal(), release: make(chan struct{})}
	if err := inner.Local.Put(context.Background(), "k", 7); err != nil {
		t.Fatal(err)
	}
	d := WithCoalescing(inner, nil)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := d.Get(leaderCtx, "k")
		leaderDone <- err
	}()
	for inner.gets.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	followerDone := make(chan error, 1)
	go func() {
		v, err := d.Get(context.Background(), "k")
		if err == nil && v.(int) != 7 {
			err = context.DeadlineExceeded // wrong value, fail below
		}
		followerDone <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancelLeader()
	if err := <-leaderDone; err == nil {
		t.Fatal("cancelled leader returned nil")
	}
	close(inner.release) // let the follower's own fetch through
	if err := <-followerDone; err != nil {
		t.Fatalf("follower with live context failed: %v", err)
	}
}

// TestCoalescingPreservesCapabilities pins that the instrumented layer
// charges batches and conditional writes through the coalescer, alone
// and over the hedger, as it charges them without: natively where the
// substrate underneath has the plane, decomposed where it has not.
func TestCoalescingPreservesCapabilities(t *testing.T) {
	chargedThrough(t, func(d DHT) DHT { return WithCoalescing(d, nil) })
	chargedThrough(t, func(d DHT) DHT { return WithCoalescing(WithHedging(d, time.Minute, nil), nil) })
}

// TestCoalescingFreshReadBypass pins the CAS-retry escape hatch: a Get
// under a WithFreshRead context must hit the substrate itself — never
// ride an in-flight fetch whose answer may predate the write the caller
// just lost to — and must see state newer than the flight it skipped.
func TestCoalescingFreshReadBypass(t *testing.T) {
	inner := &gatedDHT{Local: NewLocal(), release: make(chan struct{})}
	ctx := context.Background()
	if err := inner.Local.Put(ctx, "hot", 1); err != nil {
		t.Fatal(err)
	}
	var c metrics.Counters
	d := WithCoalescing(inner, &c)

	// Park a leader inside the gated substrate get.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := d.Get(ctx, "hot"); err != nil {
			t.Errorf("leader: %v", err)
		}
	}()
	for inner.gets.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// The value moves on while the flight is parked — the situation a
	// CAS loser is in after the winner committed.
	if err := inner.Local.Put(ctx, "hot", 2); err != nil {
		t.Fatal(err)
	}

	// A fresh read must bypass the parked flight and see the new value.
	fresh := make(chan struct{})
	go func() {
		defer close(fresh)
		v, err := d.Get(WithFreshRead(ctx), "hot")
		if err != nil {
			t.Errorf("fresh read: %v", err)
			return
		}
		if v.(int) != 2 {
			t.Errorf("fresh read saw %v, want the post-write 2", v)
		}
	}()
	// It blocks on the gate like any substrate get, proving it went
	// physical; the flight's done channel stays closed to it.
	for inner.gets.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	close(inner.release)
	<-fresh
	<-done

	if got := c.Snapshot().Load.CoalescedGets; got != 0 {
		t.Errorf("fresh read rode a flight: CoalescedGets = %d, want 0", got)
	}
	if got := inner.gets.Load(); got != 2 {
		t.Errorf("substrate saw %d gets, want 2 (leader + fresh)", got)
	}
}
