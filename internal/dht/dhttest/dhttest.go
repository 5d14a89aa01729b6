// Package dhttest provides a conformance battery for dht.DHT
// implementations: every substrate in the repository (the local map, the
// Chord ring, the Kademlia network, the TCP cluster client, and any
// future one) must pass the same behavioural contract the index layers
// rely on. Substrate test files call Run with a factory.
package dhttest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"lht/internal/dht"
)

// Options tunes the battery for substrate-specific constraints.
type Options struct {
	// ValueFactory produces storable values; substrates that serialize
	// need registered concrete types. Defaults to plain byte slices.
	ValueFactory func(i int) dht.Value
	// ValueEqual compares a stored value with the factory's i-th value.
	ValueEqual func(v dht.Value, i int) bool
	// Keys is the number of keys bulk tests use (default 200).
	Keys int
	// Concurrent disables the concurrency test when false-unsafe
	// substrates are wrapped for single-threaded use. Defaults to true.
	SkipConcurrency bool
}

func (o Options) withDefaults() Options {
	if o.ValueFactory == nil {
		o.ValueFactory = func(i int) dht.Value { return []byte{byte(i), byte(i >> 8)} }
	}
	if o.ValueEqual == nil {
		o.ValueEqual = func(v dht.Value, i int) bool {
			b, ok := v.([]byte)
			return ok && len(b) == 2 && b[0] == byte(i) && b[1] == byte(i>>8)
		}
	}
	if o.Keys == 0 {
		o.Keys = 200
	}
	return o
}

// Run drives the full conformance battery against fresh substrates from
// the factory.
func Run(t *testing.T, factory func(t *testing.T) dht.DHT, opts Options) {
	t.Helper()
	o := opts.withDefaults()
	ctx := context.Background()

	t.Run("GetMissing", func(t *testing.T) {
		d := factory(t)
		if _, err := d.Get(ctx, "absent"); !errors.Is(err, dht.ErrNotFound) {
			t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
		}
	})

	t.Run("PutGetReplace", func(t *testing.T) {
		d := factory(t)
		if err := d.Put(ctx, "k", o.ValueFactory(1)); err != nil {
			t.Fatal(err)
		}
		v, err := d.Get(ctx, "k")
		if err != nil || !o.ValueEqual(v, 1) {
			t.Fatalf("Get = %v, %v", v, err)
		}
		if err := d.Put(ctx, "k", o.ValueFactory(2)); err != nil {
			t.Fatal(err)
		}
		if v, _ := d.Get(ctx, "k"); !o.ValueEqual(v, 2) {
			t.Fatal("Put must replace")
		}
	})

	t.Run("RemoveIdempotent", func(t *testing.T) {
		d := factory(t)
		if err := d.Put(ctx, "k", o.ValueFactory(4)); err != nil {
			t.Fatal(err)
		}
		if err := d.Remove(ctx, "k"); err != nil {
			t.Fatal(err)
		}
		if err := d.Remove(ctx, "k"); err != nil {
			t.Fatalf("Remove(absent) = %v, must not error", err)
		}
		if _, err := d.Get(ctx, "k"); !errors.Is(err, dht.ErrNotFound) {
			t.Fatal("Remove must delete")
		}
	})

	t.Run("WriteSemantics", func(t *testing.T) {
		d := factory(t)
		if err := d.Write(ctx, "k", o.ValueFactory(5)); !errors.Is(err, dht.ErrNotFound) {
			t.Fatalf("Write(absent) = %v, want ErrNotFound", err)
		}
		if err := d.Put(ctx, "k", o.ValueFactory(5)); err != nil {
			t.Fatal(err)
		}
		if err := d.Write(ctx, "k", o.ValueFactory(6)); err != nil {
			t.Fatal(err)
		}
		if v, _ := d.Get(ctx, "k"); !o.ValueEqual(v, 6) {
			t.Fatal("Write must update")
		}
	})

	t.Run("ManyKeys", func(t *testing.T) {
		d := factory(t)
		for i := 0; i < o.Keys; i++ {
			if err := d.Put(ctx, fmt.Sprintf("key-%d", i), o.ValueFactory(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < o.Keys; i++ {
			v, err := d.Get(ctx, fmt.Sprintf("key-%d", i))
			if err != nil || !o.ValueEqual(v, i) {
				t.Fatalf("Get(key-%d) = %v, %v", i, v, err)
			}
		}
		// Delete the even keys, the odd ones must survive.
		for i := 0; i < o.Keys; i += 2 {
			if err := d.Remove(ctx, fmt.Sprintf("key-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < o.Keys; i++ {
			_, err := d.Get(ctx, fmt.Sprintf("key-%d", i))
			if i%2 == 0 && !errors.Is(err, dht.ErrNotFound) {
				t.Fatalf("key-%d should be gone, got %v", i, err)
			}
			if i%2 == 1 && err != nil {
				t.Fatalf("key-%d should survive, got %v", i, err)
			}
		}
	})

	t.Run("LabelShapedKeys", func(t *testing.T) {
		// The index layers use '#'-prefixed bit-string keys; make sure
		// nothing in the substrate chokes on them or conflates them.
		d := factory(t)
		keys := []string{"#", "#0", "#00", "#01", "#0110", "#01100000000000000000"}
		for i, k := range keys {
			if err := d.Put(ctx, k, o.ValueFactory(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i, k := range keys {
			v, err := d.Get(ctx, k)
			if err != nil || !o.ValueEqual(v, i) {
				t.Fatalf("Get(%q) = %v, %v", k, v, err)
			}
		}
	})

	t.Run("ContextCanceled", func(t *testing.T) {
		// Every substrate must refuse routed work on an already-cancelled
		// context, without disturbing stored state.
		d := factory(t)
		if err := d.Put(ctx, "k", o.ValueFactory(7)); err != nil {
			t.Fatal(err)
		}
		cctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := d.Get(cctx, "k"); !errors.Is(err, context.Canceled) {
			t.Fatalf("Get(cancelled) = %v, want context.Canceled", err)
		}
		if err := d.Put(cctx, "k2", o.ValueFactory(8)); !errors.Is(err, context.Canceled) {
			t.Fatalf("Put(cancelled) = %v, want context.Canceled", err)
		}
		if err := d.Remove(cctx, "k"); !errors.Is(err, context.Canceled) {
			t.Fatalf("Remove(cancelled) = %v, want context.Canceled", err)
		}
		if err := d.Write(cctx, "k", o.ValueFactory(9)); !errors.Is(err, context.Canceled) {
			t.Fatalf("Write(cancelled) = %v, want context.Canceled", err)
		}
		// Cancellation must be classified as permanent, not transient.
		if _, err := d.Get(cctx, "k"); dht.IsTransient(err) {
			t.Fatalf("cancellation classified transient: %v", err)
		}
		// The stored value must have survived all the refused operations.
		if v, err := d.Get(ctx, "k"); err != nil || !o.ValueEqual(v, 7) {
			t.Fatalf("Get after cancelled ops = %v, %v", v, err)
		}
	})

	t.Run("BatchMatchesPerOp", func(t *testing.T) {
		// Whether the batch plane is native or the per-op fallback, a
		// multi-get must return positionally aligned outcomes identical
		// to individual Gets, present and absent keys mixed freely.
		d := factory(t)
		n := o.Keys / 4
		if n < 8 {
			n = 8
		}
		kvs := make([]dht.KV, 0, n)
		for i := 0; i < n; i++ {
			kvs = append(kvs, dht.KV{Key: fmt.Sprintf("b-%d", i), Val: o.ValueFactory(i)})
		}
		for _, err := range dht.DoPutBatch(ctx, d, kvs) {
			if err != nil {
				t.Fatalf("PutBatch slot: %v", err)
			}
		}
		keys := make([]string, 0, n+n/4+1)
		want := make([]int, 0, cap(keys)) // value index, or -1 for absent
		for i := 0; i < n; i++ {
			keys = append(keys, fmt.Sprintf("b-%d", i))
			want = append(want, i)
			if i%4 == 0 {
				keys = append(keys, fmt.Sprintf("b-absent-%d", i))
				want = append(want, -1)
			}
		}
		vals, errs := dht.DoGetBatch(ctx, d, keys)
		if len(vals) != len(keys) || len(errs) != len(keys) {
			t.Fatalf("GetBatch returned %d/%d slots, want %d", len(vals), len(errs), len(keys))
		}
		for i, k := range keys {
			if want[i] < 0 {
				if !errors.Is(errs[i], dht.ErrNotFound) {
					t.Fatalf("slot %d (%q): err %v, want ErrNotFound", i, k, errs[i])
				}
				continue
			}
			if errs[i] != nil || !o.ValueEqual(vals[i], want[i]) {
				t.Fatalf("slot %d (%q): %v, %v; want value %d", i, k, vals[i], errs[i], want[i])
			}
		}
	})

	t.Run("BatchPutLastWins", func(t *testing.T) {
		// Duplicate keys in one PutBatch must apply in slice order, as a
		// sequence of per-op Puts would.
		d := factory(t)
		kvs := []dht.KV{
			{Key: "dup", Val: o.ValueFactory(1)},
			{Key: "other", Val: o.ValueFactory(2)},
			{Key: "dup", Val: o.ValueFactory(3)},
		}
		for _, err := range dht.DoPutBatch(ctx, d, kvs) {
			if err != nil {
				t.Fatalf("PutBatch slot: %v", err)
			}
		}
		if v, err := d.Get(ctx, "dup"); err != nil || !o.ValueEqual(v, 3) {
			t.Fatalf("Get(dup) = %v, %v; last occurrence must win", v, err)
		}
		if v, err := d.Get(ctx, "other"); err != nil || !o.ValueEqual(v, 2) {
			t.Fatalf("Get(other) = %v, %v", v, err)
		}
	})

	t.Run("BatchEmpty", func(t *testing.T) {
		d := factory(t)
		if vals, errs := dht.DoGetBatch(ctx, d, nil); len(vals) != 0 || len(errs) != 0 {
			t.Fatalf("empty GetBatch = %d/%d slots", len(vals), len(errs))
		}
		if errs := dht.DoPutBatch(ctx, d, nil); len(errs) != 0 {
			t.Fatalf("empty PutBatch = %d slots", len(errs))
		}
	})

	t.Run("BatchCancelled", func(t *testing.T) {
		// A cancelled context fails every slot with the cancellation, and
		// stored state survives untouched.
		d := factory(t)
		if err := d.Put(ctx, "bc", o.ValueFactory(7)); err != nil {
			t.Fatal(err)
		}
		cctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, errs := dht.DoGetBatch(cctx, d, []string{"bc", "bc2"})
		for i, err := range errs {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("GetBatch(cancelled) slot %d = %v, want context.Canceled", i, err)
			}
		}
		perrs := dht.DoPutBatch(cctx, d, []dht.KV{{Key: "bc", Val: o.ValueFactory(8)}})
		for i, err := range perrs {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("PutBatch(cancelled) slot %d = %v, want context.Canceled", i, err)
			}
		}
		if v, err := d.Get(ctx, "bc"); err != nil || !o.ValueEqual(v, 7) {
			t.Fatalf("Get after cancelled batch = %v, %v", v, err)
		}
	})

	if !o.SkipConcurrency {
		t.Run("ConcurrentMixedOps", func(t *testing.T) {
			d := factory(t)
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 40; i++ {
						key := fmt.Sprintf("c-%d-%d", g, i)
						if err := d.Put(ctx, key, o.ValueFactory(i)); err != nil {
							t.Errorf("Put: %v", err)
							return
						}
						if v, err := d.Get(ctx, key); err != nil || !o.ValueEqual(v, i) {
							t.Errorf("Get(%s) = %v, %v", key, v, err)
							return
						}
						if i%3 == 0 {
							if err := d.Remove(ctx, key); err != nil {
								t.Errorf("Remove: %v", err)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
