package dhttest

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lht/internal/dht"
)

// RunCrashPoints drives the conformance battery for dht.WithCrashPoints
// over substrates from the factory: a rule-free wrapper must be fully
// transparent, and scheduled faults must fire deterministically at the
// same operation ordinals whether the workload runs per-op or batched.
// Substrates with a native batch plane should run this in addition to Run
// so the per-key decomposition is checked against their batching.
func RunCrashPoints(t *testing.T, factory func(t *testing.T) dht.DHT) {
	t.Helper()
	ctx := context.Background()

	t.Run("TransparentWithoutRules", func(t *testing.T) {
		Run(t, func(t *testing.T) dht.DHT {
			return dht.WithCrashPoints(factory(t))
		}, Options{})
	})

	t.Run("DeterministicReplay", func(t *testing.T) {
		// The same schedule over the same operation sequence must fail the
		// same ops, run after run and after Reset.
		script := func(c *dht.CrashPoints) []int {
			var failed []int
			for i := 0; i < 12; i++ {
				key := fmt.Sprintf("k-%d", i%4)
				var err error
				if i%3 == 0 {
					err = c.Put(ctx, key, []byte{byte(i)})
				} else {
					_, err = c.Get(ctx, key)
					if errors.Is(err, dht.ErrNotFound) {
						err = nil
					}
				}
				if errors.Is(err, dht.ErrCrashed) {
					failed = append(failed, i)
				} else if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			return failed
		}
		rules := []dht.CrashRule{
			{Op: dht.OpPut, N: 2},
			{Op: dht.OpGet, Key: func(k string) bool { return strings.HasSuffix(k, "-2") }, N: 1},
		}
		c1 := dht.WithCrashPoints(factory(t), rules...)
		f1 := script(c1)
		c2 := dht.WithCrashPoints(factory(t), rules...)
		f2 := script(c2)
		if fmt.Sprint(f1) != fmt.Sprint(f2) {
			t.Fatalf("replay diverged: first run failed ops %v, second %v", f1, f2)
		}
		if len(f1) != 2 {
			t.Fatalf("failed ops %v, want exactly the 2nd put and the first get of a -2 key", f1)
		}
		c1.Reset()
		if f3 := script(c1); fmt.Sprint(f3) != fmt.Sprint(f1) {
			t.Fatalf("replay after Reset diverged: %v vs %v", f3, f1)
		}
	})

	t.Run("CrashAfterPutIsDurable", func(t *testing.T) {
		// After=true loses the acknowledgement, not the write: the caller
		// sees ErrCrashed but the value is stored.
		inner := factory(t)
		c := dht.WithCrashPoints(inner, dht.CrashRule{Op: dht.OpPut, N: 1, After: true})
		if err := c.Put(ctx, "k", []byte{1}); !errors.Is(err, dht.ErrCrashed) {
			t.Fatalf("Put = %v, want ErrCrashed", err)
		}
		if v, err := inner.Get(ctx, "k"); err != nil || len(v.([]byte)) != 1 {
			t.Fatalf("inner.Get after crash-after-put = %v, %v; write must be durable", v, err)
		}
		if err := c.Put(ctx, "k2", []byte{2}); err != nil {
			t.Fatalf("Put after non-halting rule = %v, want success", err)
		}
	})

	t.Run("HaltKillsEverything", func(t *testing.T) {
		c := dht.WithCrashPoints(factory(t), dht.CrashRule{Op: dht.OpPut, N: 2, Halt: true})
		if err := c.Put(ctx, "a", []byte{1}); err != nil {
			t.Fatal(err)
		}
		if err := c.Put(ctx, "b", []byte{2}); !errors.Is(err, dht.ErrCrashed) {
			t.Fatalf("2nd Put = %v, want ErrCrashed", err)
		}
		if !c.Crashed() {
			t.Fatal("Crashed() = false after halting rule fired")
		}
		if _, err := c.Get(ctx, "a"); !errors.Is(err, dht.ErrCrashed) {
			t.Fatalf("Get after halt = %v, want ErrCrashed", err)
		}
		if err := c.Write(ctx, "a", []byte{3}); !errors.Is(err, dht.ErrCrashed) {
			t.Fatalf("Write after halt = %v, want ErrCrashed", err)
		}
		c.Reset()
		if c.Crashed() {
			t.Fatal("Crashed() = true after Reset")
		}
		if err := c.Put(ctx, "c", []byte{4}); err != nil {
			t.Fatalf("Put after Reset = %v (schedule must restart, 1st put passes)", err)
		}
	})

	t.Run("TransientClassification", func(t *testing.T) {
		// The first firing rule wins and ends the op's evaluation, so the
		// second rule's counter first advances on the second Get.
		c := dht.WithCrashPoints(factory(t),
			dht.CrashRule{Op: dht.OpGet, N: 1, Transient: true},
			dht.CrashRule{Op: dht.OpGet, N: 1},
		)
		_, err := c.Get(ctx, "k")
		if !errors.Is(err, dht.ErrCrashed) || !dht.IsTransient(err) {
			t.Fatalf("transient rule: err %v, IsTransient %v", err, dht.IsTransient(err))
		}
		_, err = c.Get(ctx, "k")
		if !errors.Is(err, dht.ErrCrashed) || dht.IsTransient(err) {
			t.Fatalf("plain rule must not be transient: %v", err)
		}
	})

	t.Run("BatchAlignsWithPerOp", func(t *testing.T) {
		// A schedule must count a batched round key by key, in slice order,
		// so the Nth-op rule fires on the same logical operation whether
		// the client batches or not.
		keys := []string{"a", "b", "c", "d", "e"}
		run := func(batched bool) (failed []int, ops int) {
			c := dht.WithCrashPoints(factory(t), dht.CrashRule{Op: dht.OpPut, N: 3})
			kvs := make([]dht.KV, len(keys))
			for i, k := range keys {
				kvs[i] = dht.KV{Key: k, Val: []byte{byte(i)}}
			}
			var errs []error
			if batched {
				errs = dht.DoPutBatch(ctx, c, kvs)
			} else {
				for _, kv := range kvs {
					errs = append(errs, c.Put(ctx, kv.Key, kv.Val))
				}
			}
			for i, err := range errs {
				if errors.Is(err, dht.ErrCrashed) {
					failed = append(failed, i)
				} else if err != nil {
					t.Fatalf("slot %d: %v", i, err)
				}
			}
			return failed, c.Ops()
		}
		pf, pops := run(false)
		bf, bops := run(true)
		if fmt.Sprint(pf) != fmt.Sprint(bf) {
			t.Fatalf("failed slots diverge: per-op %v, batched %v", pf, bf)
		}
		if fmt.Sprint(pf) != "[2]" {
			t.Fatalf("failed slots %v, want exactly slot 2 (the 3rd put)", pf)
		}
		if pops != bops || pops != len(keys) {
			t.Fatalf("op counts diverge: per-op %d, batched %d, want %d", pops, bops, len(keys))
		}
	})

	t.Run("ConditionalKindsScheduled", func(t *testing.T) {
		// The conditional op kinds are index-visible operation classes:
		// rules match them precisely (never each other, never plain puts),
		// ordinals count per kind, and After keeps the same durable-effect
		// semantics the plain kinds have.
		inner := factory(t)
		c := dht.WithCrashPoints(inner,
			dht.CrashRule{Op: dht.OpCreateIf, N: 1, After: true},
			dht.CrashRule{Op: dht.OpPutIf, N: 2},
			dht.CrashRule{Op: dht.OpWriteIf, N: 1},
			dht.CrashRule{Op: dht.OpRemoveIf, N: 1},
		)
		if err := c.CreateIf(ctx, "a", &EpochValue{Epoch: 1, Body: "v1"}); !errors.Is(err, dht.ErrCrashed) {
			t.Fatalf("CreateIf = %v, want ErrCrashed (After rule)", err)
		}
		if body, _ := condBody(t, inner, "a"); body != "v1" {
			t.Fatalf("crash-after-create not durable: %q", body)
		}
		if err := c.PutIf(ctx, "a", &EpochValue{Epoch: 2, Body: "v2"}, 1); err != nil {
			t.Fatalf("1st PutIf = %v, want success (rule fires on the 2nd)", err)
		}
		if err := c.PutIf(ctx, "a", &EpochValue{Epoch: 3, Body: "v3"}, 2); !errors.Is(err, dht.ErrCrashed) {
			t.Fatalf("2nd PutIf = %v, want ErrCrashed", err)
		}
		if body, epoch := condBody(t, inner, "a"); body != "v2" || epoch != 2 {
			t.Fatalf("crashed-before PutIf landed: %q/%d, want v2/2", body, epoch)
		}
		if err := c.WriteIf(ctx, "a", &EpochValue{Epoch: 3, Body: "v3"}, 2); !errors.Is(err, dht.ErrCrashed) {
			t.Fatalf("WriteIf = %v, want ErrCrashed", err)
		}
		if err := c.RemoveIf(ctx, "a", 2); !errors.Is(err, dht.ErrCrashed) {
			t.Fatalf("RemoveIf = %v, want ErrCrashed", err)
		}
		if body, _ := condBody(t, inner, "a"); body != "v2" {
			t.Fatalf("crashed conditional ops disturbed the store: %q", body)
		}
		if got, want := c.Ops(), 5; got != want {
			t.Fatalf("Ops() = %d, want %d (each conditional op counts once)", got, want)
		}
	})

	t.Run("BatchCrashAfterPut", func(t *testing.T) {
		// In a batched round, After=true keeps the effect for exactly the
		// scheduled slot while its error stands; other slots are untouched.
		inner := factory(t)
		c := dht.WithCrashPoints(inner, dht.CrashRule{Op: dht.OpPut, N: 2, After: true, Halt: true})
		kvs := []dht.KV{
			{Key: "x", Val: []byte{1}},
			{Key: "y", Val: []byte{2}},
			{Key: "z", Val: []byte{3}},
		}
		errs := dht.DoPutBatch(ctx, c, kvs)
		if errs[0] != nil {
			t.Fatalf("slot 0 = %v, want success", errs[0])
		}
		if !errors.Is(errs[1], dht.ErrCrashed) || !errors.Is(errs[2], dht.ErrCrashed) {
			t.Fatalf("slots 1,2 = %v, %v; want ErrCrashed for the fired rule and the halt", errs[1], errs[2])
		}
		if _, err := inner.Get(ctx, "y"); err != nil {
			t.Fatalf("crash-after-put slot not durable: %v", err)
		}
		if _, err := inner.Get(ctx, "z"); !errors.Is(err, dht.ErrNotFound) {
			t.Fatalf("halted slot must not land, Get(z) = %v", err)
		}
	})
}
