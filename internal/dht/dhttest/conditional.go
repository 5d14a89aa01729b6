package dhttest

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"lht/internal/dht"
)

// EpochValue is the battery's epoch-carrying stored value: what the index
// layers' buckets look like to the conditional plane. Like them it is a
// dht.WireValue, so byte-store substrates can serialize it.
type EpochValue struct {
	Epoch uint64
	Body  string
}

// EpochValueWireKind is EpochValue's dht.WireValue kind byte: one that
// neither internal/lht's buckets (1) nor internal/pht's nodes (2) claim.
const EpochValueWireKind = 240

func init() {
	dht.RegisterWireKind(EpochValueWireKind, func(data []byte) (dht.Value, error) {
		epoch, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errors.New("dhttest: truncated EpochValue")
		}
		return &EpochValue{Epoch: epoch, Body: string(data[n:])}, nil
	})
}

// DHTEpoch implements dht.Epocher.
func (v *EpochValue) DHTEpoch() uint64 { return v.Epoch }

// WireKind implements dht.WireValue.
func (v *EpochValue) WireKind() byte { return EpochValueWireKind }

// AppendWire implements dht.WireValue: the epoch as a uvarint, then the
// body's bytes.
func (v *EpochValue) AppendWire(b []byte) []byte {
	return append(binary.AppendUvarint(b, v.Epoch), v.Body...)
}

// condBody fetches key and returns the stored EpochValue's body and epoch.
func condBody(t *testing.T, d dht.DHT, key string) (string, uint64) {
	t.Helper()
	v, err := d.Get(context.Background(), key)
	if err != nil {
		t.Fatalf("Get(%q) = %v", key, err)
	}
	ev, ok := v.(*EpochValue)
	if !ok {
		t.Fatalf("Get(%q) holds %T, want *EpochValue", key, v)
	}
	return ev.Body, ev.Epoch
}

// wantConflict asserts err is a CAS conflict carrying the given winner
// state, and that it is classified permanent (the index layer, not a
// retry policy, owns rebase-and-retry).
func wantConflict(t *testing.T, err error, exists bool, winner uint64) {
	t.Helper()
	if !errors.Is(err, dht.ErrCASConflict) {
		t.Fatalf("err = %v, want ErrCASConflict", err)
	}
	var c *dht.CASConflictError
	if !errors.As(err, &c) {
		t.Fatalf("err = %v, does not unwrap to *CASConflictError", err)
	}
	if c.Exists != exists || c.WinnerEpoch != winner {
		t.Fatalf("conflict = {Exists: %v, WinnerEpoch: %d}, want {%v, %d}", c.Exists, c.WinnerEpoch, exists, winner)
	}
	if dht.IsTransient(err) {
		t.Fatal("CAS conflict classified transient; a policy retry would re-lose it unchanged")
	}
}

// RunConditional drives the conformance battery for the conditional-write
// methods (dht.Conditional) against fresh substrates from the factory,
// atomicity under contention included.
func RunConditional(t *testing.T, factory func(t *testing.T) dht.DHT) {
	t.Helper()
	ctx := context.Background()

	t.Run("PutIfReplacesOnMatch", func(t *testing.T) {
		d := factory(t)
		if err := d.Put(ctx, "k", &EpochValue{Epoch: 1, Body: "a"}); err != nil {
			t.Fatal(err)
		}
		if err := d.PutIf(ctx, "k", &EpochValue{Epoch: 2, Body: "b"}, 1); err != nil {
			t.Fatalf("PutIf(matching epoch) = %v", err)
		}
		if body, epoch := condBody(t, d, "k"); body != "b" || epoch != 2 {
			t.Fatalf("stored = %q/%d, want b/2", body, epoch)
		}
	})

	t.Run("PutIfStaleLosesWithWinnerEpoch", func(t *testing.T) {
		d := factory(t)
		if err := d.Put(ctx, "k", &EpochValue{Epoch: 5, Body: "winner"}); err != nil {
			t.Fatal(err)
		}
		err := d.PutIf(ctx, "k", &EpochValue{Epoch: 4, Body: "stale"}, 3)
		wantConflict(t, err, true, 5)
		if body, epoch := condBody(t, d, "k"); body != "winner" || epoch != 5 {
			t.Fatalf("lost CAS disturbed the store: %q/%d", body, epoch)
		}
	})

	t.Run("PutIfAbsentConflicts", func(t *testing.T) {
		// A PutIf against nothing is a conflict (Exists=false), not a
		// create: the caller's epoch premise "something is stored" failed.
		d := factory(t)
		err := d.PutIf(ctx, "absent", &EpochValue{Epoch: 1}, 0)
		wantConflict(t, err, false, 0)
		if _, err := d.Get(ctx, "absent"); !errors.Is(err, dht.ErrNotFound) {
			t.Fatalf("Get after conflicted PutIf = %v, want ErrNotFound", err)
		}
	})

	t.Run("CreateIfFirstWins", func(t *testing.T) {
		d := factory(t)
		if err := d.CreateIf(ctx, "k", &EpochValue{Epoch: 7, Body: "first"}); err != nil {
			t.Fatalf("CreateIf(absent) = %v", err)
		}
		err := d.CreateIf(ctx, "k", &EpochValue{Epoch: 9, Body: "second"})
		wantConflict(t, err, true, 7)
		if body, epoch := condBody(t, d, "k"); body != "first" || epoch != 7 {
			t.Fatalf("stored = %q/%d, want first/7", body, epoch)
		}
	})

	t.Run("RemoveIfMatchDeletes", func(t *testing.T) {
		d := factory(t)
		if err := d.Put(ctx, "k", &EpochValue{Epoch: 4}); err != nil {
			t.Fatal(err)
		}
		if err := d.RemoveIf(ctx, "k", 4); err != nil {
			t.Fatalf("RemoveIf(matching) = %v", err)
		}
		if _, err := d.Get(ctx, "k"); !errors.Is(err, dht.ErrNotFound) {
			t.Fatalf("Get after RemoveIf = %v, want ErrNotFound", err)
		}
	})

	t.Run("RemoveIfMismatchKeeps", func(t *testing.T) {
		d := factory(t)
		if err := d.Put(ctx, "k", &EpochValue{Epoch: 4, Body: "keep"}); err != nil {
			t.Fatal(err)
		}
		err := d.RemoveIf(ctx, "k", 2)
		wantConflict(t, err, true, 4)
		if body, _ := condBody(t, d, "k"); body != "keep" {
			t.Fatalf("stored = %q, want keep", body)
		}
	})

	t.Run("RemoveIfAbsentIsSuccess", func(t *testing.T) {
		// The removal's goal state already holds; like Remove, this is not
		// an error (and not a conflict — there is no winner).
		d := factory(t)
		if err := d.RemoveIf(ctx, "absent", 3); err != nil {
			t.Fatalf("RemoveIf(absent) = %v, want nil", err)
		}
	})

	t.Run("WriteIfSemantics", func(t *testing.T) {
		d := factory(t)
		if err := d.WriteIf(ctx, "k", &EpochValue{Epoch: 1}, 0); !errors.Is(err, dht.ErrNotFound) {
			t.Fatalf("WriteIf(absent) = %v, want ErrNotFound (Write's contract)", err)
		}
		if err := d.Put(ctx, "k", &EpochValue{Epoch: 1, Body: "a"}); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteIf(ctx, "k", &EpochValue{Epoch: 2, Body: "b"}, 1); err != nil {
			t.Fatalf("WriteIf(matching) = %v", err)
		}
		err := d.WriteIf(ctx, "k", &EpochValue{Epoch: 2, Body: "c"}, 1)
		wantConflict(t, err, true, 2)
		if body, epoch := condBody(t, d, "k"); body != "b" || epoch != 2 {
			t.Fatalf("stored = %q/%d, want b/2", body, epoch)
		}
	})

	t.Run("EpochSurvivesPlainOps", func(t *testing.T) {
		// The epoch the conditional plane compares is the stored value's,
		// however it got there: plain Put, Write, and batched puts all
		// refresh it.
		d := factory(t)
		if err := d.Put(ctx, "k", &EpochValue{Epoch: 3}); err != nil {
			t.Fatal(err)
		}
		if err := d.Write(ctx, "k", &EpochValue{Epoch: 8}); err != nil {
			t.Fatal(err)
		}
		wantConflict(t, d.PutIf(ctx, "k", &EpochValue{Epoch: 4}, 3), true, 8)
		if err := d.PutIf(ctx, "k", &EpochValue{Epoch: 9}, 8); err != nil {
			t.Fatalf("PutIf against Write's epoch = %v", err)
		}
		for i, err := range dht.DoPutBatch(ctx, d, []dht.KV{{Key: "k", Val: &EpochValue{Epoch: 12}}}) {
			if err != nil {
				t.Fatalf("PutBatch slot %d: %v", i, err)
			}
		}
		wantConflict(t, d.PutIf(ctx, "k", &EpochValue{Epoch: 10}, 9), true, 12)
		if err := d.PutIf(ctx, "k", &EpochValue{Epoch: 13}, 12); err != nil {
			t.Fatalf("PutIf against batched epoch = %v", err)
		}
	})

	t.Run("ContextCanceled", func(t *testing.T) {
		d := factory(t)
		if err := d.Put(ctx, "k", &EpochValue{Epoch: 1, Body: "keep"}); err != nil {
			t.Fatal(err)
		}
		cctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := d.PutIf(cctx, "k", &EpochValue{Epoch: 2}, 1); !errors.Is(err, context.Canceled) {
			t.Fatalf("PutIf(cancelled) = %v, want context.Canceled", err)
		}
		if err := d.CreateIf(cctx, "k2", &EpochValue{Epoch: 1}); !errors.Is(err, context.Canceled) {
			t.Fatalf("CreateIf(cancelled) = %v, want context.Canceled", err)
		}
		if err := d.RemoveIf(cctx, "k", 1); !errors.Is(err, context.Canceled) {
			t.Fatalf("RemoveIf(cancelled) = %v, want context.Canceled", err)
		}
		if err := d.WriteIf(cctx, "k", &EpochValue{Epoch: 2}, 1); !errors.Is(err, context.Canceled) {
			t.Fatalf("WriteIf(cancelled) = %v, want context.Canceled", err)
		}
		if body, epoch := condBody(t, d, "k"); body != "keep" || epoch != 1 {
			t.Fatalf("cancelled ops disturbed the store: %q/%d", body, epoch)
		}
	})

	t.Run("CreateIfRaceOneWinner", func(t *testing.T) {
		// N clients race to create the same key: exactly one wins, every
		// loser learns the winner exists, and the stored value is the
		// winner's, whole.
		d := factory(t)
		const racers = 8
		winners := make([]bool, racers)
		var wg sync.WaitGroup
		for g := 0; g < racers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				err := d.CreateIf(ctx, "race", &EpochValue{Epoch: 1, Body: fmt.Sprintf("w%d", g)})
				switch {
				case err == nil:
					winners[g] = true
				case errors.Is(err, dht.ErrCASConflict):
				default:
					t.Errorf("racer %d: %v", g, err)
				}
			}(g)
		}
		wg.Wait()
		var won []int
		for g, w := range winners {
			if w {
				won = append(won, g)
			}
		}
		if len(won) != 1 {
			t.Fatalf("winners = %v, want exactly one", won)
		}
		if body, _ := condBody(t, d, "race"); body != fmt.Sprintf("w%d", won[0]) {
			t.Fatalf("stored %q, want the winner's value w%d", body, won[0])
		}
	})

	t.Run("CASSerializesIncrements", func(t *testing.T) {
		// The lost-update litmus: N clients each apply M read-modify-write
		// increments through PutIf. With an atomic conditional plane no
		// round is lost; the final epoch is exactly N*M.
		d := factory(t)
		if err := d.Put(ctx, "ctr", &EpochValue{Epoch: 0}); err != nil {
			t.Fatal(err)
		}
		const (
			racers = 6
			incs   = 10
		)
		var wg sync.WaitGroup
		for g := 0; g < racers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < incs; i++ {
					for attempt := 0; ; attempt++ {
						if attempt > 1000 {
							t.Errorf("racer %d: increment %d livelocked", g, i)
							return
						}
						v, err := d.Get(ctx, "ctr")
						if err != nil {
							t.Errorf("racer %d: Get: %v", g, err)
							return
						}
						cur := v.(*EpochValue).Epoch
						err = d.PutIf(ctx, "ctr", &EpochValue{Epoch: cur + 1}, cur)
						if err == nil {
							break
						}
						if !errors.Is(err, dht.ErrCASConflict) {
							t.Errorf("racer %d: PutIf: %v", g, err)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if _, epoch := condBody(t, d, "ctr"); epoch != racers*incs {
			t.Fatalf("final epoch %d, want %d: %d increments were lost", epoch, racers*incs, racers*incs-int(epoch))
		}
	})
}
