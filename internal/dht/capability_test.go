package dht

import (
	"context"
	"errors"
	"testing"
	"time"

	"lht/internal/metrics"
)

// patchLog is a hintLog that is also a Patcher: it records each PatchIf
// and answers with the next of its scripted errors, or (nil, or the
// script run out) with the patch.
type patchLog struct {
	*hintLog
	patches []string // one per PatchIf: the patch bytes
	script  []error
}

func (p *patchLog) PatchIf(_ context.Context, _ string, patch []byte, _ uint64) (Value, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.patches = append(p.patches, string(patch))
	if len(p.script) > 0 {
		err := p.script[0]
		if p.script = p.script[1:]; err != nil {
			return nil, err
		}
	}
	return "patched:" + string(patch), nil
}

func newPatchLog(t *testing.T, script ...error) *patchLog {
	return &patchLog{hintLog: newHintLog(t), script: script}
}

// TestCapabilityForwarding is the table of which optional read and write
// capabilities survive which wrapper: a probe's hint and a patch reach a
// substrate that has them through every layer but the coalescer, which
// turns the one into a whole Get and refuses the other, on purpose (its
// flights are shared, so it reads whole values, so its writers hold whole
// values). Over a substrate with neither, every layer answers a probe
// with a Get and refuses a patch, as the bare substrate does. A wrapper
// that drops a capability silently fails here.
func TestCapabilityForwarding(t *testing.T) {
	ctx := context.Background()
	var c metrics.Counters
	wrappers := []struct {
		name    string
		wrap    func(DHT) DHT
		forward bool
	}{
		{"Instrumented", func(d DHT) DHT { return NewInstrumented(d, &c) }, true},
		{"PolicyDHT", func(d DHT) DHT { return WithPolicy(d, Policy{Counters: &c}) }, true},
		{"hedger", func(d DHT) DHT { return WithHedging(d, time.Minute, &c) }, true},
		{"coalescer", func(d DHT) DHT { return WithCoalescing(d, &c) }, false},
		{"CrashPoints", func(d DHT) DHT { return WithCrashPoints(d) }, true},
		{"policy(instrumented(hedger))", func(d DHT) DHT {
			return WithPolicy(NewInstrumented(WithHedging(d, time.Minute, &c), &c), Policy{Counters: &c})
		}, true},
		{"policy(instrumented(coalescer(hedger)))", func(d DHT) DHT {
			return WithPolicy(NewInstrumented(WithCoalescing(WithHedging(d, time.Minute, &c), &c), &c), Policy{Counters: &c})
		}, false},
	}
	for _, w := range wrappers {
		t.Run(w.name, func(t *testing.T) {
			sub := newPatchLog(t)
			d := w.wrap(sub)
			if v, err := DoProbe(ctx, d, "k", 7); err != nil || v != "v" {
				t.Fatalf("DoProbe = %v, %v", v, err)
			}
			hints, gets := sub.seen()
			if w.forward && (len(hints) != 1 || hints[0] != 7 || gets != 0) {
				t.Errorf("the probe reached the substrate as hints %v and %d gets, want the hint", hints, gets)
			}
			if !w.forward && (len(hints) != 0 || gets != 1) {
				t.Errorf("the probe reached the substrate as hints %v and %d gets, want a plain get", hints, gets)
			}
			v, err := DoPatchIf(ctx, d, "k", []byte("p"), 3)
			if w.forward && (err != nil || v != "patched:p" || len(sub.patches) != 1) {
				t.Errorf("DoPatchIf = %v, %v after %d patches at the substrate, want it applied there", v, err, len(sub.patches))
			}
			if !w.forward && (!errors.Is(err, ErrPatchRefused) || len(sub.patches) != 0) {
				t.Errorf("DoPatchIf = %v, %v after %d patches at the substrate, want a refusal above it", v, err, len(sub.patches))
			}

			// Over a substrate with neither capability.
			plain := w.wrap(newHintLog(t).Local)
			if v, err := DoProbe(ctx, plain, "k", 7); err != nil || v != "v" {
				t.Errorf("DoProbe over a plain substrate = %v, %v", v, err)
			}
			if v, err := DoPatchIf(ctx, plain, "k", []byte("p"), 3); !errors.Is(err, ErrPatchRefused) || v != nil {
				t.Errorf("DoPatchIf over a plain substrate = %v, %v, want a refusal", v, err)
			}
		})
	}
}

// A patch is charged, conflict-counted and traced as the PutIf it stands
// in for, unless it was refused: then it was no lookup at all.
func TestInstrumentedPatchIsChargedAsAPutIf(t *testing.T) {
	ctx := context.Background()
	conflict := &CASConflictError{Key: "k", Exists: true, WinnerEpoch: 9}
	sub := newPatchLog(t, nil, conflict, ErrPatchRefused, MarkTransient(errors.New("reset")))
	var c metrics.Counters
	ring := metrics.NewRing(8)
	d := NewInstrumented(sub, &c)
	d.SetSink(ring)
	for i, want := range []error{nil, ErrCASConflict, ErrPatchRefused, ErrTransient} {
		if _, err := d.PatchIf(ctx, "k", []byte("p"), 3); !errors.Is(err, want) || want == nil && err != nil {
			t.Fatalf("patch %d: %v, want %v", i, err, want)
		}
	}
	if f := c.Snapshot(); f.Lookup.Total != 3 || f.Write.CASConflicts != 1 {
		t.Errorf("Lookups=%d CASConflicts=%d after an applied, a conflicting, a refused and a failed patch, want 3, 1", f.Lookup.Total, f.Write.CASConflicts)
	}
	evs := ring.Events()
	if len(evs) != 3 || evs[0].Kind != "putif" || evs[0].Outcome != "ok" || evs[1].Outcome != "error" || evs[2].Outcome != "error" {
		t.Errorf("trace events %+v, want three putifs", evs)
	}
}

// The policy layer retries a patch through transient faults and hands a
// refusal or a conflict up at once; the hedger never duplicates one, not
// even when the first attempt dies in transit.
func TestPatchIsRetriedButNeverHedged(t *testing.T) {
	ctx := context.Background()
	var c metrics.Counters
	reset := MarkTransient(errors.New("reset"))

	sub := newPatchLog(t, reset, reset)
	d := WithPolicy(sub, Policy{MaxAttempts: 4, BaseDelay: time.Microsecond, Counters: &c})
	if v, err := DoPatchIf(ctx, d, "k", []byte("p"), 3); err != nil || v != "patched:p" || len(sub.patches) != 3 {
		t.Errorf("DoPatchIf through two resets = %v, %v after %d attempts, want the third to land", v, err, len(sub.patches))
	}
	for _, permanent := range []error{ErrPatchRefused, &CASConflictError{Key: "k"}} {
		sub = newPatchLog(t, permanent)
		d = WithPolicy(sub, Policy{MaxAttempts: 4, BaseDelay: time.Microsecond, Counters: &c})
		if _, err := DoPatchIf(ctx, d, "k", []byte("p"), 3); !errors.Is(err, permanent) || len(sub.patches) != 1 {
			t.Errorf("DoPatchIf answered %v: %v after %d attempts, want it handed up at once", permanent, err, len(sub.patches))
		}
	}

	sub = newPatchLog(t, reset)
	before := c.Snapshot().Health.HedgedGets
	if _, err := DoPatchIf(ctx, WithHedging(sub, time.Nanosecond, &c), "k", []byte("p"), 3); !errors.Is(err, ErrTransient) || len(sub.patches) != 1 {
		t.Errorf("a hedged substrate saw %d patches (%v), want the one", len(sub.patches), err)
	}
	if n := c.Snapshot().Health.HedgedGets - before; n != 0 {
		t.Errorf("%d hedges launched for a patch", n)
	}
}

// A crash schedule sees a probe as the get and a patch as the putif they
// stand in for, so one written against the whole-value path fires at the
// same operations over a substrate that probes and patches.
func TestCrashPointsScheduleProbesAndPatches(t *testing.T) {
	ctx := context.Background()
	sub := newPatchLog(t)
	d := WithCrashPoints(sub,
		CrashRule{Op: OpGet, N: 2},
		CrashRule{Op: OpPutIf, N: 1, After: true},
		CrashRule{Op: OpPutIf, N: 2, Halt: true}, // the third patch: the first fired the rule above and stopped there
	)
	if v, err := d.Probe(ctx, "k", 5); err != nil || v != "v" {
		t.Fatalf("first probe = %v, %v", v, err)
	}
	if _, err := d.Probe(ctx, "k", 5); !errors.Is(err, ErrCrashed) {
		t.Errorf("second probe = %v, want the scheduled crash", err)
	}
	if hints, gets := sub.seen(); len(hints) != 1 || gets != 0 {
		t.Errorf("substrate saw hints %v and %d gets, want the one probe before the crash", hints, gets)
	}
	if _, err := d.PatchIf(ctx, "k", []byte("a"), 1); !errors.Is(err, ErrCrashed) || len(sub.patches) != 1 {
		t.Errorf("first patch = %v after %d at the substrate, want applied, acknowledgement lost", err, len(sub.patches))
	}
	if v, err := d.PatchIf(ctx, "k", []byte("b"), 2); err != nil || v != "patched:b" {
		t.Errorf("second patch = %v, %v", v, err)
	}
	if _, err := d.PatchIf(ctx, "k", []byte("c"), 3); !errors.Is(err, ErrCrashed) || len(sub.patches) != 2 || !d.Crashed() {
		t.Errorf("third patch = %v after %d at the substrate, crashed %v: want the halt before it", err, len(sub.patches), d.Crashed())
	}
	if d.Ops() != 5 {
		t.Errorf("the schedule observed %d operations, want 5", d.Ops())
	}
}
