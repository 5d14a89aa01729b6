package dht

import (
	"context"
	"errors"
	"testing"
	"time"

	"lht/internal/metrics"
)

// patchLog is a hintLog that is also a Patcher and a BatchViewer: it
// records each PatchIf and answers with the next of its scripted errors,
// or (nil, or the script run out) with the patch; and it counts the
// multi-gets that arrive with a view, which it runs on each stored string
// as a wire would on a value's bytes.
type patchLog struct {
	*hintLog
	patches []string // one per PatchIf: the patch bytes
	script  []error
	views   int // GetBatchView calls
}

func (p *patchLog) GetBatchView(ctx context.Context, keys []string, view WireView) ([]Value, []error) {
	p.mu.Lock()
	p.views++
	err := p.fail()
	p.mu.Unlock()
	vals, errs := p.Local.GetBatch(ctx, keys)
	if err != nil {
		for i := range errs {
			vals[i], errs[i] = nil, err
		}
	}
	for i, v := range vals {
		if errs[i] == nil {
			vals[i], errs[i] = view(testViewKind, []byte(v.(string)))
		}
	}
	return vals, errs
}

const testViewKind = 9

// testView is a WireView that shows it ran.
func testView(kind byte, data []byte) (Value, error) {
	if kind != testViewKind {
		return nil, errors.New("view handed another kind")
	}
	return "viewed:" + string(data), nil
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
//
// A multi-get's view reaches a viewing substrate through Instrumented,
// PolicyDHT and CrashPoints. The hedger and the coalescer pass a
// substrate's Batcher through as it is and know nothing of views, so
// through either a viewed multi-get arrives as a plain GetBatch and comes
// back whole, as it does from every layer over a substrate that only
// batches.
func TestCapabilityForwarding(t *testing.T) {
	ctx := context.Background()
	var c metrics.Counters
	wrappers := []struct {
		name    string
		wrap    func(DHT) DHT
		forward bool // Prober and Patcher
		view    bool // BatchViewer
	}{
		{"Instrumented", func(d DHT) DHT { return NewInstrumented(d, &c) }, true, true},
		{"PolicyDHT", func(d DHT) DHT { return WithPolicy(d, Policy{Counters: &c}) }, true, true},
		{"hedger", func(d DHT) DHT { return WithHedging(d, time.Minute, &c) }, true, false},
		{"coalescer", func(d DHT) DHT { return WithCoalescing(d, &c) }, false, false},
		{"CrashPoints", func(d DHT) DHT { return WithCrashPoints(d) }, true, true},
		{"policy(instrumented(crashpoints))", func(d DHT) DHT {
			return WithPolicy(NewInstrumented(WithCrashPoints(d), &c), Policy{Counters: &c})
		}, true, true},
		{"policy(instrumented(hedger))", func(d DHT) DHT {
			return WithPolicy(NewInstrumented(WithHedging(d, time.Minute, &c), &c), Policy{Counters: &c})
		}, true, false},
		{"policy(instrumented(coalescer(hedger)))", func(d DHT) DHT {
			return WithPolicy(NewInstrumented(WithCoalescing(WithHedging(d, time.Minute, &c), &c), &c), Policy{Counters: &c})
		}, false, false},
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
			keys := []string{"k", "absent"}
			vals, errs := DoGetBatchView(ctx, d, keys, testView)
			want := map[bool]Value{true: "viewed:v", false: "v"}[w.view]
			if len(vals) != 2 || vals[0] != want || errs[0] != nil || !errors.Is(errs[1], ErrNotFound) || (sub.views == 1) != w.view {
				t.Errorf("DoGetBatchView = %v, %v after %d viewed batches at the substrate, want %v from a viewed batch: %v", vals, errs, sub.views, want, w.view)
			}
			if vals, errs := DoGetBatch(ctx, d, keys); vals[0] != "v" || errs[0] != nil || !errors.Is(errs[1], ErrNotFound) || (sub.views == 1) != w.view {
				t.Errorf("DoGetBatch = %v, %v after %d viewed batches at the substrate, want whole values and no view", vals, errs, sub.views)
			}

			// Over a substrate with none of the capabilities.
			plain := w.wrap(newHintLog(t).Local)
			if v, err := DoProbe(ctx, plain, "k", 7); err != nil || v != "v" {
				t.Errorf("DoProbe over a plain substrate = %v, %v", v, err)
			}
			if v, err := DoPatchIf(ctx, plain, "k", []byte("p"), 3); !errors.Is(err, ErrPatchRefused) || v != nil {
				t.Errorf("DoPatchIf over a plain substrate = %v, %v, want a refusal", v, err)
			}
			if vals, errs := DoGetBatchView(ctx, plain, keys, testView); vals[0] != "v" || errs[0] != nil || !errors.Is(errs[1], ErrNotFound) {
				t.Errorf("DoGetBatchView over a plain substrate = %v, %v, want whole values", vals, errs)
			}
		})
	}
}

// A viewed multi-get is charged, counted and traced exactly as the
// GetBatch it stands in for, over a substrate that views and over one
// that only batches.
func TestInstrumentedViewIsChargedAsAGetBatch(t *testing.T) {
	ctx := context.Background()
	keys := []string{"k", "absent", "k"}
	for name, sub := range map[string]func() DHT{
		"viewing substrate":  func() DHT { return newPatchLog(t) },
		"batching substrate": func() DHT { return newHintLog(t).Local },
	} {
		var plain, viewed metrics.Counters
		plainRing, viewedRing := metrics.NewRing(4), metrics.NewRing(4)
		p := NewInstrumented(sub(), &plain)
		p.SetSink(plainRing)
		p.GetBatch(metrics.WithOp(ctx, metrics.OpRange), keys)
		v := NewInstrumented(sub(), &viewed)
		v.SetSink(viewedRing)
		v.GetBatchView(metrics.WithOp(ctx, metrics.OpRange), keys, testView)

		ps, vs := plain.Snapshot(), viewed.Snapshot()
		if ps.Lookup.Total != 3 || ps.Batch.Ops != 1 || ps.Batch.Keys != 3 || ps.Lookup.FailedGets != 1 {
			t.Fatalf("%s: GetBatch charged %+v %+v", name, ps.Lookup, ps.Batch)
		}
		if vs.Lookup != ps.Lookup || vs.Batch != ps.Batch {
			t.Errorf("%s: a viewed batch charged %+v %+v, the GetBatch %+v %+v", name, vs.Lookup, vs.Batch, ps.Lookup, ps.Batch)
		}
		pe, ve := plainRing.Events(), viewedRing.Events()
		if len(pe) != 1 || len(ve) != 1 || pe[0].Kind != "get_batch" {
			t.Fatalf("%s: trace events %+v and %+v, want one get_batch each", name, pe, ve)
		}
		pe[0].Start, pe[0].Duration, ve[0].Start, ve[0].Duration = time.Time{}, 0, time.Time{}, 0
		if pe[0] != ve[0] {
			t.Errorf("%s: a viewed batch traced as %+v, the GetBatch as %+v", name, ve[0], pe[0])
		}
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

// The policy layer retries a viewed multi-get's transient slots with the
// view, and a crash schedule fires at a viewed batch's keys as at a plain
// one's: a slot it fails is not fetched, the rest come back viewed.
func TestViewedBatchUnderRetriesAndCrashPoints(t *testing.T) {
	ctx := context.Background()
	keys := []string{"k", "absent", "k"}

	sub := newPatchLog(t)
	sub.failNext = 1
	d := WithPolicy(sub, Policy{MaxAttempts: 3, BaseDelay: time.Microsecond})
	vals, errs := DoGetBatchView(ctx, d, keys, testView)
	if vals[0] != "viewed:v" || vals[2] != "viewed:v" || errs[0] != nil || !errors.Is(errs[1], ErrNotFound) || sub.views != 2 {
		t.Errorf("through one reset: %v, %v after %d viewed batches, want the retry viewed", vals, errs, sub.views)
	}

	sub = newPatchLog(t)
	cp := WithCrashPoints(sub, CrashRule{Op: OpGet, N: 3})
	vals, errs = DoGetBatchView(ctx, cp, keys, testView)
	if vals[0] != "viewed:v" || !errors.Is(errs[1], ErrNotFound) || !errors.Is(errs[2], ErrCrashed) || vals[2] != nil || sub.views != 1 || cp.Ops() != 3 {
		t.Errorf("under a crash at the third get: %v, %v after %d viewed batches and %d scheduled ops", vals, errs, sub.views, cp.Ops())
	}
}
