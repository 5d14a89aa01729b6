package dht

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"lht/internal/metrics"
)

// patchLog is a hintLog that is also a Patcher: it records each Patch
// (its hint and patch) and WritePatchIf and answers with the next of its
// scripted errors — a refused Patch beside its probe's answer — or (nil,
// or the script run out) with what it recorded. It counts the batches and
// the conditional writes it serves too, so it knows of every optional
// per-key and batch plane, and of each conditional write, whether a call
// reached it natively.
type patchLog struct {
	*hintLog
	patches []string // one per Patch: "hint:patch"
	inPlace []string // one per WritePatchIf: the patch bytes
	script  []error
	batches int // GetBatch and PutBatch calls
	cas     int // PutIf, CreateIf, RemoveIf and WriteIf calls
}

func (p *patchLog) count(n *int) {
	p.mu.Lock()
	*n++
	p.mu.Unlock()
}

func (p *patchLog) GetBatch(ctx context.Context, keys []string) ([]Value, []error) {
	p.count(&p.batches)
	return p.Local.GetBatch(ctx, keys)
}

func (p *patchLog) PutBatch(ctx context.Context, kvs []KV) []error {
	p.count(&p.batches)
	return p.Local.PutBatch(ctx, kvs)
}

func (p *patchLog) PutIf(ctx context.Context, key string, v Value, ifEpoch uint64) error {
	p.count(&p.cas)
	return p.Local.PutIf(ctx, key, v, ifEpoch)
}

func (p *patchLog) CreateIf(ctx context.Context, key string, v Value) error {
	p.count(&p.cas)
	return p.Local.CreateIf(ctx, key, v)
}

func (p *patchLog) RemoveIf(ctx context.Context, key string, ifEpoch uint64) error {
	p.count(&p.cas)
	return p.Local.RemoveIf(ctx, key, ifEpoch)
}

func (p *patchLog) WriteIf(ctx context.Context, key string, v Value, ifEpoch uint64) error {
	p.count(&p.cas)
	return p.Local.WriteIf(ctx, key, v, ifEpoch)
}

func (p *patchLog) Patch(ctx context.Context, key string, hint uint64, patch []byte) (Value, error) {
	v, err := p.patch(&p.patches, "patched:", []byte(fmt.Sprintf("%d:%s", hint, patch)))
	if errors.Is(err, ErrPatchRefused) {
		if v, err = p.Local.Get(ctx, key); err == nil {
			err = ErrPatchRefused
		}
	}
	return v, err
}

func (p *patchLog) WritePatchIf(_ context.Context, _ string, patch []byte, _ uint64) (Value, error) {
	return p.patch(&p.inPlace, "in place:", patch)
}

func (p *patchLog) patch(log *[]string, answer string, patch []byte) (Value, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	*log = append(*log, string(patch))
	if len(p.script) > 0 {
		err := p.script[0]
		if p.script = p.script[1:]; err != nil {
			return nil, err
		}
	}
	return answer + string(patch), nil
}

func newPatchLog(t *testing.T, script ...error) *patchLog {
	return &patchLog{hintLog: newHintLog(t), script: script}
}

// bare hides every optional plane of a substrate: only the DHT methods
// promote through the embedded interface.
type bare struct{ DHT }

// capabilities is every optional plane a wrapper can stand between an
// index and a substrate on. use drives the plane through d by its Do*
// helper and reports an answer that is neither the native one (native)
// nor the helper's fallback (!native); served is how many of the plane's
// methods sub served itself, out of how many the plane has.
var capabilities = []struct {
	name   string
	use    func(ctx context.Context, d DHT, native bool) error
	served func(sub *patchLog) (got, of int)
}{
	{"Batcher", func(ctx context.Context, d DHT, _ bool) error {
		vals, errs := DoGetBatch(ctx, d, []string{"k", "absent"})
		if len(vals) != 2 || vals[0] != "v" || errs[0] != nil || !errors.Is(errs[1], ErrNotFound) {
			return fmt.Errorf("DoGetBatch = %v, %v", vals, errs)
		}
		if errs := DoPutBatch(ctx, d, []KV{{Key: "b", Val: "w"}}); len(errs) != 1 || errs[0] != nil {
			return fmt.Errorf("DoPutBatch = %v", errs)
		}
		return nil
	}, func(sub *patchLog) (int, int) { return sub.batches, 2 }},

	{"Prober.Probe", func(ctx context.Context, d DHT, _ bool) error {
		if v, err := DoProbe(ctx, d, "k", 7); err != nil || v != "v" {
			return fmt.Errorf("DoProbe = %v, %v", v, err)
		}
		return nil
	}, func(sub *patchLog) (int, int) {
		hints, _ := sub.seen()
		return hinted(hints, 7), 1
	}},

	{"Prober.ProbeBatch", func(ctx context.Context, d DHT, _ bool) error {
		vals, errs := DoProbeBatch(ctx, d, []string{"k", "absent"}, 7)
		if len(vals) != 2 || vals[0] != "v" || errs[0] != nil || !errors.Is(errs[1], ErrNotFound) {
			return fmt.Errorf("DoProbeBatch = %v, %v", vals, errs)
		}
		return nil
	}, func(sub *patchLog) (int, int) { return hinted(sub.seenBatches(), 7), 1 }},

	{"Patcher.Patch", func(ctx context.Context, d DHT, native bool) error {
		v, err := DoPatch(ctx, d, "k", 7, []byte("p"))
		if native && (err != nil || v != "patched:7:p") || !native && (!errors.Is(err, ErrPatchRefused) || v != "v") {
			return fmt.Errorf("DoPatch = %v, %v", v, err)
		}
		return nil
	}, func(sub *patchLog) (int, int) { return len(sub.patches), 1 }},

	{"Patcher.WritePatchIf", func(ctx context.Context, d DHT, native bool) error {
		v, err := DoWritePatchIf(ctx, d, "k", []byte("p"), 3)
		if native && (err != nil || v != "in place:p") || !native && (!errors.Is(err, ErrPatchRefused) || v != nil) {
			return fmt.Errorf("DoWritePatchIf = %v, %v", v, err)
		}
		return nil
	}, func(sub *patchLog) (int, int) { return len(sub.inPlace), 1 }},
}

// hinted is how many of hints reached the substrate, or -1 if one arrived
// without the hint want.
func hinted(hints []uint64, want uint64) int {
	for _, h := range hints {
		if h != want {
			return -1
		}
	}
	return len(hints)
}

// refusals is every cell of the conformance table in which a layer keeps
// a plane from a substrate that has it, and why. Nothing else may.
var refusals = map[string]string{
	"withoutBatch/Batcher":           "stripping the batch planes is what it is for",
	"withoutBatch/Prober.ProbeBatch": "stripping the batch planes is what it is for: a loop of probes",
}

// layered is one row of the conformance table: a wrapper, or a stack of
// them, and the names of the layers in it.
type layered struct {
	name   string
	layers []string
	wrap   func(DHT) DHT
}

// conformanceRows lists every wrapper in this package alone, and every
// stack dht.Stack can build (hedging and retries each on and off), named
// inside out as policy(instrumented(hedger)).
func conformanceRows(c *metrics.Counters) []layered {
	single := func(name string, wrap func(DHT) DHT) layered { return layered{name, []string{name}, wrap} }
	rows := []layered{
		single("Instrumented", func(d DHT) DHT { return NewInstrumented(d, c) }),
		single("PolicyDHT", func(d DHT) DHT { return WithPolicy(d, Policy{Counters: c}) }),
		single("hedger", func(d DHT) DHT { return WithHedging(d, time.Minute, c) }),
		single("CrashPoints", func(d DHT) DHT { return WithCrashPoints(d) }),
		single("withoutBatch", WithoutBatch),
		{"policy(instrumented(crashpoints))", []string{"PolicyDHT", "Instrumented", "CrashPoints"}, func(d DHT) DHT {
			return Stack(WithCrashPoints(d), c, 0, nil, &Policy{})
		}},
	}
	for _, hedge := range []bool{false, true} {
		for _, retry := range []bool{false, true} {
			row := layered{name: "instrumented", layers: []string{"Instrumented"}}
			var after time.Duration
			var policy *Policy
			if hedge {
				after = time.Minute // a trigger no test outlives
				row.name = "instrumented(hedger)"
				row.layers = append(row.layers, "hedger")
			}
			if retry {
				policy = &Policy{}
				row.name = "policy(" + row.name + ")"
				row.layers = append(row.layers, "PolicyDHT")
			}
			row.wrap = func(d DHT) DHT { return Stack(d, c, after, nil, policy) }
			rows = append(rows, row)
		}
	}
	return rows
}

// TestCapabilityForwarding is the conformance table of wrapper ×
// optional plane × substrate {has the plane, has it not}. Over a
// substrate that has it, a call on the plane reaches the substrate's own
// method — the hint and the patch with it — through every
// wrapper and every stack dht.Stack builds, except in the cells refusals
// names, where it is answered as over a substrate without the plane. Over
// a substrate without it every wrapper answers as the bare substrate
// does: by the Do* helper's fallback.
//
// A wrapper added to conformanceRows that drops a plane fails here, and
// so does a refusal nobody listed.
func TestCapabilityForwarding(t *testing.T) {
	ctx := context.Background()
	var c metrics.Counters
	for _, w := range conformanceRows(&c) {
		t.Run(w.name, func(t *testing.T) {
			for _, cp := range capabilities {
				refused := ""
				for _, l := range w.layers {
					if why := refusals[l+"/"+cp.name]; why != "" {
						refused = l + ": " + why
					}
				}
				sub := newPatchLog(t)
				if err := cp.use(ctx, w.wrap(sub), refused == ""); err != nil {
					t.Errorf("%s over a substrate that has it: %v", cp.name, err)
				}
				got, of := cp.served(sub)
				if refused == "" && got != of {
					t.Errorf("%s: the substrate served %d of the plane's %d methods itself, want all: the wrapper drops the capability", cp.name, got, of)
				}
				if refused != "" && got != 0 {
					t.Errorf("%s: the substrate served %d of the plane's methods itself, want none (%s)", cp.name, got, refused)
				}

				sub = newPatchLog(t)
				if err := cp.use(ctx, w.wrap(bare{sub}), false); err != nil {
					t.Errorf("%s over a substrate without it: %v", cp.name, err)
				}
				if got, _ := cp.served(sub); got != 0 {
					t.Errorf("%s: %d calls reached a plane the substrate does not expose", cp.name, got)
				}
			}
		})
	}
}

// TestConditionalsReachTheSubstrate: the conditional writes are DHT
// methods, so no layer has a fallback for them. Every wrapper and every
// stack dht.Stack builds hands each of the four to the substrate's own
// method.
func TestConditionalsReachTheSubstrate(t *testing.T) {
	ctx := context.Background()
	var c metrics.Counters
	for _, w := range conformanceRows(&c) {
		sub := newPatchLog(t)
		d := w.wrap(sub)
		if err := d.CreateIf(ctx, "c", "1"); err != nil {
			t.Errorf("%s: CreateIf = %v", w.name, err)
		}
		if err := d.PutIf(ctx, "c", "2", 0); err != nil {
			t.Errorf("%s: PutIf = %v", w.name, err)
		}
		if err := d.WriteIf(ctx, "c", "3", 0); err != nil {
			t.Errorf("%s: WriteIf = %v", w.name, err)
		}
		if err := d.RemoveIf(ctx, "c", 0); err != nil {
			t.Errorf("%s: RemoveIf = %v", w.name, err)
		}
		if _, err := d.Get(ctx, "c"); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: Get after the conditional writes = %v, want the key removed", w.name, err)
		}
		if sub.cas != 4 {
			t.Errorf("%s: the substrate served %d of the four conditional writes itself", w.name, sub.cas)
		}
	}
}

// chargedThrough pins what the conformance table cannot see: Instrumented
// prices an emulated plane by what the substrate under layer lacks, not
// by layer's method set. Over a substrate that does not batch, a batch
// decomposes into the instrumented layer's own charged per-op calls (n
// lookups, no BatchOps), exactly as with no layer in between. A
// conditional write is one lookup over every substrate.
func chargedThrough(t *testing.T, layer func(DHT) DHT) {
	t.Helper()
	ctx := context.Background()
	charge := func(sub DHT, wrap func(DHT) DHT) metrics.Snapshot {
		var c metrics.Counters
		d := NewInstrumented(wrap(sub), &c)
		if errs := DoPutBatch(ctx, d, []KV{{Key: "a", Val: "1"}, {Key: "b", Val: "2"}}); errs[0] != nil || errs[1] != nil {
			t.Fatalf("DoPutBatch: %v", errs)
		}
		if vals, errs := DoGetBatch(ctx, d, []string{"a", "b", "absent"}); vals[0] != "1" || vals[1] != "2" || !errors.Is(errs[2], ErrNotFound) {
			t.Fatalf("DoGetBatch = %v, %v", vals, errs)
		}
		if err := d.PutIf(ctx, "a", "3", 0); err != nil {
			t.Fatalf("PutIf: %v", err)
		}
		return c.Snapshot()
	}
	for _, sub := range []struct {
		name     string
		new      func() DHT
		batchOps int64
	}{
		{"Local", func() DHT { return NewLocal() }, 2},
		{"a substrate without batches", func() DHT { return WithoutBatch(NewLocal()) }, 0},
		{"a substrate with no optional plane", func() DHT { return bare{NewLocal()} }, 0},
	} {
		want := charge(sub.new(), func(d DHT) DHT { return d })
		if want.Lookup.Total != 6 || want.Batch.Ops != sub.batchOps {
			t.Fatalf("over %s: %d lookups, %d batch ops, want 6, %d", sub.name,
				want.Lookup.Total, want.Batch.Ops, sub.batchOps)
		}
		if got := charge(sub.new(), layer); got.Lookup != want.Lookup || got.Batch != want.Batch || got.Write != want.Write {
			t.Errorf("over %s the layer changes the charge: %+v %+v %+v, want %+v %+v %+v", sub.name,
				got.Lookup, got.Batch, got.Write, want.Lookup, want.Batch, want.Write)
		}
	}
}

// A probed multi-get is charged, counted and traced exactly as the
// GetBatch it stands in for, over a substrate that probes, over one that
// only batches, and over one that does neither, where both decompose into
// per-op gets.
func TestInstrumentedProbeBatchIsChargedAsAGetBatch(t *testing.T) {
	ctx := context.Background()
	keys := []string{"k", "absent", "k"}
	for name, sub := range map[string]struct {
		new     func() DHT
		batched bool
	}{
		"probing substrate":  {func() DHT { return newPatchLog(t) }, true},
		"batching substrate": {func() DHT { return newHintLog(t).Local }, true},
		"per-op substrate":   {func() DHT { return WithoutBatch(newHintLog(t).Local) }, false},
	} {
		var plain, probed metrics.Counters
		plainRing, probedRing := metrics.NewRing(4), metrics.NewRing(4)
		p := NewInstrumented(sub.new(), &plain)
		p.SetSink(plainRing)
		p.GetBatch(metrics.WithOp(ctx, metrics.OpRange), keys)
		v := NewInstrumented(sub.new(), &probed)
		v.SetSink(probedRing)
		v.ProbeBatch(metrics.WithOp(ctx, metrics.OpRange), keys, 7)

		ps, vs := plain.Snapshot(), probed.Snapshot()
		wantOps, events, kind := int64(0), 3, "get"
		if sub.batched {
			wantOps, events, kind = 1, 1, "get_batch"
		}
		if ps.Lookup.Total != 3 || ps.Batch.Ops != wantOps || ps.Batch.Keys != 3*wantOps || ps.Lookup.FailedGets != 1 {
			t.Fatalf("%s: GetBatch charged %+v %+v", name, ps.Lookup, ps.Batch)
		}
		if vs.Lookup != ps.Lookup || vs.Batch != ps.Batch {
			t.Errorf("%s: a probed batch charged %+v %+v, the GetBatch %+v %+v", name, vs.Lookup, vs.Batch, ps.Lookup, ps.Batch)
		}
		pe, ve := plainRing.Events(), probedRing.Events()
		if len(pe) != events || len(ve) != events || pe[0].Kind != kind {
			t.Fatalf("%s: trace events %+v and %+v, want %d %s each", name, pe, ve, events, kind)
		}
		for i := range pe {
			pe[i].Start, pe[i].Duration, ve[i].Start, ve[i].Duration = time.Time{}, 0, time.Time{}, 0
			if pe[i] != ve[i] {
				t.Errorf("%s: a probed batch traced as %+v, the GetBatch as %+v", name, ve[i], pe[i])
			}
		}
	}
}

// A patch is charged, counted and traced as the probe it rides, applied
// or not: one lookup each, a failed get for an absent key, no conflict,
// and a refused one is traced as its probe's answer, which it returns.
func TestInstrumentedPatchIsChargedAsAProbe(t *testing.T) {
	ctx := context.Background()
	sub := newPatchLog(t, nil, ErrPatchRefused, ErrNotFound, MarkTransient(errors.New("reset")))
	var c metrics.Counters
	ring := metrics.NewRing(8)
	d := NewInstrumented(sub, &c)
	d.SetSink(ring)
	for i, want := range []struct {
		v   Value
		err error
	}{{"patched:7:p", nil}, {"v", ErrPatchRefused}, {nil, ErrNotFound}, {nil, ErrTransient}} {
		if v, err := d.Patch(ctx, "k", 7, []byte("p")); v != want.v || !errors.Is(err, want.err) || want.err == nil && err != nil {
			t.Fatalf("patch %d: %v, %v, want %v, %v", i, v, err, want.v, want.err)
		}
	}
	if f := c.Snapshot(); f.Lookup.Total != 4 || f.Lookup.FailedGets != 1 || f.Write.CASConflicts != 0 {
		t.Errorf("Lookups=%d FailedGets=%d CASConflicts=%d after an applied, a refused, a missing and a failed patch, want 4, 1, 0",
			f.Lookup.Total, f.Lookup.FailedGets, f.Write.CASConflicts)
	}
	evs := ring.Events()
	if len(evs) != 4 || evs[0].Kind != "get" || evs[0].Outcome != "ok" || evs[1].Outcome != "ok" || evs[2].Outcome != "not_found" || evs[3].Outcome != "error" {
		t.Errorf("trace events %+v, want four gets", evs)
	}
}

// An in-place patch is charged, conflict-counted, traced and scheduled as
// the WriteIf it stands in for: no lookup, a conflict counted, a writeif
// event, an OpWriteIf to a crash schedule. A refused one leaves no trace.
func TestInPlacePatchIsChargedAndScheduledAsAWriteIf(t *testing.T) {
	ctx := context.Background()
	conflict := &CASConflictError{Key: "k", Exists: true, WinnerEpoch: 9}
	sub := newPatchLog(t, nil, conflict, ErrPatchRefused)
	var c metrics.Counters
	ring := metrics.NewRing(8)
	d := NewInstrumented(sub, &c)
	d.SetSink(ring)
	for i, want := range []error{nil, ErrCASConflict, ErrPatchRefused} {
		if _, err := d.WritePatchIf(ctx, "k", []byte("p"), 3); !errors.Is(err, want) || want == nil && err != nil {
			t.Fatalf("in-place patch %d: %v, want %v", i, err, want)
		}
	}
	if f := c.Snapshot(); f.Lookup.Total != 0 || f.Write.CASConflicts != 1 {
		t.Errorf("Lookups=%d CASConflicts=%d after an applied, a conflicting and a refused in-place patch, want 0, 1", f.Lookup.Total, f.Write.CASConflicts)
	}
	if evs := ring.Events(); len(evs) != 2 || evs[0].Kind != "writeif" || evs[0].Outcome != "ok" || evs[1].Outcome != "error" {
		t.Errorf("trace events %+v, want two writeifs", evs)
	}

	sub = newPatchLog(t)
	cp := WithCrashPoints(sub, CrashRule{Op: OpWriteIf, N: 1, After: true})
	if _, err := cp.WritePatchIf(ctx, "k", []byte("a"), 1); !errors.Is(err, ErrCrashed) || len(sub.inPlace) != 1 {
		t.Errorf("in-place patch under an OpWriteIf rule = %v after %d at the substrate, want applied, acknowledgement lost", err, len(sub.inPlace))
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
	if v, err := DoPatch(ctx, d, "k", 7, []byte("p")); err != nil || v != "patched:7:p" || len(sub.patches) != 3 {
		t.Errorf("DoPatch through two resets = %v, %v after %d attempts, want the third to land", v, err, len(sub.patches))
	}
	for _, permanent := range []error{ErrPatchRefused, ErrNotFound} {
		sub = newPatchLog(t, permanent)
		d = WithPolicy(sub, Policy{MaxAttempts: 4, BaseDelay: time.Microsecond, Counters: &c})
		if _, err := DoPatch(ctx, d, "k", 7, []byte("p")); !errors.Is(err, permanent) || len(sub.patches) != 1 {
			t.Errorf("DoPatch answered %v: %v after %d attempts, want it handed up at once", permanent, err, len(sub.patches))
		}
	}

	sub = newPatchLog(t, reset)
	before := c.Snapshot().Health.HedgedGets
	if _, err := DoPatch(ctx, WithHedging(sub, time.Nanosecond, &c), "k", 7, []byte("p")); !errors.Is(err, ErrTransient) || len(sub.patches) != 1 {
		t.Errorf("a hedged substrate saw %d patches (%v), want the one", len(sub.patches), err)
	}
	if n := c.Snapshot().Health.HedgedGets - before; n != 0 {
		t.Errorf("%d hedges launched for a patch", n)
	}
}

// A crash schedule sees a probe, and a patch riding one, as the get they
// stand in for, so one written against the whole-value path fires at the
// same operations over a substrate that probes and patches; an After rule
// on a patch loses the answer of an applied write.
func TestCrashPointsScheduleProbesAndPatches(t *testing.T) {
	ctx := context.Background()
	sub := newPatchLog(t)
	d := WithCrashPoints(sub,
		CrashRule{Op: OpGet, N: 2},
		CrashRule{Op: OpGet, N: 2, After: true}, // the first patch: the rule above fired at the second get and stopped there
		CrashRule{Op: OpGet, N: 3, Halt: true},  // the third patch
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
	if _, err := d.Patch(ctx, "k", 5, []byte("a")); !errors.Is(err, ErrCrashed) || len(sub.patches) != 1 {
		t.Errorf("first patch = %v after %d at the substrate, want applied, acknowledgement lost", err, len(sub.patches))
	}
	if v, err := d.Patch(ctx, "k", 5, []byte("b")); err != nil || v != "patched:5:b" {
		t.Errorf("second patch = %v, %v", v, err)
	}
	if _, err := d.Patch(ctx, "k", 5, []byte("c")); !errors.Is(err, ErrCrashed) || len(sub.patches) != 2 || !d.Crashed() {
		t.Errorf("third patch = %v after %d at the substrate, crashed %v: want the halt before it", err, len(sub.patches), d.Crashed())
	}
	if d.Ops() != 5 {
		t.Errorf("the schedule observed %d operations, want 5", d.Ops())
	}
}

// The policy layer retries a probed multi-get's transient slots with the
// hint, and a crash schedule fires at a probed batch's keys as at a plain
// one's: a slot it fails is not fetched, the rest go out with the hint.
func TestProbeBatchUnderRetriesAndCrashPoints(t *testing.T) {
	ctx := context.Background()
	keys := []string{"k", "absent", "k"}

	sub := newPatchLog(t)
	sub.failNext = 1
	d := WithPolicy(sub, Policy{MaxAttempts: 3, BaseDelay: time.Microsecond})
	vals, errs := DoProbeBatch(ctx, d, keys, 7)
	if hints := sub.seenBatches(); vals[0] != "v" || vals[2] != "v" || errs[0] != nil || !errors.Is(errs[1], ErrNotFound) || hinted(hints, 7) != 2 {
		t.Errorf("through one reset: %v, %v after probe batches hinted %v, want the retry hinted", vals, errs, hints)
	}

	sub = newPatchLog(t)
	cp := WithCrashPoints(sub, CrashRule{Op: OpGet, N: 3})
	vals, errs = DoProbeBatch(ctx, cp, keys, 7)
	if hints := sub.seenBatches(); vals[0] != "v" || !errors.Is(errs[1], ErrNotFound) || !errors.Is(errs[2], ErrCrashed) || vals[2] != nil || hinted(hints, 7) != 1 || cp.Ops() != 3 {
		t.Errorf("under a crash at the third get: %v, %v after probe batches hinted %v and %d scheduled ops", vals, errs, hints, cp.Ops())
	}
}
