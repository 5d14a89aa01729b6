package dht

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"lht/internal/metrics"
)

// hintLog is a Local that is also a Prober and records which of the two
// reads each call arrived as, and the hint of each ProbeBatch. failNext
// makes that many reads (a batch is one) fail transiently first.
type hintLog struct {
	*Local
	mu         sync.Mutex
	hints      []uint64 // one per Probe
	batchHints []uint64 // one per ProbeBatch
	gets       int
	failNext   int
}

func (p *hintLog) fail() error {
	if p.failNext > 0 {
		p.failNext--
		return MarkTransient(errors.New("connection reset"))
	}
	return nil
}

func (p *hintLog) Get(ctx context.Context, key string) (Value, error) {
	p.mu.Lock()
	p.gets++
	err := p.fail()
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return p.Local.Get(ctx, key)
}

func (p *hintLog) Probe(ctx context.Context, key string, hint uint64) (Value, error) {
	p.mu.Lock()
	p.hints = append(p.hints, hint)
	err := p.fail()
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return p.Local.Get(ctx, key)
}

func (p *hintLog) ProbeBatch(ctx context.Context, keys []string, hint uint64) ([]Value, []error) {
	p.mu.Lock()
	p.batchHints = append(p.batchHints, hint)
	err := p.fail()
	p.mu.Unlock()
	vals, errs := p.Local.GetBatch(ctx, keys)
	if err != nil {
		for i := range errs {
			vals[i], errs[i] = nil, err
		}
	}
	return vals, errs
}

func (p *hintLog) seen() (hints []uint64, gets int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]uint64(nil), p.hints...), p.gets
}

func (p *hintLog) seenBatches() []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]uint64(nil), p.batchHints...)
}

func newHintLog(t *testing.T) *hintLog {
	p := &hintLog{Local: NewLocal()}
	if err := p.Local.Put(context.Background(), "k", "v"); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDoProbeFallsBackToGet(t *testing.T) {
	ctx := context.Background()
	l := NewLocal()
	_ = l.Put(ctx, "k", "v")
	if v, err := DoProbe(ctx, l, "k", 7); err != nil || v != "v" {
		t.Fatalf("DoProbe over a plain DHT = %v, %v", v, err)
	}
	if _, err := DoProbe(ctx, l, "absent", 7); !errors.Is(err, ErrNotFound) {
		t.Fatalf("DoProbe of an absent key = %v", err)
	}
	p := newHintLog(t)
	if v, err := DoProbe(ctx, p, "k", 7); err != nil || v != "v" {
		t.Fatalf("DoProbe over a Prober = %v, %v", v, err)
	}
	if hints, gets := p.seen(); len(hints) != 1 || hints[0] != 7 || gets != 0 {
		t.Fatalf("Prober saw hints %v and %d gets, want [7] and none", hints, gets)
	}
	for name, d := range map[string]DHT{"a plain DHT": l, "a Prober": p} {
		if vals, errs := DoProbeBatch(ctx, d, []string{"k", "absent"}, 8); vals[0] != "v" || errs[0] != nil || !errors.Is(errs[1], ErrNotFound) {
			t.Fatalf("DoProbeBatch over %s = %v, %v", name, vals, errs)
		}
	}
	if hints := p.seenBatches(); len(hints) != 1 || hints[0] != 8 {
		t.Fatalf("Prober saw batch hints %v, want [8]", hints)
	}
}

// A probe is one lookup, one failed get on a miss and one "get" trace
// event, over a Prober and over a plain substrate alike.
func TestInstrumentedProbeIsChargedAsAGet(t *testing.T) {
	ctx := context.Background()
	for name, inner := range map[string]DHT{"prober": newHintLog(t), "plain": newHintLog(t).Local} {
		var c metrics.Counters
		ring := metrics.NewRing(8)
		d := NewInstrumented(inner, &c)
		d.SetSink(ring)
		if v, err := d.Probe(ctx, "k", 9); err != nil || v != "v" {
			t.Fatalf("%s: Probe = %v, %v", name, v, err)
		}
		if _, err := d.Probe(ctx, "absent", 9); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: Probe of an absent key = %v", name, err)
		}
		if f := c.Snapshot(); f.Lookup.Total != 2 || f.Lookup.FailedGets != 1 {
			t.Errorf("%s: Lookups=%d FailedGets=%d, want 2, 1", name, f.Lookup.Total, f.Lookup.FailedGets)
		}
		evs := ring.Events()
		if len(evs) != 2 || evs[0].Kind != "get" || evs[0].Outcome != "ok" || evs[1].Kind != "get" || evs[1].Outcome != "not_found" {
			t.Errorf("%s: trace events %+v, want two gets", name, evs)
		}
		if p, ok := inner.(*hintLog); ok {
			if hints, gets := p.seen(); len(hints) != 2 || hints[0] != 9 || gets != 0 {
				t.Errorf("hints %v and %d gets reached the substrate, want [9 9] and none", hints, gets)
			}
		}
	}
}

func TestPolicyProbeRetriesWithTheHint(t *testing.T) {
	p := newHintLog(t)
	p.failNext = 2
	var c metrics.Counters
	d := WithPolicy(p, Policy{MaxAttempts: 4, BaseDelay: time.Microsecond, Counters: &c})
	if v, err := d.Probe(context.Background(), "k", 11); err != nil || v != "v" {
		t.Fatalf("Probe = %v, %v", v, err)
	}
	hints, gets := p.seen()
	if len(hints) != 3 || hints[0] != 11 || hints[1] != 11 || hints[2] != 11 || gets != 0 {
		t.Fatalf("attempts arrived as hints %v and %d gets, want three probes with hint 11", hints, gets)
	}
	if r := c.Snapshot().Retry.Retries; r != 2 {
		t.Errorf("Retries = %d, want 2", r)
	}
}

func TestHedgedProbeCarriesTheHintOnBothArms(t *testing.T) {
	p := newHintLog(t)
	p.failNext = 1 // the first arm dies at once, so the duplicate launches
	var c metrics.Counters
	d := WithHedging(p, time.Minute, &c)
	if v, err := DoProbe(context.Background(), d, "k", 13); err != nil || v != "v" {
		t.Fatalf("Probe = %v, %v", v, err)
	}
	hints, gets := p.seen()
	if len(hints) != 2 || hints[0] != 13 || hints[1] != 13 || gets != 0 {
		t.Fatalf("arms arrived as hints %v and %d gets, want two probes with hint 13", hints, gets)
	}
	if f := c.Snapshot(); f.Health.HedgedGets != 1 || f.Health.HedgeWins != 1 {
		t.Errorf("HedgedGets=%d HedgeWins=%d, want 1, 1", f.Health.HedgedGets, f.Health.HedgeWins)
	}
}

// testProjectKind answers a probe with '#' and the hint's low byte, or
// whole when that byte is zero; testWireKind (wirevalue_test) registers
// no probe plane.
const testProjectKind = 249

func init() {
	RegisterWireKind(testProjectKind, func(data []byte) (Value, error) { return "whole:" + string(data), nil })
	RegisterWireProbe(testProjectKind,
		func(dst, data []byte, hint uint64) []byte {
			if byte(hint) == 0 {
				return append(dst, data...)
			}
			return append(dst, '#', byte(hint))
		},
		func(data []byte) (Value, error) { return "probe:" + string(data), nil })
}

func TestWireProbeRegistry(t *testing.T) {
	data := []byte("abcdef")
	for _, tc := range []struct {
		kind byte
		hint uint64
		want string
	}{
		{testProjectKind, 'x', "reply:#x"},
		{testProjectKind, 0x100, "reply:abcdef"},
		{testWireKind, 'x', "reply:abcdef"}, // a kind with no projector
		{251, 'x', "reply:abcdef"},          // an unregistered kind
	} {
		if got := ProjectWire([]byte("reply:"), tc.kind, data, tc.hint); string(got) != tc.want {
			t.Errorf("ProjectWire(kind %d, hint %#x) = %q, want %q", tc.kind, tc.hint, got, tc.want)
		}
	}
	if v, err := DecodeProbe(testProjectKind, data[:2]); err != nil || v != "probe:ab" {
		t.Errorf("DecodeProbe = %v, %v", v, err)
	}
	if v, err := DecodeWire(testProjectKind, data[:2]); err != nil || v != "whole:ab" {
		t.Errorf("DecodeWire = %v, %v: a plain decode must not use the probe decoder", v, err)
	}
	if v, err := DecodeProbe(testWireKind, data); err != nil || v != "abcdef" {
		t.Errorf("DecodeProbe of a kind with no probe plane = %v, %v, want DecodeWire's answer", v, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("registering a probe plane twice did not panic")
		}
	}()
	RegisterWireProbe(testProjectKind, func(dst, _ []byte, _ uint64) []byte { return dst }, nil)
}
