package dht

import (
	"context"
	"errors"
	"sync"
)

// ErrCrashed reports an operation failed by an injected crash schedule.
// It is deliberately NOT transient: a crashed client does not retry, so
// the policy layer must surface it immediately (schedules that model
// flaky-but-alive substrates set CrashRule.Transient instead).
var ErrCrashed = errors.New("dht: injected crash")

// OpKind identifies one DHT operation class. Crash schedules use it to
// match operations (batched operations decompose into their per-key kinds,
// OpGet / OpPut, so a schedule counts ops identically whether or not the
// substrate batches), and wire substrates use the same enumeration as
// their on-the-wire op byte: internal/tcpnet's framed protocol carries
// uint8(OpKind) in every frame header, so a packet capture and a crash
// schedule name operations identically.
type OpKind uint8

const (
	// OpAny matches every operation (never appears on the wire).
	OpAny OpKind = iota
	// OpGet matches Get (and each key of a GetBatch).
	OpGet
	// OpPut matches Put (and each pair of a PutBatch).
	OpPut
	// OpTake is wire-level only: the op byte of tcpnet.Client.Take; no
	// DHT method, so crash schedules never match it. It keeps its slot
	// because the enum's values are the wire's op bytes.
	OpTake
	// OpRemove matches Remove.
	OpRemove
	// OpWrite matches Write.
	OpWrite

	// The kinds below are wire-level only: they identify whole protocol
	// messages, not index-visible operation classes, so crash schedules
	// never match them directly (a batch decomposes into OpGet/OpPut).

	// OpPing is the wire-level liveness probe.
	OpPing
	// OpGetBatch is the wire-level framed multi-get.
	OpGetBatch
	// OpPutBatch is the wire-level framed multi-put.
	OpPutBatch

	// The conditional kinds are index-visible operation classes like
	// OpGet/OpPut: crash schedules match them, and the framed wire carries
	// them as op bytes.

	// OpPutIf matches PutIf (epoch-guarded replace).
	OpPutIf
	// OpCreateIf matches CreateIf (create-if-absent).
	OpCreateIf
	// OpRemoveIf matches RemoveIf (epoch-guarded delete).
	OpRemoveIf
	// OpWriteIf matches WriteIf (epoch-guarded in-place rewrite).
	OpWriteIf

	// OpPutNewer is wire-level only, like OpPing: the replica-propagation
	// store. The holder stores the value unless it already holds one with
	// a strictly newer epoch tag, so fan-outs of serialized conditional
	// commits may arrive in any order without an older commit ever
	// overwriting a newer one. Crash schedules never match it directly.
	OpPutNewer

	// The membership-plane kinds are wire-level only and free in the cost
	// model: they carry no index traffic, only cluster metadata. New wire
	// ops must keep appending here — the byte values are the framed
	// protocol's op bytes, so reordering the enum breaks wire stability.

	// OpGossip is one anti-entropy membership exchange: the payload is the
	// sender's encoded ClusterView, the response the receiver's merged one.
	OpGossip
	// The retired hinted-handoff park (OpHintPut) held this slot; it stays
	// taken so that the op bytes after it do not move.
	_
	// OpStatus asks a node for its membership view.
	OpStatus

	// OpPatchIf is the wire op of Patcher.Patch and WritePatchIf: a write
	// that ships a patch for the storing node's WirePatcher in place of the
	// value. Wire-level only: a crash schedule sees a Patch as the OpGet it
	// rides, a WritePatchIf as the OpWriteIf it stands in for.
	OpPatchIf
)

// String names the kind for logs and test failures.
func (k OpKind) String() string {
	switch k {
	case OpAny:
		return "any"
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpTake:
		return "take"
	case OpRemove:
		return "remove"
	case OpWrite:
		return "write"
	case OpPing:
		return "ping"
	case OpGetBatch:
		return "getbatch"
	case OpPutBatch:
		return "putbatch"
	case OpPutIf:
		return "putif"
	case OpCreateIf:
		return "createif"
	case OpRemoveIf:
		return "removeif"
	case OpWriteIf:
		return "writeif"
	case OpPutNewer:
		return "putnewer"
	case OpGossip:
		return "gossip"
	case OpStatus:
		return "status"
	case OpPatchIf:
		return "patchif"
	}
	return "unknown"
}

// CrashRule is one entry of a deterministic fault schedule. A rule matches
// an operation when Op (OpAny = all) and Key (nil = all) both accept it;
// N picks the Nth match (1-based; 0 = every match). When a rule fires,
// the operation fails with ErrCrashed (or a transient fault when
// Transient is set); with After set, the underlying operation is executed
// first and only the acknowledgement is lost — the classic crash-after-put
// window where the remote write took effect but the writer died before
// its next step. Halt turns the firing into a process crash: every
// subsequent operation through the wrapper fails immediately.
type CrashRule struct {
	// Op restricts the rule to one operation class; OpAny matches all.
	Op OpKind
	// Key, when non-nil, restricts the rule to keys it accepts.
	Key func(key string) bool
	// N fires the rule on the Nth matching operation (1-based). 0 fires
	// on every match.
	N int
	// After executes the underlying operation before failing, so the
	// effect is durable but the caller observes a crash.
	After bool
	// Halt fails all operations after the rule fires (simulated process
	// death), not just the matching one.
	Halt bool
	// Transient marks the injected error retryable (dht.IsTransient), for
	// schedules that model a flaky substrate rather than a dead client.
	Transient bool
}

// CrashPoints wraps a DHT with a scripted, deterministic fault schedule.
// Unlike probabilistic injection (bench's flaky substrate), the same
// operation sequence always fails at the same points, so torn states are
// reproducible in tests. It implements Batcher: batched keys advance the
// same per-op counter, one count per key, in slice order. It forwards
// Prober and Patcher too, each scheduled as the op it stands in for, so a
// schedule over a substrate that has them exercises the path production
// takes.
type CrashPoints struct {
	perKey // every per-key primitive is scheduled by do
	inner  DHT
	rules  []CrashRule

	mu      sync.Mutex
	matches []int // per-rule match counts
	ops     int   // total operations observed
	halted  bool
}

var (
	_ DHT         = (*CrashPoints)(nil)
	_ Batcher     = (*CrashPoints)(nil)
	_ Conditional = (*CrashPoints)(nil)
	_ Prober      = (*CrashPoints)(nil)
	_ Patcher     = (*CrashPoints)(nil)
)

// WithCrashPoints wraps d with the given schedule. Rules are evaluated in
// order; the first firing rule decides the outcome.
func WithCrashPoints(d DHT, rules ...CrashRule) *CrashPoints {
	c := &CrashPoints{inner: d, rules: rules, matches: make([]int, len(rules))}
	c.perKey = perKey{c}
	return c
}

// Ops returns how many operations the schedule has observed (batched keys
// count one each).
func (c *CrashPoints) Ops() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// Crashed reports whether a halting rule has fired: the simulated process
// is dead and every further operation fails.
func (c *CrashPoints) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.halted
}

// Reset revives a halted wrapper and restarts the schedule from the
// beginning, modeling a process restart with the same script.
func (c *CrashPoints) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.halted = false
	c.ops = 0
	for i := range c.matches {
		c.matches[i] = 0
	}
}

// verdict is the scheduling decision for one operation.
type verdict struct {
	fail  bool
	after bool
	err   error
}

// decide advances the schedule one operation and returns its fate.
func (c *CrashPoints) decide(op OpKind, key string) verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.halted {
		return verdict{fail: true, err: ErrCrashed}
	}
	c.ops++
	for i, r := range c.rules {
		if r.Op != OpAny && r.Op != op {
			continue
		}
		if r.Key != nil && !r.Key(key) {
			continue
		}
		c.matches[i]++
		if r.N != 0 && c.matches[i] != r.N {
			continue
		}
		if r.Halt {
			c.halted = true
		}
		err := ErrCrashed
		if r.Transient {
			err = MarkTransient(ErrCrashed)
		}
		return verdict{fail: true, after: r.After, err: err}
	}
	return verdict{}
}

// do schedules one per-key primitive as the operation class it stands for
// (prims) — a Probe and the Patch riding one as an OpGet, a WritePatchIf
// as an OpWriteIf, so a schedule written against whole-value reads and
// in-place writes fires at the same points over a substrate that probes
// and patches — and then performs it on the inner substrate, hint and
// patch included. Whatever the substrate answers, a refusal too, passes
// through unless the schedule fired: an After rule on a Patch loses the
// answer of a write that may have been applied.
func (c *CrashPoints) do(ctx context.Context, cl call) (Value, error) {
	v := c.decide(prims[cl.prim].kind, cl.key)
	if v.fail && !v.after {
		return nil, v.err
	}
	val, err := cl.on(ctx, c.inner)
	if v.fail {
		return nil, v.err
	}
	return val, err
}

// GetBatch implements Batcher: every key is scheduled as one OpGet, in
// slice order, exactly as a loop of per-op Gets would be. Surviving keys
// are fetched through the inner substrate's batch plane when available.
func (c *CrashPoints) GetBatch(ctx context.Context, keys []string) ([]Value, []error) {
	return c.getBatch(ctx, keys, call{prim: primGet})
}

// ProbeBatch implements Prober, scheduled as GetBatch: the keys that
// survive the schedule go out with the hint.
func (c *CrashPoints) ProbeBatch(ctx context.Context, keys []string, hint uint64) ([]Value, []error) {
	return c.getBatch(ctx, keys, call{prim: primProbe, hint: hint})
}

// getBatch is the one body of both: cl is the Get or the Probe of a slot.
func (c *CrashPoints) getBatch(ctx context.Context, keys []string, cl call) ([]Value, []error) {
	vals := make([]Value, len(keys))
	errs := make([]error, len(keys))
	var live []string
	var liveIdx []int
	after := make([]bool, len(keys))
	for i, k := range keys {
		v := c.decide(OpGet, k)
		if v.fail {
			errs[i] = v.err
			if v.after {
				after[i] = true
				live = append(live, k)
				liveIdx = append(liveIdx, i)
			}
			continue
		}
		live = append(live, k)
		liveIdx = append(liveIdx, i)
	}
	lv, le := cl.batch(ctx, c.inner, live)
	for j, i := range liveIdx {
		if after[i] {
			continue // effect happened; the scheduled error stands
		}
		vals[i], errs[i] = lv[j], le[j]
	}
	return vals, errs
}

// PutBatch implements Batcher with the same per-key scheduling as
// GetBatch.
func (c *CrashPoints) PutBatch(ctx context.Context, kvs []KV) []error {
	errs := make([]error, len(kvs))
	var live []KV
	var liveIdx []int
	after := make([]bool, len(kvs))
	for i, kv := range kvs {
		v := c.decide(OpPut, kv.Key)
		if v.fail {
			errs[i] = v.err
			if v.after {
				after[i] = true
				live = append(live, kv)
				liveIdx = append(liveIdx, i)
			}
			continue
		}
		live = append(live, kv)
		liveIdx = append(liveIdx, i)
	}
	le := DoPutBatch(ctx, c.inner, live)
	for j, i := range liveIdx {
		if after[i] {
			continue
		}
		errs[i] = le[j]
	}
	return errs
}
