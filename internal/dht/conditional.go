package dht

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrCASConflict reports that a conditional write lost its compare-and-swap:
// the stored value's epoch no longer matched the caller's expectation (or a
// create-if-absent found the key taken). Conflicts are permanent outcomes,
// never transient — retrying the identical operation cannot succeed; the
// caller must re-fetch, rebase its mutation on the winner, and try again.
// The concrete error is always a *CASConflictError carrying the winner's
// epoch.
var ErrCASConflict = errors.New("dht: CAS conflict")

// CASConflictError is the typed conflict a Conditional operation returns:
// which key was contested, whether a value exists there now, and the epoch
// of the value that won (zero when Exists is false). It unwraps to
// ErrCASConflict.
type CASConflictError struct {
	// Key is the contested DHT key.
	Key string
	// Exists reports whether a value is stored under Key now. A PutIf
	// against an absent key conflicts with Exists == false.
	Exists bool
	// WinnerEpoch is the epoch of the stored value that won the race;
	// meaningful only when Exists is true.
	WinnerEpoch uint64
}

func (e *CASConflictError) Error() string {
	if !e.Exists {
		return fmt.Sprintf("dht: CAS conflict on %q: key absent", e.Key)
	}
	return fmt.Sprintf("dht: CAS conflict on %q: stored epoch %d won", e.Key, e.WinnerEpoch)
}

func (e *CASConflictError) Unwrap() error { return ErrCASConflict }

// Epocher is implemented by stored values that carry a monotonic version.
// The index layers' buckets and trie nodes implement it; Conditional
// substrates compare the stored value's epoch against a caller-supplied
// expectation. Values without an epoch compare as epoch 0.
type Epocher interface {
	// DHTEpoch returns the value's version for CAS comparison.
	DHTEpoch() uint64
}

// EpochOf returns the CAS epoch of a stored value: its DHTEpoch when it
// implements Epocher, else 0.
func EpochOf(v Value) uint64 {
	if e, ok := v.(Epocher); ok {
		return e.DHTEpoch()
	}
	return 0
}

// Conditional is the optional substrate capability behind multi-writer
// index mutation: epoch-guarded writes that fail with *CASConflictError
// instead of silently overwriting a concurrent winner. Substrates that
// implement it do the compare atomically with the write on the storing
// peer; DoPutIf and friends fall back to a non-atomic fetch-verify-write
// for substrates that do not (good enough for single-writer use, not for
// true concurrency).
//
// Cost model: PutIf, CreateIf and RemoveIf each cost one DHT-lookup,
// exactly like their unconditional counterparts; WriteIf, like Write, is
// the free local rewrite. A conflict still costs the lookup — the routing
// happened.
type Conditional interface {
	// PutIf stores v under key iff a value is present and its epoch equals
	// ifEpoch; otherwise it returns a *CASConflictError carrying the
	// winner's epoch (Exists == false when the key is absent).
	PutIf(ctx context.Context, key string, v Value, ifEpoch uint64) error

	// CreateIf stores v under key iff the key is absent; otherwise it
	// returns a *CASConflictError with Exists == true and the stored
	// value's epoch.
	CreateIf(ctx context.Context, key string, v Value) error

	// RemoveIf deletes the value under key iff its epoch equals ifEpoch.
	// Removing an absent key succeeds (the removal is already done);
	// a present value with a different epoch is a *CASConflictError.
	RemoveIf(ctx context.Context, key string, ifEpoch uint64) error

	// WriteIf rewrites the value in place on the peer already holding it,
	// iff the stored epoch equals ifEpoch. Absent keys return ErrNotFound
	// (as Write does); an epoch mismatch is a *CASConflictError.
	WriteIf(ctx context.Context, key string, v Value, ifEpoch uint64) error
}

// casConflict builds the conflict error for a contested key.
func casConflict(key string, exists bool, winner uint64) error {
	return &CASConflictError{Key: key, Exists: exists, WinnerEpoch: winner}
}

// DoPutIf performs a conditional put: natively when d implements
// Conditional, else by non-atomic fetch-verify-write (two lookups, and a
// racing writer can slip between the verify and the write — acceptable
// only when writers are serialized elsewhere).
func DoPutIf(ctx context.Context, d DHT, key string, v Value, ifEpoch uint64) error {
	if c, ok := d.(Conditional); ok {
		return c.PutIf(ctx, key, v, ifEpoch)
	}
	return fallbackPutIf(ctx, d, key, v, ifEpoch)
}

// DoCreateIf is DoPutIf's create-if-absent counterpart.
func DoCreateIf(ctx context.Context, d DHT, key string, v Value) error {
	if c, ok := d.(Conditional); ok {
		return c.CreateIf(ctx, key, v)
	}
	return fallbackCreateIf(ctx, d, key, v)
}

// DoRemoveIf is DoPutIf's remove-if-epoch counterpart.
func DoRemoveIf(ctx context.Context, d DHT, key string, ifEpoch uint64) error {
	if c, ok := d.(Conditional); ok {
		return c.RemoveIf(ctx, key, ifEpoch)
	}
	return fallbackRemoveIf(ctx, d, key, ifEpoch)
}

// DoWriteIf is DoPutIf's epoch-guarded in-place-write counterpart.
func DoWriteIf(ctx context.Context, d DHT, key string, v Value, ifEpoch uint64) error {
	if c, ok := d.(Conditional); ok {
		return c.WriteIf(ctx, key, v, ifEpoch)
	}
	return fallbackWriteIf(ctx, d, key, v, ifEpoch)
}

// The fallback implementations below never assert Conditional on d, so
// capability wrappers can route them through their own charged per-op
// methods without recursing.

// emulate performs the conditional write c on d by fetch-verify-write.
func (c call) emulate(ctx context.Context, d DHT) error {
	switch c.prim {
	case primPutIf:
		return fallbackPutIf(ctx, d, c.key, c.val, c.epoch)
	case primCreateIf:
		return fallbackCreateIf(ctx, d, c.key, c.val)
	case primRemoveIf:
		return fallbackRemoveIf(ctx, d, c.key, c.epoch)
	case primWriteIf:
		return fallbackWriteIf(ctx, d, c.key, c.val, c.epoch)
	}
	panic("dht: not a conditional primitive")
}

func fallbackPutIf(ctx context.Context, d DHT, key string, v Value, ifEpoch uint64) error {
	cur, err := d.Get(ctx, key)
	if errors.Is(err, ErrNotFound) {
		return casConflict(key, false, 0)
	}
	if err != nil {
		return err
	}
	if e := EpochOf(cur); e != ifEpoch {
		return casConflict(key, true, e)
	}
	return d.Put(ctx, key, v)
}

func fallbackCreateIf(ctx context.Context, d DHT, key string, v Value) error {
	cur, err := d.Get(ctx, key)
	if err == nil {
		return casConflict(key, true, EpochOf(cur))
	}
	if !errors.Is(err, ErrNotFound) {
		return err
	}
	return d.Put(ctx, key, v)
}

func fallbackRemoveIf(ctx context.Context, d DHT, key string, ifEpoch uint64) error {
	cur, err := d.Get(ctx, key)
	if errors.Is(err, ErrNotFound) {
		return nil // already gone: the removal is done
	}
	if err != nil {
		return err
	}
	if e := EpochOf(cur); e != ifEpoch {
		return casConflict(key, true, e)
	}
	return d.Remove(ctx, key)
}

func fallbackWriteIf(ctx context.Context, d DHT, key string, v Value, ifEpoch uint64) error {
	cur, err := d.Get(ctx, key)
	if err != nil {
		return err // including ErrNotFound, matching Write
	}
	if e := EpochOf(cur); e != ifEpoch {
		return casConflict(key, true, e)
	}
	return d.Write(ctx, key, v)
}

// KeyLocks is a striped per-key mutex set. The simulated network
// substrates (Chord, Kademlia) use one to make their conditional
// read-compare-write atomic across a key's whole replica set, the stand-in
// for the responsible peer serializing updates in a deployed system.
// The zero value is ready to use.
type KeyLocks struct {
	mu [64]sync.Mutex
}

// stripe hashes key onto one mutex (FNV-1a).
func (l *KeyLocks) stripe(key string) *sync.Mutex {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &l.mu[h%uint32(len(l.mu))]
}

// Lock locks the stripe owning key.
func (l *KeyLocks) Lock(key string) { l.stripe(key).Lock() }

// Unlock unlocks the stripe owning key.
func (l *KeyLocks) Unlock(key string) { l.stripe(key).Unlock() }
