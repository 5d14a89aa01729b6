package dht

import (
	"context"
	"sync"
)

// Local is a single-process DHT: one flat map standing in for the whole
// ring. It gives the index layers exactly the put/get semantics of a real
// substrate while keeping experiments fast and deterministic, which is
// what makes paper-scale (2^20-record) runs feasible on one machine.
//
// The zero value is not usable; create with NewLocal.
type Local struct {
	mu   sync.RWMutex
	data map[string]Value
}

var (
	_ DHT     = (*Local)(nil)
	_ Batcher = (*Local)(nil)
)

// NewLocal returns an empty single-process DHT.
func NewLocal() *Local {
	return &Local{data: make(map[string]Value)}
}

// Get implements DHT.
func (l *Local) Get(ctx context.Context, key string) (Value, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	v, ok := l.data[key]
	if !ok {
		return nil, ErrNotFound
	}
	return v, nil
}

// Put implements DHT.
func (l *Local) Put(ctx context.Context, key string, v Value) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.data[key] = v
	return nil
}

// Remove implements DHT.
func (l *Local) Remove(ctx context.Context, key string) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.data, key)
	return nil
}

// Write implements DHT.
func (l *Local) Write(ctx context.Context, key string, v Value) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.data[key]; !ok {
		return ErrNotFound
	}
	l.data[key] = v
	return nil
}

// PutIf implements Conditional: the compare and the swap happen under one
// lock acquisition, the single-process analogue of the responsible peer
// applying the CAS atomically.
func (l *Local) PutIf(ctx context.Context, key string, v Value, ifEpoch uint64) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	cur, ok := l.data[key]
	if !ok {
		return casConflict(key, false, 0)
	}
	if e := EpochOf(cur); e != ifEpoch {
		return casConflict(key, true, e)
	}
	l.data[key] = v
	return nil
}

// CreateIf implements Conditional.
func (l *Local) CreateIf(ctx context.Context, key string, v Value) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if cur, ok := l.data[key]; ok {
		return casConflict(key, true, EpochOf(cur))
	}
	l.data[key] = v
	return nil
}

// RemoveIf implements Conditional; removing an absent key succeeds.
func (l *Local) RemoveIf(ctx context.Context, key string, ifEpoch uint64) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	cur, ok := l.data[key]
	if !ok {
		return nil
	}
	if e := EpochOf(cur); e != ifEpoch {
		return casConflict(key, true, e)
	}
	delete(l.data, key)
	return nil
}

// WriteIf implements Conditional: the free in-place rewrite, guarded.
func (l *Local) WriteIf(ctx context.Context, key string, v Value, ifEpoch uint64) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	cur, ok := l.data[key]
	if !ok {
		return ErrNotFound
	}
	if e := EpochOf(cur); e != ifEpoch {
		return casConflict(key, true, e)
	}
	l.data[key] = v
	return nil
}

// GetBatch implements Batcher: one lock pass serves the whole batch, the
// single-process analogue of one round trip.
func (l *Local) GetBatch(ctx context.Context, keys []string) ([]Value, []error) {
	vals := make([]Value, len(keys))
	errs := make([]error, len(keys))
	if err := ctxErr(ctx); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return vals, errs
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	for i, k := range keys {
		v, ok := l.data[k]
		if !ok {
			errs[i] = ErrNotFound
			continue
		}
		vals[i] = v
	}
	return vals, errs
}

// PutBatch implements Batcher. Pairs apply in slice order, so a duplicate
// key's last occurrence wins.
func (l *Local) PutBatch(ctx context.Context, kvs []KV) []error {
	errs := make([]error, len(kvs))
	if err := ctxErr(ctx); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, kv := range kvs {
		l.data[kv.Key] = kv.Val
	}
	return errs
}

// Len returns the number of stored keys.
func (l *Local) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.data)
}

// Keys returns a copy of all stored keys, in no particular order.
func (l *Local) Keys() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	keys := make([]string, 0, len(l.data))
	for k := range l.data {
		keys = append(keys, k)
	}
	return keys
}
