// Package dht defines the generic put/get interface that over-DHT
// indexing schemes are built on (the "over-DHT paradigm" of paper section
// 2), together with a single-process implementation, a cost-counting
// instrumentation wrapper, and a retry/backoff policy wrapper for
// transient substrate faults.
//
// Every routed operation (Put, Get, Remove) costs exactly one
// DHT-lookup in the paper's cost model: the underlying substrate resolves
// the key to its responsible peer (typically O(log N) physical hops) and
// performs the storage action there. Write is the deliberate exception: it
// rewrites a value on the peer that already stores it ("write b back to
// the local disk", Algorithm 1 line 10) and costs no lookup.
//
// Every DHT also has the epoch-guarded forms of those writes (Conditional:
// PutIf, CreateIf, RemoveIf, WriteIf), each priced as the write it guards.
// The storing peer compares the stored value's epoch atomically with the
// write, as the one peer responsible for a bucket serializes its updates
// (paper section 7); every index commit goes through one.
//
// Substrates may additionally implement the optional Batcher interface,
// serving many keys per round trip; DoGetBatch and DoPutBatch fall back
// to per-op calls for substrates that do not. Batched keys are charged as
// lookups exactly like per-op calls, so batching changes latency (round
// trips), never the cost model's bandwidth measure. A Prober's ProbeBatch
// is a multi-get whose slots share one probe hint; DoProbeBatch falls
// back to DoGetBatch.
//
// The wrappers compose in one order, stated by Stack. Each declares only
// what it changes of a per-key primitive; forward.go spells the
// primitives out once.
//
// All routed operations take a context.Context: substrates honor
// cancellation and deadlines (the TCP substrate derives real dial/read/
// write deadlines from it), and the index layers thread the caller's
// context through every probe of a multi-lookup operation.
//
// Implementations in this repository: Local (this package), the Chord ring
// adapter (internal/chord), the Kademlia adapter (internal/kademlia), and
// the TCP cluster client (internal/tcpnet).
package dht

import (
	"context"
	"errors"
	"fmt"
	"net"

	"lht/internal/simnet"
)

// ErrNotFound reports that no value is stored under the requested key.
// Over-DHT index algorithms rely on distinguishing this outcome: a failed
// DHT-get steers the LHT lookup binary search (Algorithm 2 line 7).
var ErrNotFound = errors.New("dht: key not found")

// ErrTransient marks substrate faults that a retry may outlive: an
// unreachable peer, a dropped connection, a network timeout. Substrates
// wrap such errors with MarkTransient (or return errors chaining to
// simnet.ErrUnreachable / net timeouts, which IsTransient also
// recognizes); the policy wrapper retries exactly these.
var ErrTransient = errors.New("dht: transient substrate fault")

// transientError attaches the ErrTransient marker to an underlying fault
// while preserving the original error chain.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() []error {
	return []error{ErrTransient, e.err}
}

// MarkTransient wraps err so IsTransient (and errors.Is with
// ErrTransient) reports it as retryable. A nil err returns nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient is the default fault classification used by Policy: it
// reports whether err is a transient substrate fault worth retrying.
//
// Permanent outcomes — nil, ErrNotFound, and context cancellation or
// deadline expiry — are never transient: retrying cannot change them (a
// missing key is an answer, and a cancelled caller must be obeyed).
// Transient outcomes are anything marked with MarkTransient, a peer the
// simulated network reports unreachable, or a network timeout.
func IsTransient(err error) bool {
	if err == nil ||
		errors.Is(err, ErrNotFound) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrTransient) || errors.Is(err, simnet.ErrUnreachable) ||
		errors.Is(err, simnet.ErrPartitioned) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Value is the unit of storage. Index layers store their bucket structures
// directly; a substrate that crosses process boundaries lets a WireValue
// serialise itself, ships a []byte as it is, and refuses any other type.
type Value any

// DHT is the substrate interface the index layers program against. A DHT
// is a flat key-value store addressed by opaque string keys; the index
// layers derive keys from tree-node labels.
//
// Every method observes ctx: a cancelled or expired context aborts the
// operation and surfaces ctx.Err() (possibly wrapped). Substrates check
// the context at least once per routed message, so a multi-hop lookup
// stops promptly.
//
// Implementations must be safe for concurrent use.
type DHT interface {
	// Get returns the value stored under key, or ErrNotFound. Costs one
	// DHT-lookup whether or not the key exists.
	Get(ctx context.Context, key string) (Value, error)

	// Put stores v under key, replacing any previous value. Costs one
	// DHT-lookup.
	Put(ctx context.Context, key string, v Value) error

	// Remove deletes the value under key if present; removing an absent
	// key is not an error. Costs one DHT-lookup.
	Remove(ctx context.Context, key string) error

	// Write rewrites the value stored under key in place on the peer that
	// already holds it, without routing; it is an error (ErrNotFound) if
	// the key is not stored. Costs zero DHT-lookups. Index layers call
	// Write after mutating a bucket they just fetched.
	Write(ctx context.Context, key string, v Value) error

	// Conditional is the epoch-guarded form of Put, Remove and Write that
	// every index commit goes through.
	Conditional
}

// ctxErr returns ctx.Err() wrapped with a uniform prefix when the context
// is already done, or nil. Substrates call it on entry so a cancelled
// caller never pays for routing.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("dht: %w", err)
	}
	return nil
}
