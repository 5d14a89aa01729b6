package lht

import (
	"context"
	"encoding/gob"

	"lht/internal/chord"
	"lht/internal/dht"
	"lht/internal/kademlia"
	ilht "lht/internal/lht"
)

// DHT is the substrate interface LHT runs over: a flat key-value store
// with one-lookup Get/Put/Remove and a free local Write, every operation
// taking a context.Context for cancellation and deadlines. Leaf merges and
// repairs commit by the epoch-guarded RemoveIf of the Conditional
// capability. Any DHT can be adapted by implementing it; this package
// ships four substrates.
type DHT = dht.DHT

// Value is the unit of substrate storage.
type Value = dht.Value

// Policy describes the retry/backoff layer for transient substrate
// faults: attempts, capped jittered exponential backoff, and the
// transient-vs-permanent classifier. Set Config.Policy to have an index
// absorb transient faults, or apply WithPolicy to a substrate directly.
type Policy = dht.Policy

// DefaultPolicy returns the default retry policy: 4 attempts, 5ms base
// delay doubling to a 250ms cap, 50% jitter, IsTransient classification.
func DefaultPolicy() Policy { return dht.DefaultPolicy() }

// WithRetry wraps a substrate so every routed operation retries
// transient faults per the policy. Indexes created with the WithPolicy
// option (or Config.Policy) already compose this above their
// instrumentation layer (charging each retry as a DHT-lookup); use
// WithRetry directly only for raw substrate access.
func WithRetry(d DHT, p Policy) DHT { return dht.WithPolicy(d, p) }

// Batcher is the optional batched operation plane: substrates that can
// serve many keys in fewer network round trips implement it alongside
// DHT. Results are positionally aligned with the inputs, a batch never
// fails as a whole (each slot carries its own error), and duplicate keys
// in a PutBatch apply in slice order. The Local, Chord, and tcpnet
// substrates are batch-native; everything that is not decomposes
// per-op through GetBatch/PutBatch below. Batching never changes what
// the paper's cost model counts — every batched key is still one
// DHT-lookup — only how many substrate round trips carry them.
type Batcher = dht.Batcher

// KV is one key/value slot of a batched put.
type KV = dht.KV

// GetBatch fetches many keys through d's native batch plane if it has
// one, or per-op otherwise. Result slices are positionally aligned with
// keys; absent keys report ErrNotFound in their slot.
func GetBatch(ctx context.Context, d DHT, keys []string) ([]Value, []error) {
	return dht.DoGetBatch(ctx, d, keys)
}

// PutBatch stores many key/value pairs through d's native batch plane if
// it has one, or per-op otherwise. The returned errors align with kvs.
func PutBatch(ctx context.Context, d DHT, kvs []KV) []error {
	return dht.DoPutBatch(ctx, d, kvs)
}

// WithoutBatch hides a substrate's native Batcher implementation, forcing
// per-op decomposition — the control arm for measuring what batching
// saves (ablation A6 in EXPERIMENTS.md).
func WithoutBatch(d DHT) DHT { return dht.WithoutBatch(d) }

// Conditional is the optional conditional-write plane: substrates that
// can compare a stored value's epoch and swap atomically implement it
// alongside DHT. It is what makes true multi-writer index concurrency
// safe — every index read-modify-write commits through an epoch-guarded
// conditional put. All four shipped substrates implement it natively.
type Conditional = dht.Conditional

// Epocher is implemented by stored values that carry a version epoch;
// conditional writes compare against it. Index buckets implement it.
type Epocher = dht.Epocher

// ErrCASConflict reports a conditional write that lost its epoch
// comparison to a concurrent writer. Conflicts are permanent (never
// retried by a Policy); the index layer owns rebase-and-retry.
var ErrCASConflict = dht.ErrCASConflict

// CASConflictError is the typed form of ErrCASConflict, carrying whether
// a value exists under the contested key and the winning stored epoch.
type CASConflictError = dht.CASConflictError

// PutIf stores v under key only if a value is stored there with epoch
// ifEpoch, through d's native conditional plane if it has one, or a
// non-atomic fetch-verify emulation otherwise.
func PutIf(ctx context.Context, d DHT, key string, v Value, ifEpoch uint64) error {
	return dht.DoPutIf(ctx, d, key, v, ifEpoch)
}

// CreateIf stores v under key only if nothing is stored there.
func CreateIf(ctx context.Context, d DHT, key string, v Value) error {
	return dht.DoCreateIf(ctx, d, key, v)
}

// RemoveIf deletes key only if the stored value's epoch is ifEpoch; an
// absent key is a success (the removal's goal state).
func RemoveIf(ctx context.Context, d DHT, key string, ifEpoch uint64) error {
	return dht.DoRemoveIf(ctx, d, key, ifEpoch)
}

// WriteIf is the free in-place counterpart of PutIf: it rewrites key's
// value only if present with epoch ifEpoch, returns ErrNotFound if
// absent, and costs no DHT-lookup.
func WriteIf(ctx context.Context, d DHT, key string, v Value, ifEpoch uint64) error {
	return dht.DoWriteIf(ctx, d, key, v, ifEpoch)
}

// CrashPoints is a substrate wrapper carrying a scripted, deterministic
// fault schedule — the tool behind the repository's torn-mutation tests
// and the churn ablation (A7). Build one with WithCrashPoints.
type CrashPoints = dht.CrashPoints

// CrashRule is one entry of a CrashPoints schedule: which operation class
// and keys it matches, which match fires it (N, 1-based; 0 = every
// match), and what firing does — fail before the operation, or after it
// took effect (After, the classic lost-acknowledgement window), once or
// as a permanent process death (Halt).
type CrashRule = dht.CrashRule

// OpKind selects the operation class a CrashRule matches.
type OpKind = dht.OpKind

// Operation classes for CrashRule.Op.
const (
	OpAny      = dht.OpAny
	OpGet      = dht.OpGet
	OpPut      = dht.OpPut
	OpRemove   = dht.OpRemove
	OpWrite    = dht.OpWrite
	OpPutIf    = dht.OpPutIf
	OpCreateIf = dht.OpCreateIf
	OpRemoveIf = dht.OpRemoveIf
	OpWriteIf  = dht.OpWriteIf
)

// ErrCrashed reports an operation failed by an injected crash schedule.
// It is deliberately not transient: a crashed client does not retry.
var ErrCrashed = dht.ErrCrashed

// WithCrashPoints wraps a substrate with a deterministic fault schedule:
// the same operation sequence always fails at the same points, making
// torn index states reproducible in tests and experiments. Rules are
// evaluated in order; the first firing rule decides the outcome.
func WithCrashPoints(d DHT, rules ...CrashRule) *CrashPoints {
	return dht.WithCrashPoints(d, rules...)
}

// Transient-fault classification, shared by Policy and callers that
// inspect errors themselves.
var (
	// ErrTransient marks an error as a transient substrate fault; wrap
	// with MarkTransient, test with errors.Is or IsTransient.
	ErrTransient = dht.ErrTransient
	// ErrRetriesExhausted reports that a transient fault persisted
	// through every attempt a Policy allows.
	ErrRetriesExhausted = dht.ErrRetriesExhausted
)

// IsTransient reports whether an error is a transient substrate fault
// worth retrying: unreachable peers and network timeouts are transient;
// ErrNotFound and context cancellation/expiry are permanent.
func IsTransient(err error) bool { return dht.IsTransient(err) }

// MarkTransient wraps an error so IsTransient reports true, for custom
// DHT implementations surfacing their own fault types.
func MarkTransient(err error) error { return dht.MarkTransient(err) }

// ChordRing is the Chord substrate (in-process simulation with
// per-message accounting, joins/leaves/failures and stabilization).
type ChordRing = chord.Ring

// ChordConfig tunes a ChordRing (successor list length, replication,
// seed).
type ChordConfig = chord.Config

// KademliaNetwork is the Kademlia substrate.
type KademliaNetwork = kademlia.Network

// KademliaConfig tunes a KademliaNetwork (bucket size K, lookup
// concurrency alpha, seed).
type KademliaConfig = kademlia.Config

// NewLocalDHT returns the single-process substrate: one flat map with DHT
// semantics. It is the right choice for tests, embedding, and paper-scale
// experiments on one machine.
func NewLocalDHT() DHT { return dht.NewLocal() }

// NewChordDHT builds an n-node Chord ring and returns it; the returned
// ring is itself a DHT, and its methods (AddNode, RemoveNode, Fail,
// Stabilize) drive churn experiments.
func NewChordDHT(n int, cfg ChordConfig) (*ChordRing, error) {
	return chord.NewRing(n, cfg)
}

// NewKademliaDHT builds an n-node Kademlia network; the returned network
// is itself a DHT.
func NewKademliaDHT(n int, cfg KademliaConfig) (*KademliaNetwork, error) {
	return kademlia.NewNetwork(n, cfg)
}

// RegisterGobTypes registers the index's stored types with encoding/gob,
// for a program that gob-encodes a bucket held in an interface value (a
// dht.Value), such as a custom substrate that serialises values with
// gob. Nothing in this module needs it: tcpnet ships and stores buckets
// in their own binary format.
func RegisterGobTypes() {
	gob.Register(&ilht.Bucket{})
}
