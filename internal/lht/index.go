package lht

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/keyspace"
	"lht/internal/metrics"
	"lht/internal/record"
)

var (
	// ErrKeyNotFound reports an exact-match query or deletion for a data
	// key that is not indexed.
	ErrKeyNotFound = errors.New("lht: data key not found")
	// ErrEmpty reports a min/max query against an index with no records.
	ErrEmpty = errors.New("lht: index is empty")
	// ErrCorrupt reports an index state the algorithms cannot explain,
	// e.g. a bucket missing where the naming invariants require one. It
	// indicates a bug or an unsynchronized concurrent writer.
	ErrCorrupt = errors.New("lht: corrupt index state")
)

// keyNotFound is the ErrKeyNotFound of one data key. It reads as
// fmt.Errorf("%w: %v", ErrKeyNotFound, key) does but formats only when
// asked, so a miss allocates just the error.
type keyNotFound float64

func (k keyNotFound) Error() string { return fmt.Sprintf("%v: %v", ErrKeyNotFound, float64(k)) }

func (k keyNotFound) Unwrap() error { return ErrKeyNotFound }

// Cost reports the DHT traffic of a single index operation; see
// metrics.Cost.
type Cost = metrics.Cost

// Index is an LHT index over a DHT substrate. Create one with New.
//
// Concurrency contract: every operation is safe to call concurrently from
// any number of goroutines — readers and writers alike, across any number
// of Index clients sharing one substrate. Mutations are optimistic: each
// bucket carries a monotonic epoch, every read-modify-write commits with
// an epoch-guarded conditional put (dht.Conditional), and a writer that
// loses the compare-and-swap re-fetches the bucket, rebases its mutation
// on the winner, and retries until it commits or its context ends. Lost
// rounds and retries are visible in the Write counter group of Metrics.
// Structural mutations (splits, merges) are likewise fenced: the
// write-ahead intent takes the bucket's next epoch, so racing writers
// either see the intent (and help complete it idempotently) or conflict
// and retry — two clients racing one split converge on one winner and one
// idempotent repair. A one-record write to a peer that patches (tcpnet)
// needs no epoch: the storing peer applies its patch, under its store
// lock, iff the leaf it holds is one the write is meant for — untorn,
// covering the key, short of the weight bound — and otherwise answers as
// a probe, and the writer goes on from that answer.
type Index struct {
	d     dht.DHT
	raw   dht.DHT // bare substrate, below all wrapping; membership probes
	cfg   Config
	c     *metrics.Counters
	cache *leafCache // nil unless Config.LeafCache

	mu        sync.Mutex
	alphaSum  float64 // sum over splits of (remote bucket weight / theta)
	overflows int64   // splits skipped because the leaf was already at depth D
}

// New creates an index client over d. If the substrate does not yet hold
// an LHT (no bucket under the virtual-root key "#"), New bootstraps the
// empty tree: the single leaf "#0" stored under its name "#". Bootstrap
// traffic is not charged to the index counters.
//
// The index runs over dht.Stack(d, ...), which states the order of the
// retry, instrumentation and hedging layers that cfg.Policy,
// cfg.TraceSink and cfg.HedgeAfter switch on, and why the cost model
// needs that order.
func New(d dht.DHT, cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctx := context.Background()
	if _, err := d.Get(ctx, bitlabel.Root.Key()); err != nil {
		if !errors.Is(err, dht.ErrNotFound) {
			return nil, fmt.Errorf("lht: probe substrate: %w", err)
		}
		// Create-if-absent: two clients bootstrapping concurrently converge
		// on one empty tree instead of the loser clobbering a root the
		// winner may already have grown.
		err := d.CreateIf(ctx, bitlabel.Root.Key(), &Bucket{Label: bitlabel.TreeRoot})
		if err != nil && !errors.Is(err, dht.ErrCASConflict) {
			return nil, fmt.Errorf("lht: bootstrap: %w", err)
		}
	}
	c := &metrics.Counters{}
	if cfg.Aggregate != nil {
		c.Chain(cfg.Aggregate)
	}
	stack := dht.Stack(d, c, cfg.HedgeAfter, cfg.TraceSink, cfg.Policy)
	ix := &Index{d: stack, raw: d, cfg: cfg, c: c}
	if cfg.LeafCache {
		ix.cache = newLeafCache(cfg.leafCacheSize())
	}
	return ix, nil
}

// Config returns the index configuration.
func (ix *Index) Config() Config { return ix.cfg }

// Metrics returns the cumulative cost counters of this index client,
// grouped by concern (Lookup, Cache, Retry, Batch, Repair, Write, Load,
// Health, Membership) plus the per-operation-class latency histograms
// and phase-attribution matrix (Latency).
func (ix *Index) Metrics() metrics.Snapshot { return ix.c.Snapshot() }

// Counters exposes the live counter set, e.g. to serve a /metrics
// endpoint without snapshotting on every increment.
func (ix *Index) Counters() *metrics.Counters { return ix.c }

// AlphaMean returns the average alpha (remote-bucket fraction of
// theta_split, section 8.2) over all splits performed by this client, and
// the number of splits. It returns 0, 0 before the first split.
func (ix *Index) AlphaMean() (mean float64, splits int64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	n := ix.c.Snapshot().Lookup.Splits
	if n == 0 {
		return 0, 0
	}
	return ix.alphaSum / float64(n), n
}

// Overflows returns the number of insertions that found a full leaf
// already at maximum depth D, where splitting is impossible and the bucket
// is allowed to exceed theta_split. A nonzero value means Depth is too
// small for the data size.
func (ix *Index) Overflows() int64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.overflows
}

// fetchBucket is the shared fetch-and-type-assert behind both cost
// paths (getBucket charges a *Cost, a range's probeLeaf its collector).
// Every bucket fetched from the DHT is a current leaf, so the fetch is
// also where the leaf cache learns: any successful get notes the leaf's
// label, covering lookup probes, range forwarding, scans and walks.
func (ix *Index) fetchBucket(ctx context.Context, key string) (*Bucket, error) {
	v, err := ix.d.Get(ctx, key)
	return ix.bucketOf(v, err, key)
}

// bucketOf type-asserts one get outcome (per-op or one slot of a batched
// multi-get) into a bucket, teaching the leaf cache on success.
func (ix *Index) bucketOf(v dht.Value, err error, key string) (*Bucket, error) {
	b, err := asBucket(v, err, key)
	if err == nil {
		ix.cacheNote(b.Label)
	}
	return b, err
}

// asBucket type-asserts one get outcome into a bucket.
func asBucket(v dht.Value, err error, key string) (*Bucket, error) {
	if err != nil {
		return nil, err
	}
	b, ok := v.(*Bucket)
	if !ok {
		return nil, fmt.Errorf("%w: key %q holds %T, not a bucket", ErrCorrupt, key, v)
	}
	return b, nil
}

// getBucket fetches and type-asserts a bucket, charging cost.
func (ix *Index) getBucket(ctx context.Context, key string, cost *Cost) (*Bucket, error) {
	cost.Lookups++
	return ix.fetchBucket(ctx, key)
}

// probeBucket is getBucket for Algorithm 2's probes, every one of which
// lookupLeaf's loop makes, the one the leaf cache names included. The
// search reads a probed bucket's records only when it covers delta (or is
// torn, and gets repaired); any other bucket says just "a leaf lives under
// this name, so the probed prefix is an internal node". The probe therefore
// carries delta as its hint, and a substrate that is a dht.Prober may
// answer a non-covering leaf with its BucketHeader alone — still one
// round trip and one DHT-lookup. That reply comes back as nil, nil, its
// label and a nil error: the leaf exists, is untorn, does not cover delta,
// and the leaf cache has learnt its label exactly as from a whole bucket.
// The label is the root's for every other reply.
//
// With recordOnly (Search, Insert and Delete) the hint also says that of
// the covering leaf only delta's record is wanted, and such a substrate
// may answer that leaf with a BucketRecord, returned in place of the
// bucket. The reply does not carry the record's key, which is the hinted
// one bit for bit (a key stored as -0 comes in its whole bucket), so it is
// filled in here: delta, its sign bit cleared. A short reply is trusted
// no further than its own claim: a header that covers delta, a
// BucketRecord that was not asked for or does not cover delta, is
// dropped and the bucket fetched whole with a plain, charged get.
//
// A write w may ride the probe with patch (see lookupLeaf): the probe is
// then a dht.Patch, whose hint asks for what the write needs should the
// peer not apply it — a delete the record, an upsert the bucket, which the
// peer refuses only at the weight bound — and an applied patch returns the
// peer's reply as the third result. A refused one (or one that found no
// bucket) is the probe's answer and is taken as such, with one rule more:
// a delete's record reply that found the record is one the peer should
// have applied, and is dropped. Each ride is counted, applied or refused
// (metrics.RidesApplied, metrics.RidesRefused).
func (ix *Index) probeBucket(ctx context.Context, key string, delta float64, recordOnly bool, w *write, patch []byte, cost *Cost) (*Bucket, *BucketRecord, bitlabel.Label, dht.Value, error) {
	cost.Lookups++
	var v dht.Value
	var err error
	refused := false
	if patch == nil {
		v, err = dht.DoProbe(ctx, ix.d, key, ProbeHint(delta, recordOnly))
	} else {
		recordOnly = !w.upsert
		if v, err = dht.DoPatch(ctx, ix.d, key, ProbeHint(delta, recordOnly), patch); err == nil {
			ix.c.Add(metrics.RidesApplied, 1)
			return nil, nil, bitlabel.Root, v, nil
		}
		if refused = errors.Is(err, dht.ErrPatchRefused); refused || errors.Is(err, dht.ErrNotFound) {
			ix.c.Add(metrics.RidesRefused, 1)
		}
		if refused {
			err = nil
		}
	}
	if err != nil {
		return nil, nil, bitlabel.Root, nil, err
	}
	switch r := v.(type) {
	case *BucketHeader:
		if !keyspace.IntervalOf(r.Label).Contains(delta) {
			ix.cacheNote(r.Label)
			return nil, nil, r.Label, nil, nil
		}
	case *BucketRecord:
		if recordOnly && keyspace.IntervalOf(r.Label).Contains(delta) && !(r.Found && refused) {
			ix.cacheNote(r.Label)
			r.Record.Key = math.Abs(delta) // the hint's key: -0 reads as +0
			return nil, r, bitlabel.Root, nil, nil
		}
	default:
		b, err := ix.bucketOf(v, nil, key)
		return b, nil, bitlabel.Root, nil, err
	}
	// No peer sends this. Whatever did, the search needs the bucket.
	b, err := ix.getBucket(ctx, key, cost)
	return b, nil, bitlabel.Root, nil, err
}

// LookupBucket implements LHT-lookup (Algorithm 2): a binary search over
// the prefix lengths of mu(delta, D) that returns the leaf bucket covering
// delta. The search probes the *names* f_n(x) of candidate prefixes: a
// failed DHT-get proves every prefix sharing that name is too long
// (longer bound becomes len(f_n(x))); a bucket that does not cover delta
// proves x is an internal node (shorter bound becomes len(f_nn(x, mu))).
//
// The returned Cost counts one lookup per DHT-get; Steps equals Lookups
// because the probes are sequential.
func (ix *Index) LookupBucket(delta float64) (*Bucket, Cost, error) {
	return ix.LookupBucketContext(context.Background(), delta)
}

// LookupBucketContext is LookupBucket with a caller-supplied context
// bounding the underlying DHT traffic.
func (ix *Index) LookupBucketContext(ctx context.Context, delta float64) (b *Bucket, cost Cost, err error) {
	ctx, scope := ix.c.BeginOp(ctx, metrics.OpGet, metrics.PhaseProbe)
	defer func() { scope.Done(err) }()
	f, cost, err := ix.lookupLeaf(ctx, delta, false, nil)
	return f.b, cost, err
}

// leaf is where a lookup ended: the leaf covering its key, stored under
// key, as the whole bucket (b) or as its peer's record reply (rec); or,
// for a write whose patch the leaf's peer applied (patched), the write
// done, with b the leaf as committed when maintenance may be due (or cut,
// what its split moves).
type leaf struct {
	key     string
	b       *Bucket
	rec     *BucketRecord
	cut     *Cut
	patched bool
}

// lookupLeaf is Algorithm 2. It ends at the leaf covering delta, which it
// returns as the whole bucket or, only when recordOnly allows it, as the
// storing peer's BucketRecord for delta (see probeBucket): exactly one of
// the two is set on success, and both searches probe the same names at
// the same cost. The leaf cache only picks the search's first probe. A
// hit probes the name of the deepest cached leaf covering delta, which
// ends the search at one DHT-get when the leaf is still there; any other
// outcome is a soundly detected stale entry, which is dropped, and the
// probe's answer bounds the search as any probe's does. A miss brackets
// the search instead: the cached leaves beside delta's raise its lower
// bound and pick its first probe (see leafCache.find). Either way cached
// results are always identical to the uncached path.
//
// A write w (nil for a read) rides the probe the cache names — the cached
// leaf's name on a hit, the bracket's first probe on a miss — which is
// the search's last almost every time, and every later probe that
// lastProbe picks as the search's last. Its patch travels with the probe
// (ride), and a peer that applies it ends the search with the write done
// (committed). One that does not answers the probe, and the search goes
// on from that answer as from any probe's, at the same cost.
func (ix *Index) lookupLeaf(ctx context.Context, delta float64, recordOnly bool, w *write) (leaf, Cost, error) {
	// Every probe of the binary search is PhaseProbe traffic; repairTorn
	// overrides the phase for the repair writes it issues. A Get opens its
	// scope in PhaseProbe, so for it this returns ctx unchanged.
	ctx = metrics.WithPhase(ctx, metrics.PhaseProbe)
	var cost Cost
	mu, err := keyspace.Mu(delta, ix.cfg.Depth)
	if err != nil {
		return leaf{}, cost, err
	}
	// Every probe's name is a prefix of mu, so its key is a prefix of
	// mu's: one string serves the whole search.
	muKey := mu.Key()
	lo, hi := 1, ix.cfg.Depth
	first := 0                // the first probe's depth, when the cache picks one
	var cached bitlabel.Label // the cached leaf that first probe asks for, on a hit
	met := 0                  // the depth of the last leaf met that did not cover delta
	if ix.cache != nil {
		if x, ok, br := ix.cache.find(mu); ok {
			cached, first = x, x.Len()
		} else {
			// A miss. Cached leaves below mu's prefix of length br.lo-1
			// leave mu past it, so if they are fresh that prefix is an
			// internal node and delta's leaf is deeper; their mean depth
			// is the first guess. A stale bracket costs probes, never a
			// result: success still needs a covering leaf, and an
			// exhausted attempt restarts from [1, D] below.
			ix.c.Add(metrics.CacheMisses, 1)
			if br.lo > 0 {
				lo, first = br.lo, min(max(br.first, br.lo), hi)
			}
		}
	}
	// Algorithm 2's case analysis is sound against a static tree, but the
	// probes of one search are not atomic: a concurrent split or merge
	// landing between probes can make the derived bounds mutually
	// inconsistent (a NotFound-tightened hi excludes a leaf created just
	// after the probe), exhausting the search with no covering leaf. No
	// interleaving can produce a wrong success — a returned bucket is a
	// genuine leaf covering delta, and stale ones lose their commit CAS —
	// so an exhausted search restarts from the full range and re-observes
	// the (always valid) current tree. The restart budget keeps genuine
	// corruption (a bucket missing where the naming invariants require
	// one) a detected error rather than a livelock; a healthy tree with
	// one writer never restarts, preserving the paper's lookup costs.
	for attempt := 0; ; attempt++ {
		for lo <= hi {
			mid := lo + (hi-lo)/2
			var patch []byte
			var whole int
			if first > 0 || w != nil && lastProbe(mu, lo, mid, hi, met) {
				patch, whole = ix.ride(w)
			}
			if first > 0 {
				mid, first = first, 0
			}
			x := mu.Prefix(mid)
			// On a cache hit the first probe asks for the cached leaf, and
			// the cache hears how that went (cacheProbed).
			hit := x == cached
			cached = bitlabel.Root
			key := muKey[:x.Name().Len()+1]
			b, rec, label, v, err := ix.probeBucket(ctx, key, delta, recordOnly, w, patch, &cost)
			if v != nil {
				f, label, err := ix.committed(ctx, key, w, whole, v, &cost)
				if hit {
					ix.cacheProbed(x, true, label)
				}
				cost.Steps = cost.Lookups
				return f, cost, err
			}
			if b != nil && b.Torn() {
				// In-line read-repair: a fetched bucket carrying a pending
				// split/merge intent is completed (or rolled back) before the
				// search interprets it, so a torn tree converges back to the
				// never-crashed structure under ordinary query traffic.
				b, err = ix.repairTorn(ctx, key, b, &cost)
				// The repair changed tree structure, so bounds derived from
				// probes of the pre-repair tree may exclude the new leaves
				// (e.g. a split's remote child sits one level below an hi set
				// by probing its then-absent key). Restart from the full
				// range; the repaired bucket's own case analysis below is
				// computed against the current tree and stays valid.
				lo, hi = 1, ix.cfg.Depth
			}
			covers := err == nil && (rec != nil || b != nil && b.Contains(delta))
			// label is the probed leaf's, when it has one (a header's came
			// with it).
			if rec != nil {
				label = rec.Label
			} else if b != nil {
				label = b.Label
			}
			if hit && (err == nil || errors.Is(err, dht.ErrNotFound)) {
				ix.cacheProbed(x, covers, label)
			}
			switch {
			case errors.Is(err, dht.ErrNotFound):
				// No leaf is named f_n(x): every prefix of mu in
				// (len(f_n(x)), len(x)] shares that name and is ruled out
				// (a cached leaf's name goes when a merge removes it).
				hi = x.Name().Len()
			case err != nil:
				cost.Steps = cost.Lookups
				return leaf{}, cost, err
			case covers:
				cost.Steps = cost.Lookups
				return leaf{key: key, b: b, rec: rec}, cost, nil
			default:
				// The leaf named f_n(x) does not cover delta, so x is an
				// internal node (a cached leaf is once it splits); the next
				// candidate is the first prefix of mu past x's trailing run
				// (it has a different name).
				met = min(label.Len(), ix.cfg.Depth)
				next, ok := x.NextName(mu)
				if !ok {
					// mu continues with x's last bit to its full depth D, so
					// no longer candidate exists against the probed tree;
					// either corruption or a racing merge — restart decides.
					lo = hi + 1
					continue
				}
				lo = next.Len()
			}
		}
		if attempt+1 >= lookupRestarts || ctx.Err() != nil {
			break
		}
		lo, hi = 1, ix.cfg.Depth
	}
	cost.Steps = cost.Lookups
	if err := ctx.Err(); err != nil {
		return leaf{}, cost, err
	}
	return leaf{}, cost, fmt.Errorf("%w: lookup %v found no covering leaf", ErrCorrupt, delta)
}

// lastProbe guesses whether the probe of mu's prefix of length mid, with
// the search's bounds at [lo, hi], is the search's last, for a write to
// ride: certainly when one name is left; once the search has met a leaf
// that did not cover delta, at depth met, when the probe asks for the name
// of mu's prefix at that depth, since the leaves a search meets lie beside
// delta's and neighbouring leaves sit at about one depth; before that,
// when two names are left. On the ledger's tree a write rides about 0.79
// probes, and about 97 rides in 100 are on the search's last.
func lastProbe(mu bitlabel.Label, lo, mid, hi, met int) bool {
	switch names := mu.Names(lo, hi); {
	case names == 1:
		return true
	case met == 0:
		return names == 2
	}
	return mu.Names(min(met, mid), max(met, mid)) == 1
}

// lookupRestarts bounds how many times one lookup may re-run its binary
// search after exhausting it against a tree that mutated mid-search.
const lookupRestarts = 8

// Search is the exact-match query of section 5: an LHT lookup that returns
// the record with the given data key, or ErrKeyNotFound.
func (ix *Index) Search(delta float64) (record.Record, Cost, error) {
	return ix.SearchContext(context.Background(), delta)
}

// SearchContext is Search with a caller-supplied context.
func (ix *Index) SearchContext(ctx context.Context, delta float64) (rec record.Record, cost Cost, err error) {
	ctx, scope := ix.c.BeginOp(ctx, metrics.OpGet, metrics.PhaseProbe)
	defer func() { scope.Done(err) }()
	f, cost, err := ix.lookupLeaf(ctx, delta, true, nil)
	if err != nil {
		return record.Record{}, cost, err
	}
	if r := f.rec; r != nil {
		if r.Found {
			return r.Record, cost, nil
		}
	} else if i := record.FindByKey(f.b.Records, delta); i >= 0 {
		return f.b.Records[i], cost, nil
	}
	return record.Record{}, cost, keyNotFound(delta)
}

// Insert adds a record (replacing any record with the same key). Per
// section 5 it is an LHT lookup followed by one DHT-put toward the
// bucket's name; if the put saturates the bucket, the leaf splits
// (Algorithm 1), which costs one more DHT-lookup to push the remote half
// out. An insertion causes at most one split, avoiding cascades.
func (ix *Index) Insert(rec record.Record) (Cost, error) {
	return ix.InsertContext(context.Background(), rec)
}

// InsertContext is Insert with a caller-supplied context. It runs the
// commit round Delete shares (commit): optimistic, re-run whole on a lost
// compare-and-swap (the leaf may have split or merged under us) until the
// insert commits or ctx ends, then the split its weight asks for.
func (ix *Index) InsertContext(ctx context.Context, rec record.Record) (cost Cost, err error) {
	if err := keyspace.CheckKey(rec.Key); err != nil {
		return Cost{}, err
	}
	ctx, scope := ix.c.BeginOp(ctx, metrics.OpInsert, metrics.PhaseOther)
	defer func() { scope.Done(err) }()
	return ix.commit(ctx, &write{rec: rec, upsert: true})
}

// commit is the commit round of a one-record write, Insert's or Delete's:
// reach the leaf covering the key, then PutIf it back mutated whole
// (write.apply) or have its peer apply the write's patch; start over on a
// lost compare-and-swap or a leaf moved under the patch; once committed,
// split at theta_split (an upsert) or merge below theta_merge (a delete).
//
// Which form the write-back takes follows from what the search ended in,
// never from asking the substrate what it can do (reach). A whole bucket
// in hand (every in-process substrate, a hidden-capability stack, a torn
// leaf just repaired) is cloned, changed and PutIf'd. Where the storing
// peer answers from its bytes, the write ships the one record as a patch,
// built once, which rides the search's last probe when that probe is the
// one the leaf cache names or the one lookupLeaf guesses is last
// (lastProbe), and otherwise follows its record reply; the peer builds the
// same bytes the PutIf would have carried — same stored bucket, one lookup
// fewer when it rode.
func (ix *Index) commit(ctx context.Context, w *write) (Cost, error) {
	var cost Cost
	for {
		f, err := ix.reach(ctx, w, &cost)
		if err != nil && err != errLeafMoved {
			return cost, err
		}
		if f.rec != nil {
			return cost, keyNotFound(w.rec.Key)
		}
		if b := f.b; err == nil && !f.patched && w.upsert && ix.full(b, w.rec.Key) {
			// The record would take the leaf past the weight bound, where
			// a patch's peer refuses it: split, then start over.
			if err = ix.maintain(ctx, f, &cost); err != nil {
				return cost, err
			}
			err = errLeafMoved
		} else if err == nil && !f.patched {
			if f.b, err = w.apply(b); err != nil {
				return cost, err
			}
			cost.Lookups++
			cost.Steps++
			if err = ix.d.PutIf(ctx, f.key, f.b, b.Epoch); errors.Is(err, dht.ErrCASConflict) {
				ix.cacheDrop(b.Label)
			}
		}
		if errors.Is(err, dht.ErrCASConflict) || err == errLeafMoved {
			ix.c.Add(metrics.WriterRetries, 1)
			if cerr := ctx.Err(); cerr != nil {
				return cost, cerr
			}
			continue
		}
		if err != nil {
			return cost, fmt.Errorf("lht: write back %q: %w", f.key, err)
		}
		switch nb := f.b; {
		case f.cut == nil && nb == nil: // patched, and on the near side of maintenance
		case f.cut != nil, w.upsert && nb.Weight() >= ix.cfg.SplitThreshold,
			!w.upsert && ix.cfg.MergeThreshold > 0 && nb.Label.Len() >= 2 && nb.Weight() < ix.cfg.MergeThreshold:
			return cost, ix.maintain(ctx, f, &cost)
		}
		return cost, nil
	}
}

// maintain splits the leaf f when it comes cut or weighs theta_split or
// more (an upsert's), and merges it otherwise (a delete's, under
// theta_merge <= theta_split), adding the maintenance's cost to the
// write's and counting its lookups as maintenance lookups.
func (ix *Index) maintain(ctx context.Context, f leaf, cost *Cost) error {
	var mcost Cost
	var err error
	switch {
	case f.cut != nil:
		mcost, err = ix.split(ctx, f.key, f.cut, f.patched)
	case f.b.Weight() >= ix.cfg.SplitThreshold:
		marked := *f.b // the leaf's header, marked, over its records, which are read-only
		marked.Epoch, marked.Pending = marked.Epoch+1, Pending{Kind: PendingSplit}
		mcost, err = ix.split(ctx, f.key, splitHalves(&marked), f.patched)
	default:
		mcost, err = ix.merge(ctx, f.key, f.b, f.patched)
	}
	cost.Add(mcost)
	ix.c.Add(metrics.MaintLookups, int64(mcost.Lookups))
	return err
}

// write is a one-record write on its way to the leaf covering its key:
// the record an Insert stores, or the key a Delete removes (rec.Key).
type write struct {
	rec    record.Record
	upsert bool
	patch  []byte // the write as a patch, once built (patchOf)
}

// apply is w done to a private clone of the leaf b (the substrate may hand
// concurrent readers the very pointer it stores; the in-process
// substrates do), at b's next epoch: the record upserted, or its key's
// record removed — ErrKeyNotFound when b holds none.
func (w *write) apply(b *Bucket) (*Bucket, error) {
	i := record.FindByKey(b.Records, w.rec.Key)
	if i < 0 && !w.upsert {
		return nil, keyNotFound(w.rec.Key)
	}
	nb := b.Clone()
	switch n := len(nb.Records); {
	case !w.upsert:
		nb.Records[i] = nb.Records[n-1]
		nb.Records = nb.Records[:n-1]
	case i >= 0:
		nb.Records[i] = w.rec
	default:
		nb.Records = append(nb.Records, w.rec)
	}
	nb.Epoch++
	return nb, nil
}

// reach runs w's search and, when that ended in a record reply the
// write's patch did not ride, follows it with the patch (patchLeaf). A
// delete's record reply that found no record ends it there.
func (ix *Index) reach(ctx context.Context, w *write, cost *Cost) (leaf, error) {
	f, lcost, err := ix.lookupLeaf(ctx, w.rec.Key, true, w)
	cost.Add(lcost)
	if err != nil || f.rec == nil || !w.upsert && !f.rec.Found {
		return f, err
	}
	return ix.patchLeaf(ctx, f.key, f.rec.Label, w, cost)
}

// patchOf is w as the patch of the leaf covering its key, and the weight
// at which that patch asks for the new bucket back whole. The patch does
// not depend on the leaf, so it is built once per write and shared by
// every probe it rides and by patchLeaf, each of which sets or clears its
// want-label bit in place before sending it. A delete asks at the merge
// threshold whatever the leaf: the root leaf, which never merges, then
// comes back whole while it weighs less, and DeleteContext's merge check
// passes it by.
func (ix *Index) patchOf(w *write) ([]byte, int) {
	whole := ix.cfg.SplitThreshold
	if !w.upsert {
		whole = ix.cfg.MergeThreshold
	}
	switch {
	case w.patch != nil:
		w.patch[0] &^= patchWantLabel
	case w.upsert:
		w.patch = UpsertPatch(w.rec, whole, ix.cfg.Depth)
	default:
		w.patch = DeletePatch(w.rec.Key, whole)
	}
	return w.patch, whole
}

// ride is patchOf for a probe a write rides, whose search has not seen
// the leaf yet, so its acknowledgement names it; nil for no write.
func (ix *Index) ride(w *write) ([]byte, int) {
	if w == nil {
		return nil, 0
	}
	patch, whole := ix.patchOf(w)
	return WantLabel(patch), whole
}

// full reports whether b, a whole leaf in a writer's hand, is one a
// patch's peer refuses w's record for: the record is new to it and would
// take it past the weight bound (overweight) at a depth it can still
// split at. The writer splits it first (see "Patches" in bucket.go).
func (ix *Index) full(b *Bucket, key float64) bool {
	d := b.Label.Len()
	return !b.Torn() && d < ix.cfg.Depth && b.Weight() >= ix.cfg.SplitThreshold+d && record.FindByKey(b.Records, key) < 0
}

// errLeafMoved is patchLeaf's word for "start the round over".
var errLeafMoved = errors.New("lht: leaf moved under a patch")

// patchLeaf commits w to the leaf under key, whose record reply (of label)
// ended w's search, as a dht.Patch: the storing peer upserts w.rec, or
// deletes its key's record, in the bytes it stores, iff they are still a
// leaf the write applies to. It stands for the whole-bucket arm's PutIf:
// one lookup, applied or not, and an applied reply is read as committed
// reads it.
//
// Refused, the patch was a probe of the leaf, and its answer says why. A
// whole untorn bucket covering the key (the peer refused the record at the
// weight bound, or does not patch) is returned for the whole-bucket arm to
// write on; a delete's record reply that still finds the record is fetched
// whole with a plain, charged get, as the search would; anything else —
// the leaf gone, torn, split or merged since the reply — is errLeafMoved:
// the round starts over, as from a lost compare-and-swap.
func (ix *Index) patchLeaf(ctx context.Context, key string, label bitlabel.Label, w *write, cost *Cost) (leaf, error) {
	patch, whole := ix.patchOf(w)
	cost.Lookups++
	cost.Steps++
	v, err := dht.DoPatch(ctx, ix.d, key, ProbeHint(w.rec.Key, !w.upsert), patch)
	if err == nil {
		lookups := cost.Lookups
		f, _, err := ix.committed(ctx, key, w, whole, v, cost)
		cost.Steps += cost.Lookups - lookups
		if err != nil {
			err = fmt.Errorf("lht: write back %q: %w", key, err)
		}
		return f, err
	}
	if r, ok := v.(*BucketRecord); ok && errors.Is(err, dht.ErrPatchRefused) && (w.upsert || r.Found) && keyspace.IntervalOf(r.Label).Contains(w.rec.Key) {
		// The peer should have applied the write here; no peer sends this.
		v, err = ix.d.Get(ctx, key)
		cost.Lookups++
		cost.Steps++
	}
	if errors.Is(err, dht.ErrPatchRefused) {
		err = nil
	}
	switch b, ok := v.(*Bucket); {
	case err == nil && ok && !b.Torn() && b.Contains(w.rec.Key):
		ix.cacheNote(b.Label)
		return leaf{key: key, b: b}, nil
	case err == nil || errors.Is(err, dht.ErrNotFound):
		ix.cacheDrop(label)
		return leaf{}, errLeafMoved
	}
	return leaf{}, fmt.Errorf("lht: write back %q: %w", key, err)
}

// committed reads v, the storing peer's reply to w's patch of the leaf
// under key, which it applied; whole is the weight at which the patch
// asked for the new bucket back. It returns the leaf as committed when
// maintenance may be due — the bucket of a reply that crossed whole, or a
// split reply's Cut — and the leaf's label when the reply named it (the
// root label when not).
//
// A reply is trusted no further than a probed bucket: an acknowledgement
// must be on the near side of whole, a labelled one (LeafAck) name a leaf
// stored under key that covers the key, a bucket be such a leaf, untorn,
// holding the record (an upsert) or not (a delete), and a Cut an upsert's
// of such a leaf. Anything else is dropped and the leaf fetched with a
// plain, charged get. The write is committed all the same; what
// maintenance may run on is the leaf as stored, if it still is one.
func (ix *Index) committed(ctx context.Context, key string, w *write, whole int, v dht.Value, cost *Cost) (leaf, bitlabel.Label, error) {
	delta := w.rec.Key
	f := leaf{key: key, patched: true}
	switch a := v.(type) {
	case PatchAck:
		if w.near(whole, a.Records) {
			return f, bitlabel.Root, nil
		}
	case *LeafAck:
		if w.near(whole, a.Records) && stores(key, a.Label, delta) {
			ix.cacheNote(a.Label)
			return f, a.Label, nil
		}
	case *Bucket:
		if stores(key, a.Label, delta) && !a.Torn() && (record.FindByKey(a.Records, delta) >= 0) == w.upsert {
			ix.cacheNote(a.Label)
			return leaf{key: key, b: a, patched: true}, a.Label, nil
		}
	case *Cut:
		if w.upsert && stores(key, a.leaf.Label, delta) {
			ix.cacheNote(a.leaf.Label)
			return leaf{key: key, cut: a, patched: true}, a.leaf.Label, nil
		}
	}
	// No peer sends this.
	nb, err := ix.getBucket(ctx, key, cost)
	switch {
	case errors.Is(err, dht.ErrNotFound):
		return f, bitlabel.Root, nil
	case err != nil:
		return f, bitlabel.Root, err
	case nb.Torn() || !nb.Contains(delta):
		return f, nb.Label, nil // already being restructured by someone else
	}
	return leaf{key: key, b: nb, patched: true}, nb.Label, nil
}

// near reports whether a leaf left holding n records by w is on the near
// side of whole, the weight at which w's patch asks for the bucket back.
func (w *write) near(whole, n int) bool {
	if w.upsert {
		return n+1 < whole
	}
	return n+1 >= whole
}

// stores reports whether label is a leaf that covers delta and is stored
// under key.
func stores(key string, label bitlabel.Label, delta float64) bool {
	return keyspace.IntervalOf(label).Contains(delta) && label.Name().IsKey(key)
}

// inPlaceOps holds the in-place patches back to back, read-only: a step
// sends a slice of it instead of allocating its one byte.
var inPlaceOps = [...]byte{patchMarkSplit, patchCommitSplit, patchClearMerge}

// writeInPlace commits one of the free in-place steps of a split or merge
// — the split's intent mark and its commit, the merge's intent clear —
// that leave want, of n records, stored under key, guarded by ifEpoch. On
// the patched arm (inPlace: the write that led here was a patch) it ships
// the step's one-byte patch op, from which the storing peer builds want's
// bytes out of its own; a refusal falls back to the WriteIf of want, at no
// lookup, or, where this writer holds fewer than n of want's records (a
// Cut's), is a lost compare-and-swap. Off it, it is that WriteIf.
//
// The peer acknowledges with the record count, which must be n. An
// acknowledgement that is not costs one plain, charged get, as in
// patchLeaf: if what is stored is want's leaf at want's epoch and intent,
// the step stands and that bucket is returned for the mutation to go on
// from; if it is anything else, the step is reported as the conflict a
// WriteIf would have met there, and the caller yields as from one.
func (ix *Index) writeInPlace(ctx context.Context, key string, op byte, want *Bucket, n int, ifEpoch uint64, inPlace bool, cost *Cost) (*Bucket, error) {
	if !inPlace {
		return want, ix.d.WriteIf(ctx, key, want, ifEpoch)
	}
	v, err := dht.DoWritePatchIf(ctx, ix.d, key, inPlaceOps[op-patchMarkSplit:][:1], ifEpoch)
	switch {
	case errors.Is(err, dht.ErrPatchRefused) && len(want.Records) == n:
		return want, ix.d.WriteIf(ctx, key, want, ifEpoch)
	case errors.Is(err, dht.ErrPatchRefused):
		return want, &dht.CASConflictError{Key: key, Exists: true}
	case err != nil || v == PatchAck{Records: n}:
		return want, err
	}
	// No peer sends this.
	stored, err := ix.peekBucket(ctx, key, cost)
	cost.Steps++
	switch {
	case err != nil:
		return want, err
	case stored.Label != want.Label || stored.Epoch != want.Epoch || stored.Pending.Kind != want.Pending.Kind:
		return want, &dht.CASConflictError{Key: key, Exists: true, WinnerEpoch: stored.Epoch}
	}
	return stored, nil
}

// split performs Algorithm 1 on c, the Cut of the leaf stored under key.
// One half keeps the name f_n(lambda) and stays on its peer (a free local
// rewrite); the other is named lambda itself and is pushed out with a
// single DHT-put (Theorem 2). inPlace marks the split of a patched write:
// its two free rewrites of the leaf in place are patches too, which the
// storing peer applies to its own bytes (writeInPlace).
//
// The rewrite is crash-consistent: a write-ahead intent (Pending) is
// recorded in the full leaf in place before any routed write, and cleared
// only by the final write-back. Every intermediate state is therefore
// detectable from the bucket under key alone, and completeSplit — invoked
// by the next lookup's read-repair or by Scrub — re-runs the remaining
// steps idempotently, converging on exactly the never-crashed tree.
func (ix *Index) split(ctx context.Context, key string, c *Cut, inPlace bool) (Cost, error) {
	// Maintenance traffic: the intent write and both halves' writes are
	// split-phase lookups (repairTorn labels its own calls PhaseRepair).
	ctx = metrics.WithPhase(ctx, metrics.PhaseSplit)
	var cost Cost
	if c.leaf.Label.Len() >= ix.cfg.Depth {
		// The tree may not outgrow the a-priori depth D; leave the
		// bucket oversized and record the event.
		ix.mu.Lock()
		ix.overflows++
		ix.mu.Unlock()
		return cost, nil
	}

	// Step 1: mark the intent in place (free, local). The marker takes the
	// bucket's next epoch, which fences the split: any concurrent insert or
	// delete still rebased on the pre-split bucket now loses its CAS and
	// re-fetches — and what it re-fetches carries the intent, so it helps
	// complete the split before retrying. Losing the fence ourselves means
	// another writer committed first (possibly its own split); yield and
	// let the structure settle — if the leaf is still over threshold, the
	// next insert re-triggers the split.
	_, err := ix.writeInPlace(ctx, key, patchMarkSplit, c.leaf, c.n+len(c.remote.Records), c.leaf.Epoch-1, inPlace, &cost)
	if errors.Is(err, dht.ErrCASConflict) || errors.Is(err, dht.ErrNotFound) {
		return cost, nil
	}
	if err != nil {
		return cost, fmt.Errorf("lht: split intent %q: %w", key, err)
	}

	// Steps 2-3: push the remote half out, write the local half back.
	_, rb, err := ix.completeSplit(ctx, key, c, &cost, false, inPlace)
	if err != nil {
		return cost, err
	}

	// Accounting strictly after both writes succeeded: a failed split
	// must not distort the cost metrics or the paper's alpha estimate.
	moved := int64(rb.Weight())
	ix.c.Add(metrics.Splits, 1)
	ix.c.Add(metrics.MovedRecords, moved)
	ix.mu.Lock()
	ix.alphaSum += float64(moved) / float64(ix.cfg.SplitThreshold)
	ix.mu.Unlock()
	return cost, nil
}

// Delete removes the record with the given data key, or returns
// ErrKeyNotFound. It is the dual of Insert: an LHT lookup, a DHT-put of
// the shrunk bucket, and possibly a leaf merge.
func (ix *Index) Delete(delta float64) (Cost, error) {
	return ix.DeleteContext(context.Background(), delta)
}

// DeleteContext is Delete with a caller-supplied context. It runs
// Insert's commit round (commit): a lost CAS re-runs the round from the
// lookup until the delete commits or ctx ends, the write-back is a patch
// where the storing peer answers from its bytes, and a leaf the delete
// leaves under theta_merge is merged with its sibling.
func (ix *Index) DeleteContext(ctx context.Context, delta float64) (cost Cost, err error) {
	if err := keyspace.CheckKey(delta); err != nil {
		return Cost{}, err
	}
	ctx, scope := ix.c.BeginOp(ctx, metrics.OpDelete, metrics.PhaseOther)
	defer func() { scope.Done(err) }()
	return ix.commit(ctx, &write{rec: record.Record{Key: delta}})
}

// merge attempts to merge the underweight leaf b with its sibling, the
// dual of Algorithm 1. It succeeds only when the sibling is itself a leaf
// and the merged bucket (records of both plus one label slot) stays below
// MergeThreshold. Per Theorem 2 in reverse, the merged bucket keeps the
// key f_n(parent), which is the key one of the two children already has,
// so one bucket stays in place and the other moves: one leaf's records of
// data movement, as in the split cost model.
//
// The rewrite is crash-consistent and ordered so no intermediate state
// loses records: the merged bucket — carrying both children's records and
// a Pending intent naming the obsolete child — is made durable first, the
// obsolete child is removed second, and the intent is cleared last (a
// free in-place rewrite; a patch when inPlace, as in split). A crash in
// either window leaves the intent in the merged bucket, and completeMerge
// rolls the mutation forward (or back, if another client has since
// written to the obsolete child).
func (ix *Index) merge(ctx context.Context, key string, b *Bucket, inPlace bool) (Cost, error) {
	// Maintenance traffic: the sibling fetch and the merge rewrite are
	// merge-phase lookups.
	ctx = metrics.WithPhase(ctx, metrics.PhaseMerge)
	var cost Cost
	parent := b.Label.Parent()
	sibling := b.Label.Sibling()

	// The sibling, if it is a leaf, is stored under its own name.
	sibKey := sibling.Name().Key()
	sb, err := ix.getBucket(ctx, sibKey, &cost)
	cost.Steps++
	if errors.Is(err, dht.ErrNotFound) {
		return cost, nil // sibling subtree deeper than a single leaf
	}
	if err != nil {
		return cost, err
	}
	if sb.Torn() {
		// The sibling is mid-mutation from a crashed writer: repair it
		// and skip this merge round rather than merging a torn bucket.
		_, err := ix.repairTorn(ctx, sibKey, sb, &cost)
		return cost, err
	}
	if sb.Label != sibling {
		return cost, nil // key exists but names a deeper leaf: sibling is internal
	}
	if b.Weight()+sb.Weight()-1 >= ix.cfg.MergeThreshold {
		return cost, nil // merged weight would defeat the purpose
	}

	// Exactly one child keeps the parent's name f_n(parent) (the child
	// extending the parent's trailing bit run); the other child is named
	// by the parent's own label and is the bucket to remove.
	mergedKey := parent.Name().Key()
	removeKey, peerEpoch, moved := sibKey, sb.Epoch, int64(sb.Weight())
	baseEpoch := b.Epoch // epoch stored under mergedKey when we read it
	if key != mergedKey {
		removeKey, peerEpoch, moved = key, b.Epoch, int64(b.Weight())
		baseEpoch = sb.Epoch
	}
	recs := make([]record.Record, 0, len(b.Records)+len(sb.Records))
	recs = append(recs, b.Records...)
	recs = append(recs, sb.Records...)
	merged := &Bucket{
		Label:   parent,
		Records: recs,
		Epoch:   max(b.Epoch, sb.Epoch) + 1,
		Pending: Pending{Kind: PendingMerge, RemoveKey: removeKey, PeerEpoch: peerEpoch},
	}

	// Step 1: make the merged bucket durable under f_n(parent), intent
	// recorded, guarded by the epoch we read there. A lost CAS means a
	// concurrent writer beat us to that bucket — the merge decision is
	// stale, so yield; a later underweight delete re-triggers it. From
	// here on, no crash can lose records: both children's records exist
	// in the merged bucket.
	if key == mergedKey {
		// b already sits on the peer that keeps the merged bucket: a free
		// in-place rewrite.
		err = ix.d.WriteIf(ctx, mergedKey, merged, baseEpoch)
	} else {
		// The sibling's peer holds mergedKey: one routed put replaces the
		// sibling's bucket with the merged one.
		cost.Lookups++
		cost.Steps++
		err = ix.d.PutIf(ctx, mergedKey, merged, baseEpoch)
	}
	if errors.Is(err, dht.ErrCASConflict) || errors.Is(err, dht.ErrNotFound) {
		return cost, nil
	}
	if err != nil {
		return cost, fmt.Errorf("lht: merge write %q: %w", mergedKey, err)
	}

	// Step 2: drop the obsolete child, but only at the epoch the intent
	// names. A conflict means another client wrote to the child between
	// our read and now; the intent's epoch guard no longer holds, so hand
	// the torn state to completeMerge, which rolls it back exactly as
	// crash recovery would.
	cost.Lookups++
	cost.Steps++
	err = ix.d.RemoveIf(ctx, removeKey, peerEpoch)
	if errors.Is(err, dht.ErrCASConflict) {
		_, rerr := ix.completeMerge(ctx, mergedKey, merged, &cost)
		return cost, rerr
	}
	if err != nil {
		return cost, fmt.Errorf("lht: merge remove %q: %w", removeKey, err)
	}

	// Step 3: clear the intent. The clear keeps the merged epoch (racing
	// repairers write identical bytes, so the non-bump is idempotent) and
	// is itself guarded: if a repairer or writer already advanced the
	// bucket, the intent is gone and this write must not clobber theirs.
	cleared := *merged
	cleared.Pending = Pending{}
	_, err = ix.writeInPlace(ctx, mergedKey, patchClearMerge, &cleared, len(cleared.Records), merged.Epoch, inPlace, &cost)
	if err != nil && !errors.Is(err, dht.ErrCASConflict) && !errors.Is(err, dht.ErrNotFound) {
		return cost, fmt.Errorf("lht: merge clear %q: %w", mergedKey, err)
	}

	// Accounting strictly after all steps succeeded.
	ix.c.Add(metrics.Merges, 1)
	ix.c.Add(metrics.MovedRecords, moved)
	// Both children stop being leaves; the parent takes their place.
	ix.cacheDrop(b.Label)
	ix.cacheDrop(sibling)
	ix.cacheNote(parent)
	return cost, nil
}
