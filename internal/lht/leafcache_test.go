package lht

import (
	"errors"
	"math/rand"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/record"
)

func TestLeafCacheLRU(t *testing.T) {
	c := newLeafCache(2)
	a := bitlabel.MustParse("#00")
	b := bitlabel.MustParse("#01")
	d := bitlabel.MustParse("#010")
	c.note(a)
	c.note(b)
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	// Touch a so b becomes the LRU victim.
	mu := bitlabel.MustParse("#0000")
	if got, ok, _ := c.find(mu); !ok || got != a {
		t.Fatalf("find(%s) = %s, %v", mu, got, ok)
	}
	c.note(d) // evicts b
	if c.len() != 2 {
		t.Fatalf("len after evict = %d, want 2", c.len())
	}
	if _, ok, _ := c.find(bitlabel.MustParse("#0111")); ok {
		t.Fatal("evicted entry still found")
	}
	// Deepest prefix wins: both #01 (gone) and #010 cover #0100...; only
	// #010 is cached now.
	if got, ok, _ := c.find(bitlabel.MustParse("#0100")); !ok || got != d {
		t.Fatalf("find deepest = %s, %v, want %s", got, ok, d)
	}
	c.drop(d)
	if _, ok, _ := c.find(bitlabel.MustParse("#0100")); ok {
		t.Fatal("dropped entry still found")
	}
	// The virtual root is never cached.
	c.note(bitlabel.Root)
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1 (root must not be cached)", c.len())
	}
}

func TestLeafCacheFindPrefersDeepest(t *testing.T) {
	c := newLeafCache(8)
	parent := bitlabel.MustParse("#01")
	child := bitlabel.MustParse("#011")
	c.note(parent)
	c.note(child)
	// A key under #011 must resolve to the deeper (fresher) leaf even
	// though the stale parent is also cached.
	if got, ok, _ := c.find(bitlabel.MustParse("#01100")); !ok || got != child {
		t.Fatalf("find = %s, %v, want %s", got, ok, child)
	}
	// A key under #010 is covered only by the parent.
	if got, ok, _ := c.find(bitlabel.MustParse("#01011")); !ok || got != parent {
		t.Fatalf("find = %s, %v, want %s", got, ok, parent)
	}
}

// TestCachedLookupEquivalence drives one substrate through a cached and
// an uncached client and checks every query answer is identical — the
// soundness contract: the cache may only change cost, never results.
func TestCachedLookupEquivalence(t *testing.T) {
	d := dht.NewLocal()
	base := Config{SplitThreshold: 8, MergeThreshold: 6, Depth: 20}
	cached := base
	cached.LeafCache = true
	cached.LeafCacheSize = 64
	cix, err := New(d, cached)
	if err != nil {
		t.Fatal(err)
	}
	uix, err := New(d, base)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	var keys []float64
	for i := 0; i < 1200; i++ {
		switch {
		case len(keys) > 0 && rng.Intn(4) == 0:
			j := rng.Intn(len(keys))
			k := keys[j]
			if _, err := cix.Delete(k); err != nil {
				t.Fatalf("Delete(%v): %v", k, err)
			}
			keys[j] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
		default:
			k := rng.Float64()
			if _, err := cix.Insert(record.Record{Key: k, Value: []byte("v")}); err != nil {
				t.Fatalf("Insert(%v): %v", k, err)
			}
			keys = append(keys, k)
		}
		// Every few operations, compare answers for a present key, an
		// absent key, and a range.
		if i%7 != 0 {
			continue
		}
		probe := rng.Float64()
		if len(keys) > 0 && rng.Intn(2) == 0 {
			probe = keys[rng.Intn(len(keys))]
		}
		cr, _, cerr := cix.Search(probe)
		ur, _, uerr := uix.Search(probe)
		if (cerr == nil) != (uerr == nil) || cr.Key != ur.Key {
			t.Fatalf("Search(%v): cached (%v, %v) vs uncached (%v, %v)", probe, cr, cerr, ur, uerr)
		}
		if cerr != nil && !errors.Is(cerr, ErrKeyNotFound) {
			t.Fatalf("Search(%v): %v", probe, cerr)
		}
		lo := rng.Float64() * 0.9
		crecs, _, cerr := cix.Range(lo, lo+0.1)
		urecs, _, uerr := uix.Range(lo, lo+0.1)
		if cerr != nil || uerr != nil || len(crecs) != len(urecs) {
			t.Fatalf("Range: cached (%d, %v) vs uncached (%d, %v)", len(crecs), cerr, len(urecs), uerr)
		}
	}
	if err := cix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s := cix.Metrics()
	if s.Cache.Hits == 0 {
		t.Error("no cache hits over 1200 operations")
	}
	if s.Cache.Hits+s.Cache.Misses+s.Cache.Stale == 0 {
		t.Error("cache counters never ticked")
	}
}

// TestCachedLookupHitCost pins the fast path: once a leaf is cached, an
// exact-match lookup for any key in its interval costs exactly one
// DHT-get.
func TestCachedLookupHitCost(t *testing.T) {
	cfg := Config{SplitThreshold: 8, Depth: 20, LeafCache: true}
	ix, err := New(dht.NewLocal(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	keys := make([]float64, 300)
	for i := range keys {
		keys[i] = rng.Float64()
		if _, err := ix.Insert(record.Record{Key: keys[i]}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm: one search per key populates every touched leaf.
	for _, k := range keys {
		if _, _, err := ix.Search(k); err != nil {
			t.Fatal(err)
		}
	}
	before := ix.Metrics()
	for _, k := range keys {
		_, cost, err := ix.Search(k)
		if err != nil {
			t.Fatal(err)
		}
		if cost.Lookups != 1 || cost.Steps != 1 {
			t.Fatalf("warm Search(%v) cost %+v, want 1 lookup / 1 step", k, cost)
		}
	}
	diff := ix.Metrics().Sub(before)
	if diff.Cache.Hits != int64(len(keys)) || diff.Cache.Misses != 0 || diff.Cache.Stale != 0 {
		t.Fatalf("counters after warm reads: %+v", diff)
	}
}

// TestCacheAcceptance pins the PR's headline number: a read-heavy
// workload (theta=100, D=20, >=10k records, 95/5 read/write) must
// average at most 1.5 DHT-lookups per exact-match query with the cache
// on (the uncached binary search pays ~log2(D) ~ 4-5).
func TestCacheAcceptance(t *testing.T) {
	cfg := Config{SplitThreshold: 100, MergeThreshold: 50, Depth: 20, LeafCache: true}
	ix, err := New(dht.NewLocal(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	keys := make([]float64, 0, 12000)
	for len(keys) < 12000 {
		k := rng.Float64()
		if _, err := ix.Insert(record.Record{Key: k}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}

	var readLookups, reads int
	for op := 0; op < 8000; op++ {
		if rng.Intn(100) < 95 {
			_, cost, err := ix.Search(keys[rng.Intn(len(keys))])
			if err != nil {
				t.Fatal(err)
			}
			readLookups += cost.Lookups
			reads++
			continue
		}
		// 5% writes: alternate churn so splits and merges both happen
		// behind live cache entries.
		if op%2 == 0 {
			k := rng.Float64()
			if _, err := ix.Insert(record.Record{Key: k}); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, k)
		} else {
			j := rng.Intn(len(keys))
			if _, err := ix.Delete(keys[j]); err != nil {
				t.Fatal(err)
			}
			keys[j] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
		}
	}
	mean := float64(readLookups) / float64(reads)
	if mean > 1.5 {
		t.Fatalf("mean DHT-lookups per cached exact-match query = %.3f, want <= 1.5", mean)
	}
	t.Logf("mean lookups/query = %.3f over %d reads (cache: %+v)", mean, reads, ix.Metrics().Cache)
}

// TestCacheTinyCapacity checks correctness is independent of capacity:
// with room for only two labels the cache thrashes but answers stay
// right and the entry count stays bounded.
func TestCacheTinyCapacity(t *testing.T) {
	cfg := Config{SplitThreshold: 8, MergeThreshold: 6, Depth: 20, LeafCache: true, LeafCacheSize: 2}
	ix, err := New(dht.NewLocal(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	oracle := map[float64]bool{}
	for i := 0; i < 600; i++ {
		k := rng.Float64()
		if _, err := ix.Insert(record.Record{Key: k}); err != nil {
			t.Fatal(err)
		}
		oracle[k] = true
		if ix.cache.len() > 2 {
			t.Fatalf("cache holds %d entries, capacity 2", ix.cache.len())
		}
	}
	for k := range oracle {
		if _, _, err := ix.Search(k); err != nil {
			t.Fatalf("Search(%v): %v", k, err)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigLeafCacheValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LeafCache = true
	cfg.LeafCacheSize = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative LeafCacheSize must be rejected")
	}
	cfg.LeafCacheSize = 0
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.leafCacheSize(); got != DefaultLeafCacheSize {
		t.Fatalf("leafCacheSize() = %d, want default %d", got, DefaultLeafCacheSize)
	}
}

// TestCacheBracketFreshKeyCost pins the miss path: with every other leaf
// cached, a Search in a leaf the cache has never held costs one lookup
// when its sibling is a cached leaf, because the sibling brackets the
// search at exactly the missing leaf's depth. Without the bracket the
// same Searches are Algorithm 2's binary searches from D/2.
func TestCacheBracketFreshKeyCost(t *testing.T) {
	d := dht.NewLocal()
	cfg := Config{SplitThreshold: 8, Depth: 20}
	plain, err := New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.LeafCache = true
	ix, err := New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		if _, err := plain.Insert(record.Record{Key: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	leaves, err := ix.Leaves() // notes every leaf
	if err != nil {
		t.Fatal(err)
	}
	search := func(ix *Index, key float64) int {
		t.Helper()
		_, cost, err := ix.Search(key)
		if err != nil && !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("Search(%v): %v", key, err)
		}
		return cost.Lookups
	}
	tried, unbracketed := 0, 0
	for i, b := range leaves {
		sibling := b.Label.Sibling()
		if !(i > 0 && leaves[i-1].Label == sibling || i+1 < len(leaves) && leaves[i+1].Label == sibling) {
			continue
		}
		ix.cache.drop(b.Label)
		key := b.Interval().Lo
		before := ix.Metrics()
		if n := search(ix, key); n != 1 {
			t.Fatalf("fresh Search(%v) in %s cost %d lookups, want 1", key, b.Label, n)
		}
		if diff := ix.Metrics().Sub(before); diff.Cache.Misses != 1 {
			t.Fatalf("a bracketed miss counted as %+v, want one miss", diff.Cache)
		}
		tried++
		unbracketed += search(plain, key)
	}
	if tried == 0 {
		t.Fatal("no leaf has a leaf sibling")
	}
	if unbracketed < 2*tried {
		t.Fatalf("unbracketed Searches cost %d lookups over %d leaves, want at least 2 each on average", unbracketed, tried)
	}
	t.Logf("%d fresh leaves: 1 lookup each bracketed, %.2f unbracketed", tried, float64(unbracketed)/float64(tried))
}

// TestCacheBracketStaleIsOnlyCost runs one script against two
// substrates in lockstep: a writer client splits and merges leaves
// behind a second client's back, and that second client caches in one
// substrate and not in the other. Brackets drawn from leaves that have
// since split or merged may cost probes, but every Search, Insert and
// Delete answers as the uncached client does, and none is ErrCorrupt.
func TestCacheBracketStaleIsOnlyCost(t *testing.T) {
	type world struct{ writer, client *Index }
	var worlds [2]world
	for i := range worlds {
		d := dht.NewLocal()
		cfg := Config{SplitThreshold: 8, MergeThreshold: 6, Depth: 20}
		w, err := New(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.LeafCache = i == 0
		cfg.LeafCacheSize = 256
		c, err := New(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		worlds[i] = world{w, c}
	}
	check := func(op string, k float64, err [2]error, rec [2]record.Record) {
		t.Helper()
		for _, e := range err {
			if errors.Is(e, ErrCorrupt) {
				t.Fatalf("%s(%v): %v", op, k, e)
			}
		}
		if (err[0] == nil) != (err[1] == nil) || errors.Is(err[0], ErrKeyNotFound) != errors.Is(err[1], ErrKeyNotFound) || rec[0].Key != rec[1].Key {
			t.Fatalf("%s(%v): cached (%v, %v) vs uncached (%v, %v)", op, k, rec[0], err[0], rec[1], err[1])
		}
	}
	insert := func(ix func(world) *Index, k float64) {
		var errs [2]error
		for i, w := range worlds {
			_, errs[i] = ix(w).Insert(record.Record{Key: k})
		}
		check("Insert", k, errs, [2]record.Record{})
	}
	del := func(ix func(world) *Index, k float64) {
		var errs [2]error
		for i, w := range worlds {
			_, errs[i] = ix(w).Delete(k)
		}
		check("Delete", k, errs, [2]record.Record{})
	}
	writer := func(w world) *Index { return w.writer }
	client := func(w world) *Index { return w.client }

	rng := rand.New(rand.NewSource(9))
	var keys []float64
	pick := func() float64 {
		j := rng.Intn(len(keys))
		k := keys[j]
		keys[j] = keys[len(keys)-1]
		keys = keys[:len(keys)-1]
		return k
	}
	for i := 0; i < 500; i++ {
		k := rng.Float64()
		insert(writer, k)
		keys = append(keys, k)
	}
	costlier := 0
	for round := 0; round < 8; round++ {
		// The writer grows one region (splits) or shrinks the tree
		// (merges) behind the client's cache.
		lo := rng.Float64() * 0.8
		for i := 0; i < 120; i++ {
			if round%2 == 0 {
				k := lo + rng.Float64()*0.2
				insert(writer, k)
				keys = append(keys, k)
			} else if len(keys) > 0 {
				del(writer, pick())
			}
		}
		for i := 0; i < 150; i++ {
			switch r := rng.Intn(10); {
			case r == 0:
				k := rng.Float64()
				insert(client, k)
				keys = append(keys, k)
			case r == 1 && len(keys) > 0:
				del(client, pick())
			default:
				k := rng.Float64()
				if len(keys) > 0 && rng.Intn(2) == 0 {
					k = keys[rng.Intn(len(keys))]
				}
				var errs [2]error
				var recs [2]record.Record
				var costs [2]Cost
				for i, w := range worlds {
					recs[i], costs[i], errs[i] = w.client.Search(k)
				}
				check("Search", k, errs, recs)
				if costs[0].Lookups > costs[1].Lookups {
					costlier++
				}
			}
		}
	}
	for _, w := range worlds {
		if err := w.client.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	s := worlds[0].client.Metrics().Cache
	if s.Misses == 0 || s.Stale == 0 || costlier == 0 {
		t.Fatalf("the script never met a stale cache: %+v, %d costlier searches", s, costlier)
	}
}

// TestLeafCachePrefixIndexBounded churns note, drop, find and eviction
// at several capacities and checks the prefix counts against a recount
// of the cached labels: at most cap × D slots, none once the cache is
// empty.
func TestLeafCachePrefixIndexBounded(t *testing.T) {
	const depth = 20
	for _, capacity := range []int{1, 2, 64} {
		c := newLeafCache(capacity)
		rng := rand.New(rand.NewSource(int64(capacity)))
		random := func() bitlabel.Label {
			l := bitlabel.TreeRoot
			for n := 1 + rng.Intn(depth); l.Len() < n; {
				l = l.Child(rng.Intn(2))
			}
			return l
		}
		var seen []bitlabel.Label
		for i := 0; i < 3000; i++ {
			switch rng.Intn(3) {
			case 0:
				l := random()
				c.note(l)
				seen = append(seen, l)
			case 1:
				if len(seen) > 0 {
					c.drop(seen[rng.Intn(len(seen))])
				}
			default:
				c.find(random())
			}
			if n := len(c.entries); n > capacity*depth {
				t.Fatalf("cap %d: %d slots, bound %d", capacity, n, capacity*depth)
			}
			if i%50 == 0 {
				checkPrefixIndex(t, c)
			}
		}
		checkPrefixIndex(t, c)
		for _, l := range seen {
			c.drop(l)
		}
		if c.len() != 0 || len(c.entries) != 0 {
			t.Fatalf("cap %d: emptied cache keeps %d labels, %d slots", capacity, c.len(), len(c.entries))
		}
	}
}

// checkPrefixIndex recounts the cache's prefix slots from its LRU list.
func checkPrefixIndex(t *testing.T, c *leafCache) {
	t.Helper()
	want := map[bitlabel.Label]cacheSlot{}
	for e := c.order.Front(); e != nil; e = e.Next() {
		l := e.Value.(bitlabel.Label)
		s := want[l]
		s.elem = e
		want[l] = s
		for k := 1; k < l.Len(); k++ {
			s := want[l.Prefix(k)]
			s.below++
			s.depths += l.Len()
			want[l.Prefix(k)] = s
		}
	}
	if len(want) != len(c.entries) {
		t.Fatalf("%d slots, recount %d", len(c.entries), len(want))
	}
	for l, s := range want {
		if c.entries[l] != s {
			t.Fatalf("slot %s = %+v, recount %+v", l, c.entries[l], s)
		}
	}
}
