package lht

import (
	"container/list"
	"sync"

	"lht/internal/bitlabel"
	"lht/internal/metrics"
)

// leafCache is the client-side leaf cache behind Config.LeafCache: a
// bounded, concurrency-safe LRU of leaf labels this client has observed
// in the DHT. Because a leaf's label determines both its key-space
// interval and its DHT key (the naming function), caching just the label
// lets a later lookup for any key in that interval probe the leaf's name
// directly — one DHT-get instead of Algorithm 2's O(log D) sequential
// probes.
//
// A miss is not a cold start either. For every strict prefix of a cached
// label the cache also counts the cached labels below it and sums their
// depths, so a key whose leaf was never seen still learns from its
// neighbours: the deepest prefix of mu with cached leaves below it is an
// internal node (those leaves leave mu past it), which bounds Algorithm
// 2's search from below, and their mean depth is where its first probe
// goes (see find and lookupLeaf). Such a miss still counts as a miss
// (Snapshot.Cache.Misses): the hit ratio says how often the label was
// cached, not how many probes the cache saved.
//
// The cache stores no records, so it can never serve stale data; the
// only staleness possible is structural (the leaf split or merged since
// it was observed), which the lookup path detects soundly from the probe
// outcome itself: a fetched bucket that does not cover the key, or a
// failed get, both feed Algorithm 2's own case analysis, and a stale
// bracket only costs probes before the search restarts from [1, D], so
// cached results are always identical to the uncached path.
//
// The cache composes with replication: a cache hit turns a hot-key
// lookup into a single probe of the leaf's name, which a replicated
// substrate (tcpnet with Replicas > 1, Chord, Kademlia) sends to the
// name's primary and fails over along its other holders.
type leafCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; element values are bitlabel.Label
	entries map[bitlabel.Label]cacheSlot
}

// cacheSlot is what the cache knows of one label: its LRU element when
// the label itself is cached, and the number and summed depths of the
// cached labels strictly below it. A slot recording neither is deleted,
// so entries holds at most cap × D slots and is empty when order is.
type cacheSlot struct {
	elem          *list.Element
	below, depths int
}

// bracket is what a miss learns from the cache: lo is one past the
// deepest prefix of mu with cached labels below it, first the rounded
// mean depth of those labels. Both are 0 when no cached label shares a
// prefix with mu.
type bracket struct{ lo, first int }

func newLeafCache(capacity int) *leafCache {
	return &leafCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[bitlabel.Label]cacheSlot, capacity),
	}
}

// find returns the deepest cached label that is a prefix of mu, i.e. a
// previously observed leaf whose interval covers mu's data key. Deepest
// first: after a split both the fresh child and its stale ancestor may
// be cached, and the child is the live leaf. The returned entry is
// touched. On a miss it returns instead the bracket of the deepest
// prefix of mu with cached labels below it. The scan is pure local work
// — at most D map probes, no DHT traffic.
func (c *leafCache) find(mu bitlabel.Label) (bitlabel.Label, bool, bracket) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var br bracket
	for k := mu.Len(); k >= 1; k-- {
		x := mu.Prefix(k)
		s, ok := c.entries[x]
		switch {
		case !ok:
		case s.elem != nil:
			c.order.MoveToFront(s.elem)
			return x, true, bracket{}
		case br.lo == 0:
			br = bracket{lo: k + 1, first: (2*s.depths + s.below) / (2 * s.below)}
		}
	}
	return bitlabel.Label{}, false, br
}

// note records label as a currently observed leaf, touching an existing
// entry or inserting (and evicting the least recently used entry when
// over capacity).
func (c *leafCache) note(label bitlabel.Label) {
	if label.IsRoot() {
		return // the virtual root is never a leaf label
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.entries[label]
	if s.elem != nil {
		c.order.MoveToFront(s.elem)
		return
	}
	s.elem = c.order.PushFront(label)
	c.entries[label] = s
	c.index(label, 1)
	if c.order.Len() > c.cap {
		c.remove(c.order.Back().Value.(bitlabel.Label))
	}
}

// drop invalidates the entry for label, if present.
func (c *leafCache) drop(label bitlabel.Label) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[label].elem != nil {
		c.remove(label)
	}
}

// remove uncaches label, which must be cached; c.mu must be held.
func (c *leafCache) remove(label bitlabel.Label) {
	s := c.entries[label]
	c.order.Remove(s.elem)
	s.elem = nil
	c.put(label, s)
	c.index(label, -1)
}

// index adds (sign 1) or removes (sign -1) label from the counts of its
// strict prefixes; c.mu must be held.
func (c *leafCache) index(label bitlabel.Label, sign int) {
	for k := 1; k < label.Len(); k++ {
		p := label.Prefix(k)
		s := c.entries[p]
		s.below += sign
		s.depths += sign * label.Len()
		c.put(p, s)
	}
}

// put stores the slot for label, deleting it when it records nothing;
// c.mu must be held.
func (c *leafCache) put(label bitlabel.Label, s cacheSlot) {
	if s.elem == nil && s.below == 0 {
		delete(c.entries, label)
		return
	}
	c.entries[label] = s
}

// len returns the current entry count (for tests and introspection).
func (c *leafCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// cacheNote records an observed leaf when the cache is enabled.
func (ix *Index) cacheNote(label bitlabel.Label) {
	if ix.cache != nil {
		ix.cache.note(label)
	}
}

// cacheDrop invalidates a label when the cache is enabled.
func (ix *Index) cacheDrop(label bitlabel.Label) {
	if ix.cache != nil {
		ix.cache.drop(label)
	}
}

// cacheProbed tells the cache how the probe of its cached leaf x went: a
// hit when the probe ended the search at the leaf labelled label (the
// root label when the reply did not say which), a stale entry otherwise.
// A stale entry is dropped, and so is a hit's whose leaf has another label
// now (the leaf split and this half kept x's name); the probe has noted
// the fresh label.
func (ix *Index) cacheProbed(x bitlabel.Label, hit bool, label bitlabel.Label) {
	counter := metrics.CacheStale
	if hit {
		counter = metrics.CacheHits
	}
	ix.c.Add(counter, 1)
	if !hit || !label.IsRoot() && label != x {
		ix.cache.drop(x)
	}
}
