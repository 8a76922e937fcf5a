// Package respcache caches pre-encoded HTTP response bytes for one
// serving generation of nvdserve.
//
// The server swaps immutable generations atomically, which gives every
// cache here a free coherence epoch: a response is a pure function of
// (request, generation), so a cache owned by the generation can never
// serve stale bytes — the swap that changes the answer also retires
// the cache. Nothing in this package watches for invalidation; it
// relies entirely on that ownership. What carries into the next
// generation is the caller's decision: both Seed methods copy forward
// only the responses a caller-supplied keep function accepts, because
// only the caller knows which responses the swap left unchanged.
//
// Two shapes are provided:
//
//   - EntryCache: an unbounded lazily-filled map for /cve/{id}. A
//     miss encodes the response outside the lock and stores it unless
//     a concurrent miss on the same ID stored first, in which case
//     both callers serve the first bytes; every later hit is a map
//     lookup. Incremental generations seed their cache with the
//     previous generation's bytes for entries the swap did not touch —
//     the same copy-on-write sharing the query-index shards use — so
//     a swap does not re-pay the encode for the unchanged 99% of a
//     daily delta.
//
//   - QueryCache: a byte-bounded LRU for /query responses keyed by
//     the canonical query string of the parsed parameter set. Query
//     results are larger and the key space is open-ended
//     (attacker-sized, even), so this cache is capped and evicting
//     where the entry cache is not. Incremental generations seed it
//     with the previous generation's pages whose filters no changed
//     entry passes, in their recency order and within the cap: the
//     caller reads each key back into its filters to decide.
//
// Both report into a shared Metrics struct that outlives generations,
// so /stats counters are cumulative across swaps.
package respcache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Metrics holds cumulative cache counters. One Metrics instance is
// shared by every generation's caches so the numbers survive swaps.
// All fields are atomics; read them with Load. These atomics are the
// single source of truth for the cache counters on BOTH operational
// surfaces — the /stats JSON and the Prometheus /metrics families
// (re-exported there through sample-at-scrape closures, never copied)
// — so the two can never disagree and nothing resets on a swap.
type Metrics struct {
	// EntryHits / EntryMisses count /cve/{id} lookups served from vs
	// filled into the entry cache. A seeded (copied-forward) byte
	// slice counts as a hit when it is next requested.
	EntryHits   atomic.Int64
	EntryMisses atomic.Int64
	// QueryHits / QueryMisses / QueryEvictions count /query cache
	// traffic; QueryBytesSaved sums the response bytes served from
	// cache instead of re-rendered.
	QueryHits       atomic.Int64
	QueryMisses     atomic.Int64
	QueryEvictions  atomic.Int64
	QueryBytesSaved atomic.Int64
	// NotModified counts 304 responses; NotModifiedBytes sums the
	// representation bytes those responses did not resend (known only
	// when the representation was already cached).
	NotModified      atomic.Int64
	NotModifiedBytes atomic.Int64
}

// EntryCache memoizes encoded /cve/{id} responses for one generation.
// Entries are immutable once stored; the cache only grows (bounded by
// the number of CVEs in the generation, each response a few KB).
type EntryCache struct {
	m *Metrics

	mu   sync.RWMutex
	done map[string][]byte
}

// NewEntryCache returns an empty cache reporting into m.
func NewEntryCache(m *Metrics) *EntryCache {
	return &EntryCache{m: m, done: make(map[string][]byte)}
}

// Seed copies prev's already-encoded bytes into c for every ID keep
// accepts. The byte slices are shared, never copied — they are
// immutable once encoded — so seeding an incremental generation costs
// one map insert per carried entry, exactly the sharing trick the
// index shards use. Seed must run before c serves requests.
func (c *EntryCache) Seed(prev *EntryCache, keep func(id string) bool) {
	if prev == nil {
		return
	}
	prev.mu.RLock()
	defer prev.mu.RUnlock()
	for id, b := range prev.done {
		if keep(id) {
			c.done[id] = b
		}
	}
}

// Get returns the cached response bytes for id, calling encode to
// produce them on a miss. encode runs outside the lock, so concurrent
// first requests for one id may each encode it; the first bytes stored
// are kept and every caller gets them (the encodes are byte-identical
// by construction). The returned slice is shared and must not be
// modified.
func (c *EntryCache) Get(id string, encode func() []byte) []byte {
	c.mu.RLock()
	b, ok := c.done[id]
	c.mu.RUnlock()
	if ok {
		c.m.EntryHits.Add(1)
		return b
	}
	b = encode()
	c.mu.Lock()
	if first, ok := c.done[id]; ok {
		b = first
	} else {
		c.done[id] = b
	}
	c.mu.Unlock()
	c.m.EntryMisses.Add(1)
	return b
}

// Peek returns the cached bytes for id without filling, or nil. Used
// by the 304 path to account bytes saved without forcing an encode.
func (c *EntryCache) Peek(id string) []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.done[id]
}

// Len returns the number of cached responses.
func (c *EntryCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.done)
}

// qentry is one LRU cache slot.
type qentry struct {
	key string
	b   []byte
}

// QueryCache is a byte-bounded LRU over canonicalized /query keys for
// one generation. Unlike the entry cache its key space is unbounded
// (every limit/offset/filter combination a client invents), so it
// evicts least-recently-used responses once the stored bytes exceed
// the cap.
type QueryCache struct {
	m        *Metrics
	maxBytes int

	mu    sync.Mutex
	ll    *list.List // front = most recent; values are *qentry
	byKey map[string]*list.Element
	bytes int
}

// NewQueryCache returns a cache holding at most maxBytes of encoded
// responses. maxBytes <= 0 disables the cache (every Get misses,
// every Put is dropped).
func NewQueryCache(maxBytes int, m *Metrics) *QueryCache {
	return &QueryCache{
		m:        m,
		maxBytes: maxBytes,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
	}
}

// Seed copies prev's stored responses into c for every key keep
// accepts, sharing the immutable byte slices. It takes prev's entries
// from the most to the least recently used under prev's lock, releases
// it, and appends each kept one at c's old end, so c starts in prev's
// recency order; a response that would take c past its cap is left
// out, so a smaller cap keeps the most recent pages. Seeding moves no
// counter: a carried response counts as a hit only when it is next
// requested. A disabled c seeds nothing. Seed must run before c serves
// requests.
func (c *QueryCache) Seed(prev *QueryCache, keep func(key string) bool) {
	if prev == nil || c.maxBytes <= 0 {
		return
	}
	prev.mu.Lock()
	recent := make([]*qentry, 0, prev.ll.Len())
	for el := prev.ll.Front(); el != nil; el = el.Next() {
		recent = append(recent, el.Value.(*qentry))
	}
	prev.mu.Unlock()
	for _, q := range recent {
		if c.bytes+len(q.b) <= c.maxBytes && keep(q.key) {
			c.byKey[q.key] = c.ll.PushBack(q)
			c.bytes += len(q.b)
		}
	}
}

// Get returns the cached response for a canonical key, marking it most
// recently used. The returned slice is shared and must not be
// modified.
func (c *QueryCache) Get(key string) ([]byte, bool) {
	if c.maxBytes <= 0 {
		c.m.QueryMisses.Add(1)
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.m.QueryMisses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	b := el.Value.(*qentry).b
	c.m.QueryHits.Add(1)
	c.m.QueryBytesSaved.Add(int64(len(b)))
	return b, true
}

// Put stores a freshly rendered response, evicting LRU entries until
// the cache fits the cap again. A response larger than the whole cap
// is not stored at all. Concurrent Puts of the same key keep the
// first-stored bytes (they are byte-identical by construction).
func (c *QueryCache) Put(key string, b []byte) {
	if c.maxBytes <= 0 || len(b) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byKey[key]; ok {
		return
	}
	c.byKey[key] = c.ll.PushFront(&qentry{key: key, b: b})
	c.bytes += len(b)
	for c.bytes > c.maxBytes {
		el := c.ll.Back()
		if el == nil {
			break
		}
		q := el.Value.(*qentry)
		c.ll.Remove(el)
		delete(c.byKey, q.key)
		c.bytes -= len(q.b)
		c.m.QueryEvictions.Add(1)
	}
}

// Peek returns the cached bytes for key without touching recency or
// counters, or nil.
func (c *QueryCache) Peek(key string) []byte {
	if c.maxBytes <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		return el.Value.(*qentry).b
	}
	return nil
}

// Len returns the number of cached responses.
func (c *QueryCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the total encoded bytes currently cached.
func (c *QueryCache) Bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
