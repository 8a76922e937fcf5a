package respcache

import (
	"fmt"
	"sync"
	"testing"
)

// TestEntryCacheConcurrentFill races 32 first requests for one ID,
// each encoding its own copy of the bytes: every caller must get the
// bytes stored first, the cache must hold one entry, and every request
// must count as one hit or one miss.
func TestEntryCacheConcurrentFill(t *testing.T) {
	m := &Metrics{}
	c := NewEntryCache(m)
	var wg sync.WaitGroup
	const goroutines = 32
	results := make([][]byte, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.Get("CVE-2017-0001", func() []byte { return []byte("encoded") })
		}(i)
	}
	wg.Wait()
	stored := c.Peek("CVE-2017-0001")
	for i, b := range results {
		if string(b) != "encoded" || &b[0] != &stored[0] {
			t.Fatalf("goroutine %d got %q, not the stored bytes", i, b)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
	if hits, misses := m.EntryHits.Load(), m.EntryMisses.Load(); misses < 1 || hits+misses != goroutines {
		t.Errorf("hits=%d misses=%d, want at least one miss and %d in all", hits, misses, goroutines)
	}
}

// TestEntryCacheSeed proves seeding shares bytes for kept IDs and
// drops the rest, without the previous cache ever being modified.
func TestEntryCacheSeed(t *testing.T) {
	m := &Metrics{}
	prev := NewEntryCache(m)
	prev.Get("keep", func() []byte { return []byte("kept bytes") })
	prev.Get("drop", func() []byte { return []byte("stale bytes") })

	next := NewEntryCache(m)
	next.Seed(prev, func(id string) bool { return id == "keep" })
	if next.Len() != 1 {
		t.Fatalf("seeded %d entries, want 1", next.Len())
	}
	// The kept entry is shared, not re-encoded: the encode func must
	// never run.
	b := next.Get("keep", func() []byte {
		t.Fatal("seeded entry was re-encoded")
		return nil
	})
	if string(b) != "kept bytes" {
		t.Fatalf("seeded bytes = %q", b)
	}
	// The dropped entry re-encodes in the new generation.
	if b := next.Get("drop", func() []byte { return []byte("fresh bytes") }); string(b) != "fresh bytes" {
		t.Fatalf("dropped entry served %q, want a fresh encode", b)
	}
	// The previous generation still serves its own bytes.
	if b := prev.Peek("drop"); string(b) != "stale bytes" {
		t.Fatalf("previous generation mutated: %q", b)
	}
}

// TestQueryCacheLRU proves the byte cap evicts least-recently-used
// responses and recency is refreshed by Get.
func TestQueryCacheLRU(t *testing.T) {
	m := &Metrics{}
	c := NewQueryCache(30, m)
	put := func(k string) { c.Put(k, []byte("0123456789")) } // 10 bytes each
	put("a")
	put("b")
	put("c")
	if c.Len() != 3 || c.Bytes() != 30 {
		t.Fatalf("len=%d bytes=%d, want 3/30", c.Len(), c.Bytes())
	}
	// Touch "a" so "b" becomes the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	put("d")
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU victim b survived")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted, want only b", k)
		}
	}
	if ev := m.QueryEvictions.Load(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	// A response larger than the whole cap is never stored.
	c.Put("huge", make([]byte, 31))
	if b := c.Peek("huge"); b != nil {
		t.Error("over-cap response was stored")
	}
}

// TestQueryCacheDisabled proves maxBytes <= 0 turns the cache off
// entirely.
func TestQueryCacheDisabled(t *testing.T) {
	c := NewQueryCache(0, &Metrics{})
	c.Put("k", []byte("bytes"))
	if _, ok := c.Get("k"); ok {
		t.Fatal("disabled cache served a hit")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("disabled cache stored len=%d bytes=%d", c.Len(), c.Bytes())
	}
}

// TestQueryCacheBytesSaved proves the bytes-saved counter sums the
// encoded length of every hit.
func TestQueryCacheBytesSaved(t *testing.T) {
	m := &Metrics{}
	c := NewQueryCache(1<<20, m)
	c.Put("k", []byte("ten bytes!"))
	for i := 0; i < 3; i++ {
		if _, ok := c.Get("k"); !ok {
			t.Fatal("miss on cached key")
		}
	}
	if saved := m.QueryBytesSaved.Load(); saved != 30 {
		t.Errorf("bytes saved = %d, want 30", saved)
	}
	if hits, misses := m.QueryHits.Load(), m.QueryMisses.Load(); hits != 3 || misses != 0 {
		t.Errorf("hits=%d misses=%d, want 3/0", hits, misses)
	}
}

// TestQueryCacheConcurrent hammers mixed Get/Put from many goroutines
// (meaningful under -race) and then checks the size invariant held.
func TestQueryCacheConcurrent(t *testing.T) {
	m := &Metrics{}
	c := NewQueryCache(200, m)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("key-%d", (g+i)%20)
				if _, ok := c.Get(k); !ok {
					c.Put(k, []byte(k))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Bytes() > 200 {
		t.Fatalf("cache exceeded cap: %d bytes", c.Bytes())
	}
}

// TestQueryCacheSeed proves seeding carries the kept responses in their
// recency order, by reference, within the new cache's cap, and moves
// no counter.
func TestQueryCacheSeed(t *testing.T) {
	m := &Metrics{}
	prev := NewQueryCache(1<<10, m)
	stored := map[string][]byte{}
	for _, k := range []string{"a", "b", "x", "c", "d"} {
		stored[k] = []byte("response " + k) // 10 bytes each
		prev.Put(k, stored[k])
	}
	// Touch "a" so recency, most recent first, is a d c x b.
	if _, ok := prev.Get("a"); !ok {
		t.Fatal("a missing")
	}
	hits, misses := m.QueryHits.Load(), m.QueryMisses.Load()

	next := NewQueryCache(40, m) // room for four of the 10-byte responses
	var asked []string
	next.Seed(prev, func(key string) bool {
		asked = append(asked, key)
		return key != "x"
	})
	if got := fmt.Sprint(asked); got != "[a d c x b]" {
		t.Errorf("keep asked about %s, want the most recent first", got)
	}
	if next.Len() != 4 || next.Bytes() != 40 {
		t.Fatalf("seeded len=%d bytes=%d, want 4/40", next.Len(), next.Bytes())
	}
	if next.Peek("x") != nil {
		t.Error("a page keep rejected was seeded")
	}
	for _, k := range []string{"a", "b", "c", "d"} {
		if b := next.Peek(k); b == nil || &b[0] != &stored[k][0] {
			t.Errorf("%s: seeded bytes are not the stored slice", k)
		}
	}
	if m.QueryHits.Load() != hits || m.QueryMisses.Load() != misses || m.QueryEvictions.Load() != 0 {
		t.Errorf("seeding moved counters: hits %d→%d misses %d→%d evictions %d",
			hits, m.QueryHits.Load(), misses, m.QueryMisses.Load(), m.QueryEvictions.Load())
	}
	if prev.Len() != 5 || prev.Peek("x") == nil {
		t.Errorf("seeding changed its source: len %d", prev.Len())
	}

	// The carried order is prev's: the least recent page, b, is the
	// first a new response evicts, then c.
	next.Put("e", []byte("0123456789"))
	if next.Peek("b") != nil || next.Peek("c") == nil {
		t.Error("the first eviction after seeding was not the least recent carried page")
	}
	next.Put("f", []byte("0123456789"))
	if next.Peek("c") != nil || next.Peek("d") == nil {
		t.Error("the second eviction after seeding was not the next least recent page")
	}

	// A cap smaller than prev's keeps the most recent pages that fit.
	small := NewQueryCache(25, m)
	small.Seed(prev, func(string) bool { return true })
	if small.Len() != 2 || small.Peek("a") == nil || small.Peek("d") == nil {
		t.Errorf("a 25-byte cap seeded %d pages, want the two most recent", small.Len())
	}

	// A disabled cache seeds nothing.
	off := NewQueryCache(0, m)
	off.Seed(prev, func(string) bool { return true })
	if off.Len() != 0 || off.Bytes() != 0 {
		t.Errorf("a disabled cache seeded len=%d bytes=%d", off.Len(), off.Bytes())
	}
}
