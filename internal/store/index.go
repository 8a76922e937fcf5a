package store

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"nvdclean/internal/cve"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
	"nvdclean/internal/parallel"
)

// The query indexes: inverted posting lists over one cleaned
// generation, sharded by key hash so builds and incremental updates
// parallelize and a generation swap clones only the shards a delta
// touches. Posting lists hold entry ordinals — positions in the
// cleaned snapshot, which is already sorted in (year, sequence) order —
// encoded as delta-varint blocks (postings.go), so index intersections
// are block-skipping ordered merges and results come out in snapshot
// order, identical to a linear scan, at any worker count. Ordinals
// translate back to entries only at the /query materialization edge.
//
// Shards loaded from a persisted checkpoint stay raw segment bytes
// until a query first touches them (shard.load), so boot cost and
// resident memory track the hot key set rather than the feed.
//
// Severity postings read the entry's pv3 band (Entry.SeverityPV3: the
// real v3 severity when present, the backported PV3 score's band
// otherwise), which a cleaned view carries as the pipeline returns it.

// numShards is the fixed shard count. Key placement is a pure hash of
// the key, so index contents never depend on the worker count.
const numShards = 16

// indexGrain is the entry-chunk size of parallel builds. Chunk layout
// depends only on the snapshot length, keeping per-chunk partial
// postings — and their in-order merge — worker-independent.
const indexGrain = 512

// Kinds of index keys.
type keyKind uint8

const (
	keyVendor keyKind = iota + 1
	keyProduct
	// keyPair indexes (vendor, product) pairs: a query constraining
	// both fields must match them on the same CPE name, which separate
	// vendor∩product postings cannot express.
	keyPair
	keyCWE
	keySeverity
	keyYear
)

// key is one posting-list key.
type key struct {
	kind keyKind
	a, b string
}

// shardOf places a key by FNV-1a hash. The hash is seedless so shard
// placement is identical across processes and runs; persisted segments
// are keyed by shard number, so changing the fold is a format break
// (bump indexFormatVersion).
func shardOf(k key) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
		// keySep separates the a and b fields in the fold. Folding a
		// byte that cannot occur in either field keeps pair keys with
		// shifted boundaries — ("ab","c") vs ("a","bc") — in distinct
		// hash streams; XOR-ing 0 here would make them collide onto
		// the same shard.
		keySep = 0x1f
	)
	h := uint64(offset64)
	h = (h ^ uint64(k.kind)) * prime64
	for i := 0; i < len(k.a); i++ {
		h = (h ^ uint64(k.a[i])) * prime64
	}
	h = (h ^ keySep) * prime64
	for i := 0; i < len(k.b); i++ {
		h = (h ^ uint64(k.b[i])) * prime64
	}
	return int(h % numShards)
}

// shard is one immutable posting map, possibly still in its raw
// persisted form. The first load parses the raw segment under mu and
// publishes via loaded (release/acquire), so concurrent lookups never
// block once a shard is hot.
type shard struct {
	mu     sync.Mutex
	loaded atomic.Bool

	// raw is the shard's segment payload when it came from a persisted
	// checkpoint; parsed postings alias it, so it stays reachable for
	// the shard's lifetime. nil for shards built in memory.
	raw        []byte
	rawEntries int // entry count in raw's header
	diskBytes  int // len(raw) as persisted; 0 for in-memory shards

	post      map[key]*posting
	dataBytes int   // Σ posting block bytes, once loaded
	err       error // sticky parse failure
}

// newShard wraps an in-memory posting map.
func newShard(post map[key]*posting) *shard {
	sh := &shard{post: post}
	for _, p := range post {
		sh.dataBytes += len(p.data)
	}
	sh.loaded.Store(true)
	return sh
}

// load returns the shard's posting map, parsing the raw segment on
// first touch.
func (sh *shard) load() (map[key]*posting, error) {
	if sh.loaded.Load() {
		return sh.post, sh.err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.loaded.Load() {
		post, _, err := parseShardWire(sh.raw)
		if err != nil {
			sh.err = err
		} else {
			sh.post = post
			for _, p := range post {
				sh.dataBytes += len(p.data)
			}
		}
		sh.loaded.Store(true)
	}
	return sh.post, sh.err
}

// Index is an immutable set of sharded inverted indexes over one
// cleaned generation. Lookups are lock-free on loaded shards; updates
// produce a new Index sharing every untouched shard with the old one.
type Index struct {
	// ids holds the indexed snapshot's entry IDs in ordinal order —
	// ids[o] is the ID of ordinal o. It pins the ordinal space an
	// incremental Update re-ordinates against.
	ids    []string
	shards [numShards]*shard
}

// idsOf extracts the ordinal→ID table of a snapshot.
func idsOf(snap *cve.Snapshot) []string {
	ids := make([]string, len(snap.Entries))
	for i, e := range snap.Entries {
		ids[i] = e.ID
	}
	return ids
}

// ordIn finds id's ordinal in a (year, sequence)-ordered ID table.
func ordIn(ids []string, id string) (uint32, bool) {
	lo := sort.Search(len(ids), func(i int) bool { return !cve.IDLess(ids[i], id) })
	if lo < len(ids) && ids[lo] == id {
		return uint32(lo), true
	}
	return 0, false
}

// Entries returns the indexed snapshot length.
func (ix *Index) Entries() int { return len(ix.ids) }

// entryKeys returns every posting key of one cleaned entry. The seen
// maps are filled first so the keys slice is allocated once at its
// exact final length (sizing by 3*len(CPEs) over-allocates on
// duplicate-heavy CPE lists); the second pass emits keys in
// first-appearance order, flipping each seen mark as it goes.
func entryKeys(e *cve.Entry) []key {
	seenV := make(map[string]bool, len(e.CPEs))
	seenP := make(map[string]bool, len(e.CPEs))
	seenVP := make(map[[2]string]bool, len(e.CPEs))
	for _, n := range e.CPEs {
		seenV[n.Vendor] = true
		seenP[n.Product] = true
		seenVP[[2]string{n.Vendor, n.Product}] = true
	}
	seenC := make(map[cwe.ID]bool, len(e.CWEs))
	for _, c := range e.CWEs {
		seenC[c] = true
	}
	sev, hasSev := e.SeverityPV3()
	total := len(seenV) + len(seenP) + len(seenVP) + len(seenC) + 1 // + year
	if hasSev {
		total++
	}
	keys := make([]key, 0, total)
	for _, n := range e.CPEs {
		if seenV[n.Vendor] {
			seenV[n.Vendor] = false
			keys = append(keys, key{kind: keyVendor, a: n.Vendor})
		}
		if seenP[n.Product] {
			seenP[n.Product] = false
			keys = append(keys, key{kind: keyProduct, a: n.Product})
		}
		vp := [2]string{n.Vendor, n.Product}
		if seenVP[vp] {
			seenVP[vp] = false
			keys = append(keys, key{kind: keyPair, a: n.Vendor, b: n.Product})
		}
	}
	for _, c := range e.CWEs {
		if seenC[c] {
			seenC[c] = false
			keys = append(keys, key{kind: keyCWE, a: c.String()})
		}
	}
	if hasSev {
		keys = append(keys, key{kind: keySeverity, a: sev.String()})
	}
	keys = append(keys, key{kind: keyYear, a: strconv.Itoa(e.Year())})
	return keys
}

// BuildIndex builds the full index over a cleaned snapshot (entries
// sorted by ID, backported scores in PV3). Chunks of entries map
// to shard-local partial postings in parallel; each shard then folds
// its partials in chunk order, so ordinals come out strictly increasing
// no matter how many workers ran.
func BuildIndex(snap *cve.Snapshot, workers int) *Index {
	n := len(snap.Entries)
	chunks := parallel.NumChunks(n, indexGrain)
	locals := make([][numShards]map[key][]uint32, chunks)
	parallel.ForRange(workers, n, indexGrain, func(start, end int) {
		c := start / indexGrain
		for i := start; i < end; i++ {
			e := snap.Entries[i]
			for _, k := range entryKeys(e) {
				s := shardOf(k)
				if locals[c][s] == nil {
					locals[c][s] = make(map[key][]uint32)
				}
				locals[c][s][k] = append(locals[c][s][k], uint32(i))
			}
		}
	})
	ix := &Index{ids: idsOf(snap)}
	parallel.For(workers, numShards, func(s int) {
		ords := make(map[key][]uint32)
		for c := range locals {
			for k, os := range locals[c][s] {
				ords[k] = append(ords[k], os...)
			}
		}
		post := make(map[key]*posting, len(ords))
		for k, os := range ords {
			post[k] = encodePosting(os)
		}
		ix.shards[s] = newShard(post)
	})
	return ix
}

// ordGone marks a removed entry in the re-ordination table.
const ordGone = ^uint32(0)

// Update returns a new Index reflecting a cleaned-view delta (the Diff
// of the previous and next cleaned snapshots — which can differ on
// entries the feed delta never touched, e.g. when a new alias flips a
// consolidation). prev resolves an ID to the previous generation's
// cleaned entry, providing the keys removed and modified entries held;
// next is the new cleaned snapshot, fixing the new ordinal space.
//
// Re-ordination is bounded by the first insertion or removal point:
// ordinals below the shift are identical in both spaces, so a shard
// whose postings never reach the shift — and that the delta's key ops
// don't touch — is shared byte-for-byte with the receiver. For the
// common CVE feed shape (new entries append at the top of the ID
// order) the shift is at the end and every untouched shard is shared.
// The receiver itself is never modified, so the old generation keeps
// serving its index.
func (ix *Index) Update(d *cve.Delta, prev func(id string) *cve.Entry, next *cve.Snapshot, workers int) (*Index, error) {
	if d.Empty() {
		return ix, nil
	}
	oldIDs := ix.ids
	newIDs := idsOf(next)

	// Old ordinal → new ordinal (ordGone for removals), plus the first
	// old ordinal whose mapping is not the identity.
	remap := make([]uint32, len(oldIDs))
	shift := len(oldIDs)
	i, j := 0, 0
	for i < len(oldIDs) {
		switch {
		case j < len(newIDs) && oldIDs[i] == newIDs[j]:
			remap[i] = uint32(j)
			if i != j && i < shift {
				shift = i
			}
			i++
			j++
		case j < len(newIDs) && cve.IDLess(newIDs[j], oldIDs[i]):
			j++ // insertion; the next match records the shift
		default:
			remap[i] = ordGone
			if i < shift {
				shift = i
			}
			i++
		}
	}
	identity := shift == len(oldIDs)
	if identity {
		remap = nil
	}

	// Stage per-shard key ops: removals in old-ordinal space (applied
	// before re-ordination), additions in new-ordinal space.
	type op struct {
		k   key
		ord uint32
		add bool
	}
	var perShard [numShards][]op
	stage := func(e *cve.Entry, ord uint32, add bool) {
		for _, k := range entryKeys(e) {
			s := shardOf(k)
			perShard[s] = append(perShard[s], op{k: k, ord: ord, add: add})
		}
	}
	for _, id := range d.Removed {
		if e := prev(id); e != nil {
			if o, ok := ordIn(oldIDs, id); ok {
				stage(e, o, false)
			}
		}
	}
	for _, e := range d.Modified {
		if old := prev(e.ID); old != nil {
			if o, ok := ordIn(oldIDs, e.ID); ok {
				stage(old, o, false)
			}
		}
		if o, ok := ordIn(newIDs, e.ID); ok {
			stage(e, o, true)
		}
	}
	for _, e := range d.Added {
		if o, ok := ordIn(newIDs, e.ID); ok {
			stage(e, o, true)
		}
	}

	out := &Index{ids: newIDs}
	var errs [numShards]error
	parallel.For(workers, numShards, func(s int) {
		sh := ix.shards[s]
		ops := perShard[s]
		if len(ops) == 0 && identity {
			out.shards[s] = sh
			return
		}
		post, err := sh.load()
		if err != nil {
			errs[s] = err
			return
		}
		if len(ops) == 0 && !postingsReach(post, uint32(shift)) {
			out.shards[s] = sh
			return
		}
		var rem map[key]map[uint32]bool
		var add map[key][]uint32
		for _, o := range ops {
			if o.add {
				if add == nil {
					add = make(map[key][]uint32)
				}
				add[o.k] = append(add[o.k], o.ord)
			} else {
				if rem == nil {
					rem = make(map[key]map[uint32]bool)
				}
				m := rem[o.k]
				if m == nil {
					m = make(map[uint32]bool)
					rem[o.k] = m
				}
				m[o.ord] = true
			}
		}
		for k := range add {
			slices.Sort(add[k])
			add[k] = slices.Compact(add[k])
		}
		npost := make(map[key]*posting, len(post))
		var scratch []uint32
		for k, p := range post {
			kr, ka := rem[k], add[k]
			untouched := kr == nil && ka == nil &&
				(p.count == 0 || int64(p.skips[len(p.skips)-1].last) < int64(shift))
			if untouched {
				npost[k] = p
				continue
			}
			scratch, err = p.decode(scratch[:0])
			if err != nil {
				errs[s] = err
				return
			}
			ords := make([]uint32, 0, len(scratch)+len(ka))
			for _, o := range scratch {
				if kr[o] {
					continue
				}
				no := o
				if remap != nil {
					no = remap[o]
					if no == ordGone {
						continue
					}
				}
				ords = append(ords, no)
			}
			ords = mergeOrds(ords, ka)
			if len(ords) == 0 {
				continue
			}
			npost[k] = encodePosting(ords)
		}
		for k, ka := range add {
			if _, exists := post[k]; !exists {
				npost[k] = encodePosting(ka)
			}
		}
		out.shards[s] = newShard(npost)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// postingsReach reports whether any posting holds an ordinal at or
// above lo — i.e. whether a re-ordination shifted at lo can touch this
// shard.
func postingsReach(post map[key]*posting, lo uint32) bool {
	for _, p := range post {
		if p.count > 0 && p.skips[len(p.skips)-1].last >= lo {
			return true
		}
	}
	return false
}

// Query is one /query filter set. Zero-valued fields are inactive.
type Query struct {
	Vendor, Product string
	CWE             cwe.ID
	HasCWE          bool
	Severity        cvss.Severity
	HasSeverity     bool
	Year            int
}

// Filtered reports whether any index-backed filter is active.
func (q Query) Filtered() bool {
	return q.Vendor != "" || q.Product != "" || q.HasCWE || q.HasSeverity || q.Year != 0
}

// Match intersects the posting lists of every active filter and returns
// the matching entry ordinals in snapshot order. The second result is
// false when the query has no active filters (every entry matches, no
// lists to intersect). The error is a corrupt lazily-loaded segment —
// callers fall back to the linear scan.
func (ix *Index) Match(q Query) ([]uint32, bool, error) {
	if !q.Filtered() {
		return nil, false, nil
	}
	var ks []key
	switch {
	case q.Vendor != "" && q.Product != "":
		ks = append(ks, key{kind: keyPair, a: q.Vendor, b: q.Product})
	case q.Vendor != "":
		ks = append(ks, key{kind: keyVendor, a: q.Vendor})
	case q.Product != "":
		ks = append(ks, key{kind: keyProduct, a: q.Product})
	}
	if q.HasCWE {
		ks = append(ks, key{kind: keyCWE, a: q.CWE.String()})
	}
	if q.HasSeverity {
		ks = append(ks, key{kind: keySeverity, a: q.Severity.String()})
	}
	if q.Year != 0 {
		ks = append(ks, key{kind: keyYear, a: strconv.Itoa(q.Year)})
	}
	ps := make([]*posting, 0, len(ks))
	for _, k := range ks {
		post, err := ix.shards[shardOf(k)].load()
		if err != nil {
			return nil, true, err
		}
		p := post[k]
		if p == nil || p.count == 0 {
			return nil, true, nil
		}
		ps = append(ps, p)
	}
	// Intersect smallest-first: each merge is bounded by the smaller
	// side, and block skipping lets the sparse list drag the dense one
	// past whole undecoded blocks.
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].count < ps[j-1].count; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	if len(ps) == 1 {
		ords, err := ps[0].decode(make([]uint32, 0, ps[0].count))
		return ords, true, err
	}
	acc, err := intersectPostings(ps[0], ps[1], make([]uint32, 0, ps[0].count))
	if err != nil {
		return nil, true, err
	}
	for _, p := range ps[2:] {
		if len(acc) == 0 {
			return nil, true, nil
		}
		if acc, err = intersectOrds(acc, p); err != nil {
			return nil, true, err
		}
	}
	return acc, true, nil
}

// IndexStats is the /stats view of one generation's index.
type IndexStats struct {
	Shards        int   // total shards
	LoadedShards  int   // shards parsed into posting maps
	Keys          int   // distinct keys across loaded shards
	Entries       int   // indexed snapshot length
	ResidentBytes int64 // posting block bytes held by loaded shards
	DiskBytes     int64 // segment bytes as persisted (0 if in-memory)
	Format        int   // segment encode version
}

// Stats reports the index's load state and memory footprint.
func (ix *Index) Stats() IndexStats {
	st := IndexStats{Shards: numShards, Entries: len(ix.ids), Format: indexFormatVersion}
	for _, sh := range ix.shards {
		st.DiskBytes += int64(sh.diskBytes)
		if sh.loaded.Load() {
			st.LoadedShards++
			st.Keys += len(sh.post)
			st.ResidentBytes += int64(sh.dataBytes)
		}
	}
	return st
}

// shardWire returns shard s's persisted form. A shard still carrying
// its raw segment for the same snapshot length passes through verbatim
// — persisting an untouched lazy shard decodes nothing; anything else
// re-encodes canonically.
func (ix *Index) shardWire(s int) ([]byte, error) {
	sh := ix.shards[s]
	if sh.raw != nil && sh.rawEntries == len(ix.ids) {
		return sh.raw, nil
	}
	post, err := sh.load()
	if err != nil {
		return nil, err
	}
	size := len(indexMagic) + 16
	for k, p := range post {
		size += len(k.a) + len(k.b) + len(p.data) + 8 + 15*len(p.skips)
	}
	return appendShardWire(make([]byte, 0, size), len(ix.ids), post), nil
}

// indexFromSegments assembles a lazy Index from per-shard segment
// payloads. Shards stay raw until first touched; only each segment's
// header is read here, to pin every shard to the given snapshot length.
func indexFromSegments(raws [numShards][]byte, snap *cve.Snapshot) (*Index, error) {
	ix := &Index{ids: idsOf(snap)}
	for s, raw := range raws {
		entries, err := peekShardEntries(raw)
		if err != nil {
			return nil, err
		}
		if entries != len(ix.ids) {
			return nil, fmt.Errorf("index segment %d indexes %d entries, snapshot has %d", s, entries, len(ix.ids))
		}
		ix.shards[s] = &shard{raw: raw, rawEntries: entries, diskBytes: len(raw)}
	}
	return ix, nil
}
