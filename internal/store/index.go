package store

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

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
// A checkpoint restores an index by parsing every persisted segment
// when it loads (indexFromSegments): each shard is an immutable posting
// map from construction, so lookups take no lock.
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

// shard is one immutable posting map.
type shard struct {
	post      map[key]*posting
	dataBytes int // Σ posting block bytes

	// raw is the shard's segment payload when it came from a persisted
	// checkpoint; parsed postings alias it, so it stays reachable for
	// the shard's lifetime. nil for shards built in memory.
	raw        []byte
	rawEntries int // entry count in raw's header
}

// newShard wraps a posting map.
func newShard(post map[key]*posting) *shard {
	sh := &shard{post: post}
	for _, p := range post {
		sh.dataBytes += len(p.data)
	}
	return sh
}

// Index is an immutable set of sharded inverted indexes over one
// cleaned generation. Lookups take no lock; updates produce a new
// Index sharing every untouched shard with the old one.
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

// entryKeys returns every posting key of one cleaned entry, each once
// and in compareKeys order, in a slice of exactly their number: the
// keys, duplicates included, are gathered in a stack buffer, sorted and
// compacted there, and copied out. Neither BuildIndex nor Update
// depends on the order; Update's key diff merges two such lists.
func entryKeys(e *cve.Entry) []key {
	var buf [32]key
	keys := buf[:0]
	for _, n := range e.CPEs {
		keys = append(keys,
			key{kind: keyVendor, a: n.Vendor},
			key{kind: keyProduct, a: n.Product},
			key{kind: keyPair, a: n.Vendor, b: n.Product})
	}
	for _, c := range e.CWEs {
		keys = append(keys, key{kind: keyCWE, a: c.String()})
	}
	if sev, ok := e.SeverityPV3(); ok {
		keys = append(keys, key{kind: keySeverity, a: sev.String()})
	}
	keys = append(keys, key{kind: keyYear, a: strconv.Itoa(e.Year())})
	slices.SortFunc(keys, compareKeys)
	keys = slices.Compact(keys)
	out := make([]key, len(keys))
	copy(out, keys)
	return out
}

// keyDiff drops the keys a and b share from both, in place; both must
// be in compareKeys order without duplicates, as entryKeys returns
// them. What is left of a is what only a holds, and likewise b.
func keyDiff(a, b []key) (onlyA, onlyB []key) {
	i, j, na, nb := 0, 0, 0, 0
	for i < len(a) && j < len(b) {
		switch c := compareKeys(a[i], b[j]); {
		case c < 0:
			a[na], na, i = a[i], na+1, i+1
		case c > 0:
			b[nb], nb, j = b[j], nb+1, j+1
		default:
			i, j = i+1, j+1
		}
	}
	na += copy(a[na:], a[i:])
	nb += copy(b[nb:], b[j:])
	return a[:na], b[:nb]
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
// Its work follows the delta, not the snapshot:
//   - A modified entry stages only the keys it gains or loses. A key it
//     keeps already lists it, at the ordinal the re-ordination maps to
//     its new one.
//   - A delta that adds and removes nothing keeps the ordinal space, and
//     the new Index shares the receiver's ID table.
//   - Any other delta maps old ordinals to new ones in one walk of the
//     two tables. Ordinals below the first insertion or removal point
//     are the same in both spaces.
//
// A posting that no staged key op touches and that holds no ordinal at
// or above that point is shared with the receiver, and so is a shard
// all of whose postings are. For the common CVE feed shape (new entries
// append at the top of the ID order) that is every shard the new
// entries' keys miss, and a description edit shares them all. The
// receiver itself is never modified, so the old generation keeps
// serving its index.
func (ix *Index) Update(d *cve.Delta, prev func(id string) *cve.Entry, next *cve.Snapshot, workers int) (*Index, error) {
	if d.Empty() {
		return ix, nil
	}
	oldIDs := ix.ids
	newIDs := oldIDs
	var remap []uint32 // old ordinal → new ordinal, ordGone for removals; nil for the identity
	shift := len(oldIDs)
	if len(d.Added) > 0 || len(d.Removed) > 0 {
		newIDs = idsOf(next)
		remap, shift = reordinate(oldIDs, newIDs)
	}

	var ops shardOps
	for _, id := range d.Removed {
		if e := prev(id); e != nil {
			if o, ok := ordIn(oldIDs, id); ok {
				ops.stage(entryKeys(e), o, false)
			}
		}
	}
	for _, e := range d.Modified {
		keys := entryKeys(e)
		if old := prev(e.ID); old != nil {
			if o, ok := ordIn(oldIDs, e.ID); ok {
				var lost []key
				lost, keys = keyDiff(entryKeys(old), keys)
				ops.stage(lost, o, false)
			}
		}
		if o, ok := ordIn(newIDs, e.ID); ok {
			ops.stage(keys, o, true)
		}
	}
	for _, e := range d.Added {
		if o, ok := ordIn(newIDs, e.ID); ok {
			ops.stage(entryKeys(e), o, true)
		}
	}

	out := &Index{ids: newIDs, shards: ix.shards}
	if remap == nil && ops.empty() {
		return out, nil
	}
	if err := out.rebuild(&ops, remap, shift, workers); err != nil {
		return nil, err
	}
	return out, nil
}

// keyOp is one staged posting change: a removal of ord, in old-ordinal
// space (applied before re-ordination), or an addition, in new-ordinal
// space.
type keyOp struct {
	k   key
	ord uint32
	add bool
}

// shardOps holds the key ops an Update stages, per shard.
type shardOps [numShards][]keyOp

// stage files an op on ord for each key.
func (so *shardOps) stage(keys []key, ord uint32, add bool) {
	for _, k := range keys {
		s := shardOf(k)
		so[s] = append(so[s], keyOp{k: k, ord: ord, add: add})
	}
}

// empty reports whether no op is staged.
func (so *shardOps) empty() bool {
	for _, ops := range so {
		if len(ops) > 0 {
			return false
		}
	}
	return true
}

// rebuild replaces, in parallel, each shard of ix (still the previous
// Index's) that a staged op touches, or whose postings reach shift
// under a remap, with rebuildShard of it; every other shard stays
// shared. An Update that stages nothing and keeps the ordinal space
// never calls it, so it captures nothing for the parallel step.
func (ix *Index) rebuild(ops *shardOps, remap []uint32, shift, workers int) error {
	perShard := *ops
	var errs [numShards]error
	parallel.For(workers, numShards, func(s int) {
		post := ix.shards[s].post
		if len(perShard[s]) == 0 && (remap == nil || !postingsReach(post, uint32(shift))) {
			return
		}
		ix.shards[s], errs[s] = rebuildShard(post, perShard[s], remap, shift)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rebuildShard applies one shard's staged ops to its posting map and
// re-ordinates every posting that reaches shift through remap (nil for
// the identity). A posting neither touches is shared; the rest are
// decoded, edited and re-encoded.
func rebuildShard(post map[key]*posting, ops []keyOp, remap []uint32, shift int) (*shard, error) {
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
		var err error
		scratch, err = p.decode(scratch[:0])
		if err != nil {
			return nil, err
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
	return newShard(npost), nil
}

// reordinate maps every old ordinal to its new one, ordGone for an ID
// newIDs lacks, in one merge walk of the two ID tables, and returns
// with it the first old ordinal whose mapping is not the identity
// (len(oldIDs) when there is none, and the map then nil).
func reordinate(oldIDs, newIDs []string) ([]uint32, int) {
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
	if shift == len(oldIDs) {
		return nil, shift
	}
	return remap, shift
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

// Matches reports whether e passes every filter of q: the set Match
// intersects out of the postings, written as a scan. It is the
// predicate of the scan a reader falls back on when a posting block
// does not decode, and the rule that decides which cached pages
// outlive a generation swap, so the two cannot drift apart.
func (q Query) Matches(e *cve.Entry) bool {
	if q.Year != 0 && e.Year() != q.Year {
		return false
	}
	if (q.Vendor != "" || q.Product != "") && q.MatchedVendor(e) == "" {
		return false
	}
	if q.HasCWE && !e.HasCWE(q.CWE) {
		return false
	}
	if q.HasSeverity {
		if sev, ok := e.SeverityPV3(); !ok || sev != q.Severity {
			return false
		}
	}
	return true
}

// MatchedVendor returns the vendor of e's first CPE name that passes
// both the vendor and the product filter, or "" when there is none or
// q filters on neither: the "vendor" field of a /query hit.
func (q Query) MatchedVendor(e *cve.Entry) string {
	if q.Vendor == "" && q.Product == "" {
		return ""
	}
	for _, n := range e.CPEs {
		if (q.Vendor == "" || n.Vendor == q.Vendor) && (q.Product == "" || n.Product == q.Product) {
			return n.Vendor
		}
	}
	return ""
}

// Match intersects the posting lists of every active filter and returns
// the matching entry ordinals in snapshot order. The second result is
// false when the query has no active filters (every entry matches, no
// lists to intersect). The error is a corrupt posting block — callers
// fall back to the linear scan.
func (ix *Index) Match(q Query) ([]uint32, bool, error) {
	if !q.Filtered() {
		return nil, false, nil
	}
	// A query names at most four keys: a name, a CWE, a severity and a
	// year.
	var ksBuf [4]key
	var psBuf [4]*posting
	ks := ksBuf[:0]
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
	ps := psBuf[:0]
	for _, k := range ks {
		p := ix.shards[shardOf(k)].post[k]
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
	Keys          int   // distinct keys across every shard
	Entries       int   // indexed snapshot length
	ResidentBytes int64 // posting block bytes held in memory
	DiskBytes     int64 // bytes of the persisted segments shards came from (0 if in-memory)
	Format        int   // segment encode version
}

// Stats reports the index's size and memory footprint.
func (ix *Index) Stats() IndexStats {
	st := IndexStats{Shards: numShards, Entries: len(ix.ids), Format: indexFormatVersion}
	for _, sh := range ix.shards {
		st.Keys += len(sh.post)
		st.ResidentBytes += int64(sh.dataBytes)
		st.DiskBytes += int64(len(sh.raw))
	}
	return st
}

// shardWire returns shard s's persisted form. A shard still carrying
// its raw segment for the same snapshot length passes through verbatim
// — persisting an untouched restored shard encodes nothing; anything
// else re-encodes canonically.
func (ix *Index) shardWire(s int) []byte {
	sh := ix.shards[s]
	if sh.raw != nil && sh.rawEntries == len(ix.ids) {
		return sh.raw
	}
	size := len(indexMagic) + 16
	for k, p := range sh.post {
		size += len(k.a) + len(k.b) + len(p.data) + 8 + 15*len(p.skips)
	}
	return appendShardWire(make([]byte, 0, size), len(ix.ids), sh.post)
}

// indexFromSegments assembles an Index from per-shard segment payloads,
// parsing every segment in shard order. Each must index the given
// snapshot's length; a malformed segment fails the whole index.
func indexFromSegments(raws [numShards][]byte, snap *cve.Snapshot) (*Index, error) {
	ix := &Index{ids: idsOf(snap)}
	for s, raw := range raws {
		post, entries, err := parseShardWire(raw)
		if err != nil {
			return nil, fmt.Errorf("index segment %d: %w", s, err)
		}
		if entries != len(ix.ids) {
			return nil, fmt.Errorf("index segment %d indexes %d entries, snapshot has %d", s, entries, len(ix.ids))
		}
		sh := newShard(post)
		sh.raw, sh.rawEntries = raw, entries
		ix.shards[s] = sh
	}
	return ix, nil
}
