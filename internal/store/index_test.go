package store

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"nvdclean/internal/cpe"
	"nvdclean/internal/cve"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
)

// indexSnapshot builds a deterministic snapshot with overlapping
// vendors, products, CWE types, severity bands and years.
func indexSnapshot(n int) *cve.Snapshot {
	vendors := []string{"redhat", "microsoft", "oracle", "acme", "initech"}
	products := []string{"kernel", "office", "db", "anvil", "tps"}
	cwes := [][]int{{79}, {89, 79}, {125}, nil, {-1}}
	s := &cve.Snapshot{CapturedAt: time.Date(2018, 5, 21, 0, 0, 0, 0, time.UTC)}
	for i := 0; i < n; i++ {
		year := 2014 + i%5
		e := testEntry(year, i+1, vendors[i%len(vendors)], products[i%len(products)], cwes[i%len(cwes)], v2High, "")
		// Multi-CPE entries exercise pair semantics: vendor A with
		// product X plus vendor B with product Y must NOT match a
		// query for (A, Y).
		if i%3 == 0 {
			e.CPEs = append(e.CPEs, cpe.NewName(cpe.PartApplication, vendors[(i+1)%len(vendors)], products[(i+2)%len(products)], ""))
		}
		switch i % 4 {
		case 0:
			v, _ := cvss.ParseV3(v3Crit)
			e.V3 = &v
		case 1:
			pv := 2.0 + float64(i%8)
			e.PV3 = &pv
		case 2:
			// v2-only, no backported score: no severity posting.
			e.V2 = nil
			e.PV3 = nil
		}
		s.Entries = append(s.Entries, e)
	}
	s.Sort()
	return s
}

// bruteMatch is the reference filter: a plain scan of the snapshot.
func bruteMatch(snap *cve.Snapshot, q Query) []string {
	var out []string
	for _, e := range snap.Entries {
		if q.Year != 0 && e.Year() != q.Year {
			continue
		}
		if q.Vendor != "" || q.Product != "" {
			found := false
			for _, n := range e.CPEs {
				if q.Vendor != "" && n.Vendor != q.Vendor {
					continue
				}
				if q.Product != "" && n.Product != q.Product {
					continue
				}
				found = true
				break
			}
			if !found {
				continue
			}
		}
		if q.HasCWE && !e.HasCWE(q.CWE) {
			continue
		}
		if q.HasSeverity {
			sev, ok := e.SeverityPV3()
			if !ok || sev != q.Severity {
				continue
			}
		}
		out = append(out, e.ID)
	}
	return out
}

// queryGrid enumerates a representative set of filter combinations.
func queryGrid() []Query {
	var qs []Query
	for _, vendor := range []string{"", "redhat", "acme", "nosuch"} {
		for _, product := range []string{"", "kernel", "anvil"} {
			qs = append(qs, Query{Vendor: vendor, Product: product})
			qs = append(qs, Query{Vendor: vendor, Product: product, Year: 2016})
			qs = append(qs, Query{Vendor: vendor, Product: product, HasSeverity: true, Severity: cvss.SeverityCritical})
		}
	}
	qs = append(qs,
		Query{HasCWE: true, CWE: cwe.ID(79)},
		Query{HasCWE: true, CWE: cwe.ID(89), Year: 2015},
		Query{HasCWE: true, CWE: cwe.ID(4242)},
		Query{HasSeverity: true, Severity: cvss.SeverityHigh, Year: 2017},
		Query{Year: 1999},
	)
	return qs
}

// matchIDs resolves Match's ordinals against the indexed snapshot.
func matchIDs(t *testing.T, ix *Index, snap *cve.Snapshot, q Query) ([]string, bool) {
	t.Helper()
	ords, filtered, err := ix.Match(q)
	if err != nil {
		t.Fatalf("Match(%+v): %v", q, err)
	}
	if !filtered {
		return nil, false
	}
	var out []string
	for _, o := range ords {
		out = append(out, snap.Entries[o].ID)
	}
	return out, true
}

// decodedShard materializes one shard's posting map into plain ordinal
// slices for comparison.
func decodedShard(t *testing.T, sh *shard) map[key][]uint32 {
	t.Helper()
	out := make(map[key][]uint32, len(sh.post))
	for k, p := range sh.post {
		ords, err := p.decode(nil)
		if err != nil {
			t.Fatalf("decode posting %+v: %v", k, err)
		}
		out[k] = ords
	}
	return out
}

// TestIndexMatchesLinearScan holds Match and the scan predicate
// Query.Matches to bruteMatch for every grid query, and MatchedVendor
// to name a vendor exactly when the query filters on a vendor or a
// product and the entry passes those filters.
func TestIndexMatchesLinearScan(t *testing.T) {
	snap := indexSnapshot(300)
	ix := BuildIndex(snap, 4)
	for _, q := range queryGrid() {
		want := bruteMatch(snap, q)
		names := Query{Vendor: q.Vendor, Product: q.Product}
		var scanned []string
		for _, e := range snap.Entries {
			if q.Matches(e) {
				scanned = append(scanned, e.ID)
			}
			v := q.MatchedVendor(e)
			if (v != "") != (names.Filtered() && names.Matches(e)) || q.Vendor != "" && v != "" && v != q.Vendor {
				t.Errorf("query %+v: MatchedVendor(%s) = %q", q, e.ID, v)
			}
		}
		if !slices.Equal(scanned, want) {
			t.Errorf("query %+v: Matches selects %v, want %v", q, scanned, want)
		}
		got, filtered := matchIDs(t, ix, snap, q)
		if !q.Filtered() {
			if filtered {
				t.Fatalf("empty query reported filtered")
			}
			continue
		}
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("query %+v: got %v, want %v", q, got, want)
		}
	}
}

func TestIndexWorkerInvariance(t *testing.T) {
	snap := indexSnapshot(300)
	base := BuildIndex(snap, 1)
	for _, w := range []int{2, 3, 8} {
		ix := BuildIndex(snap, w)
		for s := range base.shards {
			if !reflect.DeepEqual(decodedShard(t, base.shards[s]), decodedShard(t, ix.shards[s])) {
				t.Fatalf("shard %d differs between workers 1 and %d", s, w)
			}
		}
	}
}

// checkIndexEqual asserts two indexes hold identical postings and the
// same ordinal→ID table.
func checkIndexEqual(t *testing.T, got, want *Index) {
	t.Helper()
	if !reflect.DeepEqual(got.ids, want.ids) {
		t.Fatalf("ordinal tables differ: %d vs %d ids", len(got.ids), len(want.ids))
	}
	for s := range want.shards {
		if !reflect.DeepEqual(decodedShard(t, got.shards[s]), decodedShard(t, want.shards[s])) {
			t.Errorf("shard %d: postings diverge", s)
		}
	}
}

// TestIndexUpdate proves incremental maintenance under re-ordination:
// a delta whose insertions land in the middle of the ordinal space
// (every later ordinal shifts) still yields exactly the index a full
// rebuild of the new snapshot would, and the old index is untouched.
func TestIndexUpdate(t *testing.T) {
	snap := indexSnapshot(200)
	ix := BuildIndex(snap, 4)

	next := snap.Clone()
	// Remove one entry, modify another (vendor rename + severity
	// change), add two new ones — one after every existing entry, one
	// before all of them (a front insertion shifts every ordinal).
	removedID := next.Entries[10].ID
	next.Entries = append(next.Entries[:10], next.Entries[11:]...)
	mod := next.Entries[20]
	mod.CPEs[0].Vendor = "globex"
	pv := 9.8
	mod.V3 = nil
	mod.PV3 = &pv
	added1 := testEntry(2019, 1, "globex", "kernel", []int{79}, v2High, "")
	added2 := testEntry(2013, 1, "initech", "tps", nil, "", v3Crit)
	next.Entries = append(next.Entries, added1, added2)
	next.Sort()

	d := cve.Diff(snap, next)
	if len(d.Added) != 2 || len(d.Modified) != 1 || len(d.Removed) != 1 || d.Removed[0] != removedID {
		t.Fatalf("unexpected delta shape: %d/%d/%d", len(d.Added), len(d.Modified), len(d.Removed))
	}
	prevByID := make(map[string]*cve.Entry, len(snap.Entries))
	for _, e := range snap.Entries {
		prevByID[e.ID] = e
	}

	before := make([]map[key][]uint32, numShards)
	for s := range ix.shards {
		before[s] = decodedShard(t, ix.shards[s])
	}

	got, err := ix.Update(d, func(id string) *cve.Entry { return prevByID[id] }, next, 4)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	checkIndexEqual(t, got, BuildIndex(next, 4))
	for s := range ix.shards {
		if !reflect.DeepEqual(decodedShard(t, ix.shards[s]), before[s]) {
			t.Errorf("shard %d of the previous index was mutated", s)
		}
	}
	got2, err := ix.Update(&cve.Delta{}, func(string) *cve.Entry { return nil }, snap, 4)
	if err != nil {
		t.Fatalf("empty Update: %v", err)
	}
	if got2 != ix {
		t.Error("empty delta should return the receiver")
	}
}

// TestIndexUpdateSharing proves copy-on-write under the common CVE feed
// shape: additions whose IDs sort after every existing entry keep the
// re-ordination an identity, so every shard the delta's keys don't
// touch is shared pointer-for-pointer with the previous index.
func TestIndexUpdateSharing(t *testing.T) {
	snap := indexSnapshot(200)
	ix := BuildIndex(snap, 4)

	next := snap.Clone()
	added := testEntry(2019, 500, "globex", "kernel", []int{79}, v2High, "")
	next.Entries = append(next.Entries, added)
	next.Sort()

	d := cve.Diff(snap, next)
	prevByID := make(map[string]*cve.Entry, len(snap.Entries))
	for _, e := range snap.Entries {
		prevByID[e.ID] = e
	}
	got, err := ix.Update(d, func(id string) *cve.Entry { return prevByID[id] }, next, 4)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	checkIndexEqual(t, got, BuildIndex(next, 4))
	shared := 0
	for s := range got.shards {
		if got.shards[s] == ix.shards[s] {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no shard was shared between generations (copy-on-write defeated)")
	}

	// A removal mid-snapshot bounds sharing by the shift point instead
	// of defeating it: shards whose postings stay below the removed
	// ordinal — and that the removal's keys don't touch — are shared.
	next2 := snap.Clone()
	removedID := next2.Entries[150].ID
	next2.Entries = append(next2.Entries[:150], next2.Entries[151:]...)
	d2 := cve.Diff(snap, next2)
	if len(d2.Removed) != 1 || d2.Removed[0] != removedID {
		t.Fatalf("unexpected removal delta: %+v", d2.Removed)
	}
	got2, err := ix.Update(d2, func(id string) *cve.Entry { return prevByID[id] }, next2, 4)
	if err != nil {
		t.Fatalf("Update (removal): %v", err)
	}
	checkIndexEqual(t, got2, BuildIndex(next2, 4))
}

// TestShardBoundarySeparation is the regression test for the shardOf
// field separator: pair keys whose concatenated bytes are equal but
// whose a/b boundary differs must not all collapse onto one shard —
// the old fold XOR-ed a zero byte between the fields, which mixes no
// boundary information into the low bits the shard number is taken
// from.
func TestShardBoundarySeparation(t *testing.T) {
	// The issue's canonical pair.
	if a, b := shardOf(key{kind: keyPair, a: "ab", b: "c"}), shardOf(key{kind: keyPair, a: "a", b: "bc"}); a == b {
		t.Errorf(`shardOf("ab","c") == shardOf("a","bc") == %d: boundary not folded`, a)
	}
	// Every split family of a word: at least two distinct shards per
	// family (a 16-way hash may still collide individual pairs).
	words := []string{"linuxkernel", "microsoftoffice", "redhatenterprise", "acmeanvil", "initechtps"}
	for _, w := range words {
		shards := make(map[int]bool)
		for cut := 1; cut < len(w); cut++ {
			shards[shardOf(key{kind: keyPair, a: w[:cut], b: w[cut:]})] = true
		}
		if len(shards) < 2 {
			t.Errorf("all %d boundary splits of %q land on one shard", len(w)-1, w)
		}
	}
	// An empty b must differ from the whole string in a (the other
	// degenerate boundary).
	if a, b := shardOf(key{kind: keyVendor, a: "abc"}), shardOf(key{kind: keyPair, a: "abc", b: ""}); a == b {
		// Different kinds already separate these; this guards the
		// fold's shape if kinds ever merge.
		t.Logf("vendor(abc) and pair(abc,\"\") share shard %d (allowed: kind byte separates them)", a)
	}
}

// TestShardDistribution is the distribution sanity check: a realistic
// key population must spread across every shard without pathological
// skew.
func TestShardDistribution(t *testing.T) {
	var counts [numShards]int
	n := 0
	add := func(k key) {
		counts[shardOf(k)]++
		n++
	}
	for i := 0; i < 40; i++ {
		vendor := fmt.Sprintf("vendor%02d", i)
		add(key{kind: keyVendor, a: vendor})
		for j := 0; j < 12; j++ {
			product := fmt.Sprintf("product%02d", j)
			add(key{kind: keyProduct, a: product})
			add(key{kind: keyPair, a: vendor, b: product})
		}
	}
	for y := 1999; y < 2026; y++ {
		add(key{kind: keyYear, a: fmt.Sprint(y)})
	}
	for c := 1; c < 1000; c += 7 {
		add(key{kind: keyCWE, a: fmt.Sprintf("CWE-%d", c)})
	}
	mean := n / numShards
	for s, c := range counts {
		if c == 0 {
			t.Errorf("shard %d received no keys (n=%d)", s, n)
		}
		if c > 4*mean {
			t.Errorf("shard %d holds %d of %d keys (>4x the mean %d)", s, c, n, mean)
		}
	}
}

// TestEntryKeysExactCapacity is the regression test for the entryKeys
// pre-sizing fix: duplicate-heavy CPE lists must not over-allocate, and
// the emitted key set must be exactly the distinct keys, in
// compareKeys order.
func TestEntryKeysExactCapacity(t *testing.T) {
	e := testEntry(2017, 1, "redhat", "kernel", []int{79, 79, 89}, v2High, v3Crit)
	// Duplicate the same CPE name many times: 3*len(CPEs) would
	// reserve 30 key slots for what dedups to 3.
	for i := 0; i < 9; i++ {
		e.CPEs = append(e.CPEs, e.CPEs[0])
	}
	keys := entryKeys(e)
	if len(keys) != cap(keys) {
		t.Errorf("entryKeys allocated %d slots for %d keys", cap(keys), len(keys))
	}
	seen := make(map[key]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			t.Errorf("duplicate key %+v", k)
		}
		seen[k] = true
	}
	if !slices.IsSortedFunc(keys, compareKeys) {
		t.Errorf("keys out of compareKeys order: %+v", keys)
	}
	// vendor + product + pair + 2 CWEs + severity + year.
	if len(keys) != 7 {
		t.Errorf("got %d keys, want 7: %+v", len(keys), keys)
	}
}
