package store

import (
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nvdclean/internal/gen"
)

// commitWithIndex commits a testCheckpoint carrying a built index over
// its cleaned snapshot.
func commitWithIndex(t *testing.T, s *Store) *Index {
	t.Helper()
	cp := testCheckpoint()
	_, cleaned := testSnapshots()
	cp.Index = BuildIndex(cleaned, 4)
	if err := s.Commit(cp); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return cp.Index
}

// TestCheckpointIndexRoundTrip proves a committed index reloads
// parsed and answering identically: every shard holds its keys and
// posting bytes at load, segments report their on-disk size, and every
// posting decodes to the ordinals the in-memory index held.
func TestCheckpointIndexRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _, _, _ := mustOpen(t, dir)
	want := commitWithIndex(t, s)
	s.Close()

	_, cp, _, notes := mustOpen(t, dir)
	if cp == nil {
		t.Fatal("no checkpoint after commit")
	}
	if cp.Index == nil {
		t.Fatalf("reloaded checkpoint has no index (note %q, notes %v)", cp.IndexNote, notes)
	}
	st, built := cp.Index.Stats(), want.Stats()
	if st.Keys == 0 || st.Keys != built.Keys || st.ResidentBytes != built.ResidentBytes {
		t.Fatalf("loaded index holds %d keys in %d bytes, built index %d in %d",
			st.Keys, st.ResidentBytes, built.Keys, built.ResidentBytes)
	}
	if st.DiskBytes == 0 {
		t.Fatal("loaded index reports zero on-disk bytes")
	}
	if st.Entries != len(cp.Original.Entries) {
		t.Fatalf("index entries %d != snapshot %d", st.Entries, len(cp.Original.Entries))
	}
	for s2 := range cp.Index.shards {
		if !reflect.DeepEqual(decodedShard(t, cp.Index.shards[s2]), decodedShard(t, want.shards[s2])) {
			t.Fatalf("shard %d diverged across persist/load", s2)
		}
	}
}

// TestLegacyCheckpointWithoutIndex is the migration test: a checkpoint
// committed by a pre-index-segment build (no index-NN.seg files, no
// manifest entries for them) must load cleanly with a nil Index and no
// note — the caller's BuildIndex fallback covers it.
func TestLegacyCheckpointWithoutIndex(t *testing.T) {
	dir := t.TempDir()
	s, _, _, _ := mustOpen(t, dir)
	if err := s.Commit(testCheckpoint()); err != nil { // no Index attached
		t.Fatalf("Commit: %v", err)
	}
	s.Close()

	_, cp, _, notes := mustOpen(t, dir)
	if cp == nil {
		t.Fatalf("legacy checkpoint did not load (notes %v)", notes)
	}
	if cp.Index != nil {
		t.Fatal("checkpoint without segments produced an index")
	}
	if cp.IndexNote != "" {
		t.Fatalf("legacy checkpoint raised index note %q", cp.IndexNote)
	}
}

// TestPartialIndexSegmentsFallBack proves index trouble never fails
// the checkpoint: with some segments missing from the manifest, the
// checkpoint loads, the index is nil, and recovery notes say why.
func TestPartialIndexSegmentsFallBack(t *testing.T) {
	dir := t.TempDir()
	s, _, _, _ := mustOpen(t, dir)
	commitWithIndex(t, s)
	genDir := filepath.Join(dir, genName(s.Generation()))
	s.Close()

	// Surgically drop three segments: remove the files and their
	// manifest entries (the manifest must stay consistent, or the
	// checkpoint itself is rightly rejected).
	mPath := filepath.Join(genDir, manifestFile)
	mb, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		t.Fatal(err)
	}
	for _, seg := range []int{0, 7, 15} {
		name := indexSegName(seg)
		if _, ok := m.Files[name]; !ok {
			t.Fatalf("manifest lists no %s", name)
		}
		delete(m.Files, name)
		if err := os.Remove(filepath.Join(genDir, name)); err != nil {
			t.Fatal(err)
		}
	}
	mb, err = json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mPath, mb, 0o644); err != nil {
		t.Fatal(err)
	}

	_, cp, _, notes := mustOpen(t, dir)
	if cp == nil {
		t.Fatalf("checkpoint with partial index segments did not load (notes %v)", notes)
	}
	if cp.Index != nil {
		t.Fatal("partial segment set still produced an index")
	}
	found := false
	for _, n := range notes {
		if strings.Contains(n, "index segments incomplete") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no recovery note about the partial index: %v", notes)
	}
}

// TestDamagedIndexSegmentsDowngrade is the boot-robustness sweep for
// persisted index segments: byte-level truncations and bit flips at
// assorted offsets of an index-NN.seg must never fail the checkpoint —
// the index is derivable from the snapshots, so damage downgrades to
// Index == nil with a note naming the rebuild, while the snapshots and
// the rest of recovery proceed untouched. Contrast with snapshot files
// (TestRecoveryCorruptCheckpoint), where the same bit flip rightly
// rejects the whole generation. The resum row rewrites the segment's
// manifest sum too, so only the parse at load can catch it.
func TestDamagedIndexSegmentsDowngrade(t *testing.T) {
	type damage struct {
		name  string
		apply func(data []byte) []byte
		resum bool
	}
	cases := []damage{
		{"truncate-to-zero", func(b []byte) []byte { return nil }, false},
		{"truncate-to-one-byte", func(b []byte) []byte { return b[:1] }, false},
		{"truncate-at-half", func(b []byte) []byte { return b[:len(b)/2] }, false},
		{"truncate-last-byte", func(b []byte) []byte { return b[:len(b)-1] }, false},
		{"flip-first-byte", func(b []byte) []byte { b[0] ^= 0x01; return b }, false},
		{"flip-middle-byte", func(b []byte) []byte { b[len(b)/2] ^= 0x80; return b }, false},
		{"flip-last-byte", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, false},
		// A valid magic, version and entry count over a key table whose
		// one posting's skip entry names an ordinal past the snapshot.
		{name: "skip-past-snapshot-resum", resum: true, apply: func(b []byte) []byte {
			entries, err := parseShardHeader(&wireReader{buf: b})
			if err != nil {
				t.Fatal(err)
			}
			return appendShardWire(nil, entries, map[key]*posting{{kind: keyVendor, a: "acme"}: encodePosting([]uint32{uint32(entries)})})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, _, _, _ := mustOpen(t, dir)
			commitWithIndex(t, s)
			if err := s.AppendDelta(testDelta(1)); err != nil {
				t.Fatal(err)
			}
			genDir := filepath.Join(dir, genName(s.Generation()))
			s.Close()

			path := filepath.Join(genDir, indexSegName(3))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data = tc.apply(data)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.resum {
				resumManifest(t, genDir, map[string][]byte{indexSegName(3): data})
			}

			s2, cp, deltas, _ := mustOpen(t, dir)
			defer s2.Close()
			if cp == nil {
				t.Fatal("damaged index segment rejected the whole checkpoint")
			}
			if cp.Index != nil {
				t.Fatal("damaged index segment still produced an index")
			}
			named := strings.Contains(cp.IndexNote, "damaged") && strings.Contains(cp.IndexNote, indexSegName(3))
			if tc.resum {
				named = strings.Contains(cp.IndexNote, "unusable") && strings.Contains(cp.IndexNote, "index segment 3:")
			}
			if !named || !strings.Contains(cp.IndexNote, "rebuilt") {
				t.Fatalf("index note does not name the damage: %q", cp.IndexNote)
			}
			// Everything else recovered: snapshots, generation, the
			// appended delta — and the store still takes writes.
			if len(cp.Original.Entries) != len(testCheckpoint().Original.Entries) {
				t.Fatal("snapshot diverged under index damage")
			}
			if len(deltas) != 1 {
				t.Fatalf("replayed %d deltas, want 1", len(deltas))
			}
			if err := s2.AppendDelta(testDelta(2)); err != nil {
				t.Fatalf("append after index downgrade: %v", err)
			}
		})
	}
}

// TestVersion1IndexSegmentsRebuild: an older build kept a feed in
// file order and wrote version 1 index segments over it, with valid
// CRCs. ReadFeed now sorts the reopened snapshot into ID order, so
// those ordinals would name other entries: the segments take the
// unusable-segment path once. The checkpoint opens with a rebuild note
// and no index, and the index rebuilt over the reopened snapshot
// answers like BuildIndex over the snapshot in ID order, not like the
// segments.
func TestVersion1IndexSegmentsRebuild(t *testing.T) {
	dir := t.TempDir()
	s, _, _, _ := mustOpen(t, dir)
	orig, cleaned := testSnapshots()
	slices.Reverse(orig.Entries)
	slices.Reverse(cleaned.Entries)
	cp := testCheckpoint()
	cp.Original = orig
	cp.Index = BuildIndex(cleaned, 4)
	if err := s.Commit(cp); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	genDir := filepath.Join(dir, genName(s.Generation()))
	s.Close()

	rewritten := make(map[string][]byte, numShards)
	for seg := range numShards {
		name := indexSegName(seg)
		data, err := os.ReadFile(filepath.Join(genDir, name))
		if err != nil {
			t.Fatal(err)
		}
		data[len(indexMagic)] = 1 // the version byte
		if err := os.WriteFile(filepath.Join(genDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rewritten[name] = data
	}
	resumManifest(t, genDir, rewritten)

	s2, cp2, _, notes := mustOpen(t, dir)
	if cp2 == nil {
		t.Fatalf("checkpoint with version 1 index segments did not open (notes %v)", notes)
	}
	if cp2.Index != nil {
		t.Fatal("version 1 index segments still produced an index")
	}
	if !strings.Contains(cp2.IndexNote, "version 1") || !strings.Contains(cp2.IndexNote, "rebuilt") {
		t.Fatalf("index note does not name the version and the rebuild: %q", cp2.IndexNote)
	}
	if err := cp2.Original.CheckOrder(); err != nil {
		t.Fatalf("reopened snapshot: %v", err)
	}
	sorted, want := testSnapshots()
	for i, e := range cp2.Original.Entries {
		if e.ID != sorted.Entries[i].ID {
			t.Fatalf("reopened entry %d is %s, want %s", i, e.ID, sorted.Entries[i].ID)
		}
	}
	// The caller rebuilds over the reopened snapshot's cleaned view,
	// which is in the same ID order.
	cleaned.Sort()
	rebuilt, fresh := BuildIndex(cleaned, 4), BuildIndex(want, 1)
	stale := false
	for sh := range rebuilt.shards {
		got := decodedShard(t, rebuilt.shards[sh])
		if !reflect.DeepEqual(got, decodedShard(t, fresh.shards[sh])) {
			t.Fatalf("rebuilt shard %d differs from BuildIndex", sh)
		}
		stale = stale || !reflect.DeepEqual(got, decodedShard(t, cp.Index.shards[sh]))
	}
	if !stale {
		t.Fatal("the file-order segments index the snapshot like the rebuild; the test proves nothing")
	}
	if err := s2.AppendDelta(testDelta(1)); err != nil {
		t.Fatalf("append after index rebuild note: %v", err)
	}
}

// resumManifest records the size and CRC-32C of each rewritten file in
// the checkpoint's MANIFEST.json, so the checkpoint's sums hold again.
func resumManifest(t *testing.T, genDir string, files map[string][]byte) {
	t.Helper()
	mPath := filepath.Join(genDir, manifestFile)
	mb, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		t.Fatal(err)
	}
	for name, data := range files {
		m.Files[name] = fileSum{Size: int64(len(data)), CRC32C: crc32.Checksum(data, walTable)}
	}
	if mb, err = json.Marshal(&m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mPath, mb, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMultipleDamagedIndexSegments: the note lists every damaged
// segment, sorted, so an operator sees the blast radius at a glance.
func TestMultipleDamagedIndexSegments(t *testing.T) {
	dir := t.TempDir()
	s, _, _, _ := mustOpen(t, dir)
	commitWithIndex(t, s)
	genDir := filepath.Join(dir, genName(s.Generation()))
	s.Close()
	for _, seg := range []int{14, 2} {
		path := filepath.Join(genDir, indexSegName(seg))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[0] ^= 0x55
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, cp, _, _ := mustOpen(t, dir)
	defer s2.Close()
	if cp == nil || cp.Index != nil {
		t.Fatal("damaged segments did not downgrade to a rebuildable checkpoint")
	}
	i2, i14 := strings.Index(cp.IndexNote, indexSegName(2)), strings.Index(cp.IndexNote, indexSegName(14))
	if i2 < 0 || i14 < 0 || i2 > i14 {
		t.Fatalf("note does not list both damaged segments in order: %q", cp.IndexNote)
	}
}

// TestIndexSegmentSizeGuard is the checkpoint-size regression bound:
// persisted index segments must stay within a recorded bytes-per-entry
// budget on a realistic synthetic snapshot. The old map[key][]string
// representation costs 16+ bytes per posting element before string
// data; delta-varint blocks hold dense postings near 1 byte/element,
// so total segment bytes per entry stays in the low tens even with
// per-key headers. Raising this bound is a format regression — justify
// it in the commit that does.
func TestIndexSegmentSizeGuard(t *testing.T) {
	const maxBytesPerEntry = 16.0 // measured ~6.9 on this snapshot
	snap := indexSnapshot(3000)
	ix := BuildIndex(snap, 4)
	total := 0
	for s := 0; s < numShards; s++ {
		total += len(ix.shardWire(s))
	}
	perEntry := float64(total) / float64(len(snap.Entries))
	t.Logf("index segments: %d bytes over %d entries = %.2f bytes/entry", total, len(snap.Entries), perEntry)
	if perEntry > maxBytesPerEntry {
		t.Fatalf("index segments cost %.2f bytes/entry, budget %.1f", perEntry, maxBytesPerEntry)
	}
}

// TestParseSegmentsAllocGuard pins what parsing a 3K-CVE checkpoint's
// index segments costs: a constant number of heap objects per shard,
// its map and one allocation each of key bytes, skip entries and
// postings, not objects per key.
func TestParseSegmentsAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts skipped in -short mode: race builds count allocations differently")
	}
	snap, _, _, err := gen.Generate(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ix := BuildIndex(snap, 1)
	var raws [numShards][]byte
	keys := 0
	for s := range raws {
		raws[s] = ix.shardWire(s)
		keys += len(ix.shards[s].post)
	}
	n := testing.AllocsPerRun(5, func() {
		for _, raw := range raws {
			if _, _, err := parseShardWire(raw); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("%d segments holding %d keys parse in %.0f objects", numShards, keys, n)
	if max := float64(8 * numShards); n > max {
		t.Errorf("parsing %d segments holding %d keys allocates %.0f objects, want at most %.0f", numShards, keys, n, max)
	}
}
