package store

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"nvdclean/internal/cpe"
	"nvdclean/internal/crawler"
	"nvdclean/internal/cve"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
	"nvdclean/internal/fsio"
	"nvdclean/internal/naming"
	"nvdclean/internal/predict"
)

// testEntry builds one structurally complete entry.
func testEntry(year, seq int, vendor, product string, cwes []int, v2, v3 string) *cve.Entry {
	e := &cve.Entry{
		ID:        cve.FormatID(year, seq),
		Published: time.Date(year, 3, 1, 12, 0, 0, 0, time.UTC),
		Descriptions: []cve.Description{
			{Value: "A vulnerability in " + product + "."},
		},
		CPEs:       []cpe.Name{cpe.NewName(cpe.PartApplication, vendor, product, "")},
		References: []cve.Reference{{URL: "https://example.com/" + product, Tags: []string{"Vendor Advisory"}}},
	}
	for _, c := range cwes {
		e.CWEs = append(e.CWEs, cwe.ID(c))
	}
	if v2 != "" {
		v, err := cvss.ParseV2(v2)
		if err != nil {
			panic(err)
		}
		e.V2 = &v
	}
	if v3 != "" {
		v, err := cvss.ParseV3(v3)
		if err != nil {
			panic(err)
		}
		e.V3 = &v
	}
	return e
}

const (
	v2High = "AV:N/AC:L/Au:N/C:P/I:P/A:P"
	v2Low  = "AV:L/AC:H/Au:S/C:N/I:P/A:N"
	v3Crit = "CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:C/C:H/I:H/A:H"
)

// testSnapshots builds a small (original, cleaned) snapshot pair with
// a consolidation, a CWE fix and a backported score between them.
func testSnapshots() (*cve.Snapshot, *cve.Snapshot) {
	orig := &cve.Snapshot{
		CapturedAt: time.Date(2018, 5, 21, 0, 0, 0, 0, time.UTC),
		Entries: []*cve.Entry{
			testEntry(2017, 1, "redhat_inc", "linux_kernel", []int{79}, v2High, ""),
			testEntry(2017, 2, "redhat", "linux_kernel", nil, v2Low, v3Crit),
			testEntry(2018, 1, "acme", "anvil", []int{89}, v2High, ""),
		},
	}
	cleaned := orig.Clone()
	// Consolidate redhat_inc -> redhat, fix a CWE, backport a score.
	cleaned.Entries[0].CPEs[0].Vendor = "redhat"
	cleaned.Entries[1].CWEs = []cwe.ID{cwe.ID(125)}
	pv := 8.5
	cleaned.Entries[0].PV3 = &pv
	return orig, cleaned
}

func testCheckpoint() *Checkpoint {
	orig, _ := testSnapshots()
	return &Checkpoint{
		Original: orig,
		Vendors:  naming.NewMap(map[string]string{"redhat_inc": "redhat"}),
		Products: naming.NewProductMap(map[[2]string]string{{"acme", "anvil2"}: "anvil"}),
		State: &State{
			Fingerprint: 0xfeedbeef,
			Trained:     true,
			Training: Training{
				Models:      "LR",
				ModelConfig: predict.ModelConfig{Epochs: 3, Compact: true, Seed: 7},
				Seed:        7,
			},
			Crawled: true,
			Crawl: map[string]CrawlArtifact{
				"CVE-2017-0001": {
					Estimated: time.Date(2017, 2, 20, 0, 0, 0, 0, time.UTC),
					LagDays:   9,
					Stats:     crawler.Stats{URLs: 1, Fetched: 1, Extracted: 1},
				},
			},
			CWEFix: map[string]predict.EntryCorrection{
				"CVE-2017-0002": {CWEs: []cwe.ID{cwe.ID(125)}, Changed: true, Kind: predict.CorrectionFromOther},
			},
			HasBackport: true,
			Backport:    map[string]float64{"CVE-2017-0001": 8.5},
		},
	}
}

func mustOpen(t *testing.T, dir string) (*Store, *Checkpoint, []*cve.Delta, []string) {
	t.Helper()
	s, cp, deltas, notes, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s, cp, deltas, notes
}

func testDelta(seq int) *cve.Delta {
	d := &cve.Delta{
		CapturedAt: time.Date(2018, 5, 22, 0, 0, 0, 0, time.UTC).Add(time.Duration(seq) * time.Hour),
		Added:      []*cve.Entry{testEntry(2018, 100+seq, "acme", "dynamite", nil, v2High, "")},
		Removed:    []string{"CVE-2017-0002"},
	}
	d.Sort()
	return d
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, cp0, _, _ := mustOpen(t, dir)
	if cp0 != nil {
		t.Fatalf("fresh store returned a checkpoint")
	}
	want := testCheckpoint()
	if err := s.Commit(want); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if s.Generation() != 1 {
		t.Fatalf("generation = %d", s.Generation())
	}
	if err := s.AppendDelta(testDelta(1)); err != nil {
		t.Fatalf("AppendDelta: %v", err)
	}
	s.Close()

	s2, got, deltas, notes := mustOpen(t, dir)
	if got == nil {
		t.Fatal("reopen found no checkpoint")
	}
	if len(notes) != 0 {
		t.Errorf("clean reopen produced recovery notes: %v", notes)
	}
	if got.Generation != 1 || s2.Generation() != 1 || s2.LogRecords() != 1 {
		t.Fatalf("gen=%d store gen=%d records=%d", got.Generation, s2.Generation(), s2.LogRecords())
	}
	for i, e := range want.Original.Entries {
		if !e.Equal(got.Original.Entries[i]) {
			t.Errorf("original entry %d mismatch", i)
		}
	}
	if got.Vendors.Canonical("redhat_inc") != "redhat" || got.Vendors.Len() != 1 {
		t.Errorf("vendor map mismatch")
	}
	if got.Products.Canonical("acme", "anvil2") != "anvil" {
		t.Errorf("product map mismatch")
	}
	st := got.State
	if st.Fingerprint != 0xfeedbeef || !st.Trained || st.Models != "LR" ||
		st.ModelConfig != want.State.ModelConfig || st.Seed != 7 || !st.Crawled || !st.HasBackport {
		t.Errorf("state mismatch: %+v", st)
	}
	a := st.Crawl["CVE-2017-0001"]
	if !a.Estimated.Equal(time.Date(2017, 2, 20, 0, 0, 0, 0, time.UTC)) || a.LagDays != 9 || a.Stats.Fetched != 1 {
		t.Errorf("crawl artifact mismatch: %+v", a)
	}
	fix := st.CWEFix["CVE-2017-0002"]
	if !fix.Changed || fix.Kind != predict.CorrectionFromOther || len(fix.CWEs) != 1 || fix.CWEs[0] != cwe.ID(125) {
		t.Errorf("cwe fix mismatch: %+v", fix)
	}
	if st.Backport["CVE-2017-0001"] != 8.5 {
		t.Errorf("backport mismatch: %v", st.Backport)
	}
	if len(deltas) != 1 || len(deltas[0].Added) != 1 || deltas[0].Added[0].ID != "CVE-2018-0101" ||
		len(deltas[0].Removed) != 1 {
		t.Fatalf("delta log mismatch: %+v", deltas)
	}
}

// TestCheckpointListingCleanedFeedOpens opens the layout older builds
// wrote, whose manifest also lists a cleaned.json. The loader checks
// that file's sum like any listed file's and never decodes it, so the
// checkpoint loads without a migration, and the next commit no longer
// lists it.
func TestCheckpointListingCleanedFeedOpens(t *testing.T) {
	dir := t.TempDir()
	s, _, _, _ := mustOpen(t, dir)
	if err := s.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	s.Close()

	readManifest := func(gen string) (string, manifest) {
		t.Helper()
		path := filepath.Join(dir, gen, manifestFile)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var m manifest
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		return path, m
	}
	_, cleaned := testSnapshots()
	var feed bytes.Buffer
	if err := cve.WriteFeedCompact(&feed, cleaned); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "gen-000001", "cleaned.json"), feed.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	path, m := readManifest("gen-000001")
	m.Files["cleaned.json"] = fileSum{Size: int64(feed.Len()), CRC32C: crc32.Checksum(feed.Bytes(), walTable)}
	b, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, cp, _, notes := mustOpen(t, dir)
	if cp == nil || cp.Generation != 1 || len(notes) != 0 {
		t.Fatalf("older layout: checkpoint %v, notes %v", cp != nil, notes)
	}
	if err := s2.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	_, m = readManifest("gen-000002")
	if _, ok := m.Files["cleaned.json"]; ok {
		t.Fatal("the next commit's manifest still lists cleaned.json")
	}
}

// TestCommitCompacts proves a second Commit retires the first
// generation and starts an empty delta log.
func TestCommitCompacts(t *testing.T) {
	dir := t.TempDir()
	s, _, _, _ := mustOpen(t, dir)
	if err := s.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := s.AppendDelta(testDelta(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 2 || s.LogRecords() != 0 {
		t.Fatalf("after compaction: gen=%d records=%d", s.Generation(), s.LogRecords())
	}
	if _, err := os.Stat(filepath.Join(dir, "gen-000001")); !os.IsNotExist(err) {
		t.Error("generation 1 not retired")
	}
	if _, err := os.Stat(filepath.Join(dir, "log-000001")); !os.IsNotExist(err) {
		t.Error("delta log segment 1 not retired")
	}
	s.Close()

	s2, cp, deltas, _ := mustOpen(t, dir)
	if s2.Generation() != 2 || cp == nil || len(deltas) != 0 {
		t.Fatalf("reopen after compaction: gen=%d deltas=%d", s2.Generation(), len(deltas))
	}
}

// TestRecoveryTornTail proves a partially written delta record is
// truncated away and the log remains appendable.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _, _, _ := mustOpen(t, dir)
	if err := s.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDelta(testDelta(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDelta(testDelta(2)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash mid-append: a frame header promising more bytes
	// than were written.
	walPath := filepath.Join(dir, "log-000001")
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 1, 2, 3, 4, 'x'}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(walPath)

	s2, _, deltas, notes := mustOpen(t, dir)
	if len(deltas) != 2 {
		t.Fatalf("recovered %d deltas, want 2 (notes: %v)", len(deltas), notes)
	}
	if len(notes) == 0 {
		t.Error("torn tail produced no recovery note")
	}
	after, _ := os.Stat(walPath)
	if after.Size() >= before.Size() {
		t.Errorf("torn tail not truncated: %d -> %d", before.Size(), after.Size())
	}
	if err := s2.AppendDelta(testDelta(3)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	_, _, deltas, _ = mustOpen(t, dir)
	if len(deltas) != 3 {
		t.Fatalf("after post-recovery append: %d deltas, want 3", len(deltas))
	}
}

// TestAppendRollback proves a torn frame left by a failed append is
// rolled back before the next append, so later acknowledged records
// are never stranded behind garbage that recovery would truncate.
func TestAppendRollback(t *testing.T) {
	dir := t.TempDir()
	s, _, _, _ := mustOpen(t, dir)
	if err := s.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDelta(testDelta(1)); err != nil {
		t.Fatal(err)
	}
	// Simulate the failed append's torn frame at the file tail, then
	// the recovery path a real append error takes.
	w := s.active
	if _, err := w.f.Write([]byte{0xff, 0xff, 0x00, 0x00, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	w.rollback()
	if w.poisoned {
		t.Fatal("rollback on a healthy file must not poison the log")
	}
	if err := s.AppendDelta(testDelta(2)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	_, _, deltas, notes := mustOpen(t, dir)
	if len(deltas) != 2 || len(notes) != 0 {
		t.Fatalf("after rollback: %d deltas (want 2), notes %v", len(deltas), notes)
	}

	// A poisoned log refuses appends instead of stranding them.
	w.poisoned = true
	if err := w.append(testDelta(3)); err == nil {
		t.Fatal("poisoned log accepted an append")
	}
}

// TestProbeHealsPoisonedLog: when a fault breaks both the append and
// its rollback truncate, the log poisons itself — and a later
// successful Probe must heal it in process (retry the truncate, drop
// exactly the torn frame) so degraded-mode recovery never needs a
// restart.
func TestProbeHealsPoisonedLog(t *testing.T) {
	dir := t.TempDir()
	inj := fsio.NewInjector(fsio.OS{})
	s, _, _, _, err := OpenFS(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDelta(testDelta(1)); err != nil {
		t.Fatal(err)
	}

	// The fault rejects writes AND truncates — a frozen file, not a
	// full disk — so the rollback fails too and the log poisons.
	inj.SetDecide(func(op fsio.Op) fsio.Decision {
		switch op.Kind {
		case fsio.OpWrite, fsio.OpTruncate:
			return fsio.Decision{Err: syscall.EPERM}
		}
		return fsio.Decision{}
	})
	if err := s.AppendDelta(testDelta(2)); err == nil {
		t.Fatal("append through a frozen file did not error")
	}
	if !s.active.poisoned {
		t.Fatal("failed rollback did not poison the log")
	}
	if err := s.Probe(); err == nil {
		t.Fatal("probe with the fault still live reported healthy")
	}
	if err := s.AppendDelta(testDelta(2)); err == nil {
		t.Fatal("poisoned log accepted an append")
	}

	// Fault clears: one successful probe heals the log and appends
	// land again, with the torn frame gone.
	inj.SetDecide(nil)
	if err := s.Probe(); err != nil {
		t.Fatalf("probe after the fault cleared: %v", err)
	}
	if s.active.poisoned {
		t.Fatal("successful probe left the log poisoned")
	}
	if err := s.AppendDelta(testDelta(2)); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	s.Close()
	_, _, deltas, notes := mustOpen(t, dir)
	if len(deltas) != 2 || len(notes) != 0 {
		t.Fatalf("after heal: %d deltas (want 2), notes %v", len(deltas), notes)
	}
}

// TestRecoveryCorruptRecord proves a checksum-mismatched record drops
// it and everything after it.
func TestRecoveryCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	s, _, _, _ := mustOpen(t, dir)
	if err := s.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	walPath := filepath.Join(dir, "log-000001")
	for i := 1; i <= 3; i++ {
		if err := s.AppendDelta(testDelta(i)); err != nil {
			t.Fatal(err)
		}
		fi, _ := os.Stat(walPath)
		offsets = append(offsets, fi.Size())
	}
	s.Close()

	// Flip one payload byte inside the second record.
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[offsets[0]+walHeaderSize+5] ^= 0x40
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, deltas, notes := mustOpen(t, dir)
	if len(deltas) != 1 {
		t.Fatalf("recovered %d deltas, want 1 (corrupt record and successor dropped)", len(deltas))
	}
	if len(notes) == 0 {
		t.Error("corrupt record produced no recovery note")
	}
	fi, _ := os.Stat(walPath)
	if fi.Size() != offsets[0] {
		t.Errorf("log truncated to %d, want %d", fi.Size(), offsets[0])
	}
}

// TestRecoveryInterruptedCommit simulates dying between sealing the
// active segment and swapping CURRENT: both a leftover .tmp directory
// and a fully renamed-but-uncommitted generation directory must be
// swept, and the store must reopen at the last committed generation
// with every acknowledged delta — in the sealed segment and the active
// one — intact.
func TestRecoveryInterruptedCommit(t *testing.T) {
	dir := t.TempDir()
	s, _, _, _ := mustOpen(t, dir)
	if err := s.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDelta(testDelta(1)); err != nil {
		t.Fatal(err)
	}
	// The compaction path seals before the background commit; dying
	// anywhere after the seal must lose neither the sealed segment's
	// record nor one appended to the successor afterwards.
	if _, err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDelta(testDelta(2)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// A crash before the rename leaves gen-000002.tmp; a crash after
	// the rename but before the CURRENT swap leaves a complete
	// gen-000002 that CURRENT never adopted.
	if err := os.MkdirAll(filepath.Join(dir, "gen-000002.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "gen-000002.tmp", "original.json"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Build the orphan by copying generation 1's files.
	orphan := filepath.Join(dir, "gen-000002")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, "gen-000001")
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range files {
		b, err := os.ReadFile(filepath.Join(src, fi.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(orphan, fi.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, cp, deltas, _ := mustOpen(t, dir)
	if cp == nil || cp.Generation != 1 || s2.Generation() != 1 {
		t.Fatalf("recovered generation %v, want 1", s2.Generation())
	}
	if len(deltas) != 2 {
		t.Fatalf("recovered %d deltas, want 2 (one sealed, one active)", len(deltas))
	}
	if s2.SealedSegments() != 1 || s2.ActiveRecords() != 1 {
		t.Errorf("segments: sealed=%d active=%d, want 1/1", s2.SealedSegments(), s2.ActiveRecords())
	}
	if _, err := os.Stat(filepath.Join(dir, "gen-000002.tmp")); !os.IsNotExist(err) {
		t.Error("interrupted .tmp directory not swept")
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("orphaned generation directory not swept")
	}
}

// TestRecoveryCorruptCheckpoint proves a bit-flipped checkpoint file
// fails its manifest sum and recovery falls back cleanly: to an older
// valid generation when one exists, to a cold boot otherwise.
func TestRecoveryCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _, _, _ := mustOpen(t, dir)
	if err := s.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := filepath.Join(dir, "gen-000001", originalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, cp, _, notes := mustOpen(t, dir)
	if cp != nil {
		t.Fatalf("corrupt checkpoint was accepted")
	}
	if s2.Generation() != 0 {
		t.Fatalf("generation = %d, want 0", s2.Generation())
	}
	if len(notes) == 0 {
		t.Error("corruption produced no recovery notes")
	}
	// The store must still accept a fresh Commit afterwards.
	if err := s2.Commit(testCheckpoint()); err != nil {
		t.Fatalf("Commit after corruption recovery: %v", err)
	}
}

// TestRecoveryMissingCurrent proves the store finds the newest valid
// generation when the CURRENT pointer is lost.
func TestRecoveryMissingCurrent(t *testing.T) {
	dir := t.TempDir()
	s, _, _, _ := mustOpen(t, dir)
	if err := s.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.Remove(filepath.Join(dir, currentFile)); err != nil {
		t.Fatal(err)
	}

	s2, cp, _, notes := mustOpen(t, dir)
	if cp == nil || cp.Generation != 1 || s2.Generation() != 1 {
		t.Fatalf("lost CURRENT not recovered: %v (notes %v)", s2.Generation(), notes)
	}
}

// TestCommitCurrentSyncFailure proves a failed fsync of CURRENT.tmp
// fails the commit before the rename: a CURRENT whose contents may not
// be on disk must never become the commit point. The store reopens at
// the previous generation with every logged delta.
func TestCommitCurrentSyncFailure(t *testing.T) {
	dir := t.TempDir()
	inj := fsio.NewInjector(fsio.OS{})
	s, _, _, _, err := OpenFS(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDelta(testDelta(1)); err != nil {
		t.Fatal(err)
	}
	seq, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	inj.SetDecide(func(op fsio.Op) fsio.Decision {
		if op.Kind == fsio.OpSync && filepath.Base(op.Path) == currentFile+".tmp" {
			return fsio.Decision{Err: syscall.EIO}
		}
		return fsio.Decision{}
	})
	if err := s.CommitSealed(testCheckpoint(), seq); err == nil {
		t.Fatal("CommitSealed succeeded through a failed CURRENT fsync")
	}
	if s.Generation() != 1 {
		t.Fatalf("generation = %d after a failed commit, want 1", s.Generation())
	}
	s.Close()
	_, cp, deltas, notes := mustOpen(t, dir)
	if cp == nil || cp.Generation != 1 || len(deltas) != 1 {
		t.Fatalf("reopen after a failed commit: checkpoint %v, %d deltas (notes %v)", cp != nil, len(deltas), notes)
	}
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	d := testDelta(1)
	d.Modified = []*cve.Entry{testEntry(2017, 1, "redhat", "linux_kernel", []int{79}, v2High, v3Crit)}
	d.Sort()
	b, err := cve.MarshalDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cve.UnmarshalDelta(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.CapturedAt.Equal(d.CapturedAt) {
		t.Errorf("capturedAt = %v", got.CapturedAt)
	}
	if len(got.Added) != 1 || !got.Added[0].Equal(d.Added[0]) {
		t.Error("added entries mismatch")
	}
	if len(got.Modified) != 1 || !got.Modified[0].Equal(d.Modified[0]) {
		t.Error("modified entries mismatch")
	}
	if len(got.Removed) != 1 || got.Removed[0] != "CVE-2017-0002" {
		t.Error("removed IDs mismatch")
	}
}
