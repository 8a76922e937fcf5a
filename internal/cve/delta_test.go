package cve

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"nvdclean/internal/cpe"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
)

func testEntry(id string, seq int) *Entry {
	return &Entry{
		ID:        id,
		Published: time.Date(2017, 3, 1+seq%20, 0, 0, 0, 0, time.UTC),
		Descriptions: []Description{
			{Source: "cve@mitre.org", Value: "A buffer overflow."},
		},
		CWEs: []cwe.ID{cwe.ID(119)},
		V2: &cvss.VectorV2{
			AccessVector: cvss.AccessNetwork, AccessComplexity: cvss.ComplexityLow,
			Authentication: cvss.AuthNone, Confidentiality: cvss.ImpactPartial,
			Integrity: cvss.ImpactPartial, Availability: cvss.ImpactPartial,
		},
		CPEs:       []cpe.Name{cpe.NewName(cpe.PartApplication, "acme", "widget", "")},
		References: []Reference{{URL: "https://example.com/advisory/1", Tags: []string{"Vendor Advisory"}}},
	}
}

func TestEntryEqual(t *testing.T) {
	a := testEntry("CVE-2017-0001", 1)
	if !a.Equal(a.Clone()) {
		t.Fatal("entry should equal its clone")
	}
	cases := map[string]func(*Entry){
		"published":   func(e *Entry) { e.Published = e.Published.AddDate(0, 0, 1) },
		"description": func(e *Entry) { e.Descriptions[0].Value = "changed" },
		"cwe":         func(e *Entry) { e.CWEs[0] = cwe.ID(79) },
		"cpe vendor":  func(e *Entry) { e.CPEs[0].Vendor = "acme_inc" },
		"ref url":     func(e *Entry) { e.References[0].URL = "https://example.com/2" },
		"ref tags":    func(e *Entry) { e.References[0].Tags = nil },
		"v2 dropped":  func(e *Entry) { e.V2 = nil },
		"v2 field":    func(e *Entry) { e.V2.AccessVector = cvss.AccessLocal },
		"pv3 set":     func(e *Entry) { s := 7.5; e.PV3 = &s },
	}
	for name, mutate := range cases {
		c := a.Clone()
		mutate(c)
		if a.Equal(c) {
			t.Errorf("%s: mutated entry should differ", name)
		}
	}
	// Tag content is compared, not just length.
	c := a.Clone()
	c.References[0].Tags[0] = "Patch"
	if a.Equal(c) {
		t.Error("tag content change should differ")
	}
	// An entry equals itself by pointer, before any field is compared:
	// even a score that is not equal to itself by value.
	nan := math.NaN()
	c.PV3 = &nan
	if !c.Equal(c) {
		t.Error("an entry should equal itself")
	}
	if !(*Entry)(nil).Equal(nil) || c.Equal(nil) || (*Entry)(nil).Equal(c) {
		t.Error("nil should equal only nil")
	}
}

func TestDiffAndApplyDelta(t *testing.T) {
	old := &Snapshot{CapturedAt: time.Date(2018, 5, 21, 0, 0, 0, 0, time.UTC)}
	for i := 1; i <= 5; i++ {
		old.Entries = append(old.Entries, testEntry(FormatID(2017, i), i))
	}
	newSnap := &Snapshot{CapturedAt: time.Date(2018, 5, 22, 0, 0, 0, 0, time.UTC)}
	// Keep 1,2,4 as-is; modify 3; drop 5; add 6 and one from 2016.
	newSnap.Entries = append(newSnap.Entries, old.Entries[0].Clone(), old.Entries[1].Clone())
	mod := old.Entries[2].Clone()
	mod.Descriptions[0].Value = "Updated description."
	newSnap.Entries = append(newSnap.Entries, mod, old.Entries[3].Clone(),
		testEntry(FormatID(2017, 6), 6), testEntry(FormatID(2016, 9), 9))
	newSnap.Sort()

	d := Diff(old, newSnap)
	if len(d.Added) != 2 || len(d.Modified) != 1 || len(d.Removed) != 1 {
		t.Fatalf("delta = +%d ~%d -%d, want +2 ~1 -1", len(d.Added), len(d.Modified), len(d.Removed))
	}
	if d.Modified[0].ID != "CVE-2017-0003" || d.Removed[0] != "CVE-2017-0005" {
		t.Errorf("modified %s, removed %s", d.Modified[0].ID, d.Removed[0])
	}
	if !d.CapturedAt.Equal(newSnap.CapturedAt) {
		t.Error("delta should carry the new capture time")
	}
	if d.Empty() || d.Size() != 4 {
		t.Errorf("Size = %d, want 4", d.Size())
	}

	merged := old.ApplyDelta(d)
	if merged.Len() != newSnap.Len() {
		t.Fatalf("merged %d entries, want %d", merged.Len(), newSnap.Len())
	}
	if !merged.CapturedAt.Equal(newSnap.CapturedAt) {
		t.Error("merged capture time should advance")
	}
	// Applying the diff must reproduce the new snapshot exactly, in
	// sorted order.
	for i, e := range merged.Entries {
		if i > 0 && !idLess(merged.Entries[i-1].ID, e.ID) {
			t.Errorf("merged entries unsorted at %d: %s after %s", i, e.ID, merged.Entries[i-1].ID)
		}
		want := newSnap.ByID(e.ID)
		if want == nil || !e.Equal(want) {
			t.Errorf("merged %s differs from new snapshot", e.ID)
		}
	}
	// Round trip: diffing the merged snapshot against new is empty.
	if rt := Diff(merged, newSnap); !rt.Empty() {
		t.Errorf("Diff(ApplyDelta(old, d), new) not empty: %+v", rt)
	}
	// The old snapshot is untouched.
	if old.Len() != 5 || old.ByID("CVE-2017-0003").Descriptions[0].Value != "A buffer overflow." {
		t.Error("ApplyDelta mutated the receiver")
	}
}

func TestDiffIdenticalSnapshots(t *testing.T) {
	s := &Snapshot{}
	for i := 1; i <= 3; i++ {
		s.Entries = append(s.Entries, testEntry(FormatID(2017, i), i))
	}
	if d := Diff(s, s.Clone()); !d.Empty() {
		t.Errorf("identical snapshots should diff empty, got %d changes", d.Size())
	}
}

func TestPV3FeedRoundTrip(t *testing.T) {
	s := &Snapshot{CapturedAt: time.Date(2018, 5, 21, 0, 0, 0, 0, time.UTC)}
	e := testEntry("CVE-2017-0001", 1)
	score := 7.3
	e.PV3 = &score
	s.Entries = append(s.Entries, e)

	var buf bytes.Buffer
	if err := WriteFeed(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFeed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := back.ByID("CVE-2017-0001")
	if got.PV3 == nil || *got.PV3 != score {
		t.Fatalf("PV3 not preserved: %v", got.PV3)
	}
	if !e.Equal(got) {
		t.Error("entry with PV3 should round-trip Equal")
	}
}

// refDiff is the reference Diff that TestMergesMatchReferences holds
// the merge to: it matches entries through an ID map, then sorts the
// lists, so it needs no input order.
func refDiff(old, new *Snapshot) *Delta {
	d := &Delta{CapturedAt: new.CapturedAt}
	oldByID := make(map[string]*Entry)
	for _, e := range old.Entries {
		oldByID[e.ID] = e
	}
	seen := make(map[string]bool)
	for _, e := range new.Entries {
		seen[e.ID] = true
		prev, ok := oldByID[e.ID]
		switch {
		case !ok:
			d.Added = append(d.Added, e)
		case !prev.Equal(e):
			d.Modified = append(d.Modified, e)
		}
	}
	for _, e := range old.Entries {
		if !seen[e.ID] {
			d.Removed = append(d.Removed, e.ID)
		}
	}
	sortEntries(d.Added)
	sortEntries(d.Modified)
	sortIDs(d.Removed)
	return d
}

// refApplyDelta is the reference ApplyDelta: it drops and replaces
// entries through ID maps, appends the added ones and sorts the result.
func refApplyDelta(s *Snapshot, d *Delta) *Snapshot {
	out := &Snapshot{CapturedAt: s.CapturedAt}
	if !d.CapturedAt.IsZero() {
		out.CapturedAt = d.CapturedAt
	}
	removed := make(map[string]bool)
	for _, id := range d.Removed {
		removed[id] = true
	}
	modified := make(map[string]*Entry)
	for _, e := range d.Modified {
		modified[e.ID] = e
	}
	for _, e := range s.Entries {
		switch {
		case removed[e.ID]:
		case modified[e.ID] != nil:
			out.Entries = append(out.Entries, modified[e.ID])
		default:
			out.Entries = append(out.Entries, e)
		}
	}
	out.Entries = append(out.Entries, d.Added...)
	sortEntries(out.Entries)
	return out
}

// randomIDs returns n distinct well-formed IDs in random order, over
// interleaved years and 4- to 7-digit sequences, so lexical order and
// ID order disagree (CVE-2017-1000001 sorts lexically before
// CVE-2017-2000).
func randomIDs(rng *rand.Rand, n int) []string {
	years := []int{1999, 2005, 2017, 2018}
	seen := make(map[string]bool, n)
	var ids []string
	for len(ids) < n {
		lo := []int{0, 10000, 100000, 1000000}[rng.Intn(4)] // 4 to 7 digits
		id := FormatID(years[rng.Intn(len(years))], lo+rng.Intn(max(9*lo, 9000)))
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}

// sortedSnapshot builds a snapshot in ID order over ids, one entry per
// ID with a description variant drawn from rng.
func sortedSnapshot(rng *rand.Rand, at time.Time, ids []string) *Snapshot {
	s := &Snapshot{CapturedAt: at}
	for _, id := range ids {
		e := testEntry(id, rng.Intn(40))
		e.Descriptions[0].Value = fmt.Sprintf("variant %d", rng.Intn(3))
		s.Entries = append(s.Entries, e)
	}
	s.Sort()
	return s
}

// sameEntries requires two entry lists to hold the same pointers in the
// same order.
func sameEntries(t *testing.T, label string, got, want []*Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d is %s, want %s", label, i, got[i].ID, want[i].ID)
		}
	}
}

// TestMergesMatchReferences is the property test of the merge Diff and
// ApplyDelta: over seeded random pairs of ordered snapshots (adds,
// removes, modifications and respelled IDs over interleaved years and
// 4- to 7-digit sequences, either side possibly empty), Diff equals the map-based
// reference, ApplyDelta equals the sort-based one on both Diff's delta
// and a hand-built sorted delta that modifies and removes IDs the
// snapshot lacks, and ApplyDelta(old, Diff(old, new)) is new.
func TestMergesMatchReferences(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 50
	}
	day := time.Date(2018, 5, 21, 0, 0, 0, 0, time.UTC)
	for seed := range seeds {
		rng := rand.New(rand.NewSource(int64(seed)))
		pool := randomIDs(rng, 60)
		var oldIDs, newIDs []string
		for _, id := range pool[:40] {
			switch r := rng.Intn(4); {
			case seed%10 == 1: // empty old side
				newIDs = append(newIDs, id)
			case seed%10 == 2: // empty new side
				oldIDs = append(oldIDs, id)
			case r == 0:
				oldIDs = append(oldIDs, id) // removed
			case r == 1:
				newIDs = append(newIDs, id) // added
			case r == 2 && seed%3 == 0:
				// Respelled: one (year, sequence) under a second ID.
				y, q, _ := SplitID(id)
				oldIDs = append(oldIDs, id)
				newIDs = append(newIDs, fmt.Sprintf("CVE-%d-%08d", y, q))
			default:
				oldIDs = append(oldIDs, id)
				newIDs = append(newIDs, id)
			}
		}
		old := sortedSnapshot(rng, day, oldIDs)
		newSnap := sortedSnapshot(rng, day.AddDate(0, 0, 1), newIDs)
		// Entries both sides hold are old's, or a modified copy.
		for i, e := range newSnap.Entries {
			if prev := old.ByID(e.ID); prev != nil && rng.Intn(3) > 0 {
				newSnap.Entries[i] = prev
			}
		}
		label := fmt.Sprintf("seed %d", seed)

		d := Diff(old, newSnap)
		want := refDiff(old, newSnap)
		sameEntries(t, label+": Added", d.Added, want.Added)
		sameEntries(t, label+": Modified", d.Modified, want.Modified)
		if !slices.Equal(d.Removed, want.Removed) {
			t.Fatalf("%s: Removed %v, want %v", label, d.Removed, want.Removed)
		}
		if !d.CapturedAt.Equal(want.CapturedAt) {
			t.Fatalf("%s: CapturedAt %v, want %v", label, d.CapturedAt, want.CapturedAt)
		}
		merged := old.ApplyDelta(d)
		sameEntries(t, label+": ApplyDelta(Diff)", merged.Entries, refApplyDelta(old, d).Entries)
		if !merged.CapturedAt.Equal(newSnap.CapturedAt) {
			t.Fatalf("%s: merged capture time %v, want %v", label, merged.CapturedAt, newSnap.CapturedAt)
		}
		if merged.Len() != newSnap.Len() {
			t.Fatalf("%s: ApplyDelta(old, Diff(old, new)) has %d entries, want %d", label, merged.Len(), newSnap.Len())
		}
		for i, e := range newSnap.Entries {
			if !merged.Entries[i].Equal(e) {
				t.Fatalf("%s: ApplyDelta(old, Diff(old, new)) entry %d is %s, want %s", label, i, merged.Entries[i].ID, e.ID)
			}
		}

		// A hand-built delta: new IDs added, and IDs old holds or
		// lacks modified, removed, or both.
		hand := &Delta{}
		for _, id := range pool[40:] {
			switch rng.Intn(3) {
			case 0:
				hand.Added = append(hand.Added, testEntry(id, 1))
			case 1:
				hand.Modified = append(hand.Modified, testEntry(id, 2))
			default:
				hand.Removed = append(hand.Removed, id)
			}
		}
		for _, e := range old.Entries {
			switch rng.Intn(5) {
			case 0:
				hand.Modified = append(hand.Modified, testEntry(e.ID, 3))
			case 1:
				hand.Removed = append(hand.Removed, e.ID)
			case 2: // both: the removal wins
				hand.Modified = append(hand.Modified, testEntry(e.ID, 4))
				hand.Removed = append(hand.Removed, e.ID)
			}
		}
		hand.Sort()
		sameEntries(t, label+": ApplyDelta(hand-built)", old.ApplyDelta(hand).Entries, refApplyDelta(old, hand).Entries)
	}
}
