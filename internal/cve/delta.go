package cve

import (
	"sort"
	"time"
)

// Equal reports whether two entries carry identical data, field by
// field. Timestamps compare with time.Time.Equal so a parsed feed
// entry matches its in-memory source regardless of monotonic-clock
// noise. An entry equals itself at once, without a field compared, so
// Diff walks the entries two snapshots share as fast as it walks
// pointers. Diff uses this to decide whether a feed update actually
// changed an entry.
func (e *Entry) Equal(o *Entry) bool {
	if e == o {
		return true
	}
	if e == nil || o == nil {
		return false
	}
	if e.ID != o.ID ||
		!e.Published.Equal(o.Published) ||
		!e.LastModified.Equal(o.LastModified) ||
		len(e.Descriptions) != len(o.Descriptions) ||
		len(e.CWEs) != len(o.CWEs) ||
		len(e.CPEs) != len(o.CPEs) ||
		len(e.References) != len(o.References) {
		return false
	}
	for i := range e.Descriptions {
		if e.Descriptions[i] != o.Descriptions[i] {
			return false
		}
	}
	for i := range e.CWEs {
		if e.CWEs[i] != o.CWEs[i] {
			return false
		}
	}
	for i := range e.CPEs {
		if e.CPEs[i] != o.CPEs[i] {
			return false
		}
	}
	for i := range e.References {
		a, b := e.References[i], o.References[i]
		if a.URL != b.URL || len(a.Tags) != len(b.Tags) {
			return false
		}
		for j := range a.Tags {
			if a.Tags[j] != b.Tags[j] {
				return false
			}
		}
	}
	if (e.V2 == nil) != (o.V2 == nil) || (e.V2 != nil && *e.V2 != *o.V2) {
		return false
	}
	if (e.V3 == nil) != (o.V3 == nil) || (e.V3 != nil && *e.V3 != *o.V3) {
		return false
	}
	if (e.PV3 == nil) != (o.PV3 == nil) || (e.PV3 != nil && *e.PV3 != *o.PV3) {
		return false
	}
	return true
}

// Delta is the difference between two snapshots of the same feed — the
// unit of incremental cleaning. The real NVD is a feed that grows
// daily; a Delta captures one day's worth of movement without
// reprocessing the capture.
type Delta struct {
	// CapturedAt is the capture time of the newer snapshot.
	CapturedAt time.Time
	// Added holds entries present only in the newer snapshot, sorted
	// by ID.
	Added []*Entry
	// Modified holds the newer versions of entries present in both
	// snapshots but no longer equal, sorted by ID.
	Modified []*Entry
	// Removed lists IDs present only in the older snapshot, sorted.
	Removed []string
}

// Empty reports whether the delta carries no changes.
func (d *Delta) Empty() bool {
	return d == nil || (len(d.Added) == 0 && len(d.Modified) == 0 && len(d.Removed) == 0)
}

// Size returns the number of changed entries.
func (d *Delta) Size() int {
	if d == nil {
		return 0
	}
	return len(d.Added) + len(d.Modified) + len(d.Removed)
}

// Sort normalizes the delta into its documented order: Added and
// Modified by ID, Removed likewise. Diff returns sorted deltas
// already, and so does a walk over a snapshot's entries; other
// hand-assembled deltas must call this before ApplyDelta.
func (d *Delta) Sort() {
	if d == nil {
		return
	}
	sortEntries(d.Added)
	sortEntries(d.Modified)
	sortIDs(d.Removed)
}

// ChangedIDs returns the IDs of added and modified entries, sorted.
func (d *Delta) ChangedIDs() []string {
	if d == nil {
		return nil
	}
	out := make([]string, 0, len(d.Added)+len(d.Modified))
	for _, e := range d.Added {
		out = append(out, e.ID)
	}
	for _, e := range d.Modified {
		out = append(out, e.ID)
	}
	sortIDs(out)
	return out
}

// sortIDs orders CVE identifiers by (year, sequence), falling back to
// lexical order for malformed IDs.
func sortIDs(ids []string) {
	sort.Slice(ids, func(i, j int) bool { return idLess(ids[i], ids[j]) })
}

// IDLess reports whether CVE identifier a orders before b by (year,
// sequence) — the order snapshots, deltas and posting lists share.
// Malformed identifiers fall back to lexical order.
func IDLess(a, b string) bool { return idLess(a, b) }

func idLess(a, b string) bool {
	ya, sa, erra := SplitID(a)
	yb, sb, errb := SplitID(b)
	if erra != nil || errb != nil {
		return a < b
	}
	return keyLess(ya, sa, yb, sb)
}

// keyLess is idLess on IDs already parsed by SplitID.
func keyLess(ya, sa, yb, sb int) bool { return ya < yb || ya == yb && sa < sb }

func sortEntries(entries []*Entry) {
	sort.Slice(entries, func(i, j int) bool { return idLess(entries[i].ID, entries[j].ID) })
}

// Diff computes the delta that turns the old snapshot into the new
// one. Both snapshots must be in ID order (Snapshot.CheckOrder); Diff
// walks them in one merge, so the delta's lists come out in ID order
// too. Entries are matched by ID and compared deeply with Entry.Equal;
// the returned slices share entry pointers with the new snapshot.
func Diff(old, new *Snapshot) *Delta {
	d := &Delta{}
	var olds, news []*Entry
	if old != nil {
		olds = old.Entries
	}
	if new != nil {
		d.CapturedAt = new.CapturedAt
		news = new.Entries
	}
	for len(olds) > 0 || len(news) > 0 {
		switch {
		case len(olds) > 0 && len(news) > 0 && olds[0].ID == news[0].ID:
			if !olds[0].Equal(news[0]) {
				d.Modified = append(d.Modified, news[0])
			}
			olds, news = olds[1:], news[1:]
		case len(news) == 0 || len(olds) > 0 && idLess(olds[0].ID, news[0].ID):
			d.Removed = append(d.Removed, olds[0].ID)
			olds = olds[1:]
		case len(olds) == 0 || idLess(news[0].ID, olds[0].ID):
			d.Added = append(d.Added, news[0])
			news = news[1:]
		default:
			// Two spellings of one (year, sequence): a removal and an
			// addition, as ApplyDelta matches IDs exactly.
			d.Removed = append(d.Removed, olds[0].ID)
			d.Added = append(d.Added, news[0])
			olds, news = olds[1:], news[1:]
		}
	}
	return d
}

// ApplyDelta merges the delta into s: removed entries are dropped,
// modified ones replaced and added ones inserted, each before the first
// entry of s ordered after it. s and each of the delta's lists must be
// in strict ID order, and added IDs new to s; IDs the delta modifies or
// removes that s lacks are ignored, and an ID both modified and removed
// is removed. Each delta ID is found by binary search onward from the
// previous edit, and the runs of entries between edits are copied
// whole, so the work beyond that one copy of s is O(delta · log s). The
// receiver is not modified; the result shares entry pointers with s and
// the delta.
func (s *Snapshot) ApplyDelta(d *Delta) *Snapshot {
	out := &Snapshot{CapturedAt: s.CapturedAt}
	if d == nil {
		d = &Delta{}
	}
	if !d.CapturedAt.IsZero() {
		out.CapturedAt = d.CapturedAt
	}
	es := s.Entries
	entries := make([]*Entry, 0, len(es)+len(d.Added))
	added, modified, removed := d.Added, d.Modified, d.Removed
	i := 0 // es[:i] is merged
	// insertBefore merges es up to j, inserting every added entry that
	// is ordered before es[j] (every one left when j is len(es)).
	insertBefore := func(j int) {
		for len(added) > 0 && (j == len(es) || idLess(added[0].ID, es[j].ID)) {
			k := i + sort.Search(j-i, func(k int) bool { return idLess(added[0].ID, es[i+k].ID) })
			entries = append(append(entries, es[i:k]...), added[0])
			i, added = k, added[1:]
		}
		entries = append(entries, es[i:j]...)
		i = j
	}
	for len(modified) > 0 || len(removed) > 0 {
		// The next ID to replace or drop; on a tie the removal goes
		// first, and the modification then finds no entry.
		var id string
		var repl *Entry
		if len(removed) == 0 || len(modified) > 0 && idLess(modified[0].ID, removed[0]) {
			id, repl, modified = modified[0].ID, modified[0], modified[1:]
		} else {
			id, removed = removed[0], removed[1:]
		}
		j := i + sort.Search(len(es)-i, func(k int) bool { return !idLess(es[i+k].ID, id) })
		if j == len(es) || es[j].ID != id {
			continue
		}
		insertBefore(j)
		if repl != nil {
			entries = append(entries, repl)
		}
		i = j + 1
	}
	insertBefore(len(es))
	out.Entries = entries
	return out
}
