package store

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"nvdclean/internal/cve"
	"nvdclean/internal/gen"
)

// sameDelta reports whether two deltas hold the same capture time, the
// same entries (Entry.Equal) and the same removals.
func sameDelta(a, b *cve.Delta) bool {
	same := func(x, y []*cve.Entry) bool {
		return slices.EqualFunc(x, y, (*cve.Entry).Equal)
	}
	return a.CapturedAt.Equal(b.CapturedAt) && same(a.Added, b.Added) &&
		same(a.Modified, b.Modified) && slices.Equal(a.Removed, b.Removed)
}

// checkScan runs scanFrames over data and checks what recovery and
// AppendFrames rely on: the scan stops within data, it leaves a note
// exactly when it stops short of data's end, rescanning the prefix it
// accepted (what recovery truncates a segment to) accepts the same
// deltas whole, and each accepted delta, framed again from its
// MarshalDelta encoding, scans back as itself.
func checkScan(t *testing.T, data []byte) {
	t.Helper()
	deltas, off, note := scanFrames(data)
	if off < 0 || off > int64(len(data)) {
		t.Fatalf("scan of %d bytes stopped at offset %d", len(data), off)
	}
	if (note == "") != (off == int64(len(data))) {
		t.Fatalf("scan of %d bytes stopped at offset %d with note %q", len(data), off, note)
	}
	again, againOff, againNote := scanFrames(data[:off])
	if againOff != off || againNote != "" || !reflect.DeepEqual(again, deltas) {
		t.Fatalf("rescanning the accepted %d bytes stopped at %d with note %q and %d of %d deltas",
			off, againOff, againNote, len(again), len(deltas))
	}
	for i, d := range deltas {
		rec, err := cve.MarshalDelta(d)
		if err != nil {
			t.Fatalf("delta %d: re-encoding: %v", i, err)
		}
		back, backOff, backNote := scanFrames(appendFrame(nil, rec))
		if len(back) != 1 || backNote != "" || backOff != int64(walHeaderSize+len(rec)) {
			t.Fatalf("delta %d framed again: %d deltas, offset %d, note %q", i, len(back), backOff, backNote)
		}
		if !sameDelta(back[0], d) {
			t.Fatalf("delta %d framed again scans back as another delta:\n%s", i, rec)
		}
	}
}

// FuzzScanFrames fuzzes the delta log's frame scan, the one validator
// of segment bytes read at recovery and of frames a primary ships to
// AppendFrames (checkScan). Each input is scanned as it is, and again
// with a fuzzer-chosen payload framed after it under a valid checksum,
// so that inputs reach UnmarshalDelta instead of stopping at the
// checksum. The seeds are framed log records of a tiny generated
// snapshot, a torn header, a length past walMaxRecord, a flipped
// checksum, and a record whose CPE names have empty attributes, which
// once did not read back as themselves.
func FuzzScanFrames(f *testing.F) {
	snap, _, _, err := gen.Generate(gen.TinyConfig())
	if err != nil {
		f.Fatal(err)
	}
	es := snap.Entries
	var log, rec []byte
	for _, d := range []*cve.Delta{
		{CapturedAt: snap.CapturedAt, Added: es[0:1]},
		{Modified: es[1:2], Removed: []string{es[2].ID, es[3].ID}},
	} {
		if rec, err = cve.MarshalDelta(d); err != nil {
			f.Fatal(err)
		}
		log = appendFrame(log, rec)
	}
	flipped := bytes.Clone(log)
	flipped[5] ^= 0x01
	past := binary.LittleEndian.AppendUint32(nil, walMaxRecord+1)
	past = append(binary.LittleEndian.AppendUint32(past, 0), rec...)
	f.Add(log, []byte(nil))
	f.Add(log[:walHeaderSize-3], []byte(nil))
	f.Add(log[:len(log)-1], rec)
	f.Add(past, []byte(nil))
	f.Add(flipped, rec)
	f.Add([]byte(nil), rec)
	// A CPE 2.3 name with an empty attribute, in the middle or left by
	// a trailing space, must read back from its bound form, which
	// writes the attribute as "*", as itself.
	f.Add([]byte(nil), []byte(`{"kind":"cve-delta","added":[{"cve":{"CVE_data_meta":{"ID":"CVE-2017-0001"}},`+
		`"configurations":{"nodes":[{"cpe_match":[{"vulnerable":true,"cpe23Uri":"cpe:2.3:a:v:p::*:*:*:*:*:*: "}]}]},`+
		`"publishedDate":"2017-03-01T12:00Z"}]}`))
	f.Fuzz(func(t *testing.T, data, payload []byte) {
		checkScan(t, data)
		checkScan(t, appendFrame(bytes.Clone(data), payload))
	})
}
