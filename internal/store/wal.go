package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"nvdclean/internal/cve"
	"nvdclean/internal/fsio"
)

// The delta log is segmented: a store directory holds log-<seq> files,
// each a flat sequence of framed records:
//
//	[4-byte little-endian payload length]
//	[4-byte little-endian CRC-32C of the payload]
//	[payload: one cve.MarshalDelta document]
//
// Records are appended and fsynced one at a time into the *active*
// segment (the highest seq); segments are never rewritten in place.
// When compaction trips, the active segment is sealed (closed, a
// successor opened) and a checkpoint of the sealed generation is
// written off the hot path; the checkpoint's manifest records the
// sealed seq as its walSeq watermark, and once CURRENT adopts it every
// segment at or below that seq is retired.
//
// Recovery replays live segments (seq > the committed checkpoint's
// walSeq) in ascending order. Only the last segment may legitimately
// end in a torn frame (a crash mid-append), and its tail is truncated
// at the last good record. A bad frame inside an earlier segment is
// real corruption: everything from that frame on — including every
// later segment, which cannot be applied across the gap — is dropped,
// exactly as the bad frame's suffix would be in a flat log.
//
// The same framed byte stream doubles as the replication stream
// (replication.go): followers tail segment bytes verbatim and append
// them through the identical validation path, so a (segment seq, byte
// offset) pair names the same record boundary on every replica.

const (
	walHeaderSize = 8
	// walMaxRecord bounds a single record so a corrupted length field
	// cannot make recovery attempt a multi-gigabyte read.
	walMaxRecord = 1 << 30
)

var walTable = crc32.MakeTable(crc32.Castagnoli)

func segmentName(seq uint64) string { return fmt.Sprintf("log-%06d", seq) }

// segmentSeq parses a log-<seq> file name.
func segmentSeq(name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, "log-")
	if !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// segmentSeqs lists the segment files in dir, ascending by seq.
func segmentSeqs(fs fsio.FS, dir string) []uint64 {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil
	}
	var seqs []uint64
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if seq, ok := segmentSeq(ent.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	return seqs
}

// wal is one open delta-log segment positioned for appending.
type wal struct {
	f       fsio.File
	path    string
	seq     uint64
	records int
	// off is the end offset of the last fully committed frame. A
	// failed append truncates back to it; if even that fails the log
	// is poisoned and refuses further appends, so a torn frame can
	// never end up followed by acknowledged records that recovery
	// would silently discard.
	off      int64
	poisoned bool
}

// scanFrames parses a flat byte sequence of framed records. It returns
// the decoded deltas, the end offset of the last intact frame, and a
// human-readable note when data holds anything past that offset (torn,
// corrupt, or undecodable; empty note means every byte was consumed).
// It is the single framing validator: segment recovery and the
// replication sink both run shipped or recovered bytes through it.
func scanFrames(data []byte) ([]*cve.Delta, int64, string) {
	var (
		deltas []*cve.Delta
		off    int64
		note   string
	)
	// Frame bounds are compared in int64: on a 32-bit platform a
	// corrupted length field near MaxInt32 would wrap an int sum and
	// slip past the torn-frame check.
	size := int64(len(data))
	for off+walHeaderSize <= size {
		h := data[off : off+walHeaderSize]
		length := binary.LittleEndian.Uint32(h[0:4])
		sum := binary.LittleEndian.Uint32(h[4:8])
		end := off + walHeaderSize + int64(length)
		if length > walMaxRecord || end > size {
			note = fmt.Sprintf("dropped torn record %d at offset %d", len(deltas), off)
			break
		}
		payload := data[off+walHeaderSize : end]
		if crc32.Checksum(payload, walTable) != sum {
			note = fmt.Sprintf("dropped corrupt record %d at offset %d (checksum mismatch)", len(deltas), off)
			break
		}
		d, err := cve.UnmarshalDelta(payload)
		if err != nil {
			note = fmt.Sprintf("dropped undecodable record %d at offset %d: %v", len(deltas), off, err)
			break
		}
		deltas = append(deltas, d)
		off = end
	}
	if off < size && note == "" {
		note = fmt.Sprintf("dropped torn tail at offset %d", off)
	}
	return deltas, off, note
}

// openSegment opens (creating if absent) one segment, replays every
// committed record, truncates any torn or corrupt tail, and leaves the
// file positioned for appending. It returns the decoded deltas and a
// human-readable note when a tail was dropped.
func openSegment(fs fsio.FS, path string, seq uint64) (*wal, []*cve.Delta, string, error) {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, "", err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, "", fmt.Errorf("store: reading delta log: %w", err)
	}

	deltas, off, note := scanFrames(data)
	if off < int64(len(data)) {
		if err := f.Truncate(off); err != nil {
			f.Close()
			return nil, nil, "", fmt.Errorf("store: truncating delta log tail: %w", err)
		}
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, "", err
	}
	return &wal{f: f, path: path, seq: seq, records: len(deltas), off: off}, deltas, note, nil
}

// sealedSeg is one sealed-but-unretired segment's bookkeeping. end is
// the segment's byte length — the offset past its last frame — which
// doubles as the replication stream position of that frame.
type sealedSeg struct {
	seq     uint64
	records int
	end     int64
}

// replaySegments recovers the live segments of a store whose committed
// checkpoint covers every segment at or below after. It returns the
// reopened active segment (the highest live seq, or a fresh successor
// when none exist or the chain was cut by corruption), the sealed
// segments still awaiting retirement, every recovered delta in append
// order, and recovery notes.
func replaySegments(fs fsio.FS, dir string, after uint64) (*wal, []sealedSeg, []*cve.Delta, []string, error) {
	var live []uint64
	for _, seq := range segmentSeqs(fs, dir) {
		if seq > after {
			live = append(live, seq)
		}
	}
	var (
		active *wal
		sealed []sealedSeg
		deltas []*cve.Delta
		notes  []string
	)
	for i, seq := range live {
		w, segDeltas, note, err := openSegment(fs, filepath.Join(dir, segmentName(seq)), seq)
		if err != nil {
			return nil, nil, nil, notes, err
		}
		deltas = append(deltas, segDeltas...)
		if note != "" {
			notes = append(notes, fmt.Sprintf("segment %s: %s", segmentName(seq), note))
		}
		last := i == len(live)-1
		if last {
			active = w
			break
		}
		end := w.off
		w.close()
		sealed = append(sealed, sealedSeg{seq: seq, records: len(segDeltas), end: end})
		if note != "" {
			// A bad frame inside a sealed segment strands every later
			// segment: replaying them would apply deltas across the
			// gap. Drop them — the same suffix a flat log would lose —
			// and resume appends past the highest seq seen.
			for _, later := range live[i+1:] {
				if err := fs.Remove(filepath.Join(dir, segmentName(later))); err == nil {
					notes = append(notes, fmt.Sprintf("dropped unreachable segment %s", segmentName(later)))
				}
			}
			break
		}
	}
	if active == nil {
		next := after + 1
		if n := len(live); n > 0 {
			next = live[n-1] + 1
		}
		var err error
		active, _, _, err = openSegment(fs, filepath.Join(dir, segmentName(next)), next)
		if err != nil {
			return nil, nil, nil, notes, err
		}
		// Persist the fresh segment's directory entry: deltas appended
		// to it are acknowledged on their own fsync, which does not
		// cover the dirent of a file created here.
		if err := syncDir(fs, dir); err != nil {
			active.close()
			return nil, nil, nil, notes, err
		}
	}
	return active, sealed, deltas, notes, nil
}

// append frames, writes and fsyncs one delta record. The record is
// durable once append returns; a failed append rolls the file back to
// the previous committed frame (or poisons the log if it cannot).
func (w *wal) append(d *cve.Delta) error {
	payload, err := cve.MarshalDelta(d)
	if err != nil {
		return fmt.Errorf("store: encoding delta record: %w", err)
	}
	return w.appendRaw(appendFrame(make([]byte, 0, walHeaderSize+len(payload)), payload), 1)
}

// appendFrame appends payload to b as one framed record.
func appendFrame(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, walTable))
	return append(b, payload...)
}

// appendRaw writes and fsyncs pre-framed record bytes — one locally
// framed record, or a batch of frames shipped verbatim from a
// replication primary (the caller has already validated them with
// scanFrames). Shipped frames land byte-identical, which is what keeps
// replication stream offsets aligned across replicas.
func (w *wal) appendRaw(raw []byte, records int) error {
	if w.poisoned {
		return fmt.Errorf("store: delta log poisoned by an earlier failed append; restart to recover")
	}
	if _, err := w.f.Write(raw); err != nil {
		w.rollback()
		return fmt.Errorf("store: appending delta record: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.rollback()
		return fmt.Errorf("store: syncing delta log: %w", err)
	}
	w.off += int64(len(raw))
	w.records += records
	return nil
}

// rollback discards a torn frame after a failed append. If the file
// cannot be restored to its last committed length, later appends must
// not land after the garbage — recovery truncates at the first bad
// frame and would silently drop them — so the log poisons itself.
func (w *wal) rollback() {
	if w.f.Truncate(w.off) != nil {
		w.poisoned = true
		return
	}
	if _, err := w.f.Seek(w.off, io.SeekStart); err != nil {
		w.poisoned = true
	}
}

// heal retries a failed rollback: a log is poisoned only because the
// truncate back to the last committed frame boundary failed at fault
// time, so once the underlying fault clears the same truncate clears
// the poison. Nothing acknowledged lives past w.off — appends were
// refused the whole time — so the discard is exactly the torn frame.
func (w *wal) heal() error {
	if !w.poisoned {
		return nil
	}
	if err := w.f.Truncate(w.off); err != nil {
		return fmt.Errorf("store: delta log still poisoned: %w", err)
	}
	if _, err := w.f.Seek(w.off, io.SeekStart); err != nil {
		return fmt.Errorf("store: delta log still poisoned: %w", err)
	}
	w.poisoned = false
	return nil
}

func (w *wal) close() error {
	if w == nil || w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
