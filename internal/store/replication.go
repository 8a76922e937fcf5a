// Replication surface of the generation store.
//
// A Store's on-disk layout is already a replication stream: the
// committed checkpoint is a CRC-manifested set of flat files, and the
// delta log is a sequence of CRC-framed segments whose (seq, byte
// offset) pairs name record boundaries identically on every replica —
// because followers append the primary's frame bytes verbatim. A
// primary describes its committed checkpoint (ReplicationManifest),
// streams its files (CheckpointFile) and streams segment bytes from a
// cursor (ReadSegment); a follower installs the shipped checkpoint as
// its next local generation (InstallCheckpoint, through the same
// publish protocol as a local commit) and appends tailed frames through
// the validation path recovery uses (AppendFrames).
//
// The convergence argument: a checkpoint ships with per-file CRCs and
// is re-verified on install; frames ship verbatim and are re-framed-
// checked on append; and CleanDelta is bit-deterministic — so a
// follower at the same stream position as its primary serves a
// byte-identical view (TestFollowerEquivalence in cmd/nvdserve).

package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"nvdclean/internal/cve"
)

// ErrSegmentRetired reports a read of a segment at or below the
// source's watermark: its records are folded into the committed
// checkpoint and the file is (or may be) gone. A follower that hits it
// has fallen behind the stream and must re-bootstrap from a fresh
// checkpoint — the periodic-state-broadcast half of the protocol.
var ErrSegmentRetired = errors.New("store: segment retired into a checkpoint")

// ErrNoSegment reports a read of a segment the source has not created
// yet (or an empty store).
var ErrNoSegment = errors.New("store: no such segment")

// ManifestFile is one checkpoint file a follower must fetch, with the
// size and CRC-32C it must verify against.
type ManifestFile struct {
	Name   string `json:"name"`
	Size   int64  `json:"size"`
	CRC32C uint32 `json:"crc32c"`
}

// ReplicationManifest is a point-in-time description of the committed
// checkpoint a follower bootstraps from: its generation, its walSeq
// watermark, the primary's active segment seq, and the file list with
// sums.
type ReplicationManifest struct {
	Generation    uint64         `json:"generation"`
	CheckpointSeq uint64         `json:"checkpointSeq"`
	WALSeq        uint64         `json:"walSeq"`
	Files         []ManifestFile `json:"files"`
}

// checkpointFileName rejects anything but a bare file name, so a
// hostile manifest or URL cannot escape the checkpoint directory.
func checkpointFileName(name string) error {
	if name == "" || name != filepath.Base(name) || strings.HasPrefix(name, ".") ||
		strings.ContainsAny(name, `/\`) {
		return fmt.Errorf("store: invalid checkpoint file name %q", name)
	}
	return nil
}

// ReplicationManifest describes the committed checkpoint for a
// follower. It returns an error while the store has no committed
// generation, and may return a transient error when a concurrent commit
// retires the generation mid-read — callers just retry and see the
// newer generation.
func (s *Store) ReplicationManifest() (*ReplicationManifest, error) {
	s.mu.Lock()
	gen, genSeq := s.gen, s.genSeq
	var walSeq uint64
	if s.active != nil {
		walSeq = s.active.seq
	}
	s.mu.Unlock()
	if gen == 0 {
		return nil, fmt.Errorf("store: no committed generation to replicate")
	}
	mb, err := s.fs.ReadFile(filepath.Join(s.dir, genName(gen), manifestFile))
	if err != nil {
		return nil, fmt.Errorf("store: reading checkpoint manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		return nil, fmt.Errorf("store: parsing checkpoint manifest: %w", err)
	}
	if m.Kind != manifestKind || m.Generation != gen {
		return nil, fmt.Errorf("store: checkpoint manifest does not match generation %d", gen)
	}
	rm := &ReplicationManifest{Generation: gen, CheckpointSeq: genSeq, WALSeq: walSeq}
	for name, sum := range m.Files {
		rm.Files = append(rm.Files, ManifestFile{Name: name, Size: sum.Size, CRC32C: sum.CRC32C})
	}
	sort.Slice(rm.Files, func(i, j int) bool { return rm.Files[i].Name < rm.Files[j].Name })
	return rm, nil
}

// CheckpointFile opens one file of the committed checkpoint for
// streaming to a follower. The caller owns the ReadCloser.
func (s *Store) CheckpointFile(name string) (io.ReadCloser, int64, error) {
	if err := checkpointFileName(name); err != nil {
		return nil, 0, err
	}
	s.mu.Lock()
	gen := s.gen
	s.mu.Unlock()
	if gen == 0 {
		return nil, 0, fmt.Errorf("store: no committed generation to replicate")
	}
	f, err := s.fs.Open(filepath.Join(s.dir, genName(gen), name))
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// ReadSegment returns the committed bytes of segment seq starting at
// byte offset off, and whether the segment is sealed (a sealed segment
// with no bytes past off means the follower should seal its own copy
// and advance to seq+1). It is safe to run concurrently with appends
// and seals: reads of the active segment are bounded by the committed
// frame offset captured under the lock, so a torn in-flight frame is
// never shipped. Reads at or below the watermark return
// ErrSegmentRetired; reads past the active segment return ErrNoSegment.
func (s *Store) ReadSegment(seq uint64, off int64) (data []byte, sealed bool, err error) {
	if off < 0 {
		return nil, false, fmt.Errorf("store: negative segment offset %d", off)
	}
	s.mu.Lock()
	genSeq := s.genSeq
	limit := int64(-1)
	sealed = true
	switch {
	case s.active == nil:
		s.mu.Unlock()
		return nil, false, ErrNoSegment
	case seq == s.active.seq:
		sealed = false
		limit = s.active.off
	case seq > s.active.seq:
		s.mu.Unlock()
		return nil, false, ErrNoSegment
	}
	s.mu.Unlock()
	if seq <= genSeq {
		return nil, false, ErrSegmentRetired
	}
	raw, err := s.fs.ReadFile(filepath.Join(s.dir, segmentName(seq)))
	if err != nil {
		if os.IsNotExist(err) {
			// Raced a concurrent commit's retirement sweep.
			return nil, false, ErrSegmentRetired
		}
		return nil, false, err
	}
	if limit >= 0 && limit < int64(len(raw)) {
		raw = raw[:limit]
	}
	if off > int64(len(raw)) {
		if sealed {
			return nil, true, fmt.Errorf("store: offset %d beyond sealed segment %d end %d", off, seq, len(raw))
		}
		// The caller is exactly at (or, across a read race, momentarily
		// past) the committed end of the active segment: no new bytes.
		return nil, false, nil
	}
	return raw[off:], sealed, nil
}

// InstallCheckpoint makes a shipped checkpoint the store's next
// committed generation through the same publish protocol as a local
// commit. Files are streamed through fetch, one at a time in rm.Files
// order, and each must match its shipped size and CRC-32C. The local
// manifest carries the primary's walSeq watermark: the generation
// number is local bookkeeping — replicas compact at their own pace —
// but the watermark is the shared stream cursor. The staged checkpoint
// must fully load before it may win CURRENT. On success the old
// generation and every segment at or below the watermark are retired,
// the active segment is watermark+1, the stream position is that
// segment's start, and the loaded Checkpoint is returned for the
// caller to restore a serving view from. On error the store is
// unchanged.
//
// The local log must not be ahead of the shipped watermark: records
// past it would be silently discarded. Followers only install when
// bootstrapping cold or after ErrSegmentRetired, both of which satisfy
// this.
func (s *Store) InstallCheckpoint(rm *ReplicationManifest, fetch func(ManifestFile) (io.ReadCloser, error)) (*Checkpoint, error) {
	if rm == nil || rm.Generation == 0 || len(rm.Files) == 0 {
		return nil, fmt.Errorf("store: empty replication manifest")
	}
	seq := rm.CheckpointSeq
	shipped := make(map[string]fileSum, len(rm.Files))
	var files []stagedFile
	for _, mf := range rm.Files {
		if err := checkpointFileName(mf.Name); err != nil {
			return nil, err
		}
		if mf.Name == manifestFile {
			continue // the local manifest is written last
		}
		shipped[mf.Name] = fileSum{Size: mf.Size, CRC32C: mf.CRC32C}
		files = append(files, stagedFile{mf.Name, func(w io.Writer) error {
			rc, err := fetch(mf)
			if err != nil {
				return fmt.Errorf("fetching: %w", err)
			}
			defer rc.Close()
			_, err = io.Copy(w, rc)
			return err
		}})
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	// Only the empty successor of the watermark may already exist (a
	// reinstall after a crashed bootstrap).
	s.mu.Lock()
	active := s.active
	ahead := active != nil && (active.seq > seq+1 || active.seq == seq+1 && active.off > 0)
	s.mu.Unlock()
	if ahead {
		return nil, fmt.Errorf("store: local log at segment %d is ahead of shipped checkpoint watermark %d", active.seq, seq)
	}
	var cp *Checkpoint
	err := s.publish(seq, files, true, func(dir string, sums map[string]fileSum) error {
		for name, want := range shipped {
			if got := sums[name]; got != want {
				return fmt.Errorf("store: shipped %s does not match its manifest sum (%d bytes, crc %08x; want %d, %08x)",
					name, got.Size, got.CRC32C, want.Size, want.CRC32C)
			}
		}
		var err error
		if cp, err = loadCheckpoint(s.fs, dir); err != nil {
			return fmt.Errorf("store: shipped checkpoint unusable: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cp, nil
}

// AppendFrames validates and appends a batch of frames shipped
// verbatim from a primary's segment, returning the decoded deltas for
// the caller to apply to its serving view. The batch must be whole
// frames end to end — a shipped torn tail is transport corruption, not
// a crash artifact, and is rejected without touching the log. Bytes
// land verbatim, so after the append this store's LastPosition matches
// the primary's position for the same records.
func (s *Store) AppendFrames(raw []byte) ([]*cve.Delta, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	deltas, off, note := scanFrames(raw)
	if note != "" || off != int64(len(raw)) {
		return nil, fmt.Errorf("store: shipped frames rejected: %s", note)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return nil, fmt.Errorf("store: no committed checkpoint to log deltas against")
	}
	if err := s.active.appendRaw(raw, len(deltas)); err != nil {
		return nil, err
	}
	s.lastSeq, s.lastOff = s.active.seq, s.active.off
	return deltas, nil
}
