// Package store is nvdserve's persistence layer: a generation store
// that makes a cleaned-snapshot generation durable, and sharded
// inverted indexes (index.go) that make querying one fast.
//
// On disk a store directory holds:
//
//	CURRENT          the name of the committed checkpoint directory
//	gen-NNNNNN/      one full checkpoint (see below)
//	log-NNNNNN       one delta-log segment of CRC-framed records
//
// A checkpoint directory contains the original snapshot in NVD JSON 1.1
// feed form, the consolidation maps, the trained severity engine, and
// state.json — the incremental-reuse state (dataset fingerprint,
// training signature, per-entry crawl artifacts, the §4.4 corrections,
// backported scores) that lets a restart rebuild a delta-cleanable
// Result without re-running the pipeline. The cleaned view is not
// stored: the original, the two maps and state.json determine it, and
// the restore derives it from them.
// MANIFEST.json closes the checkpoint with per-file CRC-32C sums — and
// the walSeq watermark naming the highest log segment the checkpoint
// already folds in — and is written last.
//
// The delta log is segmented (wal.go): appends go to the active
// segment, Seal closes it and opens a successor, and CommitSealed
// writes a checkpoint covering every record at or below the sealed
// seq. Sealing is what lets the checkpoint write leave the ingest hot
// path: the committer serializes the sealed generation in the
// background while new deltas append to the successor segment, and
// durability never weakens because every acknowledged delta is fsynced
// in some live segment before CURRENT swaps.
//
// A commit — local (CommitSealed) or shipped from a primary
// (InstallCheckpoint), both through publish — writes the next
// checkpoint into a gen-NNNNNN.tmp directory, fsyncs it, renames it
// into place, and only then swaps CURRENT (also via rename) — the
// CURRENT swap is the commit point. Segments at or below the
// checkpoint's walSeq are retired only after the swap. A crash at any
// step leaves either the old generation fully intact (tmp directories
// and orphaned gen directories are swept on open, and every segment is
// still on disk) or the new one fully committed (straggler segments at
// or below its walSeq are skipped and swept).
// The delta log recovers independently by truncating the last
// segment's torn tail, so the store always reopens at the last
// committed generation plus every durable delta.
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"nvdclean/internal/crawler"
	"nvdclean/internal/cve"
	"nvdclean/internal/fsio"
	"nvdclean/internal/naming"
	"nvdclean/internal/parallel"
	"nvdclean/internal/predict"
)

// Checkpoint file names.
const (
	currentFile  = "CURRENT"
	manifestFile = "MANIFEST.json"
	originalFile = "original.json"
	vendorsFile  = "vendors.json"
	productsFile = "products.json"
	engineFile   = "engine.json"
	stateFile    = "state.json"
)

// CrawlArtifact is one entry's persisted §4.1 outcome: a pure function
// of the entry's references, replayed on warm starts so unchanged
// entries never touch the network again.
type CrawlArtifact struct {
	Estimated time.Time     `json:"estimated"`
	LagDays   int           `json:"lagDays"`
	Stats     crawler.Stats `json:"stats"`
}

// Training is everything besides the dataset that determines a trained
// §4.3 engine: the model selection, the training config and the split
// seed. The config's Workers is zero, since trained models are
// bit-identical at any worker count.
type Training struct {
	Models      string              `json:"models"`
	ModelConfig predict.ModelConfig `json:"modelConfig"`
	Seed        int64               `json:"seed"`
}

// State is the incremental-reuse state of one cleaned generation —
// everything CleanDelta needs from a previous Result that is not
// already in the original snapshot, the consolidation maps, or the
// engine document. A Result carries it as is, and a checkpoint
// persists it as state.json.
type State struct {
	// Fingerprint is the §4.3 dataset fingerprint of the cleaned
	// snapshot; Trained marks a generation whose severity stage ran.
	Fingerprint uint64 `json:"fingerprint"`
	Trained     bool   `json:"trained"`
	// Training is the signature the engine warm-start check compares
	// against the next run's options.
	Training
	// Crawled marks a generation produced with a transport; Crawl holds
	// the per-entry artifacts.
	Crawled bool                     `json:"crawled"`
	Crawl   map[string]CrawlArtifact `json:"crawl,omitempty"`
	// CWEFix holds the §4.4 outcomes that rewrote an entry's CWE field.
	// An entry without a record was left alone.
	CWEFix map[string]predict.EntryCorrection `json:"cweFix"`
	// HasBackport marks a generation carrying predicted v3 scores;
	// Backport maps CVE ID to the predicted score.
	HasBackport bool               `json:"hasBackport"`
	Backport    map[string]float64 `json:"backport,omitempty"`
}

// Checkpoint is one full generation as persisted: the original
// snapshot, the consolidation maps, the trained engine (nil when the
// severity stage did not run) and the reuse state, from which the
// cleaned view is derived. Generation and Seq are filled by the store
// on load; callers building a checkpoint leave them zero.
type Checkpoint struct {
	Generation uint64
	// Seq is the walSeq watermark: the highest delta-log segment this
	// checkpoint folds in. Recovery replays only segments above it.
	Seq      uint64
	Original *cve.Snapshot
	Vendors  *naming.Map
	Products *naming.ProductMap
	Engine   *predict.Engine
	State    *State
	// Index is the generation's query index. On commit, a non-nil
	// Index persists as per-shard segment files; on load, it is
	// assembled lazily from them (shards stay raw bytes until first
	// queried). Nil on checkpoints committed without an index —
	// callers fall back to one in-memory BuildIndex.
	Index *Index
	// IndexNote is filled on load when index segments were present but
	// unusable (and Index is therefore nil): the checkpoint itself is
	// still good, only the index needs rebuilding.
	IndexNote string
}

// manifest closes a checkpoint directory: it is written last, so its
// presence (with matching sums) certifies every other file.
type manifest struct {
	Kind       string             `json:"kind"`
	Generation uint64             `json:"generation"`
	Seq        uint64             `json:"walSeq"`
	Files      map[string]fileSum `json:"files"`
}

type fileSum struct {
	Size   int64  `json:"size"`
	CRC32C uint32 `json:"crc32c"`
}

const manifestKind = "nvdstore-checkpoint"

// Store is an open generation store. Log writers (AppendDelta, Seal)
// must be serialized (nvdserve does so behind its feed mutex), but a
// single CommitSealed may run concurrently with them — that is the
// background-compaction contract: the committer writes the sealed
// generation's checkpoint while new deltas append to the successor
// segment. The counter accessors may be called concurrently with
// everything.
type Store struct {
	dir string
	// fs is the filesystem every durability operation goes through —
	// fsio.OS in production, an fsio.Injector under fault-injection and
	// crash-point tests.
	fs fsio.FS
	// mu guards the generation counters, the sealed-segment list and
	// the active-segment pointer against concurrent reads; the log
	// write path itself is externally serialized.
	mu     sync.Mutex
	gen    uint64
	genSeq uint64
	sealed []sealedSeg
	active *wal
	// lastSeq/lastOff are the replication stream position of the last
	// applied record: the segment it landed in and the byte offset just
	// past its frame. Appends (local or shipped) advance it, Seal leaves
	// it alone, and installing or cold-committing a checkpoint resets it
	// to the fresh active segment's start — so two replicas whose
	// positions match are serving byte-identical log contents.
	lastSeq uint64
	lastOff int64
	// commitMu serializes checkpoint commits (the boot-path Commit
	// against a background CommitSealed).
	commitMu sync.Mutex
	// commitObs, when set, observes every CommitSealed outcome — wall
	// time and error — so the daemon can feed a checkpoint-duration
	// histogram without the store importing a metrics package.
	commitObs func(time.Duration, error)
}

// SetCommitObserver installs fn to be called after every CommitSealed
// (the funnel both the synchronous Commit and the background committer
// go through) with the commit's duration and outcome — except one
// dropped because a newer watermark superseded it, which is no outcome
// at all. fn must be safe for concurrent use; set it before commits
// start.
func (s *Store) SetCommitObserver(fn func(time.Duration, error)) {
	s.mu.Lock()
	s.commitObs = fn
	s.mu.Unlock()
}

// Open opens (creating if needed) the store at dir and recovers it to
// the last committed generation: the newest valid checkpoint plus every
// durable delta-log record, replayed across segments in order. It
// returns a nil Checkpoint when the store is empty (cold boot), and
// human-readable notes for anything recovery had to repair or discard.
func Open(dir string) (*Store, *Checkpoint, []*cve.Delta, []string, error) {
	return OpenFS(dir, fsio.OS{})
}

// OpenFS is Open with an explicit filesystem: fault-injection and
// crash-point tests pass an fsio.Injector, production passes fsio.OS
// (via Open).
func OpenFS(dir string, fs fsio.FS) (*Store, *Checkpoint, []*cve.Delta, []string, error) {
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, nil, err
	}
	var notes []string

	cp, err := pickCheckpoint(fs, dir, &notes)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	s := &Store{dir: dir, fs: fs}
	if cp != nil {
		s.gen = cp.Generation
		s.genSeq = cp.Seq
	}
	sweepStale(fs, dir, s.gen, s.genSeq, &notes)
	if cp == nil {
		return s, nil, nil, notes, nil
	}

	active, sealed, deltas, segNotes, err := replaySegments(fs, dir, s.genSeq)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	notes = append(notes, segNotes...)
	s.active = active
	s.sealed = sealed
	// Recover the replication position: the end of the last segment that
	// holds records, or the start of the (empty) active segment — the
	// same position the store had before the restart.
	s.lastSeq, s.lastOff = active.seq, 0
	if active.records > 0 {
		s.lastOff = active.off
	} else {
		for i := len(sealed) - 1; i >= 0; i-- {
			if sealed[i].records > 0 {
				s.lastSeq, s.lastOff = sealed[i].seq, sealed[i].end
				break
			}
		}
	}
	return s, cp, deltas, notes, nil
}

// pickCheckpoint loads the generation CURRENT names, falling back to
// the newest readable gen-* directory when CURRENT is missing, stale,
// or names a corrupt checkpoint.
func pickCheckpoint(fs fsio.FS, dir string, notes *[]string) (*Checkpoint, error) {
	var tried []string
	if name, err := readCurrent(fs, dir); err == nil && name != "" {
		cp, err := loadCheckpoint(fs, filepath.Join(dir, name))
		if err == nil {
			if cp.IndexNote != "" {
				*notes = append(*notes, fmt.Sprintf("checkpoint %s: %s", name, cp.IndexNote))
			}
			return cp, nil
		}
		*notes = append(*notes, fmt.Sprintf("checkpoint %s (CURRENT): %v", name, err))
		tried = append(tried, name)
	}
	for _, name := range genDirs(fs, dir) {
		if slices.Contains(tried, name) {
			continue
		}
		cp, err := loadCheckpoint(fs, filepath.Join(dir, name))
		if err != nil {
			*notes = append(*notes, fmt.Sprintf("checkpoint %s: %v", name, err))
			continue
		}
		if cp.IndexNote != "" {
			*notes = append(*notes, fmt.Sprintf("checkpoint %s: %s", name, cp.IndexNote))
		}
		*notes = append(*notes, fmt.Sprintf("recovered from checkpoint %s", name))
		return cp, nil
	}
	return nil, nil
}

// sweepStale removes interrupted commits (gen-*.tmp), checkpoint
// directories other than the recovered generation, segments the
// committed checkpoint already folds in (walSeq and below — stragglers
// of a crash between the CURRENT swap and retirement), and, on a cold
// recovery with no checkpoint at all, every segment (deltas are
// unusable without their base generation).
func sweepStale(fs fsio.FS, dir string, gen, genSeq uint64, notes *[]string) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return
	}
	keepDir := genName(gen)
	for _, ent := range entries {
		name := ent.Name()
		var stale bool
		switch {
		case strings.HasSuffix(name, ".tmp"):
			stale = true
		case strings.HasPrefix(name, "gen-") && ent.IsDir() && name != keepDir:
			stale = true
		default:
			if seq, ok := segmentSeq(name); ok && (gen == 0 || seq <= genSeq) {
				stale = true
			}
		}
		if stale {
			if err := fs.RemoveAll(filepath.Join(dir, name)); err == nil {
				*notes = append(*notes, "swept stale "+name)
			}
		}
	}
}

// genDirs lists complete-looking checkpoint directories, newest first.
func genDirs(fs fsio.FS, dir string) []string {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() && strings.HasPrefix(name, "gen-") && !strings.HasSuffix(name, ".tmp") {
			names = append(names, name)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names
}

func genName(gen uint64) string { return fmt.Sprintf("gen-%06d", gen) }

// Generation returns the committed checkpoint generation (0 when the
// store is empty).
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// LogRecords returns the number of delta records applied on top of the
// committed checkpoint, across every live segment (sealed segments
// awaiting a background commit plus the active one).
func (s *Store) LogRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, seg := range s.sealed {
		n += seg.records
	}
	if s.active != nil {
		n += s.active.records
	}
	return n
}

// ActiveRecords returns the record count of the active segment alone —
// the records accumulated since the last seal, which is the compaction
// trigger.
func (s *Store) ActiveRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return 0
	}
	return s.active.records
}

// SealedSegments returns the number of sealed segments awaiting
// retirement by a checkpoint commit.
func (s *Store) SealedSegments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sealed)
}

// LastPosition returns the replication stream position of the last
// record applied to this store: the segment it landed in and the byte
// offset just past its frame (segment start for a store that has not
// appended since its checkpoint). Because followers append the
// primary's frame bytes verbatim, two replicas at the same position
// are serving byte-identical content — which is why the daemon derives
// its ETag validator from this pair.
func (s *Store) LastPosition() (seq uint64, off int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq, s.lastOff
}

// ActivePosition returns the active segment's seq and committed byte
// length — the cursor a follower resumes tailing from after a local
// restart. (0, 0) when the store has no committed checkpoint yet.
func (s *Store) ActivePosition() (seq uint64, off int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return 0, 0
	}
	return s.active.seq, s.active.off
}

// Watermark returns the committed checkpoint's walSeq watermark: every
// segment at or below it is folded into the checkpoint and retired
// from the replication stream. 0 when the store is empty.
func (s *Store) Watermark() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.genSeq
}

// AppendDelta makes one feed delta durable in the active segment. It
// must be called before the corresponding generation starts serving: a
// crash after the append replays the delta on restart, a crash before
// it loses nothing that was ever visible.
func (s *Store) AppendDelta(d *cve.Delta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return fmt.Errorf("store: no committed checkpoint to log deltas against")
	}
	if err := s.active.append(d); err != nil {
		return err
	}
	s.lastSeq, s.lastOff = s.active.seq, s.active.off
	return nil
}

// Seal closes the active segment and opens its successor, returning
// the sealed seq. Every record appended before Seal is fsynced in the
// sealed segment; a checkpoint of the generation those records produce
// can then be committed off the append path (CommitSealed), while new
// deltas append to the successor. Seal itself is O(1) — one file
// create plus a directory sync, never a checkpoint write.
func (s *Store) Seal() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return 0, fmt.Errorf("store: no active segment to seal")
	}
	sealedSeq := s.active.seq
	records := s.active.records
	end := s.active.off
	next, _, _, err := openSegment(s.fs, filepath.Join(s.dir, segmentName(sealedSeq+1)), sealedSeq+1)
	if err != nil {
		return 0, err
	}
	if err := s.active.close(); err != nil {
		next.close()
		return 0, fmt.Errorf("store: sealing segment %d: %w", sealedSeq, err)
	}
	s.sealed = append(s.sealed, sealedSeg{seq: sealedSeq, records: records, end: end})
	s.active = next
	// Persist the successor's directory entry so a crash cannot lose
	// the (empty) segment the next append lands in.
	if err := syncDir(s.fs, s.dir); err != nil {
		return 0, err
	}
	return sealedSeq, nil
}

// Commit synchronously persists cp as the next generation, folding in
// every delta logged so far: it seals the active segment (when one
// exists) and runs CommitSealed inline. This is the cold-boot path;
// the non-blocking ingest path calls Seal and hands CommitSealed to a
// background Committer instead.
func (s *Store) Commit(cp *Checkpoint) error {
	s.mu.Lock()
	hasActive := s.active != nil
	s.mu.Unlock()
	var seq uint64
	if hasActive {
		var err error
		if seq, err = s.Seal(); err != nil {
			return err
		}
	}
	return s.CommitSealed(cp, seq)
}

// CommitSealed persists cp as the next generation, covering every
// delta-log record in segments at or below seq: it writes a complete
// checkpoint directory whose manifest records seq as its walSeq
// watermark, atomically renames it into place, swaps CURRENT, and then
// retires the previous generation and every segment the new checkpoint
// folds in. It is safe to run concurrently with AppendDelta/Seal on
// the successor segments — the write path the background committer
// uses — but at most one commit may be in flight at a time (enforced
// by commitMu). On error the old checkpoint and every segment are left
// intact, so the commit can simply be retried — unless the committed
// watermark is already past seq (a replica installed a newer shipped
// checkpoint meanwhile): that request is superseded, and its error is
// one the Committer drops rather than retries.
func (s *Store) CommitSealed(cp *Checkpoint, seq uint64) error {
	start := time.Now()
	err := s.commitSealed(cp, seq)
	s.mu.Lock()
	obs := s.commitObs
	s.mu.Unlock()
	if obs != nil && !errors.Is(err, errSuperseded) {
		obs(time.Since(start), err)
	}
	return err
}

// errSuperseded marks a CommitSealed whose seq is behind the committed
// watermark. The check runs under commitMu, so an install landing
// between an enqueue and the commit is always seen.
var errSuperseded = errors.New("store: checkpoint superseded")

func (s *Store) commitSealed(cp *Checkpoint, seq uint64) error {
	if cp == nil || cp.Original == nil || cp.State == nil ||
		cp.Vendors == nil || cp.Products == nil {
		return fmt.Errorf("store: incomplete checkpoint")
	}
	if cp.Index != nil && cp.Index.Entries() != len(cp.Original.Entries) {
		return fmt.Errorf("store: index covers %d entries, snapshot has %d",
			cp.Index.Entries(), len(cp.Original.Entries))
	}
	files := []stagedFile{
		{originalFile, func(w io.Writer) error { return cve.WriteFeedCompact(w, cp.Original) }},
		{vendorsFile, cp.Vendors.WriteJSON},
		{productsFile, cp.Products.WriteJSON},
		{stateFile, func(w io.Writer) error { return json.NewEncoder(w).Encode(cp.State) }},
	}
	if cp.Engine != nil {
		files = append(files, stagedFile{engineFile, cp.Engine.WriteJSON})
	}
	for shard := 0; cp.Index != nil && shard < numShards; shard++ {
		files = append(files, stagedFile{indexSegName(shard), func(w io.Writer) error {
			wire, err := cp.Index.shardWire(shard)
			if err != nil {
				return fmt.Errorf("encoding index shard %d: %w", shard, err)
			}
			_, err = w.Write(wire)
			return err
		}})
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.mu.Lock()
	var err error
	switch {
	case s.active != nil && seq >= s.active.seq:
		err = fmt.Errorf("store: cannot commit through unsealed segment %d (active %d)", seq, s.active.seq)
	case seq < s.genSeq:
		err = fmt.Errorf("%w: walSeq %d behind committed watermark %d", errSuperseded, seq, s.genSeq)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	// Every document encodes concurrently.
	return s.publish(seq, files, len(files), false, nil)
}

// stagedFile is one file of a checkpoint being staged: its name and
// the function that writes its bytes.
type stagedFile struct {
	name  string
	write func(io.Writer) error
}

// publish is the one commit protocol behind CommitSealed and
// InstallCheckpoint; the caller holds commitMu. It stages the next
// generation, with seq as its walSeq watermark, in gen-NNNNNN.tmp:
// every file through writeFile, up to workers at once, then the
// manifest of their sums last, since its presence certifies the rest.
// verify, when set, vets the staged directory and those sums. Then it
// publishes:
//
//   - the directory is renamed into place;
//   - unless the active segment is already past seq, the first segment
//     past it is opened and its directory entry synced, so a committed
//     CURRENT always has a durable log to append to;
//   - CURRENT swaps — the commit point;
//   - the previous generation and every segment at or below seq retire.
//
// reset moves the stream position to the watermark's successor (an
// install); otherwise only an empty store's first commit sets it there.
// On error the committed generation and every segment are untouched,
// so the caller can simply retry.
func (s *Store) publish(seq uint64, files []stagedFile, workers int, reset bool, verify func(dir string, sums map[string]fileSum) error) error {
	s.mu.Lock()
	gen := s.gen + 1
	s.mu.Unlock()
	name := genName(gen)
	tmp := filepath.Join(s.dir, name+".tmp")
	if err := s.fs.RemoveAll(tmp); err != nil {
		return err
	}
	if err := s.fs.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	m := &manifest{Kind: manifestKind, Generation: gen, Seq: seq, Files: make(map[string]fileSum, len(files))}
	var mMu sync.Mutex
	if err := parallel.ForErr(workers, len(files), func(i int) error {
		sum, err := writeFile(s.fs, filepath.Join(tmp, files[i].name), files[i].write)
		mMu.Lock()
		m.Files[files[i].name] = sum
		mMu.Unlock()
		return err
	}); err != nil {
		return err
	}
	if _, err := writeFile(s.fs, filepath.Join(tmp, manifestFile), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	}); err != nil {
		return err
	}
	if verify != nil {
		if err := verify(tmp, m.Files); err != nil {
			return err
		}
	}

	// A prior attempt for this generation may have renamed its directory
	// into place and then failed (e.g. disk full writing CURRENT); clear
	// the orphan or the rename below wedges every retry with ENOTEMPTY.
	final := filepath.Join(s.dir, name)
	if err := s.fs.RemoveAll(final); err != nil {
		return err
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		return err
	}
	if err := syncDir(s.fs, s.dir); err != nil {
		return err
	}
	s.mu.Lock()
	next := s.active
	s.mu.Unlock()
	fresh := next == nil || next.seq <= seq
	if fresh {
		var err error
		if next, _, _, err = openSegment(s.fs, filepath.Join(s.dir, segmentName(seq+1)), seq+1); err != nil {
			return err
		}
		if err := syncDir(s.fs, s.dir); err != nil {
			next.close()
			return err
		}
	}
	if err := writeCurrent(s.fs, s.dir, name); err != nil {
		if fresh {
			next.close()
		}
		return err
	}

	s.mu.Lock()
	oldGen, oldActive := s.gen, s.active
	s.gen, s.genSeq = gen, seq
	if fresh {
		s.active = next
	}
	if reset || oldGen == 0 {
		s.lastSeq, s.lastOff = seq+1, 0
	}
	live := s.sealed[:0]
	for _, seg := range s.sealed {
		if seg.seq > seq {
			live = append(live, seg)
		}
	}
	s.sealed = live
	s.mu.Unlock()
	if fresh {
		oldActive.close()
	}
	if oldGen != 0 {
		s.fs.RemoveAll(filepath.Join(s.dir, genName(oldGen)))
	}
	for _, q := range segmentSeqs(s.fs, s.dir) {
		if q <= seq {
			s.fs.Remove(filepath.Join(s.dir, segmentName(q)))
		}
	}
	return nil
}

// writeFile creates path, streams write's output into it, and fsyncs
// and closes it. It returns the size and CRC-32C of the bytes written,
// summed as they pass, so a manifest sum costs no second read.
func writeFile(fs fsio.FS, path string, write func(io.Writer) error) (fileSum, error) {
	f, err := fs.Create(path)
	if err != nil {
		return fileSum{}, err
	}
	cw := &crcWriter{crc: crc32.New(walTable)}
	if err := write(io.MultiWriter(f, cw)); err != nil {
		f.Close()
		return fileSum{}, fmt.Errorf("store: writing %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fileSum{}, err
	}
	if err := f.Close(); err != nil {
		return fileSum{}, err
	}
	return fileSum{Size: cw.size, CRC32C: cw.crc.Sum32()}, nil
}

// Probe attempts one small durable write cycle — create, write, fsync,
// remove a scratch file — in the store directory, reporting whether
// the disk currently accepts writes. The daemon's degraded-mode
// recovery loop polls it after a persist failure; the .tmp suffix
// means a probe stranded by a crash is swept on the next open. A
// successful probe also heals a poisoned delta log (a rollback that
// could not truncate at fault time is retried now that writes work),
// so recovery never requires a restart: Probe returning nil means the
// store accepts appends again.
func (s *Store) Probe() error {
	path := filepath.Join(s.dir, "probe.tmp")
	if _, err := writeFile(s.fs, path, func(w io.Writer) error {
		_, err := io.WriteString(w, "probe\n")
		return err
	}); err != nil {
		s.fs.Remove(path)
		return err
	}
	if err := s.fs.Remove(path); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return nil
	}
	return s.active.heal()
}

// Close releases the active delta-log segment handle.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active.close()
}

// crcWriter accumulates the size and CRC-32C of everything written
// through it.
type crcWriter struct {
	crc  hash.Hash32
	size int64
}

func (w *crcWriter) Write(p []byte) (int, error) {
	w.crc.Write(p)
	w.size += int64(len(p))
	return len(p), nil
}

func syncDir(fs fsio.FS, dir string) error {
	f, err := fs.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

func readCurrent(fs fsio.FS, dir string) (string, error) {
	b, err := fs.ReadFile(filepath.Join(dir, currentFile))
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(b)), nil
}

// writeCurrent atomically repoints CURRENT — the commit point of the
// whole store. The new name is fsynced before the rename: a CURRENT
// whose contents may not be on disk must never become the commit
// point, so a failed open or fsync fails the commit, which retries.
func writeCurrent(fs fsio.FS, dir, name string) error {
	tmp := filepath.Join(dir, currentFile+".tmp")
	if _, err := writeFile(fs, tmp, func(w io.Writer) error {
		_, err := io.WriteString(w, name+"\n")
		return err
	}); err != nil {
		return err
	}
	if err := fs.Rename(tmp, filepath.Join(dir, currentFile)); err != nil {
		return err
	}
	return syncDir(fs, dir)
}

// loadCheckpoint reads and fully verifies one checkpoint directory:
// the manifest must parse, every listed file must match its recorded
// size and CRC-32C sum (an older build's cleaned.json is only checked,
// never decoded), and every document must decode. Index segment
// files are the one exception to strictness: a torn or corrupt
// index-NN.seg is dropped (with a note) rather than failing the
// checkpoint, because the index is derivable — the caller rebuilds it
// from the cleaned view — while the snapshot, maps and state are not.
func loadCheckpoint(fs fsio.FS, path string) (*Checkpoint, error) {
	mb, err := fs.ReadFile(filepath.Join(path, manifestFile))
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if m.Kind != manifestKind {
		return nil, fmt.Errorf("manifest: unexpected kind %q", m.Kind)
	}
	files := make(map[string][]byte, len(m.Files))
	var segDamage []string
	for name, want := range m.Files {
		data, err := fs.ReadFile(filepath.Join(path, name))
		if err == nil && (int64(len(data)) != want.Size || crc32.Checksum(data, walTable) != want.CRC32C) {
			err = fmt.Errorf("%s: checksum mismatch", name)
		}
		if err != nil {
			if isIndexSegName(name) {
				segDamage = append(segDamage, name)
				continue
			}
			return nil, err
		}
		files[name] = data
	}
	need := func(name string) ([]byte, error) {
		data, ok := files[name]
		if !ok {
			return nil, fmt.Errorf("manifest lists no %s", name)
		}
		return data, nil
	}

	// The snapshot, the reuse state and the engine are the large
	// documents; decode them concurrently. The consolidation maps are
	// small enough to decode inline.
	cp := &Checkpoint{Generation: m.Generation, Seq: m.Seq}
	var g parallel.Group
	decode := func(file string, fn func([]byte) error) {
		g.Go(func() error {
			data, err := need(file)
			if err != nil {
				return err
			}
			if err := fn(data); err != nil {
				return fmt.Errorf("%s: %w", file, err)
			}
			return nil
		})
	}
	decode(originalFile, func(data []byte) (err error) {
		cp.Original, err = cve.ReadFeed(bytes.NewReader(data))
		return err
	})
	decode(stateFile, func(data []byte) error {
		return json.Unmarshal(data, &cp.State)
	})
	if _, ok := files[engineFile]; ok {
		decode(engineFile, func(data []byte) (err error) {
			cp.Engine, err = predict.ReadEngineJSON(bytes.NewReader(data))
			return err
		})
	}
	if data, err := need(vendorsFile); err != nil {
		return nil, err
	} else if cp.Vendors, err = naming.ReadMapJSON(bytes.NewReader(data)); err != nil {
		return nil, fmt.Errorf("%s: %w", vendorsFile, err)
	}
	if data, err := need(productsFile); err != nil {
		return nil, err
	} else if cp.Products, err = naming.ReadProductMapJSON(bytes.NewReader(data)); err != nil {
		return nil, fmt.Errorf("%s: %w", productsFile, err)
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	cp.Index, cp.IndexNote = loadIndexSegments(files, cp.Original)
	if len(segDamage) > 0 {
		sort.Strings(segDamage)
		cp.Index = nil
		cp.IndexNote = fmt.Sprintf("index segments damaged (%s); index will be rebuilt",
			strings.Join(segDamage, ", "))
	}
	return cp, nil
}

// isIndexSegName reports whether a manifest-listed file is an index
// segment — the derivable class of checkpoint file that may be dropped
// on damage.
func isIndexSegName(name string) bool {
	return strings.HasPrefix(name, "index-") && strings.HasSuffix(name, ".seg")
}

// loadIndexSegments assembles the checkpoint's lazy index from its
// segment files (already CRC-verified against the manifest). Index
// trouble never fails the checkpoint: a checkpoint committed without an
// index returns a silent nil, and a partial or mismatched segment
// set returns nil with a note — either way the caller rebuilds in
// memory.
func loadIndexSegments(files map[string][]byte, snap *cve.Snapshot) (*Index, string) {
	var raws [numShards][]byte
	found := 0
	for s := range raws {
		if data, ok := files[indexSegName(s)]; ok {
			raws[s] = data
			found++
		}
	}
	if found == 0 {
		return nil, ""
	}
	if found < numShards {
		return nil, fmt.Sprintf("index segments incomplete (%d/%d); index will be rebuilt", found, numShards)
	}
	ix, err := indexFromSegments(raws, snap)
	if err != nil {
		return nil, fmt.Sprintf("index segments unusable (%v); index will be rebuilt", err)
	}
	return ix, ""
}
