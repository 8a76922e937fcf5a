package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"nvdclean/internal/cve"
	"nvdclean/internal/fsio"
)

// Crash-point exploration (ALICE/CrashMonkey style): instead of
// hand-picking crash windows, enumerate every mutating filesystem
// operation a store mutation performs, simulate a crash immediately
// after each one (by snapshotting the directory at that boundary),
// reopen the snapshot, and assert the recovered view is exactly the
// pre-operation or the post-operation state — never a third thing.
// Three passes per path:
//
//   - crash-after-op: the op landed, then the machine died;
//   - ENOSPC-at-op: the op itself failed (disk full), the caller saw
//     the error, then the machine died;
//   - torn-write-at-op: a write landed partially before failing, then
//     the machine died.
//
// Passes 2 and 3 rerun the mutation and fail its op by number, which
// names the same op only because every store mutation performs its
// filesystem ops in one fixed order; each rerun checks that the op it
// failed is the one pass 1 recorded at that number.

// dirImage is a point-in-time copy of a store directory. Keys are
// slash-separated relative paths; a nil value marks a directory.
type dirImage map[string][]byte

func snapshotDir(t *testing.T, dir string) dirImage {
	t.Helper()
	img := dirImage{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil || rel == "." {
			return err
		}
		if d.IsDir() {
			img[filepath.ToSlash(rel)] = nil
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		img[filepath.ToSlash(rel)] = b
		return nil
	})
	if err != nil {
		t.Fatalf("snapshotting %s: %v", dir, err)
	}
	return img
}

func materializeDir(t *testing.T, img dirImage) string {
	t.Helper()
	dir := t.TempDir()
	for rel, data := range img {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if data == nil {
			if err := os.MkdirAll(path, 0o755); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// viewOf recovers a (copy of a) store directory and fingerprints the
// logical state it serves: the committed checkpoint's generation,
// watermark, original snapshot, naming survey and state document
// (from which the restore derives the cleaned view) plus every
// replayed delta, in order. Two directories with the same fingerprint
// recover to the same serving view. Recovery itself must never fail on a crash image — an error
// becomes a fingerprint no legitimate view matches, failing the
// assertion with the error text.
func viewOf(t *testing.T, dir string) string {
	t.Helper()
	s, cp, deltas, _, err := Open(dir)
	if err != nil {
		return "unrecoverable: " + err.Error()
	}
	defer s.Close()
	if cp == nil {
		return "empty"
	}
	h := sha256.New()
	fmt.Fprintf(h, "gen=%d seq=%d\n", cp.Generation, cp.Seq)
	if err := cve.WriteFeedCompact(h, cp.Original); err != nil {
		return "unrecoverable: " + err.Error()
	}
	if err := cp.Survey.WriteJSON(h); err != nil {
		return "unrecoverable: " + err.Error()
	}
	if err := json.NewEncoder(h).Encode(cp.State); err != nil {
		return "unrecoverable: " + err.Error()
	}
	for _, d := range deltas {
		b, err := cve.MarshalDelta(d)
		if err != nil {
			return "unrecoverable: " + err.Error()
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// crashStride subsamples n crash points in -short mode so the CI step
// stays fast; the full sweep runs in the unabridged store test step.
func crashStride(n int) int {
	if !testing.Short() || n <= 24 {
		return 1
	}
	return n/24 + 1
}

// exploreCrashPath drives the three passes for one store mutation.
// setup builds the initial on-disk state (and must close every store
// handle); run performs the mutation on a store opened over the
// injector. It returns the number of explored crash points.
func exploreCrashPath(t *testing.T, setup func(t *testing.T, dir string), run func(t *testing.T, s *Store) error) int {
	t.Helper()
	base := t.TempDir()
	setup(t, base)
	preSnap := snapshotDir(t, base)
	preView := viewOf(t, materializeDir(t, preSnap))

	openInjected := func(img dirImage) (*Store, *fsio.Injector, string) {
		dir := materializeDir(t, img)
		inj := fsio.NewInjector(fsio.OS{})
		s, _, _, _, err := OpenFS(dir, inj)
		if err != nil {
			t.Fatalf("OpenFS on materialized image: %v", err)
		}
		return s, inj, dir
	}

	// Pass 1: clean run, snapshot after every mutating op.
	s, inj, work := openInjected(preSnap)
	bootOps := inj.Ops()
	var ops []fsio.Op
	var snaps []dirImage
	inj.SetAfter(func(op fsio.Op) {
		ops = append(ops, op)
		snaps = append(snaps, snapshotDir(t, work))
	})
	if err := run(t, s); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	inj.SetAfter(nil)
	s.Close()
	postView := viewOf(t, materializeDir(t, snapshotDir(t, work)))
	if len(ops) == 0 {
		t.Fatal("mutation performed no mutating fsio ops — nothing to explore")
	}

	explored := 0
	check := func(pass string, op fsio.Op, img dirImage) {
		t.Helper()
		v := viewOf(t, materializeDir(t, img))
		if v != preView && v != postView {
			t.Errorf("%s at op %d (%s %s): recovered view %.40s is neither pre %.12s nor post %.12s",
				pass, op.N, op.Kind, filepath.Base(op.Path), v, preView, postView)
		}
		explored++
	}

	stride := crashStride(len(ops))
	for k := 0; k < len(ops); k += stride {
		check("crash-after", ops[k], snaps[k])
	}

	// rerun performs the mutation again on a fresh copy of the
	// pre-image with the fault decide injects, and requires the op it
	// failed to be pass 1's op k: the same kind on the same path
	// relative to each run's own directory.
	rerun := func(pass string, k int, decide func(fsio.Op) fsio.Decision) {
		t.Helper()
		s, inj, dir := openInjected(preSnap)
		if got := inj.Ops(); got != bootOps {
			t.Fatalf("boot performed %d mutating ops, first run %d — op numbering drifted", got, bootOps)
		}
		var failed fsio.Op
		inj.SetDecide(func(op fsio.Op) fsio.Decision {
			d := decide(op)
			if d.Err != nil {
				failed = op
			}
			return d
		})
		_ = run(t, s) // an error is expected but not required: some failures are absorbed (e.g. retirement)
		inj.SetDecide(nil)
		s.Close()
		switch want := relOp(work, ops[k]); {
		case failed.N == 0:
			t.Errorf("%s at op %d (%s): the rerun failed no op", pass, ops[k].N, want)
		case relOp(dir, failed) != want:
			t.Errorf("%s at op %d: the rerun failed %s, pass 1 recorded %s there", pass, ops[k].N, relOp(dir, failed), want)
		}
		check(pass, ops[k], snapshotDir(t, dir))
	}

	// Pass 2: the op fails with ENOSPC, the caller observes the error,
	// then the machine dies.
	for k := 0; k < len(ops); k += stride {
		rerun("enospc-at", k, fsio.FailOp(ops[k].N, syscall.ENOSPC))
	}

	// Pass 3: writes land one byte and then fail — a torn write.
	for k := 0; k < len(ops); k += stride {
		if ops[k].Kind != fsio.OpWrite && ops[k].Kind != fsio.OpWriteFile {
			continue
		}
		rerun("torn-write-at", k, fsio.TornWriteOp(ops[k].N, 1, syscall.EIO))
	}
	if explored == 0 {
		t.Fatal("explored 0 crash points")
	}
	t.Logf("explored %d crash points across %d mutating ops (stride %d)", explored, len(ops), stride)
	return explored
}

// relOp names an op by kind and by its path relative to the run's
// directory, so ops of two runs in different directories compare.
func relOp(dir string, op fsio.Op) string {
	rel, err := filepath.Rel(dir, op.Path)
	if err != nil {
		rel = op.Path
	}
	return op.Kind.String() + " " + filepath.ToSlash(rel)
}

// setupCommitted commits one checkpoint and appends one delta — the
// steady state every mutation path starts from.
func setupCommitted(t *testing.T, dir string) {
	t.Helper()
	s, _, _, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDelta(testDelta(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashPointsAppend(t *testing.T) {
	n := exploreCrashPath(t, setupCommitted, func(t *testing.T, s *Store) error {
		return s.AppendDelta(testDelta(2))
	})
	if n == 0 {
		t.Fatal("append path explored no crash points")
	}
}

func TestCrashPointsSeal(t *testing.T) {
	n := exploreCrashPath(t, setupCommitted, func(t *testing.T, s *Store) error {
		_, err := s.Seal()
		return err
	})
	if n == 0 {
		t.Fatal("seal path explored no crash points")
	}
}

func TestCrashPointsCommitSealed(t *testing.T) {
	n := exploreCrashPath(t, setupCommitted, func(t *testing.T, s *Store) error {
		seq, err := s.Seal()
		if err != nil {
			return err
		}
		return s.CommitSealed(testCheckpoint(), seq)
	})
	if n == 0 {
		t.Fatal("commit path explored no crash points")
	}
}

func TestCrashPointsCommitSealedWithIndex(t *testing.T) {
	if testing.Short() {
		t.Skip("index-bearing commit sweep runs in the full store step")
	}
	n := exploreCrashPath(t, setupCommitted, func(t *testing.T, s *Store) error {
		seq, err := s.Seal()
		if err != nil {
			return err
		}
		cp := testCheckpoint()
		_, cleaned := testSnapshots()
		cp.Index = BuildIndex(cleaned, 0)
		return s.CommitSealed(cp, seq)
	})
	if n == 0 {
		t.Fatal("index commit path explored no crash points")
	}
}

func TestCrashPointsInstallCheckpoint(t *testing.T) {
	// A real source store serves the shipped checkpoint; the sink —
	// a cold, empty store — installs it under injection.
	srcDir := t.TempDir()
	src, _, _, _, err := Open(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Commit(testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := src.AppendDelta(testDelta(1)); err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rm, err := src.ReplicationManifest()
	if err != nil {
		t.Fatal(err)
	}
	fetch := func(mf ManifestFile) (io.ReadCloser, error) {
		rc, _, err := src.CheckpointFile(mf.Name)
		return rc, err
	}
	n := exploreCrashPath(t,
		func(t *testing.T, dir string) {}, // cold sink: pre-view is "empty"
		func(t *testing.T, s *Store) error {
			_, err := s.InstallCheckpoint(rm, fetch)
			return err
		})
	if n == 0 {
		t.Fatal("install path explored no crash points")
	}
}

// TestCrashPointsInstallCheckpointWarmSink installs into a sink that
// already serves: generation 1, a sealed log-1 and an active log-2 with
// one record each. The shipped watermark 2 folds both segments, so the
// publish step retires generation 1 and replaces the active segment.
func TestCrashPointsInstallCheckpointWarmSink(t *testing.T) {
	src, rm := foldedSource(t)
	n := exploreCrashPath(t,
		func(t *testing.T, dir string) {
			setupCommitted(t, dir)
			s, _, _, _ := mustOpen(t, dir)
			if _, err := s.Seal(); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendDelta(testDelta(2)); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		},
		func(t *testing.T, s *Store) error {
			_, err := s.InstallCheckpoint(rm, sourceFetch(src))
			return err
		})
	if n == 0 {
		t.Fatal("warm install path explored no crash points")
	}
}

// TestCrashPointViewsDiffer sanity-checks the fingerprint: the
// pre- and post-append views of a store must differ, or the
// pre-or-post assertion above would be vacuous.
func TestCrashPointViewsDiffer(t *testing.T) {
	dir := t.TempDir()
	setupCommitted(t, dir)
	pre := viewOf(t, materializeDir(t, snapshotDir(t, dir)))
	s, _, _, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDelta(testDelta(2)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	post := viewOf(t, materializeDir(t, snapshotDir(t, dir)))
	if pre == post {
		t.Fatal("pre- and post-append fingerprints are identical")
	}
	if strings.HasPrefix(pre, "unrecoverable") || strings.HasPrefix(post, "unrecoverable") {
		t.Fatalf("fingerprinting failed: pre=%s post=%s", pre, post)
	}
}
