package nvdclean_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"weak"

	"nvdclean"
	"nvdclean/internal/cve"
	"nvdclean/internal/cwe"
	"nvdclean/internal/gen"
	"nvdclean/internal/naming"
	"nvdclean/internal/predict"
	"nvdclean/internal/store"
)

// deltaFixture splits a generated snapshot into an "old" capture plus
// a delta whose application reproduces the full snapshot.
type deltaFixture struct {
	full  *nvdclean.Snapshot
	old   *nvdclean.Snapshot
	delta *nvdclean.Delta
	opts  nvdclean.Options
}

// fixtureMode selects the shape of a deltaFixture's delta.
type fixtureMode int

const (
	// mixedDelta holds out an arbitrary ~5% of entries, modifies one
	// surviving entry's description and removes another, so the delta
	// exercises Added, Modified and Removed at once.
	mixedDelta fixtureMode = iota
	// v2OnlyDelta holds out only entries without a v3 vector, which
	// leaves the dual-labeled training split untouched — the engine
	// warm-start path.
	v2OnlyDelta
	// renameDelta renames CPE names instead of holding entries out
	// (see renameNames), so the naming survey re-blocks and the vendor
	// map changes.
	renameDelta
	// cweFlipDelta edits descriptions instead of holding entries out
	// (see flipCorrections), so one §4.4 correction appears, one
	// disappears and another carries over.
	cweFlipDelta
)

// newDeltaFixture builds an old snapshot and the delta that turns it
// into the fixture's full one, shaped by mode.
func newDeltaFixture(t *testing.T, concurrency int, mode fixtureMode) deltaFixture {
	t.Helper()
	full, truth, err := nvdclean.GenerateSnapshot(gen.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	corpus := nvdclean.NewWebCorpus(full, truth.Disclosure)
	opts := nvdclean.Options{
		Transport:   corpus.Transport(),
		Concurrency: concurrency,
		Models:      []predict.ModelKind{predict.ModelLR},
		ModelConfig: predict.ModelConfig{Seed: 1},
		Seed:        1,
	}

	target := full.Clone()
	old := &nvdclean.Snapshot{CapturedAt: full.CapturedAt}
	holdOut := mode == mixedDelta || mode == v2OnlyDelta
	held := 0
	for i, e := range target.Entries {
		holdable := holdOut && i%20 == 10 && held < target.Len()/20+1
		if holdable && mode == v2OnlyDelta && e.V3 != nil {
			holdable = false
		}
		if holdable {
			held++
			continue
		}
		old.Entries = append(old.Entries, full.Entries[i])
	}
	switch mode {
	case mixedDelta:
		// Modify one surviving entry's description and drop another,
		// so the delta carries all three change kinds.
		mod := target.Entries[3]
		mod.Descriptions[0].Value += " Stack-based buffer overflow variant."
		target.Entries = append(target.Entries[:7], target.Entries[8:]...)
	case renameDelta:
		renameNames(t, old, target)
	case cweFlipDelta:
		flipCorrections(t, target)
	}
	if held == 0 && holdOut {
		t.Fatal("fixture held out no entries")
	}
	delta := nvdclean.Diff(old, target)
	if delta.Empty() {
		t.Fatal("fixture produced an empty delta")
	}
	return deltaFixture{full: target, old: old, delta: delta, opts: opts}
}

// renameNames edits target, a deep copy of old, so that its delta
// renames CPE names and every rename shows in the cleaned view:
//   - entries of other vendors move to an alias of the vendor map until
//     it has more CVEs than every other name of its group, which flips
//     the group's canonical name;
//   - the first of them names a new separator variant of one of the
//     group's products, a product alias under the new canonical name;
//   - one entry moves to a new vendor extending its vendor's name,
//     which consolidates with it;
//   - the only CVE of one vendor is removed.
func renameNames(t *testing.T, old, target *nvdclean.Snapshot) {
	t.Helper()
	counts := old.VendorCVECount()
	vm, _ := consolidate(old)
	aliases := vm.Entries()
	var alias string
	var group map[string]bool
	need := 0
	for _, a := range slices.Sorted(maps.Keys(aliases)) {
		members := map[string]bool{aliases[a]: true}
		most := counts[aliases[a]]
		for b, to := range aliases {
			if to == aliases[a] {
				members[b] = true
				most = max(most, counts[b])
			}
		}
		if n := most - counts[a] + 1; alias == "" || n < need {
			alias, group, need = a, members, n
		}
	}
	if alias == "" {
		t.Fatal("fixture's vendor map has no alias")
	}
	var product string
	products := old.VendorProducts()
	for v := range group {
		for p := range products[v] {
			if strings.Contains(p, "_") && (product == "" || p < product) {
				product = p
			}
		}
	}
	if product == "" {
		t.Fatalf("%s's group lists no multi-token product", alias)
	}
	variant := strings.ReplaceAll(product, "_", "-")

	touched := make(map[string]bool)
	free := func(e *nvdclean.Entry) bool {
		if touched[e.ID] || len(e.CPEs) == 0 {
			return false
		}
		for _, v := range e.Vendors() {
			if group[v] {
				return false
			}
		}
		return true
	}
	newVendor := ""
	for _, e := range target.Entries {
		switch n := e.CPEs; {
		case !free(e):
		case need > 0:
			if len(touched) == 0 {
				n[0].Product = variant
			}
			n[0].Vendor = alias
			touched[e.ID] = true
			need--
		case newVendor == "" && counts[n[0].Vendor] >= 2:
			newVendor = n[0].Vendor + "_project"
			n[0].Vendor = newVendor
			touched[e.ID] = true
		}
	}
	for i, e := range target.Entries {
		if free(e) && len(e.Vendors()) == 1 && counts[e.CPEs[0].Vendor] == 1 {
			target.Entries = slices.Delete(target.Entries, i, i+1)
			break
		}
	}
	vm, pm := consolidate(target)
	if got := vm.Canonical(alias); got != alias {
		t.Fatalf("fixture renames do not make %s canonical (got %s)", alias, got)
	}
	if pm.Canonical(alias, variant) != pm.Canonical(alias, product) {
		t.Fatalf("fixture's new product %q does not consolidate with %q under %s", variant, product, alias)
	}
	if newVendor == "" || !vm.Mapped(newVendor) {
		t.Fatalf("fixture's new vendor %q does not consolidate", newVendor)
	}
}

// flipCorrections edits target, a deep copy of the fixture's old
// snapshot, so that its delta flips §4.4 corrections both ways, and
// checks with the fix's own function that each flip happens:
//   - the first entry the fix leaves alone gains an embedded "CWE-79",
//     so a correction appears;
//   - the first entry it corrects loses every embedded CWE ID, so its
//     correction disappears;
//   - the second entry it corrects stays as it is, so its correction
//     carries over.
func flipCorrections(t *testing.T, target *nvdclean.Snapshot) {
	t.Helper()
	reg := cwe.NewRegistry()
	corrected := func(e *nvdclean.Entry) bool { return predict.CorrectEntryCWEs(e, reg).Changed }
	var gain, lose, keep *nvdclean.Entry
	for _, e := range target.Entries {
		switch {
		case !corrected(e):
			if gain == nil && len(e.Descriptions) > 0 && !slices.Contains(e.CWEs, cwe.ID(79)) {
				gain = e
			}
		case lose == nil:
			lose = e
		case keep == nil:
			keep = e
		}
	}
	if gain == nil || keep == nil {
		t.Fatal("fixture snapshot lacks an uncorrected entry or two corrected ones")
	}
	gain.Descriptions[0].Value += " Tracked as CWE-79."
	embedded := regexp.MustCompile(`CWE-[0-9]+`)
	for i := range lose.Descriptions {
		lose.Descriptions[i].Value = embedded.ReplaceAllString(lose.Descriptions[i].Value, "")
	}
	if !corrected(gain) || corrected(lose) || !corrected(keep) {
		t.Fatalf("fixture's flips do not hold: %s corrected %v, %s corrected %v, %s corrected %v",
			gain.ID, corrected(gain), lose.ID, corrected(lose), keep.ID, corrected(keep))
	}
}

// consolidate returns the vendor and product maps a Clean of snap
// consolidates.
func consolidate(snap *nvdclean.Snapshot) (*naming.Map, *naming.ProductMap) {
	vm := naming.AnalyzeVendorsN(snap, 0).Consolidate(naming.HeuristicJudge{})
	renamed := snap.Clone()
	vm.Apply(renamed)
	return vm, naming.AnalyzeProductsN(renamed, 0).Consolidate(naming.HeuristicProductJudge{})
}

// assertResultsEqual requires two Clean results to be bit-identical in
// every artifact the paper's pipeline produces, and each to be complete
// as returned: a cleaned entry's PV3 is its backported score when the
// engine scored it and nil otherwise, and the dataset fingerprint its
// state records is that of its cleaned view.
func assertResultsEqual(t *testing.T, label string, got, want *nvdclean.Result) {
	t.Helper()
	if got.Original.Len() != want.Original.Len() {
		t.Fatalf("%s: original sizes differ: %d vs %d", label, got.Original.Len(), want.Original.Len())
	}
	for i, e := range want.Cleaned.Entries {
		g := got.Cleaned.Entries[i]
		if !g.Equal(e) {
			t.Fatalf("%s: cleaned entry %s differs", label, e.ID)
		}
	}
	for _, side := range []struct {
		name string
		res  *nvdclean.Result
	}{{"got", got}, {"want", want}} {
		assertFingerprint(t, label+": "+side.name, side.res)
		for _, e := range side.res.Cleaned.Entries {
			score, scored := 0.0, false
			if side.res.Backport != nil {
				score, scored = side.res.Backport.Scores[e.ID]
			}
			if scored != (e.PV3 != nil) || scored && *e.PV3 != score {
				t.Fatalf("%s: %s cleaned entry %s has PV3 %v, backported score %v (scored: %v)", label, side.name, e.ID, e.PV3, score, scored)
			}
		}
	}
	if !maps.Equal(got.EstimatedDisclosure, want.EstimatedDisclosure) {
		t.Errorf("%s: estimated disclosure dates differ", label)
	}
	if !maps.Equal(got.LagDays, want.LagDays) {
		t.Errorf("%s: lag days differ", label)
	}
	if got.CrawlStats != want.CrawlStats {
		t.Errorf("%s: crawl stats %+v != %+v", label, got.CrawlStats, want.CrawlStats)
	}
	if !maps.Equal(got.VendorMap.Entries(), want.VendorMap.Entries()) {
		t.Errorf("%s: vendor maps differ", label)
	}
	if !maps.Equal(got.ProductMap.Entries(), want.ProductMap.Entries()) {
		t.Errorf("%s: product maps differ", label)
	}
	if !maps.Equal(got.VendorChanged, want.VendorChanged) ||
		!maps.Equal(got.ProductChanged, want.ProductChanged) {
		t.Errorf("%s: changed-CVE marks differ", label)
	}
	if *got.CWECorrection != *want.CWECorrection {
		t.Errorf("%s: CWE corrections %+v != %+v", label, *got.CWECorrection, *want.CWECorrection)
	}
	if (got.Backport == nil) != (want.Backport == nil) {
		t.Fatalf("%s: backport presence differs", label)
	}
	if got.Backport != nil && !maps.Equal(got.Backport.Scores, want.Backport.Scores) {
		t.Errorf("%s: backported scores differ (bitwise)", label)
	}
	if (got.Engine == nil) != (want.Engine == nil) {
		t.Fatalf("%s: engine presence differs", label)
	}
	if got.Engine != nil {
		if got.Engine.Best() != want.Engine.Best() {
			t.Errorf("%s: selected model %s != %s", label, got.Engine.Best(), want.Engine.Best())
		}
		if !reflect.DeepEqual(got.Engine.Evaluations(), want.Engine.Evaluations()) {
			t.Errorf("%s: engine evaluations differ", label)
		}
	}
}

// TestCleanDeltaEquivalenceInvariant is the incremental-cleaning
// guarantee alongside TestCleanConcurrencyInvariant: CleanDelta(prev,
// delta) is bit-identical to a full Clean of the merged snapshot, at
// any concurrency, both when the training split is untouched (engine
// warm start) and when the delta forces a retrain, including modified
// and removed entries.
func TestCleanDeltaEquivalenceInvariant(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		mode fixtureMode
	}{
		{"v2-only delta reuses engine", v2OnlyDelta},
		{"mixed delta retrains", mixedDelta},
		{"renamed names re-survey", renameDelta},
		{"CWE corrections flip", cweFlipDelta},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fix := newDeltaFixture(t, 4, tc.mode)
			prev, err := nvdclean.Clean(ctx, fix.old, fix.opts)
			if err != nil {
				t.Fatal(err)
			}
			merged := fix.old.ApplyDelta(fix.delta)
			want, err := nvdclean.Clean(ctx, merged, fix.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, conc := range []int{1, 4, 7} {
				opts := fix.opts
				opts.Concurrency = conc
				got, err := nvdclean.CleanDelta(ctx, prev, fix.delta, opts)
				if err != nil {
					t.Fatal(err)
				}
				label := tc.name
				if conc != 4 {
					label += " (conc override)"
				}
				assertResultsEqual(t, label, got, want)
				if tc.mode == v2OnlyDelta && got.Engine != want.Engine {
					// Same bits either way, but the warm-start path
					// must actually have reused the previous engine.
					if got.Engine != prev.Engine {
						t.Error("v2-only delta did not reuse the previous engine")
					}
				}
			}
		})
	}
}

// TestRestoreResultEquivalence is the warm-restart oracle at the
// library surface. A Result restored from a committed checkpoint must
// equal a cold Clean of the checkpoint's snapshot under the restoring
// options, restoring must leave the checkpoint's original snapshot
// untouched, and a CleanDelta from either side must give equal Results.
// It covers runs with and without a transport, and with and without
// the severity stage, and a delta that makes §4.4 corrections appear
// and disappear. Under the committing options a restore must commit
// the checkpoint it came from, byte for byte; under other options —
// another seed, the severity stage dropped or added, another model
// zoo, the transport dropped or added — it must re-derive what they
// change.
func TestRestoreResultEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		transport bool
		severity  bool
		mode      fixtureMode
		// restore turns the committing options into the restoring
		// ones; nil restores under the committing options.
		restore func(o *nvdclean.Options, fix deltaFixture)
	}{
		{"crawled with severity", true, true, mixedDelta, nil},
		{"crawled without severity", true, false, mixedDelta, nil},
		{"no transport with severity", false, true, mixedDelta, nil},
		{"no transport without severity", false, false, mixedDelta, nil},
		{"CWE corrections flip", true, true, cweFlipDelta, nil},
		{"seed 1 to 2", true, true, mixedDelta, func(o *nvdclean.Options, _ deltaFixture) {
			o.Seed, o.ModelConfig.Seed = 2, 2
		}},
		{"severity dropped", true, true, mixedDelta, func(o *nvdclean.Options, _ deltaFixture) {
			o.SkipSeverity = true
		}},
		{"severity added", true, false, mixedDelta, func(o *nvdclean.Options, _ deltaFixture) {
			o.SkipSeverity = false
		}},
		{"models LR to LR+SVR", true, true, mixedDelta, func(o *nvdclean.Options, _ deltaFixture) {
			o.Models = []predict.ModelKind{predict.ModelLR, predict.ModelSVR}
			o.ModelConfig.SVRMaxSamples = 100
		}},
		{"transport dropped", true, true, mixedDelta, func(o *nvdclean.Options, _ deltaFixture) {
			o.Transport = nil
		}},
		{"transport added", false, true, mixedDelta, func(o *nvdclean.Options, fix deltaFixture) {
			o.Transport = fix.opts.Transport
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fix := newDeltaFixture(t, 4, tc.mode)
			opts := fix.opts
			if !tc.transport {
				opts.Transport = nil
			}
			opts.SkipSeverity = !tc.severity
			cold, err := nvdclean.Clean(ctx, fix.old, opts)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			st, _, _, _, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Commit(cold.StoreCheckpoint()); err != nil {
				t.Fatal(err)
			}
			st.Close()
			st, cp, _, _, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if cp == nil {
				t.Fatal("reopened store holds no checkpoint")
			}
			original := cp.Original.Clone()

			want := cold
			if tc.restore != nil {
				tc.restore(&opts, fix)
				if want, err = nvdclean.Clean(ctx, fix.old, opts); err != nil {
					t.Fatal(err)
				}
			}
			warm, err := nvdclean.RestoreResult(cp, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, tc.name+" restored", warm, want)
			for i, e := range original.Entries {
				if !e.Equal(cp.Original.Entries[i]) {
					t.Fatalf("restore modified original entry %s", e.ID)
				}
			}
			if tc.restore == nil {
				again := t.TempDir()
				st2, _, _, _, err := store.Open(again)
				if err != nil {
					t.Fatal(err)
				}
				if err := st2.Commit(warm.StoreCheckpoint()); err != nil {
					t.Fatal(err)
				}
				st2.Close()
				sameCheckpointBytes(t, again, dir)
			}

			fromWarm, err := nvdclean.CleanDelta(ctx, warm, fix.delta, opts)
			if err != nil {
				t.Fatal(err)
			}
			fromCold, err := nvdclean.CleanDelta(ctx, want, fix.delta, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, tc.name+" delta after restore", fromWarm, fromCold)
		})
	}
}

// sameCheckpointBytes requires the checkpoints committed in two store
// directories to hold the same bytes in every file but MANIFEST.json.
func sameCheckpointBytes(t *testing.T, got, want string) {
	t.Helper()
	files := func(dir string) map[string][]byte {
		cur, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
		if err != nil {
			t.Fatal(err)
		}
		genDir := filepath.Join(dir, strings.TrimSpace(string(cur)))
		ents, err := os.ReadDir(genDir)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte)
		for _, ent := range ents {
			if ent.Name() == "MANIFEST.json" {
				continue
			}
			b, err := os.ReadFile(filepath.Join(genDir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[ent.Name()] = b
		}
		return out
	}
	g, w := files(got), files(want)
	if len(g) != len(w) {
		t.Fatalf("restored checkpoint has %d files, the original %d", len(g), len(w))
	}
	for name, b := range w {
		if !bytes.Equal(g[name], b) {
			t.Errorf("restored checkpoint's %s differs from the original's", name)
		}
	}
}

// TestReuseStateLayout pins what the reuse state holds for §4.4: one
// record per entry whose CWE field the fix rewrote, and none for an
// entry it left alone. A state in the older layout, which also lists a
// zero outcome for every entry left alone, must still restore to a
// Result equal to the cold Clean, and a CleanDelta from that Result
// must warm-start the engine and equal a cold Clean of the merged
// snapshot.
func TestReuseStateLayout(t *testing.T) {
	ctx := context.Background()
	full, truth, err := nvdclean.GenerateSnapshot(nvdclean.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	opts := nvdclean.Options{
		Transport:   nvdclean.NewWebCorpus(full, truth.Disclosure).Transport(),
		Concurrency: 4,
		Models:      []predict.ModelKind{predict.ModelLR},
		ModelConfig: predict.ModelConfig{Seed: 1},
		Seed:        1,
	}
	// Hold out v2-only entries, so the delta leaves the training split
	// as it was.
	old := &nvdclean.Snapshot{CapturedAt: full.CapturedAt}
	for i, e := range full.Entries {
		if i%20 != 10 || e.V3 != nil {
			old.Entries = append(old.Entries, e)
		}
	}
	cold, err := nvdclean.Clean(ctx, old, opts)
	if err != nil {
		t.Fatal(err)
	}
	cp := cold.StoreCheckpoint()
	records := cp.State.CWEFix
	if len(records) == 0 || len(records) != cold.CWECorrection.Corrected {
		t.Fatalf("state holds %d §4.4 records, want the %d corrections", len(records), cold.CWECorrection.Corrected)
	}
	for i, e := range cold.Cleaned.Entries {
		rewrote := !slices.Equal(e.CWEs, cold.Original.Entries[i].CWEs)
		if ec, ok := records[e.ID]; ok != rewrote || ok && !ec.Changed {
			t.Fatalf("%s: record %+v (present: %v), CWE field rewritten: %v", e.ID, ec, ok, rewrote)
		}
	}

	st := *cp.State
	st.CWEFix = maps.Clone(records)
	for _, e := range old.Entries {
		if _, ok := st.CWEFix[e.ID]; !ok {
			st.CWEFix[e.ID] = predict.EntryCorrection{}
		}
	}
	cp.State = &st
	dir := t.TempDir()
	s, _, _, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(cp); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s, cp, _, _, err = store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if cp == nil || len(cp.State.CWEFix) != old.Len() {
		t.Fatal("reopened store does not hold the older layout's state")
	}
	warm, err := nvdclean.RestoreResult(cp, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "older layout restored", warm, cold)

	got, err := nvdclean.CleanDelta(ctx, warm, nvdclean.Diff(old, full), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := nvdclean.Clean(ctx, full, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "delta after the older layout", got, want)
	if got.Engine != warm.Engine {
		t.Error("v2-only delta after the older layout did not reuse the restored engine")
	}
}

// TestCheckpointListingNameMapsOpens opens the layout older builds
// wrote, whose manifest lists the consolidation maps, vendors.json and
// products.json, in place of survey.json. The loader checks the maps'
// sums like any listed file's and never decodes them, so the
// checkpoint loads without a note or a survey, without a migration.
// Its restore surveys from scratch and must equal a cold Clean, and
// the next commit must list survey.json, holding the cold Clean's
// survey, and neither map.
func TestCheckpointListingNameMapsOpens(t *testing.T) {
	fix := newDeltaFixture(t, 4, mixedDelta)
	cold, err := nvdclean.Clean(context.Background(), fix.old, fix.opts)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(dir string, res *nvdclean.Result) {
		t.Helper()
		st, _, _, _, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if err := st.Commit(res.StoreCheckpoint()); err != nil {
			t.Fatal(err)
		}
	}
	type fileSum struct {
		Size   int64  `json:"size"`
		CRC32C uint32 `json:"crc32c"`
	}
	manifest := func(dir string) (map[string]json.RawMessage, map[string]fileSum) {
		t.Helper()
		var m map[string]json.RawMessage
		var files map[string]fileSum
		if err := json.Unmarshal(checkpointFile(t, dir, "MANIFEST.json"), &m); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(m["files"], &files); err != nil {
			t.Fatal(err)
		}
		return m, files
	}
	dir := t.TempDir()
	commit(dir, cold)

	// Rewrite the checkpoint to the older layout.
	cur, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		t.Fatal(err)
	}
	gen := filepath.Join(dir, strings.TrimSpace(string(cur)))
	m, files := manifest(dir)
	if err := os.Remove(filepath.Join(gen, "survey.json")); err != nil {
		t.Fatal(err)
	}
	delete(files, "survey.json")
	for name, write := range map[string]func(io.Writer) error{
		"vendors.json":  cold.VendorMap.WriteJSON,
		"products.json": cold.ProductMap.WriteJSON,
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(gen, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		files[name] = fileSum{int64(buf.Len()), crc32.Checksum(buf.Bytes(), crc32.MakeTable(crc32.Castagnoli))}
	}
	if m["files"], err = json.Marshal(files); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(gen, "MANIFEST.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}

	st, cp, _, notes, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if cp == nil || cp.Survey != nil || len(notes) != 0 {
		t.Fatalf("older layout: checkpoint %v, survey %v, notes %v", cp != nil, cp != nil && cp.Survey != nil, notes)
	}
	warm, err := nvdclean.RestoreResult(cp, fix.opts)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "older layout restored", warm, cold)
	if err := st.Commit(warm.StoreCheckpoint()); err != nil {
		t.Fatal(err)
	}
	_, files = manifest(dir)
	_, survey := files["survey.json"]
	_, vendors := files["vendors.json"]
	_, products := files["products.json"]
	if !survey || vendors || products {
		t.Fatalf("the next commit lists survey.json %v, vendors.json %v, products.json %v", survey, vendors, products)
	}
	fresh := t.TempDir()
	commit(fresh, cold)
	sameCheckpointBytes(t, dir, fresh)
}

// TestCleanDeltaChain applies two deltas in sequence and requires the
// final result to match a full Clean of the final snapshot — the
// shape of a long-lived daemon ingesting daily feed updates.
func TestCleanDeltaChain(t *testing.T) {
	ctx := context.Background()
	fix := newDeltaFixture(t, 4, v2OnlyDelta)

	// Split the delta's additions into two waves.
	half := len(fix.delta.Added) / 2
	if half == 0 {
		t.Skip("delta too small to split")
	}
	d1 := &nvdclean.Delta{CapturedAt: fix.delta.CapturedAt, Added: fix.delta.Added[:half]}
	d2 := &nvdclean.Delta{CapturedAt: fix.delta.CapturedAt, Added: fix.delta.Added[half:]}

	prev, err := nvdclean.Clean(ctx, fix.old, fix.opts)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := nvdclean.CleanDelta(ctx, prev, d1, fix.opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := nvdclean.CleanDelta(ctx, mid, d2, fix.opts)
	if err != nil {
		t.Fatal(err)
	}
	merged := fix.old.ApplyDelta(fix.delta)
	want, err := nvdclean.Clean(ctx, merged, fix.opts)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "chained deltas", got, want)
}

// TestCleanDeltaConcurrentOnOnePrev runs two CleanDeltas on one
// previous Result at once, then a third, and requires each to equal a
// cold Clean of the merged snapshot: a delta clean never writes to the
// Result it starts from, whose naming survey it copies on write. It
// runs in -short mode too, so the race detector checks that.
func TestCleanDeltaConcurrentOnOnePrev(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []fixtureMode{mixedDelta, v2OnlyDelta, renameDelta} {
		fix := newDeltaFixture(t, 2, mode)
		prev, err := nvdclean.Clean(ctx, fix.old, fix.opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := nvdclean.Clean(ctx, fix.old.ApplyDelta(fix.delta), fix.opts)
		if err != nil {
			t.Fatal(err)
		}
		var got [3]*nvdclean.Result
		var errs [3]error
		var wg sync.WaitGroup
		for i := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = nvdclean.CleanDelta(ctx, prev, fix.delta, fix.opts)
			}()
		}
		wg.Wait()
		got[2], errs[2] = nvdclean.CleanDelta(ctx, prev, fix.delta, fix.opts)
		for i := range got {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			assertResultsEqual(t, fmt.Sprintf("mode %d, delta %d on one prev", mode, i+1), got[i], want)
		}
	}
}

// TestCleanDeltaCarriesEntries pins what a delta clean shares with the
// Result it starts from, in every fixture mode: it must equal a cold
// Clean of the merged snapshot, it must leave every entry of the
// previous original and cleaned views as a deep copy taken before the
// call, and it must carry the previous cleaned *Entry itself for each
// entry the delta does not name, none of whose names the consolidation
// maps now resolve differently, and whose score cannot have moved: it
// has no backported score on either side, or the engine carried over.
func TestCleanDeltaCarriesEntries(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		mode fixtureMode
	}{
		{"v2-only delta reuses engine", v2OnlyDelta},
		{"mixed delta retrains", mixedDelta},
		{"renamed names re-survey", renameDelta},
		{"CWE corrections flip", cweFlipDelta},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fix := newDeltaFixture(t, 4, tc.mode)
			prev, err := nvdclean.Clean(ctx, fix.old, fix.opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := nvdclean.Clean(ctx, fix.old.ApplyDelta(fix.delta), fix.opts)
			if err != nil {
				t.Fatal(err)
			}
			deepCopy := func(s *nvdclean.Snapshot) []*nvdclean.Entry {
				out := make([]*nvdclean.Entry, s.Len())
				for i, e := range s.Entries {
					out[i] = e.Clone()
				}
				return out
			}
			original, cleaned := deepCopy(prev.Original), deepCopy(prev.Cleaned)
			got, err := nvdclean.CleanDelta(ctx, prev, fix.delta, fix.opts)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, tc.name, got, want)
			for _, view := range []struct {
				name          string
				entries, copy []*nvdclean.Entry
			}{{"original", prev.Original.Entries, original}, {"cleaned", prev.Cleaned.Entries, cleaned}} {
				for i, e := range view.copy {
					if !view.entries[i].Equal(e) {
						t.Fatalf("%s: the delta clean wrote the previous %s entry %s", tc.name, view.name, e.ID)
					}
				}
			}

			named := make(map[string]bool)
			for _, id := range fix.delta.ChangedIDs() {
				named[id] = true
			}
			samePairs := func(e *nvdclean.Entry) bool {
				for _, n := range e.CPEs {
					pv, gv := prev.VendorMap.Canonical(n.Vendor), got.VendorMap.Canonical(n.Vendor)
					if pv != gv || prev.ProductMap.Canonical(pv, n.Product) != got.ProductMap.Canonical(gv, n.Product) {
						return false
					}
				}
				return true
			}
			carried, must := 0, 0
			for i, e := range got.Original.Entries {
				before := prev.Cleaned.ByID(e.ID)
				after := got.Cleaned.Entries[i]
				if before == after {
					carried++
				}
				if named[e.ID] || !samePairs(e) || !(before.PV3 == nil && after.PV3 == nil || got.Engine == prev.Engine) {
					continue
				}
				must++
				if before != after {
					t.Fatalf("%s: cleaned entry %s is not carried from the previous view", tc.name, e.ID)
				}
			}
			t.Logf("%s: %d of %d cleaned entries carried, %d required", tc.name, carried, got.Cleaned.Len(), must)
			if must == 0 {
				t.Fatalf("%s: no entry had to be carried", tc.name)
			}
		})
	}
}

// TestCleanDeltaChainReleasesPredecessors requires a chain of delta
// cleans to keep no earlier Result alive: carried entries, per-ID maps
// and the naming survey may share what an earlier Result built, never
// the Result itself, so a daemon's memory holds the generations it
// serves and nothing older.
func TestCleanDeltaChainReleasesPredecessors(t *testing.T) {
	ctx := context.Background()
	fix := newDeltaFixture(t, 2, v2OnlyDelta)
	first, err := nvdclean.Clean(ctx, fix.old, fix.opts)
	if err != nil {
		t.Fatal(err)
	}
	released := weak.Make(first)
	var target *nvdclean.Entry
	for _, e := range fix.old.Entries {
		if e.V2 != nil && e.V3 == nil && len(e.Descriptions) > 0 {
			target = e
			break
		}
	}
	if target == nil {
		t.Fatal("fixture has no v2-only entry to edit")
	}
	res := first
	for i := range 20 {
		mod := target.Clone()
		mod.Descriptions[0].Value += fmt.Sprintf(" Edit %d.", i)
		if res, err = nvdclean.CleanDelta(ctx, res, &nvdclean.Delta{Modified: []*nvdclean.Entry{mod}}, fix.opts); err != nil {
			t.Fatal(err)
		}
	}
	first = nil
	runtime.GC()
	runtime.GC()
	if released.Value() != nil {
		t.Error("a Result 20 delta cleans later still keeps the Clean Result it started from alive")
	}
	runtime.KeepAlive(res)
}

func TestCleanDeltaRejectsForeignResult(t *testing.T) {
	if _, err := nvdclean.CleanDelta(context.Background(), nil, &nvdclean.Delta{}, nvdclean.Options{}); err == nil {
		t.Error("nil prev should fail")
	}
	if _, err := nvdclean.CleanDelta(context.Background(), &nvdclean.Result{}, &nvdclean.Delta{}, nvdclean.Options{}); err == nil {
		t.Error("hand-built prev should fail")
	}
}

// TestCleanDeltaRejectsUnmergeableDelta: CleanDelta checks that its
// delta's added entries merge into prev's ID order instead of coping.
// An added ID that is malformed, out of ID order, or names a CVE prev
// already holds under either spelling is an error naming the ID.
func TestCleanDeltaRejectsUnmergeableDelta(t *testing.T) {
	ctx := context.Background()
	fix := newDeltaFixture(t, 2, v2OnlyDelta)
	prev, err := nvdclean.Clean(ctx, fix.old, fix.opts)
	if err != nil {
		t.Fatal(err)
	}
	held := fix.old.Entries[0]
	year, seq, err := cve.SplitID(held.ID)
	if err != nil {
		t.Fatal(err)
	}
	respelled := fmt.Sprintf("CVE-%d-%08d", year, seq)
	as := func(id string) *nvdclean.Entry {
		e := held.Clone()
		e.ID = id
		return e
	}
	for _, tc := range []struct {
		name string
		d    *nvdclean.Delta
		want string
	}{
		{"malformed added ID", &nvdclean.Delta{Added: []*nvdclean.Entry{as("CVE-18-0001")}}, "CVE-18-0001"},
		{"added ID prev holds", &nvdclean.Delta{Added: []*nvdclean.Entry{as(held.ID)}}, held.ID},
		{"added respelling of an ID prev holds", &nvdclean.Delta{Added: []*nvdclean.Entry{as(respelled)}}, respelled},
		{"added out of ID order", &nvdclean.Delta{Added: []*nvdclean.Entry{as("CVE-2099-0002"), as("CVE-2099-0001")}}, "CVE-2099-0001"},
	} {
		if _, err := nvdclean.CleanDelta(ctx, prev, tc.d, fix.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CleanDelta = %v, want an error naming %s", tc.name, err, tc.want)
		}
	}
	// IDs the delta modifies or removes that prev lacks are ignored.
	d := &nvdclean.Delta{Modified: []*nvdclean.Entry{as("CVE-2099-0001")}, Removed: []string{"CVE-2099-0002"}}
	if got, err := nvdclean.CleanDelta(ctx, prev, d, fix.opts); err != nil || got.Original.Len() != prev.Original.Len() {
		t.Errorf("CleanDelta of IDs prev lacks = %v, want prev's %d entries", err, prev.Original.Len())
	}
	// A replacing feed may respell an ID: its Diff removes the old
	// spelling and adds the new one.
	d = &nvdclean.Delta{Added: []*nvdclean.Entry{as(respelled)}, Removed: []string{held.ID}}
	got, err := nvdclean.CleanDelta(ctx, prev, d, fix.opts)
	if err != nil {
		t.Fatalf("CleanDelta respelling a removed ID: %v", err)
	}
	if got.Original.ByID(respelled) == nil || got.Original.ByID(held.ID) != nil || got.Original.CheckOrder() != nil {
		t.Errorf("respelling %s as %s did not replace it in ID order", held.ID, respelled)
	}

	// Clean checks its snapshot the same way.
	reversed := &nvdclean.Snapshot{Entries: slices.Clone(fix.old.Entries)}
	slices.Reverse(reversed.Entries)
	if _, err := nvdclean.Clean(ctx, reversed, fix.opts); err == nil || !strings.Contains(err.Error(), "Snapshot.Sort") {
		t.Errorf("Clean of a reversed snapshot = %v, want an order error pointing at Snapshot.Sort", err)
	}
}
