package nvdclean_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvdclean"
	"nvdclean/internal/store"
)

// checkpointFile returns the bytes of one file of the checkpoint
// committed in a store directory.
func checkpointFile(t *testing.T, dir, name string) []byte {
	t.Helper()
	cur, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, strings.TrimSpace(string(cur)), name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCommittedStateMatchesReference holds the reuse-state encoder to
// encoding/json on the states real runs persist, with and without a
// transport, with and without the severity stage, and after a
// CleanDelta: Store.Commit writes exactly the state.json bytes
// json.NewEncoder writes for the checkpoint's state.
func TestCommittedStateMatchesReference(t *testing.T) {
	ctx := context.Background()
	fix := newDeltaFixture(t, 4, mixedDelta)
	for _, tc := range []struct {
		name                       string
		transport, severity, delta bool
	}{
		{"crawled with severity", true, true, false},
		{"crawled without severity", true, false, false},
		{"no transport with severity", false, true, false},
		{"no transport without severity", false, false, false},
		{"crawled after a CleanDelta", true, true, true},
		{"no transport after a CleanDelta", false, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := fix.opts
			if !tc.transport {
				opts.Transport = nil
			}
			opts.SkipSeverity = !tc.severity
			res, err := nvdclean.Clean(ctx, fix.old, opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.delta {
				if res, err = nvdclean.CleanDelta(ctx, res, fix.delta, opts); err != nil {
					t.Fatal(err)
				}
			}
			cp := res.StoreCheckpoint()
			dir := t.TempDir()
			st, _, _, _, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Commit(cp); err != nil {
				t.Fatal(err)
			}
			st.Close()

			data := checkpointFile(t, dir, "state.json")
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(cp.State); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, want.Bytes()) {
				t.Fatalf("state.json (%d bytes) differs from json.Encoder's %d bytes", len(data), want.Len())
			}
			t.Logf("state.json: %d bytes, %d crawl artifacts, %d §4.4 records, %d scores",
				len(data), len(cp.State.Crawl), len(cp.State.CWEFix), len(cp.State.Backport))
		})
	}
}
