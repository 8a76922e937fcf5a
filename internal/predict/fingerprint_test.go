package predict

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"nvdclean/internal/cve"
	"nvdclean/internal/gen"
)

// referenceFingerprint is DatasetFingerprint as first written, hashing
// each field through its own Write. Checkpoints persist the value, so
// the fingerprint must keep producing exactly this one.
func referenceFingerprint(snap *cve.Snapshot, seed int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	for _, e := range snap.Entries {
		if e.V2 == nil || e.V3 == nil {
			continue
		}
		io.WriteString(h, e.ID)
		h.Write([]byte{0})
		io.WriteString(h, e.V2.String())
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(firstConcrete(e.CWEs))))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e.V3.BaseScore()))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestDatasetFingerprintKeepsValue pins the fingerprint to its
// reference formula on small-scale snapshots of several generator
// seeds, so state.json fingerprints an older build wrote still match
// and warm-start the engine, and requires it to allocate nothing.
func TestDatasetFingerprintKeepsValue(t *testing.T) {
	for _, seed := range []int64{1, 7, 11} {
		cfg := gen.SmallConfig()
		cfg.Seed = seed
		snap, _, _, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := DatasetFingerprint(snap, seed), referenceFingerprint(snap, seed); got != want {
			t.Errorf("generator seed %d: fingerprint %#x, reference %#x", seed, got, want)
		}
		if allocs := testing.AllocsPerRun(3, func() { DatasetFingerprint(snap, seed) }); allocs != 0 {
			t.Errorf("generator seed %d: fingerprint allocates %.0f objects, want 0", seed, allocs)
		}
	}
}
