package store

import (
	"fmt"
	"runtime"
	"testing"

	"nvdclean/internal/cve"
)

// legacyIndex mirrors the pre-ordinal representation: one map per
// shard from key to a []string of CVE IDs. It exists only as the
// baseline for BenchmarkIndexMemory.
func legacyIndex(snap *cve.Snapshot) [numShards]map[key][]string {
	var shards [numShards]map[key][]string
	for s := range shards {
		shards[s] = make(map[key][]string)
	}
	for _, e := range snap.Entries {
		for _, k := range entryKeys(e) {
			s := shardOf(k)
			shards[s][k] = append(shards[s][k], e.ID)
		}
	}
	return shards
}

// heapBytes runs build with a quiesced heap and returns its live-heap
// cost. The returned value must be kept alive past the second read.
func heapBytes(b *testing.B, build func() any) (any, uint64) {
	b.Helper()
	// Two cycles: the first can leave floating garbage from earlier
	// builds, which would inflate the before-reading.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	keep := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc < before.HeapAlloc {
		return keep, 0
	}
	return keep, after.HeapAlloc - before.HeapAlloc
}

// BenchmarkIndexMemory compares resident index bytes per entry for the
// ordinal delta-varint representation against the legacy
// map[key][]string layout, at 10x (30K) and 100x (300K) synthetic feed
// scale. The headline metrics are ordinal-B/entry, legacy-B/entry and
// reduction-x; time per op is meaningless here.
func BenchmarkIndexMemory(b *testing.B) {
	for _, sc := range []struct {
		name string
		n    int
	}{{"10x", 30000}, {"100x", 300000}} {
		b.Run(sc.name, func(b *testing.B) {
			snap := indexSnapshot(sc.n)
			keepIx, ordBytes := heapBytes(b, func() any {
				// The ordinal→ID table is shared with the snapshot in
				// production; it still counts here, keeping the
				// comparison conservative.
				return BuildIndex(snap, runtime.GOMAXPROCS(0))
			})
			keepLegacy, legacyBytes := heapBytes(b, func() any {
				return legacyIndex(snap)
			})
			perOrd := float64(ordBytes) / float64(sc.n)
			perLegacy := float64(legacyBytes) / float64(sc.n)
			b.ReportMetric(perOrd, "ordinal-B/entry")
			b.ReportMetric(perLegacy, "legacy-B/entry")
			if perOrd > 0 {
				b.ReportMetric(perLegacy/perOrd, "reduction-x")
			}
			for i := 0; i < b.N; i++ {
			}
			runtime.KeepAlive(keepIx)
			runtime.KeepAlive(keepLegacy)
			// The snapshot must stay live through both measurements, or
			// its collection mid-measure masks the build's allocation.
			runtime.KeepAlive(snap)
		})
	}
}

// BenchmarkBootIndex compares what a warm restart pays for its index:
// "parse" parses every persisted segment, as a checkpoint load does,
// and answers one vendor query; "rebuild" is the boot cost without
// segments, a full BuildIndex over the snapshot plus the same query.
func BenchmarkBootIndex(b *testing.B) {
	for _, sc := range []struct {
		name string
		n    int
	}{{"10x", 30000}, {"100x", 300000}} {
		snap := indexSnapshot(sc.n)
		built := BuildIndex(snap, runtime.GOMAXPROCS(0))
		var raws [numShards][]byte
		for s := range raws {
			raws[s] = built.shardWire(s)
		}
		q := Query{Vendor: "redhat"}
		b.Run(fmt.Sprintf("parse/%s", sc.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix, err := indexFromSegments(raws, snap)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := ix.Match(q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("rebuild/%s", sc.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix := BuildIndex(snap, runtime.GOMAXPROCS(0))
				if _, _, err := ix.Match(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
