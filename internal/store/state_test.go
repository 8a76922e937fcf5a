package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"nvdclean/internal/crawler"
	"nvdclean/internal/cve"
	"nvdclean/internal/cwe"
	"nvdclean/internal/predict"
)

// encodeStateReference is the byte reference of State.WriteJSON: what
// encoding/json's Encoder writes for the state.
func encodeStateReference(st *State) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(st)
	return buf.Bytes(), err
}

// statePieces are the fragments the state oracle builds text from:
// every byte class encoding/json escapes or replaces (control bytes,
// '<', '>', '&', '"', '\\', U+2028, U+2029 and invalid UTF-8: a stray
// continuation byte, a truncated sequence, an encoded surrogate, an
// overlong slash), multibyte text, and CVE IDs that sort apart from
// their numeric order.
var statePieces = func() []string {
	p := []string{"<", ">", "&", `"`, `\`, "é", "日本語", "a", " ", "CVE-2017-9999", "CVE-2017-10000"}
	for _, c := range []byte{0, '\b', '\f', '\n', '\r', '\t', 0x1f, 0x7f} {
		p = append(p, string(rune(c)))
	}
	for _, r := range []rune{0x2028, 0x2029, 0xfffd, 0x1f600} {
		p = append(p, string(r))
	}
	for _, b := range [][]byte{{0xff}, {0x80}, {0xc3}, {0xe6, 0x97}, {0xed, 0xa0, 0x80}, {0xc0, 0xaf}} {
		p = append(p, string(b))
	}
	return p
}()

// stateText returns up to maxPieces pieces of statePieces.
func stateText(r *rand.Rand, maxPieces int) string {
	var b strings.Builder
	for range r.Intn(maxPieces + 1) {
		b.WriteString(statePieces[r.Intn(len(statePieces))])
	}
	return b.String()
}

// Edge values of the state's numbers: integers at the ends of their
// range and past float64's exact range, fingerprints near 2^64, and
// scores at encoding/json's float-format edges (zero of both signs, the
// smallest denormal, both sides of the 1e-6 and 1e21 exponent cut-offs,
// and an exponent it cleans up: 1e-7, not 1e-07).
var (
	edgeInts    = []int64{0, 1, -1, 50, -7, 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64}
	edgeUints   = []uint64{0, 1, 1<<53 + 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	stateScores = []float64{0, math.Copysign(0, -1), 1e-7, 5e-324, 9.95, 1e21, 1e20, 1e-6, 9.99999e-7, 7.5, 10, -3.3, math.MaxFloat64}
)

func randInt(r *rand.Rand) int64 {
	if r.Intn(2) == 0 {
		return edgeInts[r.Intn(len(edgeInts))]
	}
	return r.Int63n(2000) - 1000
}

// randStateTime returns a time with nanoseconds, sometimes the zero
// time, outside UTC, at the end of year 9999, or in a year or zone
// MarshalJSON refuses.
func randStateTime(r *rand.Rand) time.Time {
	switch r.Intn(24) {
	case 0, 1, 2:
		return time.Time{}
	case 3:
		return time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)
	case 4:
		return time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	case 5:
		return time.Date(2017, 3, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600))
	}
	loc := time.UTC
	if r.Intn(3) == 0 {
		loc = time.FixedZone("", (r.Intn(27)-12)*3600+r.Intn(2)*1800)
	}
	return time.Date(1988+r.Intn(40), time.Month(1+r.Intn(12)), 1+r.Intn(28), r.Intn(24), r.Intn(60), r.Intn(60), r.Intn(3)*r.Intn(1e9), loc)
}

// randMap returns nil, an empty map, or a few values keyed by CVE IDs
// and by text holding every byte class.
func randMap[V any](r *rand.Rand, value func() V) map[string]V {
	switch r.Intn(4) {
	case 0:
		return nil
	case 1:
		return map[string]V{}
	}
	m := make(map[string]V)
	for range 1 + r.Intn(6) {
		key := stateText(r, 3)
		if r.Intn(2) == 0 {
			key = cve.FormatID(2017, 9990+r.Intn(20))
		}
		m[key] = value()
	}
	return m
}

// randState returns a state whose every field the codec branches on
// varies.
func randState(r *rand.Rand) *State {
	st := &State{
		Fingerprint: uint64(r.Int63())<<1 | uint64(r.Intn(2)),
		Trained:     r.Intn(2) == 0,
		Training: Training{
			Models: stateText(r, 4),
			ModelConfig: predict.ModelConfig{
				Epochs: int(randInt(r)), Compact: r.Intn(2) == 0, SVRMaxSamples: int(randInt(r)),
				Seed: randInt(r), Workers: int(randInt(r)),
			},
			Seed: randInt(r),
		},
		Crawled: r.Intn(2) == 0,
	}
	if r.Intn(2) == 0 {
		st.Fingerprint = edgeUints[r.Intn(len(edgeUints))]
	}
	st.Crawl = randMap(r, func() CrawlArtifact {
		return CrawlArtifact{
			Estimated: randStateTime(r),
			LagDays:   int(randInt(r)),
			Stats: crawler.Stats{URLs: int(randInt(r)), Skipped: int(randInt(r)), DeadDomain: int(randInt(r)),
				Fetched: int(randInt(r)), Extracted: int(randInt(r)), HTTPErrors: int(randInt(r))},
		}
	})
	st.CWEFix = randMap(r, func() predict.EntryCorrection {
		c := predict.EntryCorrection{Changed: r.Intn(2) == 0, Kind: predict.CorrectionKind(randInt(r))}
		switch r.Intn(3) {
		case 1:
			c.CWEs = []cwe.ID{}
		case 2:
			for range 1 + r.Intn(3) {
				c.CWEs = append(c.CWEs, cwe.ID(randInt(r)))
			}
		}
		return c
	})
	st.Backport = randMap(r, func() float64 {
		if r.Intn(2) == 0 {
			return stateScores[r.Intn(len(stateScores))]
		}
		return math.Round(r.Float64()*100) / 10
	})
	return st
}

// diffAt reports where two encodings first differ.
func diffAt(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	from := max(0, i-40)
	return fmt.Sprintf("first difference at byte %d of %d/%d: got %q, want %q",
		i, len(got), len(want), got[from:min(len(got), i+40)], want[from:min(len(want), i+40)])
}

// checkStateEncoding requires WriteJSON to write exactly the reference's
// bytes for st, or to fail where it fails, and returns the bytes.
func checkStateEncoding(t testing.TB, name string, st *State) []byte {
	t.Helper()
	var got bytes.Buffer
	err := st.WriteJSON(&got)
	want, refErr := encodeStateReference(st)
	switch {
	case err != nil && refErr != nil:
		return nil
	case err != nil || refErr != nil:
		t.Fatalf("%s: error %v, reference error %v", name, err, refErr)
	case !bytes.Equal(got.Bytes(), want):
		t.Fatalf("%s: %s", name, diffAt(got.Bytes(), want))
	}
	return want
}

// TestStateEncodingMatchesReference is the byte-identity oracle of the
// append encoder: over seeded random states (see randState), WriteJSON
// writes exactly the bytes json.NewEncoder writes, and fails where it
// fails: on a NaN or infinite score, and on a time in year 10000 or in
// a zone 24 hours off UTC.
func TestStateEncodingMatchesReference(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 50
	}
	written := 0
	for seed := range seeds {
		st := randState(rand.New(rand.NewSource(int64(seed))))
		if checkStateEncoding(t, fmt.Sprintf("seed %d", seed), st) != nil {
			written++
		}
	}
	if written == seeds || written < seeds/2 {
		t.Fatalf("%d of %d seeded states encoded: the oracle must see both outcomes, mostly successes", written, seeds)
	}
	t.Logf("%d of %d seeded states encoded", written, seeds)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		st := &State{Backport: map[string]float64{"CVE-2017-0001": 1, "CVE-2017-0002": bad}}
		if checkStateEncoding(t, fmt.Sprintf("score %v", bad), st) != nil {
			t.Errorf("score %v: both encoders wrote it", bad)
		}
	}
}
