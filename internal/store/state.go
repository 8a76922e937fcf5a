package store

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"

	"nvdclean/internal/jsontext"
	"nvdclean/internal/predict"
)

// The reuse-state encoder. WriteJSON writes state.json in one pass,
// byte for byte as json.NewEncoder(w).Encode writes a *State, which
// state_test.go keeps as the reference; loadCheckpoint reads it back
// with json.Unmarshal. Keys follow State's declared order, with
// Training's fields in its place and the untagged fields under their
// Go names.

// stateBufferSize is WriteJSON's write buffer: a state streams to its
// file in writes of this size, and a state smaller than it reaches the
// writer in one Write.
const stateBufferSize = 64 << 10

// stateChunk is how much WriteJSON appends before handing its bytes to
// the write buffer.
const stateChunk = 4 << 10

// WriteJSON writes st as a checkpoint's state.json: the bytes
// json.NewEncoder(w).Encode(st) writes, ending in its newline. Map keys
// come in byte order and are escaped as any string; Crawl and Backport
// are left out when empty, and a nil CWEFix map or CWEs list is null.
// A NaN or infinite score is an error, and so is a time its
// MarshalJSON refuses, as they are to encoding/json. The document
// streams through a 64 KiB buffer, and WriteJSON allocates the same
// few objects whatever the maps hold: the buffers and one sorted key
// list per map. On an error w may have received part of the document.
func (st *State) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, stateBufferSize)
	b := append(make([]byte, 0, 2*stateChunk), `{"fingerprint":`...)
	b = strconv.AppendUint(b, st.Fingerprint, 10)
	b = append(b, `,"trained":`...)
	b = strconv.AppendBool(b, st.Trained)
	b = append(b, `,"models":`...)
	b = jsontext.AppendString(b, st.Models)
	mc := &st.ModelConfig
	b = append(b, `,"modelConfig":{"Epochs":`...)
	b = strconv.AppendInt(b, int64(mc.Epochs), 10)
	b = append(b, `,"Compact":`...)
	b = strconv.AppendBool(b, mc.Compact)
	b = append(b, `,"SVRMaxSamples":`...)
	b = strconv.AppendInt(b, int64(mc.SVRMaxSamples), 10)
	b = append(b, `,"Seed":`...)
	b = strconv.AppendInt(b, mc.Seed, 10)
	b = append(b, `,"Workers":`...)
	b = strconv.AppendInt(b, int64(mc.Workers), 10)
	b = append(b, `},"seed":`...)
	b = strconv.AppendInt(b, st.Seed, 10)
	b = append(b, `,"crawled":`...)
	b = strconv.AppendBool(b, st.Crawled)
	var err error
	if len(st.Crawl) > 0 {
		if b, err = writeMap(bw, append(b, `,"crawl":`...), st.Crawl, appendArtifact); err != nil {
			return err
		}
	}
	b = append(b, `,"cweFix":`...)
	if st.CWEFix == nil {
		b = append(b, "null"...)
	} else if b, err = writeMap(bw, b, st.CWEFix, appendCorrection); err != nil {
		return err
	}
	if len(st.Backport) > 0 {
		if b, err = writeMap(bw, append(b, `,"backport":`...), st.Backport, appendScore); err != nil {
			return err
		}
	}
	if _, err := bw.Write(append(b, "}\n"...)); err != nil {
		return err
	}
	return bw.Flush()
}

// writeMap appends m as a JSON object, its keys in byte order as
// encoding/json sorts them and each value as appendValue writes it,
// handing the bytes to bw whenever a chunk's worth has built up. It
// returns the buffer holding what is left to write.
func writeMap[V any](bw *bufio.Writer, b []byte, m map[string]V, appendValue func([]byte, string, V) ([]byte, error)) ([]byte, error) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(jsontext.AppendString(b, k), ':')
		var err error
		if b, err = appendValue(b, k, m[k]); err != nil {
			return b, err
		}
		if len(b) >= stateChunk {
			if _, err := bw.Write(b); err != nil {
				return b, err
			}
			b = b[:0]
		}
	}
	return append(b, '}'), nil
}

// appendArtifact appends one entry's crawl artifact. Its time is
// written as time.Time's MarshalJSON writes it, and an error where that
// method errors.
func appendArtifact(b []byte, id string, a CrawlArtifact) ([]byte, error) {
	b = append(b, `{"estimated":"`...)
	b, err := a.Estimated.AppendText(b)
	if err != nil {
		return nil, fmt.Errorf("crawl artifact %s: %w", id, err)
	}
	s := &a.Stats
	b = append(b, `","lagDays":`...)
	b = strconv.AppendInt(b, int64(a.LagDays), 10)
	b = append(b, `,"stats":{"URLs":`...)
	b = strconv.AppendInt(b, int64(s.URLs), 10)
	b = append(b, `,"Skipped":`...)
	b = strconv.AppendInt(b, int64(s.Skipped), 10)
	b = append(b, `,"DeadDomain":`...)
	b = strconv.AppendInt(b, int64(s.DeadDomain), 10)
	b = append(b, `,"Fetched":`...)
	b = strconv.AppendInt(b, int64(s.Fetched), 10)
	b = append(b, `,"Extracted":`...)
	b = strconv.AppendInt(b, int64(s.Extracted), 10)
	b = append(b, `,"HTTPErrors":`...)
	b = strconv.AppendInt(b, int64(s.HTTPErrors), 10)
	return append(b, "}}"...), nil
}

// appendCorrection appends one entry's §4.4 record.
func appendCorrection(b []byte, _ string, c predict.EntryCorrection) ([]byte, error) {
	b = append(b, `{"CWEs":`...)
	if c.CWEs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, id := range c.CWEs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(id), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"Changed":`...)
	b = strconv.AppendBool(b, c.Changed)
	b = append(b, `,"Kind":`...)
	b = strconv.AppendInt(b, int64(c.Kind), 10)
	return append(b, '}'), nil
}

// appendScore appends one entry's backported score.
func appendScore(b []byte, id string, score float64) ([]byte, error) {
	b, ok := jsontext.AppendFloat(b, score)
	if !ok {
		return b, fmt.Errorf("backport %s: unsupported score %s", id, strconv.FormatFloat(score, 'g', -1, 64))
	}
	return b, nil
}
