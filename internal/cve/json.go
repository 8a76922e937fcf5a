package cve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"strconv"
	"time"

	"nvdclean/internal/cvss"
	"nvdclean/internal/jsontext"
)

// The codec reads and writes the NVD JSON 1.1 data-feed layout, whose
// key names follow the feed schema so real NVD data-feed files read
// unchanged. json_test.go declares the layout as Go types (feedJSON,
// itemJSON and the rest) for the reference codec built on encoding/json:
// appendItem writes an item byte for byte as encoding/json writes an
// itemJSON (TestFeedEncodingMatchesReference), and the decoder in
// decode.go reads what json.Unmarshal reads into one
// (TestFeedDecodingMatchesReference).

// feedTime is the timestamp layout of the NVD JSON feeds.
const feedTime = "2006-01-02T15:04Z"

// feedBufferSize is WriteFeedCompact's write buffer: a checkpoint feed
// streams to its file in writes of this size, and a feed smaller than
// it reaches the writer in one Write.
const feedBufferSize = 64 << 10

// WriteFeed serializes the snapshot in NVD JSON 1.1 data-feed format,
// indented like the published feeds. It indents WriteFeedCompact's
// bytes with json.Indent, as json.Encoder's SetIndent does, and hands
// the document to w in one Write.
func WriteFeed(w io.Writer, s *Snapshot) error {
	var compact, indented bytes.Buffer
	if err := WriteFeedCompact(&compact, s); err != nil {
		return err
	}
	if err := json.Indent(&indented, compact.Bytes(), "", "  "); err != nil {
		return fmt.Errorf("cve: indenting feed: %w", err)
	}
	_, err := indented.WriteTo(w)
	return err
}

// WriteFeedCompact is WriteFeed without indentation — the generation
// store's checkpoint encoding, where decode speed and file size beat
// readability. ReadFeed accepts both forms identically. The bytes are
// those encoding/json writes for the feed layout, followed by a
// newline as json.Encoder ends a document. Entries are encoded one at
// a time and streamed through a 64 KiB buffer, so memory does not grow
// with the feed; on an error w may have received part of it.
func WriteFeedCompact(w io.Writer, s *Snapshot) error {
	bw := bufio.NewWriterSize(w, feedBufferSize)
	b := append(make([]byte, 0, 4<<10), `{"CVE_data_type":"CVE","CVE_data_format":"MITRE","CVE_data_version":"4.0","CVE_data_numberOfCVEs":"`...)
	b = strconv.AppendInt(b, int64(len(s.Entries)), 10)
	b = append(b, `","CVE_data_timestamp":`...)
	b = appendTime(b, s.CapturedAt)
	b = append(b, `,"CVE_Items":[`...)
	for i, e := range s.Entries {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendItem(b, e); err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		b = b[:0]
	}
	if _, err := bw.Write(append(b, "]}\n"...)); err != nil {
		return err
	}
	return bw.Flush()
}

// appendItem appends e as one element of CVE_Items, byte for byte as
// encoding/json writes its itemJSON form: omitempty keys left out, null
// for an empty problem type, reference or description list, HTML-safe
// string escaping and encoding/json's float format. A NaN or infinite
// score is an error, as it is to encoding/json.
func appendItem(b []byte, e *Entry) ([]byte, error) {
	b = append(b, `{"cve":{"CVE_data_meta":{"ID":`...)
	b = jsontext.AppendString(b, e.ID)
	b = append(b, `,"ASSIGNER":"cve@mitre.org"},"problemtype":{"problemtype_data":[{"description":`...)
	for i, id := range e.CWEs {
		b = appendListSep(b, i)
		b = append(b, `{"lang":"en","value":`...)
		b = jsontext.AppendQuoted(b, id.Append)
		b = append(b, '}')
	}
	b = closeList(b, len(e.CWEs))
	b = append(b, `}]},"references":{"reference_data":`...)
	for i, r := range e.References {
		b = appendListSep(b, i)
		b = append(b, `{"url":`...)
		b = jsontext.AppendString(b, r.URL)
		if r.URL != "" {
			b = append(b, `,"name":`...)
			b = jsontext.AppendString(b, r.URL)
		}
		if len(r.Tags) > 0 {
			b = append(b, `,"tags":`...)
			for j, tag := range r.Tags {
				b = appendListSep(b, j)
				b = jsontext.AppendString(b, tag)
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	b = closeList(b, len(e.References))
	b = append(b, `},"description":{"description_data":`...)
	for i, d := range e.Descriptions {
		b = appendListSep(b, i)
		b = append(b, `{"lang":"en","value":`...)
		b = jsontext.AppendString(b, d.Value)
		if d.Source != "" {
			b = append(b, `,"source":`...)
			b = jsontext.AppendString(b, d.Source)
		}
		b = append(b, '}')
	}
	b = closeList(b, len(e.Descriptions))
	b = append(b, "}}"...)
	if len(e.CPEs) > 0 {
		b = append(b, `,"configurations":{"CVE_data_version":"4.0","nodes":[{"operator":"OR","cpe_match":`...)
		for i, n := range e.CPEs {
			b = appendListSep(b, i)
			b = append(b, `{"vulnerable":true,"cpe23Uri":`...)
			b = jsontext.AppendQuoted(b, n.AppendFormatString)
			b = append(b, '}')
		}
		b = append(b, "]}]}"...)
	}
	if e.V2 != nil || e.V3 != nil || e.PV3 != nil {
		var err error
		b = append(b, `,"impact":`...)
		sep := byte('{')
		if e.V3 != nil {
			b = append(b, sep)
			sep = ','
			b = append(b, `"baseMetricV3":{"cvssV3":{"version":"3.0","vectorString":`...)
			b = jsontext.AppendQuoted(b, e.V3.Append)
			b = append(b, ',')
			if b, err = appendScore(b, e.ID, e.V3.BaseScore(), e.V3.Severity()); err != nil {
				return b, err
			}
			b = append(b, "}}"...)
		}
		if e.V2 != nil {
			b = append(b, sep)
			sep = ','
			b = append(b, `"baseMetricV2":{"cvssV2":{"version":"2.0","vectorString":`...)
			b = jsontext.AppendQuoted(b, e.V2.Append)
			b = append(b, `,"baseScore":`...)
			if b, err = appendFloat(b, e.ID, e.V2.BaseScore()); err != nil {
				return b, err
			}
			b = append(b, `},"severity":`...)
			b = appendSeverity(b, e.V2.Severity())
			b = append(b, '}')
		}
		if e.PV3 != nil {
			b = append(b, sep)
			b = append(b, `"backportedV3":{`...)
			if b, err = appendScore(b, e.ID, *e.PV3, cvss.SeverityV3(*e.PV3)); err != nil {
				return b, err
			}
			b = append(b, '}')
		}
		b = append(b, '}')
	}
	b = append(b, `,"publishedDate":`...)
	b = appendTime(b, e.Published)
	if !e.LastModified.IsZero() {
		b = append(b, `,"lastModifiedDate":`...)
		b = appendTime(b, e.LastModified)
	}
	return append(b, '}'), nil
}

// appendListSep opens a JSON list before its first element and
// separates the later ones.
func appendListSep(b []byte, i int) []byte {
	if i == 0 {
		return append(b, '[')
	}
	return append(b, ',')
}

// closeList closes a list of n elements opened by appendListSep, or
// writes null for an empty one, as encoding/json writes a nil slice.
func closeList(b []byte, n int) []byte {
	if n == 0 {
		return append(b, "null"...)
	}
	return append(b, ']')
}

// appendScore appends the "baseScore" and "baseSeverity" members of a
// v3 score object.
func appendScore(b []byte, id string, score float64, sev cvss.Severity) ([]byte, error) {
	b = append(b, `"baseScore":`...)
	b, err := appendFloat(b, id, score)
	if err != nil {
		return b, err
	}
	b = append(b, `,"baseSeverity":`...)
	return appendSeverity(b, sev), nil
}

// appendSeverity appends the band's label as the feeds spell it, in
// upper case: "HIGH".
func appendSeverity(b []byte, s cvss.Severity) []byte {
	label := s.String()
	b = append(b, '"')
	for i := 0; i < len(label); i++ {
		c := label[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		b = append(b, c)
	}
	return append(b, '"')
}

// appendTime appends t in UTC as a feedTime string. The layout writes
// only digits, '-', 'T', ':' and 'Z', which JSON strings carry as is.
func appendTime(b []byte, t time.Time) []byte {
	b = append(b, '"')
	b = t.UTC().AppendFormat(b, feedTime)
	return append(b, '"')
}

// appendFloat appends a score as encoding/json writes a float64. NaN
// and the infinities are an error, as they are to encoding/json; id
// names the entry in it.
func appendFloat(b []byte, id string, f float64) ([]byte, error) {
	b, ok := jsontext.AppendFloat(b, f)
	if !ok {
		return b, fmt.Errorf("cve: %s: unsupported score %s", id, strconv.FormatFloat(f, 'g', -1, 64))
	}
	return b, nil
}

// ReadFeed parses an NVD JSON 1.1 data feed read from r to its end, as
// DecodeFeed parses it. An error reading r is returned wrapped, so a
// caller can match it (an *http.MaxBytesError, say) with errors.As.
func ReadFeed(r io.Reader) (*Snapshot, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("cve: reading feed: %w", err)
	}
	return DecodeFeed(data)
}

// readAll reads r to its end. When r tells its size, as a *bytes.Reader
// or an *os.File does, the buffer is allocated once at that size rather
// than grown through a series of copies as io.ReadAll grows it.
func readAll(r io.Reader) ([]byte, error) {
	size := 0
	switch r := r.(type) {
	case interface{ Len() int }:
		size = r.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil {
			size = int(fi.Size())
		}
	}
	var buf bytes.Buffer
	buf.Grow(size + bytes.MinRead)
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// DecodeFeed parses an NVD JSON 1.1 data feed, compact or indented, in
// one pass over data. Malformed CWE strings and CPE URIs are skipped
// rather than fatal, matching how NVD consumers must treat the real
// feeds; CVSS vector strings must parse when present, and so must each
// publishedDate. Entries come back in ID order whatever order the feed
// lists them in (no sort for a feed already in order); naming a CVE
// twice is an error. It reads what encoding/json reads into the feed
// layout, but rejects anything but whitespace after the document and
// an object that gives one of its keys twice. No string of the result
// shares memory with data.
func DecodeFeed(data []byte) (*Snapshot, error) {
	s := &Snapshot{}
	d := &decoder{data: data}
	if err := d.document(func() error { return d.feed(s) }); err != nil {
		return nil, fmt.Errorf("cve: decoding feed: %w", err)
	}
	if s.CheckOrder() != nil {
		s.Sort()
		if err := s.CheckOrder(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// deltaKind marks a log record: the record is a JSON object with the
// keys kind, capturedAt, added, modified and removed, whose entries use
// the feed's item layout (including the backportedV3 extension key), so
// a record is exactly one day's worth of feed movement in feed terms.
const deltaKind = "cve-delta"

// MarshalDelta serializes a delta as one self-describing JSON document,
// the payload format of the generation store's log records: the bytes
// json.Marshal writes for its deltaJSON form (json_test.go).
func MarshalDelta(d *Delta) ([]byte, error) {
	b := append(make([]byte, 0, 2<<10), `{"kind":"`+deltaKind+`"`...)
	if !d.CapturedAt.IsZero() {
		b = append(b, `,"capturedAt":`...)
		b = appendTime(b, d.CapturedAt)
	}
	var err error
	if b, err = appendItemList(b, `,"added":`, d.Added); err != nil {
		return nil, err
	}
	if b, err = appendItemList(b, `,"modified":`, d.Modified); err != nil {
		return nil, err
	}
	if len(d.Removed) > 0 {
		b = append(b, `,"removed":`...)
		for i, id := range d.Removed {
			b = appendListSep(b, i)
			b = jsontext.AppendString(b, id)
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendItemList appends key and the list of es's items, or nothing for
// an empty es: a record's lists are omitted when empty.
func appendItemList(b []byte, key string, es []*Entry) ([]byte, error) {
	if len(es) == 0 {
		return b, nil
	}
	b = append(b, key...)
	for i, e := range es {
		b = appendListSep(b, i)
		var err error
		if b, err = appendItem(b, e); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// UnmarshalDelta parses a delta written by MarshalDelta, in one pass
// over b, by the rules DecodeFeed reads the feed by. Added and Modified
// keep the record's order. No string of the result shares memory with b.
func UnmarshalDelta(b []byte) (*Delta, error) {
	dl := &Delta{}
	d := &decoder{data: b}
	var kind string
	err := d.document(func() (err error) {
		kind, err = d.delta(dl)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("cve: decoding delta: %w", err)
	}
	if kind != deltaKind {
		return nil, fmt.Errorf("cve: unexpected delta kind %q", kind)
	}
	return dl, nil
}
