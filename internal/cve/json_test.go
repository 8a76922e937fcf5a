package cve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"nvdclean/internal/cpe"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
)

func TestFeedRoundTrip(t *testing.T) {
	orig := &Snapshot{
		CapturedAt: time.Date(2018, 5, 21, 12, 0, 0, 0, time.UTC),
		Entries: []*Entry{
			sampleEntry(t),
			{
				ID:        "CVE-2017-5638",
				Published: time.Date(2017, 3, 11, 2, 29, 0, 0, time.UTC),
				Descriptions: []Description{
					{Value: "The Jakarta Multipart parser in Apache Struts 2 has incorrect exception handling"},
				},
				CWEs: []cwe.ID{cwe.ID(20)},
				V2:   mustV2(t, "AV:N/AC:L/Au:N/C:C/I:C/A:C"),
				V3:   mustV3(t, "CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:C/C:H/I:H/A:H"),
				CPEs: []cpe.Name{
					cpe.NewName(cpe.PartApplication, "apache", "struts", "2.3.5"),
				},
				References: []Reference{
					{URL: "https://advisory.example/s2-045"},
				},
			},
			{
				// Entry with meta CWE and no impact at all.
				ID:           "CVE-2000-0001",
				Published:    time.Date(2000, 1, 4, 0, 0, 0, 0, time.UTC),
				Descriptions: []Description{{Value: "legacy entry"}},
				CWEs:         []cwe.ID{cwe.Other},
			},
		},
	}
	var buf bytes.Buffer
	if err := WriteFeed(&buf, orig); err != nil {
		t.Fatalf("WriteFeed: %v", err)
	}
	got, err := ReadFeed(&buf)
	if err != nil {
		t.Fatalf("ReadFeed: %v", err)
	}
	if !got.CapturedAt.Equal(orig.CapturedAt) {
		t.Errorf("CapturedAt = %v, want %v", got.CapturedAt, orig.CapturedAt)
	}
	if len(got.Entries) != len(orig.Entries) {
		t.Fatalf("entries = %d, want %d", len(got.Entries), len(orig.Entries))
	}
	// The fixture lists its entries out of ID order, and ReadFeed
	// returns them in ID order.
	sorted := &Snapshot{Entries: append([]*Entry(nil), orig.Entries...)}
	sorted.Sort()
	for i, want := range sorted.Entries {
		e := got.Entries[i]
		if e.ID != want.ID {
			t.Errorf("entry %d ID = %s, want %s", i, e.ID, want.ID)
		}
		if !e.Published.Equal(want.Published.Truncate(time.Minute)) {
			t.Errorf("entry %d Published = %v, want %v", i, e.Published, want.Published)
		}
		if len(e.CWEs) != len(want.CWEs) {
			t.Errorf("entry %d CWEs = %v, want %v", i, e.CWEs, want.CWEs)
		} else {
			for j := range want.CWEs {
				if e.CWEs[j] != want.CWEs[j] {
					t.Errorf("entry %d CWE %d = %v, want %v", i, j, e.CWEs[j], want.CWEs[j])
				}
			}
		}
		if (e.V2 == nil) != (want.V2 == nil) || (e.V3 == nil) != (want.V3 == nil) {
			t.Errorf("entry %d vector presence mismatch", i)
		}
		if e.V2 != nil && *e.V2 != *want.V2 {
			t.Errorf("entry %d V2 = %v, want %v", i, e.V2, want.V2)
		}
		if e.V3 != nil && *e.V3 != *want.V3 {
			t.Errorf("entry %d V3 = %v, want %v", i, e.V3, want.V3)
		}
		if len(e.CPEs) != len(want.CPEs) {
			t.Errorf("entry %d CPEs = %d, want %d", i, len(e.CPEs), len(want.CPEs))
		}
		if len(e.References) != len(want.References) {
			t.Errorf("entry %d refs = %d, want %d", i, len(e.References), len(want.References))
		}
		if len(e.Descriptions) != len(want.Descriptions) {
			t.Errorf("entry %d descriptions = %d, want %d", i, len(e.Descriptions), len(want.Descriptions))
		} else {
			for j := range want.Descriptions {
				if e.Descriptions[j] != want.Descriptions[j] {
					t.Errorf("entry %d description %d = %+v, want %+v", i, j, e.Descriptions[j], want.Descriptions[j])
				}
			}
		}
	}
}

// A hand-written fragment in the real NVD 1.1 shape must parse.
func TestReadFeedRealShape(t *testing.T) {
	const feed = `{
  "CVE_data_type": "CVE",
  "CVE_data_format": "MITRE",
  "CVE_data_version": "4.0",
  "CVE_data_numberOfCVEs": "1",
  "CVE_data_timestamp": "2018-05-21T07:00Z",
  "CVE_Items": [
    {
      "cve": {
        "CVE_data_meta": {"ID": "CVE-2014-0160", "ASSIGNER": "cve@mitre.org"},
        "problemtype": {"problemtype_data": [{"description": [{"lang": "en", "value": "CWE-119"}]}]},
        "references": {"reference_data": [
          {"url": "http://www.securityfocus.com/bid/66690", "name": "66690", "tags": ["Third Party Advisory"]}
        ]},
        "description": {"description_data": [{"lang": "en", "value": "The TLS and DTLS implementations in OpenSSL do not properly handle Heartbeat Extension packets."}]}
      },
      "configurations": {
        "CVE_data_version": "4.0",
        "nodes": [{"operator": "OR", "cpe_match": [
          {"vulnerable": true, "cpe23Uri": "cpe:2.3:a:openssl:openssl:1.0.1:*:*:*:*:*:*:*"},
          {"vulnerable": false, "cpe23Uri": "cpe:2.3:a:openssl:openssl:1.0.2:*:*:*:*:*:*:*"}
        ]}]
      },
      "impact": {
        "baseMetricV2": {
          "cvssV2": {"version": "2.0", "vectorString": "AV:N/AC:L/Au:N/C:P/I:N/A:N", "baseScore": 5.0},
          "severity": "MEDIUM"
        }
      },
      "publishedDate": "2014-04-07T22:55Z",
      "lastModifiedDate": "2018-05-11T01:29Z"
    }
  ]
}`
	s, err := ReadFeed(strings.NewReader(feed))
	if err != nil {
		t.Fatalf("ReadFeed: %v", err)
	}
	if s.Len() != 1 {
		t.Fatalf("entries = %d", s.Len())
	}
	e := s.Entries[0]
	if e.ID != "CVE-2014-0160" {
		t.Errorf("ID = %s", e.ID)
	}
	if len(e.CWEs) != 1 || e.CWEs[0] != cwe.ID(119) {
		t.Errorf("CWEs = %v", e.CWEs)
	}
	// Only the vulnerable cpe_match is collected.
	if len(e.CPEs) != 1 || e.CPEs[0].Vendor != "openssl" {
		t.Errorf("CPEs = %v", e.CPEs)
	}
	if e.V2 == nil || e.V2.BaseScore() != 5.0 {
		t.Errorf("V2 = %v", e.V2)
	}
	if e.V3 != nil {
		t.Error("V3 should be absent")
	}
	sev, _ := e.SeverityV2()
	if sev != cvss.SeverityMedium {
		t.Errorf("severity = %v", sev)
	}
	if e.Published.Year() != 2014 || e.LastModified.Year() != 2018 {
		t.Errorf("dates = %v / %v", e.Published, e.LastModified)
	}
}

func TestReadFeedErrors(t *testing.T) {
	cases := []struct {
		name string
		feed string
	}{
		{"not json", "{"},
		{"bad cve id", `{"CVE_Items":[{"cve":{"CVE_data_meta":{"ID":"bogus"}},"publishedDate":"2014-04-07T22:55Z"}]}`},
		{"bad date", `{"CVE_Items":[{"cve":{"CVE_data_meta":{"ID":"CVE-2014-0001"}},"publishedDate":"yesterday"}]}`},
		{"bad v2 vector", `{"CVE_Items":[{"cve":{"CVE_data_meta":{"ID":"CVE-2014-0001"}},"publishedDate":"2014-04-07T22:55Z","impact":{"baseMetricV2":{"cvssV2":{"vectorString":"AV:X"}}}}]}`},
		{"two documents", `{"CVE_Items":[]}` + "\n" + `{"CVE_Items":[{"cve":{"CVE_data_meta":{"ID":"CVE-2014-0001"}},"publishedDate":"2014-04-07T22:55Z"}]}`},
		{"trailing junk", `{"CVE_Items":[]} ]`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadFeed(strings.NewReader(tc.feed)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// TestReadFeedTrailingWhitespace: whitespace after the document, as a
// file or an editor may leave it, is not data after it.
func TestReadFeedTrailingWhitespace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFeed(&buf, &Snapshot{Entries: []*Entry{sampleEntry(t)}}); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("  \n\r\n\t \n")
	s, err := ReadFeed(&buf)
	if err != nil {
		t.Fatalf("ReadFeed: %v", err)
	}
	if s.Len() != 1 {
		t.Errorf("entries = %d, want 1", s.Len())
	}
}

// feedOf writes entries with the given IDs, in the given order, as a
// feed.
func feedOf(t *testing.T, ids ...string) *bytes.Buffer {
	t.Helper()
	s := &Snapshot{}
	for _, id := range ids {
		e := sampleEntry(t)
		e.ID = id
		s.Entries = append(s.Entries, e)
	}
	var buf bytes.Buffer
	if err := WriteFeed(&buf, s); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestReadFeedOrdersEntries: nothing orders a feed's items, and
// ReadFeed returns them in ID order whatever order the file lists them
// in — reversed, or lexically sorted, which puts CVE-2017-1000001
// before CVE-2017-2000.
func TestReadFeedOrdersEntries(t *testing.T) {
	want := []string{"CVE-1999-0001", "CVE-2017-0002", "CVE-2017-2000", "CVE-2017-1000001", "CVE-2018-0001"}
	for name, ids := range map[string][]string{
		"in order": want,
		"reversed": {"CVE-2018-0001", "CVE-2017-1000001", "CVE-2017-2000", "CVE-2017-0002", "CVE-1999-0001"},
		"lexical":  slices.Sorted(slices.Values(want)),
	} {
		s, err := ReadFeed(feedOf(t, ids...))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got []string
		for _, e := range s.Entries {
			got = append(got, e.ID)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: ReadFeed order %v, want %v", name, got, want)
		}
		if err := s.CheckOrder(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestReadFeedRejectsRepeatedIDs: a feed naming one CVE twice, under
// one spelling or two, is an error naming the ID.
func TestReadFeedRejectsRepeatedIDs(t *testing.T) {
	for _, tc := range []struct {
		ids  []string
		want string
	}{
		{[]string{"CVE-2018-0002", "CVE-2017-0001", "CVE-2018-0002"}, "CVE-2018-0002"},
		{[]string{"CVE-2017-0001", "CVE-2017-1"}, "CVE-2017-1"},
	} {
		_, err := ReadFeed(feedOf(t, tc.ids...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadFeed(%v) = %v, want an error naming %s", tc.ids, err, tc.want)
		}
	}
}

func TestReadFeedSkipsMalformedCPE(t *testing.T) {
	const feed = `{"CVE_Items":[{
    "cve":{"CVE_data_meta":{"ID":"CVE-2014-0001"}},
    "publishedDate":"2014-04-07T22:55Z",
    "configurations":{"nodes":[{"cpe_match":[
      {"vulnerable":true,"cpe23Uri":"not-a-cpe"},
      {"vulnerable":true,"cpe23Uri":"cpe:2.3:a:ok:fine:*:*:*:*:*:*:*:*"}
    ]}]}}]}`
	s, err := ReadFeed(strings.NewReader(feed))
	if err != nil {
		t.Fatalf("ReadFeed: %v", err)
	}
	if len(s.Entries[0].CPEs) != 1 || s.Entries[0].CPEs[0].Vendor != "ok" {
		t.Errorf("CPEs = %v", s.Entries[0].CPEs)
	}
}

func TestReadFeedNestedNodes(t *testing.T) {
	const feed = `{"CVE_Items":[{
    "cve":{"CVE_data_meta":{"ID":"CVE-2014-0001"}},
    "publishedDate":"2014-04-07T22:55Z",
    "configurations":{"nodes":[{"operator":"AND","children":[
      {"operator":"OR","cpe_match":[{"vulnerable":true,"cpe23Uri":"cpe:2.3:a:nested:prod:*:*:*:*:*:*:*:*"}]}
    ]}]}}]}`
	s, err := ReadFeed(strings.NewReader(feed))
	if err != nil {
		t.Fatalf("ReadFeed: %v", err)
	}
	if len(s.Entries[0].CPEs) != 1 || s.Entries[0].CPEs[0].Vendor != "nested" {
		t.Errorf("nested CPEs = %v", s.Entries[0].CPEs)
	}
}

// The NVD JSON 1.1 feed layout as Go types, the reference codec's form
// of a feed and its items. Field names follow the feed schema.
// encoding/json reads and writes these types; appendItem must write
// the bytes it writes (TestFeedEncodingMatchesReference), and the
// decoder must read what it reads (TestFeedDecodingMatchesReference).
type (
	feedJSON struct {
		DataType    string     `json:"CVE_data_type"`
		DataFormat  string     `json:"CVE_data_format"`
		DataVersion string     `json:"CVE_data_version"`
		NumberCVEs  string     `json:"CVE_data_numberOfCVEs"`
		Timestamp   string     `json:"CVE_data_timestamp"`
		Items       []itemJSON `json:"CVE_Items"`
	}

	itemJSON struct {
		CVE            cveJSON      `json:"cve"`
		Configurations *configsJSON `json:"configurations,omitempty"`
		Impact         *impactJSON  `json:"impact,omitempty"`
		PublishedDate  string       `json:"publishedDate"`
		LastModified   string       `json:"lastModifiedDate,omitempty"`
	}

	cveJSON struct {
		Meta        metaJSON     `json:"CVE_data_meta"`
		ProblemType problemJSON  `json:"problemtype"`
		References  refsJSON     `json:"references"`
		Description descListJSON `json:"description"`
	}

	metaJSON struct {
		ID       string `json:"ID"`
		Assigner string `json:"ASSIGNER,omitempty"`
	}

	problemJSON struct {
		Data []problemDataJSON `json:"problemtype_data"`
	}

	problemDataJSON struct {
		Description []langValueJSON `json:"description"`
	}

	langValueJSON struct {
		Lang   string `json:"lang"`
		Value  string `json:"value"`
		Source string `json:"source,omitempty"` // extension: evaluator provenance
	}

	refsJSON struct {
		Data []refJSON `json:"reference_data"`
	}

	refJSON struct {
		URL  string   `json:"url"`
		Name string   `json:"name,omitempty"`
		Tags []string `json:"tags,omitempty"`
	}

	descListJSON struct {
		Data []langValueJSON `json:"description_data"`
	}

	configsJSON struct {
		DataVersion string     `json:"CVE_data_version"`
		Nodes       []nodeJSON `json:"nodes"`
	}

	nodeJSON struct {
		Operator string         `json:"operator,omitempty"`
		CPEMatch []cpeMatchJSON `json:"cpe_match,omitempty"`
		Children []nodeJSON     `json:"children,omitempty"`
	}

	cpeMatchJSON struct {
		Vulnerable bool   `json:"vulnerable"`
		CPE23URI   string `json:"cpe23Uri"`
	}

	impactJSON struct {
		BaseMetricV3 *baseMetricV3JSON `json:"baseMetricV3,omitempty"`
		BaseMetricV2 *baseMetricV2JSON `json:"baseMetricV2,omitempty"`
		// BackportedV3 is this codec's extension slot for the §4.3
		// predicted v3 score of v2-only CVEs. Real NVD feeds never
		// carry the key, so reading them is unaffected.
		BackportedV3 *backportedV3JSON `json:"backportedV3,omitempty"`
	}

	backportedV3JSON struct {
		BaseScore    float64 `json:"baseScore"`
		BaseSeverity string  `json:"baseSeverity"`
	}

	baseMetricV3JSON struct {
		CVSSV3 cvssV3JSON `json:"cvssV3"`
	}

	cvssV3JSON struct {
		Version      string  `json:"version"`
		VectorString string  `json:"vectorString"`
		BaseScore    float64 `json:"baseScore"`
		BaseSeverity string  `json:"baseSeverity"`
	}

	baseMetricV2JSON struct {
		CVSSV2   cvssV2JSON `json:"cvssV2"`
		Severity string     `json:"severity,omitempty"`
	}

	cvssV2JSON struct {
		Version      string  `json:"version"`
		VectorString string  `json:"vectorString"`
		BaseScore    float64 `json:"baseScore"`
	}
)

// deltaJSON is the reference form of a Delta: a log record.
type deltaJSON struct {
	Kind       string     `json:"kind"`
	CapturedAt string     `json:"capturedAt,omitempty"`
	Added      []itemJSON `json:"added,omitempty"`
	Modified   []itemJSON `json:"modified,omitempty"`
	Removed    []string   `json:"removed,omitempty"`
}

// readFeedReference is the reflection-based reader the one-pass decoder
// replaced, on json.Unmarshal: it decodes the whole feed into a
// feedJSON tree and converts each item with decodeItem.
func readFeedReference(data []byte) (*Snapshot, error) {
	var f feedJSON
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("cve: decoding feed: %w", err)
	}
	s := &Snapshot{}
	if f.Timestamp != "" {
		if ts, err := time.Parse(feedTime, f.Timestamp); err == nil {
			s.CapturedAt = ts
		}
	}
	for i := range f.Items {
		e, err := decodeItem(&f.Items[i])
		if err != nil {
			return nil, fmt.Errorf("cve: item %d (%s): %w", i, f.Items[i].CVE.Meta.ID, err)
		}
		s.Entries = append(s.Entries, e)
	}
	if s.CheckOrder() != nil {
		s.Sort()
		if err := s.CheckOrder(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// unmarshalDeltaReference is the reflection-based UnmarshalDelta.
func unmarshalDeltaReference(b []byte) (*Delta, error) {
	var dj deltaJSON
	if err := json.Unmarshal(b, &dj); err != nil {
		return nil, fmt.Errorf("cve: decoding delta: %w", err)
	}
	if dj.Kind != deltaKind {
		return nil, fmt.Errorf("cve: unexpected delta kind %q", dj.Kind)
	}
	d := &Delta{Removed: dj.Removed}
	if dj.CapturedAt != "" {
		ts, err := time.Parse(feedTime, dj.CapturedAt)
		if err != nil {
			return nil, fmt.Errorf("cve: delta capture time: %w", err)
		}
		d.CapturedAt = ts
	}
	for i := range dj.Added {
		e, err := decodeItem(&dj.Added[i])
		if err != nil {
			return nil, fmt.Errorf("cve: delta added %d (%s): %w", i, dj.Added[i].CVE.Meta.ID, err)
		}
		d.Added = append(d.Added, e)
	}
	for i := range dj.Modified {
		e, err := decodeItem(&dj.Modified[i])
		if err != nil {
			return nil, fmt.Errorf("cve: delta modified %d (%s): %w", i, dj.Modified[i].CVE.Meta.ID, err)
		}
		d.Modified = append(d.Modified, e)
	}
	return d, nil
}

func decodeItem(item *itemJSON) (*Entry, error) {
	e := &Entry{ID: item.CVE.Meta.ID}
	if _, _, err := SplitID(e.ID); err != nil {
		return nil, err
	}
	var err error
	e.Published, err = time.Parse(feedTime, item.PublishedDate)
	if err != nil {
		return nil, fmt.Errorf("published date: %w", err)
	}
	if item.LastModified != "" {
		e.LastModified, _ = time.Parse(feedTime, item.LastModified)
	}
	for _, pd := range item.CVE.ProblemType.Data {
		for _, d := range pd.Description {
			id, perr := cwe.Parse(d.Value)
			if perr != nil || id == cwe.Unassigned {
				continue
			}
			e.CWEs = append(e.CWEs, id)
		}
	}
	for _, r := range item.CVE.References.Data {
		e.References = append(e.References, Reference{URL: r.URL, Tags: r.Tags})
	}
	for _, d := range item.CVE.Description.Data {
		e.Descriptions = append(e.Descriptions, Description{Source: d.Source, Value: d.Value})
	}
	if item.Configurations != nil {
		collectCPEs(item.Configurations.Nodes, e)
	}
	if item.Impact != nil {
		if m := item.Impact.BaseMetricV2; m != nil {
			v, perr := cvss.ParseV2(m.CVSSV2.VectorString)
			if perr != nil {
				return nil, fmt.Errorf("v2 vector: %w", perr)
			}
			e.V2 = &v
		}
		if m := item.Impact.BaseMetricV3; m != nil {
			v, perr := cvss.ParseV3(m.CVSSV3.VectorString)
			if perr != nil {
				return nil, fmt.Errorf("v3 vector: %w", perr)
			}
			e.V3 = &v
		}
		if m := item.Impact.BackportedV3; m != nil {
			score := m.BaseScore
			e.PV3 = &score
		}
	}
	return e, nil
}

func collectCPEs(nodes []nodeJSON, e *Entry) {
	for _, node := range nodes {
		for _, m := range node.CPEMatch {
			if !m.Vulnerable {
				continue
			}
			n, err := cpe.Parse(m.CPE23URI)
			if err != nil {
				continue // tolerate malformed URIs in real feeds
			}
			e.CPEs = append(e.CPEs, n)
		}
		collectCPEs(node.Children, e)
	}
}

// writeFeedReference is the reflection-based writer WriteFeed and
// WriteFeedCompact replaced: it builds the itemJSON tree of every entry
// and hands the whole feed to json.Encoder. The writers must reproduce
// its bytes exactly (TestFeedEncodingMatchesReference), since
// checkpoint files and log records it wrote are read back and
// replicated byte for byte.
func writeFeedReference(w io.Writer, s *Snapshot, indent bool) error {
	f := feedJSON{
		DataType:    "CVE",
		DataFormat:  "MITRE",
		DataVersion: "4.0",
		NumberCVEs:  strconv.Itoa(len(s.Entries)),
		Timestamp:   s.CapturedAt.UTC().Format(feedTime),
		Items:       make([]itemJSON, 0, len(s.Entries)),
	}
	for _, e := range s.Entries {
		f.Items = append(f.Items, encodeItem(e))
	}
	enc := json.NewEncoder(w)
	if indent {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(&f)
}

// marshalDeltaReference is the reflection-based MarshalDelta.
func marshalDeltaReference(d *Delta) ([]byte, error) {
	dj := deltaJSON{Kind: deltaKind, Removed: d.Removed}
	if !d.CapturedAt.IsZero() {
		dj.CapturedAt = d.CapturedAt.UTC().Format(feedTime)
	}
	for _, e := range d.Added {
		dj.Added = append(dj.Added, encodeItem(e))
	}
	for _, e := range d.Modified {
		dj.Modified = append(dj.Modified, encodeItem(e))
	}
	return json.Marshal(&dj)
}

func encodeItem(e *Entry) itemJSON {
	item := itemJSON{
		CVE: cveJSON{
			Meta: metaJSON{ID: e.ID, Assigner: "cve@mitre.org"},
		},
		PublishedDate: e.Published.UTC().Format(feedTime),
	}
	if !e.LastModified.IsZero() {
		item.LastModified = e.LastModified.UTC().Format(feedTime)
	}
	// Problem type (CWE field).
	var ptDescs []langValueJSON
	for _, id := range e.CWEs {
		ptDescs = append(ptDescs, langValueJSON{Lang: "en", Value: id.String()})
	}
	item.CVE.ProblemType.Data = []problemDataJSON{{Description: ptDescs}}
	// References.
	for _, r := range e.References {
		item.CVE.References.Data = append(item.CVE.References.Data, refJSON{
			URL: r.URL, Name: r.URL, Tags: r.Tags,
		})
	}
	// Descriptions.
	for _, d := range e.Descriptions {
		item.CVE.Description.Data = append(item.CVE.Description.Data, langValueJSON{
			Lang: "en", Value: d.Value, Source: d.Source,
		})
	}
	// Configurations (CPE list).
	if len(e.CPEs) > 0 {
		node := nodeJSON{Operator: "OR"}
		for _, n := range e.CPEs {
			node.CPEMatch = append(node.CPEMatch, cpeMatchJSON{
				Vulnerable: true, CPE23URI: n.FormatString(),
			})
		}
		item.Configurations = &configsJSON{DataVersion: "4.0", Nodes: []nodeJSON{node}}
	}
	// Impact.
	if e.V2 != nil || e.V3 != nil || e.PV3 != nil {
		item.Impact = &impactJSON{}
		if e.PV3 != nil {
			item.Impact.BackportedV3 = &backportedV3JSON{
				BaseScore:    *e.PV3,
				BaseSeverity: upper(cvss.SeverityV3(*e.PV3).String()),
			}
		}
		if e.V3 != nil {
			item.Impact.BaseMetricV3 = &baseMetricV3JSON{CVSSV3: cvssV3JSON{
				Version:      "3.0",
				VectorString: e.V3.String(),
				BaseScore:    e.V3.BaseScore(),
				BaseSeverity: upper(e.V3.Severity().String()),
			}}
		}
		if e.V2 != nil {
			item.Impact.BaseMetricV2 = &baseMetricV2JSON{
				CVSSV2: cvssV2JSON{
					Version:      "2.0",
					VectorString: e.V2.String(),
					BaseScore:    e.V2.BaseScore(),
				},
				Severity: upper(e.V2.Severity().String()),
			}
		}
	}
	return item
}

func upper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// encodingPieces are the fragments the encoding oracle builds its text
// from: every byte class encoding/json escapes or replaces (invalid
// UTF-8 among them: a stray continuation byte, a truncated sequence, an
// encoded surrogate, an overlong slash), U+2028 and U+2029, multibyte
// text, and the characters the CPE binding escapes.
var encodingPieces = []string{
	"<", ">", "&", `"`, `\`, "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f", "\x7f",
	"\xff", "\x80", "\xc3", "\xe6\x97", "\xed\xa0\x80", "\xc0\xaf",
	"\u2028", "\u2029", "é", "日本語", "😀", "\ufffd",
	":", "*", "?", "-", "/", " ", "apache", "CVE-2017-0001", "https://x.example/a?b=1&c=2",
}

// randText returns up to maxPieces pieces, with now and then a random
// control byte among them.
func randText(r *rand.Rand, maxPieces int) string {
	var b strings.Builder
	for range r.Intn(maxPieces + 1) {
		if r.Intn(8) == 0 {
			b.WriteByte(byte(r.Intn(0x20)))
			continue
		}
		b.WriteString(encodingPieces[r.Intn(len(encodingPieces))])
	}
	return b.String()
}

// randTime returns the zero time one time in eight, and otherwise a
// minute-or-finer instant, sometimes outside UTC or past year 9999.
func randTime(r *rand.Rand) time.Time {
	if r.Intn(8) == 0 {
		return time.Time{}
	}
	loc := time.UTC
	if r.Intn(3) == 0 {
		loc = time.FixedZone("", (r.Intn(27)-12)*3600+r.Intn(2)*1800)
	}
	year := 1988 + r.Intn(40)
	if r.Intn(16) == 0 {
		year = 10000 + r.Intn(2000)
	}
	return time.Date(year, time.Month(1+r.Intn(12)), 1+r.Intn(28), r.Intn(24), r.Intn(60), r.Intn(60), r.Intn(1e9), loc)
}

// edgeScores are PV3 values at encoding/json's float-format edges: zero
// of both signs, the smallest denormal, both sides of the 1e-6 and 1e21
// exponent cut-offs, an exponent it cleans up (1e-7, not 1e-07), and
// ordinary one-decimal scores.
var edgeScores = []float64{0, math.Copysign(0, -1), 1e-7, 5e-324, 9.95, 1e21, 1e20, 1e-6, 9.99999e-7, 1.5e-300, 7.5, 10, 123456.789, -3.3}

// randEntry returns an entry whose every field the encoder branches on
// varies: nil, empty and filled lists; empty URLs and sources; a zero
// LastModified; vector presence set by mask (V2, V3 and PV3 bits); the
// meta CWEs; CPE attributes with reserved characters, empty, "-" and
// "*" alone; and invalid vectors, which format with "?".
func randEntry(r *rand.Rand, mask int) *Entry {
	e := &Entry{ID: randText(r, 3), Published: randTime(r), LastModified: randTime(r)}
	if r.Intn(2) == 0 {
		e.ID = FormatID(1999+r.Intn(20), r.Intn(100000))
	}
	switch r.Intn(3) {
	case 1:
		e.CWEs = []cwe.ID{}
	case 2:
		ids := []cwe.ID{cwe.Unassigned, cwe.Other, cwe.NoInfo, 20, 79, 1000, -7}
		for range 1 + r.Intn(3) {
			e.CWEs = append(e.CWEs, ids[r.Intn(len(ids))])
		}
	}
	switch r.Intn(3) {
	case 1:
		e.References = []Reference{}
	case 2:
		for range 1 + r.Intn(3) {
			ref := Reference{URL: randText(r, 3)}
			switch r.Intn(3) {
			case 1:
				ref.Tags = []string{}
			case 2:
				for range 1 + r.Intn(2) {
					ref.Tags = append(ref.Tags, randText(r, 2))
				}
			}
			e.References = append(e.References, ref)
		}
	}
	switch r.Intn(3) {
	case 1:
		e.Descriptions = []Description{}
	case 2:
		for range 1 + r.Intn(3) {
			e.Descriptions = append(e.Descriptions, Description{Source: randText(r, 1), Value: randText(r, 6)})
		}
	}
	parts := []cpe.Part{cpe.PartApplication, cpe.PartOS, cpe.PartHardware, ':', 0, 0xe9}
	attr := func() string {
		switch r.Intn(5) {
		case 0:
			return ""
		case 1:
			return "-"
		case 2:
			return cpe.Any
		}
		return randText(r, 2)
	}
	for range r.Intn(3) {
		e.CPEs = append(e.CPEs, cpe.Name{
			Part: parts[r.Intn(len(parts))], Vendor: attr(), Product: attr(), Version: attr(),
			Update: attr(), Edition: attr(), Language: attr(), SWEdition: attr(),
			TargetSW: attr(), TargetHW: attr(), Other: attr(),
		})
	}
	if mask&1 != 0 {
		v := cvss.VectorV2{}
		if all := cvss.AllV2Vectors(); r.Intn(8) > 0 {
			v = all[r.Intn(len(all))]
		}
		e.V2 = &v
	}
	if mask&2 != 0 {
		v := cvss.VectorV3{}
		if all := cvss.AllV3Vectors(); r.Intn(8) > 0 {
			v = all[r.Intn(len(all))]
		}
		e.V3 = &v
	}
	if mask&4 != 0 {
		score := math.Round(r.Float64()*100) / 10
		if r.Intn(2) == 0 {
			score = edgeScores[r.Intn(len(edgeScores))]
		}
		e.PV3 = &score
	}
	return e
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

// TestFeedEncodingMatchesReference is the byte-identity oracle of the
// append encoder: over seeded random snapshots and deltas (see
// randEntry), WriteFeedCompact, WriteFeed and MarshalDelta write
// exactly the bytes of the reflection-based reference, and a NaN or
// infinite backported score is an error to both.
func TestFeedEncodingMatchesReference(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 50
	}
	check := func(name string, got, want []byte, gotErr, wantErr error) {
		t.Helper()
		if gotErr != nil || wantErr != nil {
			t.Fatalf("%s: error %v, reference error %v", name, gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %s", name, diffAt(got, want))
		}
	}
	masks := 0
	for seed := range seeds {
		r := rand.New(rand.NewSource(int64(seed)))
		s := &Snapshot{CapturedAt: randTime(r)}
		if n := r.Intn(9); n > 0 || r.Intn(2) == 0 {
			s.Entries = make([]*Entry, n)
		}
		for i := range s.Entries {
			mask := (seed + i) % 8
			masks |= 1 << mask
			s.Entries[i] = randEntry(r, mask)
		}
		for _, indent := range []bool{false, true} {
			write := WriteFeedCompact
			if indent {
				write = WriteFeed
			}
			var got, want bytes.Buffer
			gotErr := write(&got, s)
			wantErr := writeFeedReference(&want, s, indent)
			check(fmt.Sprintf("seed %d, indent %v", seed, indent), got.Bytes(), want.Bytes(), gotErr, wantErr)
		}

		d := &Delta{CapturedAt: randTime(r)}
		for _, e := range s.Entries {
			if r.Intn(2) == 0 {
				d.Added = append(d.Added, e)
			} else {
				d.Modified = append(d.Modified, e)
			}
		}
		switch r.Intn(3) {
		case 1:
			d.Removed = []string{}
		case 2:
			for range 1 + r.Intn(3) {
				d.Removed = append(d.Removed, randText(r, 3))
			}
		}
		got, gotErr := MarshalDelta(d)
		want, wantErr := marshalDeltaReference(d)
		check(fmt.Sprintf("seed %d, delta", seed), got, want, gotErr, wantErr)
	}
	if masks != 0xff {
		t.Fatalf("V2/V3/PV3 presence combinations covered: %08b, want all eight", masks)
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		e := sampleEntry(t)
		e.PV3 = &bad
		s := &Snapshot{Entries: []*Entry{e}}
		d := &Delta{Modified: s.Entries}
		_, deltaErr := MarshalDelta(d)
		_, refDeltaErr := marshalDeltaReference(d)
		for name, err := range map[string]error{
			"WriteFeedCompact":          WriteFeedCompact(io.Discard, s),
			"WriteFeed":                 WriteFeed(io.Discard, s),
			"MarshalDelta":              deltaErr,
			"reference compact writer":  writeFeedReference(io.Discard, s, false),
			"reference indented writer": writeFeedReference(io.Discard, s, true),
			"reference MarshalDelta":    refDeltaErr,
		} {
			if err == nil {
				t.Errorf("PV3 %v: %s returned no error", bad, name)
			}
		}
	}
}

func BenchmarkWriteFeed(b *testing.B) {
	s := &Snapshot{CapturedAt: time.Now()}
	for i := 0; i < 100; i++ {
		e := sampleEntry(b)
		e.ID = FormatID(2015, i+1)
		s.Entries = append(s.Entries, e)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteFeed(&buf, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadFeed(b *testing.B) {
	s := &Snapshot{CapturedAt: time.Now()}
	for i := 0; i < 100; i++ {
		e := sampleEntry(b)
		e.ID = FormatID(2015, i+1)
		s.Entries = append(s.Entries, e)
	}
	var buf bytes.Buffer
	if err := WriteFeed(&buf, s); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadFeed(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
