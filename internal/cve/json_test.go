package cve

import (
	"bytes"
	"slices"
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadFeed(strings.NewReader(tc.feed)); err == nil {
				t.Error("expected error")
			}
		})
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
