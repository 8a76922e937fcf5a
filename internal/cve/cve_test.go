package cve

import (
	"testing"
	"time"

	"nvdclean/internal/cpe"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
)

func mustV2(t testing.TB, s string) *cvss.VectorV2 {
	t.Helper()
	v, err := cvss.ParseV2(s)
	if err != nil {
		t.Fatal(err)
	}
	return &v
}

func mustV3(t testing.TB, s string) *cvss.VectorV3 {
	t.Helper()
	v, err := cvss.ParseV3(s)
	if err != nil {
		t.Fatal(err)
	}
	return &v
}

func sampleEntry(t testing.TB) *Entry {
	return &Entry{
		ID:           "CVE-2011-0700",
		Published:    time.Date(2011, 3, 14, 0, 0, 0, 0, time.UTC),
		LastModified: time.Date(2011, 4, 1, 0, 0, 0, 0, time.UTC),
		Descriptions: []Description{
			{Value: "Cross-site scripting (XSS) vulnerability in WordPress before 3.0.5"},
			{Source: "evaluator", Value: "Per CWE-79, input is not sanitized."},
		},
		CWEs: []cwe.ID{cwe.ID(79)},
		V2:   mustV2(t, "AV:N/AC:M/Au:N/C:N/I:P/A:N"),
		CPEs: []cpe.Name{
			cpe.NewName(cpe.PartApplication, "wordpress", "wordpress", "3.0.4"),
		},
		References: []Reference{
			{URL: "https://securityfocus.example/bid/46365", Tags: []string{"Third Party Advisory"}},
		},
	}
}

func TestSplitID(t *testing.T) {
	tests := []struct {
		id        string
		year, seq int
		wantErr   bool
	}{
		{"CVE-2011-0700", 2011, 700, false},
		{"CVE-1999-0001", 1999, 1, false},
		{"CVE-2018-123456", 2018, 123456, false},
		{"cve-2011-0700", 0, 0, true},
		{"CVE-2011", 0, 0, true},
		{"CVE-abcd-0001", 0, 0, true},
		{"CVE-1980-0001", 0, 0, true},
		{"CVE-2011-x", 0, 0, true},
		{"", 0, 0, true},
	}
	for _, tt := range tests {
		y, s, err := SplitID(tt.id)
		if (err != nil) != tt.wantErr {
			t.Errorf("SplitID(%q) error = %v, wantErr %v", tt.id, err, tt.wantErr)
			continue
		}
		if err == nil && (y != tt.year || s != tt.seq) {
			t.Errorf("SplitID(%q) = %d, %d", tt.id, y, s)
		}
	}
}

func TestFormatID(t *testing.T) {
	if got := FormatID(2011, 700); got != "CVE-2011-0700" {
		t.Errorf("FormatID = %q", got)
	}
	if got := FormatID(2018, 123456); got != "CVE-2018-123456" {
		t.Errorf("FormatID wide seq = %q", got)
	}
}

func TestEntryYear(t *testing.T) {
	e := sampleEntry(t)
	if e.Year() != 2011 {
		t.Errorf("Year() = %d", e.Year())
	}
	bad := &Entry{ID: "garbage"}
	if bad.Year() != 0 {
		t.Errorf("bad id Year() = %d, want 0", bad.Year())
	}
}

func TestEntryAccessors(t *testing.T) {
	e := sampleEntry(t)
	if got := e.Description(); got == "" || got[:10] != "Cross-site" {
		t.Errorf("Description() = %q", got)
	}
	all := e.AllDescriptionText()
	if all == "" || !contains(all, "CWE-79") {
		t.Errorf("AllDescriptionText() = %q", all)
	}
	if e.HasV3() {
		t.Error("sample has no v3")
	}
	sev, ok := e.SeverityV2()
	if !ok || sev != cvss.SeverityMedium {
		t.Errorf("SeverityV2 = %v, %v", sev, ok)
	}
	if _, ok := e.SeverityV3(); ok {
		t.Error("SeverityV3 should be absent")
	}
	if !e.HasCWE(cwe.ID(79)) || e.HasCWE(cwe.ID(89)) {
		t.Error("HasCWE wrong")
	}
	if !e.Typed() {
		t.Error("entry with CWE-79 is typed")
	}
	untyped := &Entry{ID: "CVE-2000-0001", CWEs: []cwe.ID{cwe.Other}}
	if untyped.Typed() {
		t.Error("NVD-CWE-Other only entry should be untyped")
	}
}

func TestVendors(t *testing.T) {
	e := sampleEntry(t)
	e.CPEs = append(e.CPEs,
		cpe.NewName(cpe.PartApplication, "wordpress", "multisite", "1.0"),
		cpe.NewName(cpe.PartApplication, "acme", "blog", "2.0"),
	)
	got := e.Vendors()
	if len(got) != 2 || got[0] != "wordpress" || got[1] != "acme" {
		t.Errorf("Vendors() = %v", got)
	}
}

func TestClone(t *testing.T) {
	e := sampleEntry(t)
	c := e.Clone()
	c.CWEs[0] = cwe.ID(89)
	c.CPEs[0] = c.CPEs[0].WithVendor("other")
	c.Descriptions[0].Value = "changed"
	c.References[0].URL = "changed"
	*c.V2 = cvss.VectorV2{}
	if e.CWEs[0] != cwe.ID(79) || e.CPEs[0].Vendor != "wordpress" ||
		e.Descriptions[0].Value == "changed" || e.References[0].URL == "changed" ||
		!e.V2.Valid() {
		t.Error("Clone shares state with original")
	}
}

func TestSnapshotSortAndByID(t *testing.T) {
	s := &Snapshot{Entries: []*Entry{
		{ID: "CVE-2018-0002"},
		{ID: "CVE-1999-0100"},
		{ID: "CVE-2018-0001"},
	}}
	s.Sort()
	want := []string{"CVE-1999-0100", "CVE-2018-0001", "CVE-2018-0002"}
	for i, w := range want {
		if s.Entries[i].ID != w {
			t.Errorf("Entries[%d] = %s, want %s", i, s.Entries[i].ID, w)
		}
	}
	if s.ByID("CVE-2018-0001") == nil {
		t.Error("ByID missed existing entry")
	}
	if s.ByID("CVE-2020-9999") != nil {
		t.Error("ByID found nonexistent entry")
	}
	if s.Len() != 3 {
		t.Errorf("Len() = %d", s.Len())
	}
}

func TestCheckOrder(t *testing.T) {
	for _, tc := range []struct {
		ids  []string
		want string // substring of the error; "" for none
	}{
		{nil, ""},
		{[]string{"CVE-1999-0100", "CVE-2018-0002", "CVE-2018-1000001"}, ""},
		{[]string{"CVE-2018-0002", "CVE-2018-0001"}, "CVE-2018-0001 is out of ID order after CVE-2018-0002"},
		{[]string{"CVE-2018-0001", "CVE-2018-0001"}, "CVE-2018-0001 appears more than once"},
		{[]string{"CVE-2018-0001", "CVE-2018-1"}, "CVE-2018-0001 and CVE-2018-1 name one CVE"},
		{[]string{"CVE-2018-0001", "bogus"}, "bogus"},
	} {
		s := &Snapshot{}
		for _, id := range tc.ids {
			s.Entries = append(s.Entries, &Entry{ID: id})
		}
		err := s.CheckOrder()
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !contains(err.Error(), tc.want)) {
			t.Errorf("CheckOrder(%v) = %v, want %q", tc.ids, err, tc.want)
		}
	}
}

func TestSnapshotVendorStats(t *testing.T) {
	mk := func(id, vendor, product string) *Entry {
		return &Entry{ID: id, CPEs: []cpe.Name{cpe.NewName(cpe.PartApplication, vendor, product, "1")}}
	}
	s := &Snapshot{Entries: []*Entry{
		mk("CVE-2001-0001", "microsoft", "ie"),
		mk("CVE-2001-0002", "microsoft", "word"),
		mk("CVE-2001-0003", "oracle", "database"),
	}}
	counts := s.VendorCVECount()
	if counts["microsoft"] != 2 || counts["oracle"] != 1 {
		t.Errorf("VendorCVECount = %v", counts)
	}
	if s.DistinctVendors() != 2 {
		t.Errorf("DistinctVendors = %d", s.DistinctVendors())
	}
	if s.DistinctProducts() != 3 {
		t.Errorf("DistinctProducts = %d", s.DistinctProducts())
	}
	prods := s.VendorProducts()
	if len(prods["microsoft"]) != 2 {
		t.Errorf("VendorProducts[microsoft] = %v", prods["microsoft"])
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}
