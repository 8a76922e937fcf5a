package cve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"nvdclean/internal/cvss"
)

// testItem is one item that uses every key of the item layout. Its
// configuration node lists its children before its own matches, as the
// published NVD feeds do, and one of its matches is not vulnerable.
const testItem = `{"cve":{"CVE_data_meta":{"ID":"CVE-2014-0160","ASSIGNER":"cve@mitre.org"},` +
	`"problemtype":{"problemtype_data":[{"description":[{"lang":"en","value":"CWE-119"},{"lang":"en","value":"NVD-CWE-Other","source":"nvd"}]}]},` +
	`"references":{"reference_data":[{"url":"http://a.example/1","name":"1","tags":["Patch","Vendor Advisory"]},{"url":"http://b.example/2","name":"2","tags":[]},{"url":"http://c.example/3"}]},` +
	`"description":{"description_data":[{"lang":"en","value":"Heartbleed"},{"lang":"en","value":"evaluator: CWE-20","source":"evaluator"}]}},` +
	`"configurations":{"CVE_data_version":"4.0","nodes":[{"operator":"AND","children":[{"operator":"OR","cpe_match":[{"vulnerable":true,"cpe23Uri":"cpe:2.3:a:child:one:*:*:*:*:*:*:*:*"}]}],` +
	`"cpe_match":[{"vulnerable":true,"cpe23Uri":"cpe:2.3:a:parent:own:1.0:*:*:*:*:*:*:*"},{"vulnerable":false,"cpe23Uri":"cpe:2.3:a:not:vulnerable:*:*:*:*:*:*:*:*"}]},` +
	`{"operator":"OR","cpe_match":[{"vulnerable":true,"cpe23Uri":"cpe:/o:legacy:uri:2.2"}]}]},` +
	`"impact":{"baseMetricV3":{"cvssV3":{"version":"3.0","vectorString":"CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:N/A:N","baseScore":7.5,"baseSeverity":"HIGH"}},` +
	`"baseMetricV2":{"cvssV2":{"version":"2.0","vectorString":"AV:N/AC:L/Au:N/C:P/I:N/A:N","baseScore":5.0},"severity":"MEDIUM"},` +
	`"backportedV3":{"baseScore":7.1,"baseSeverity":"HIGH"}},` +
	`"publishedDate":"2014-04-07T22:55Z","lastModifiedDate":"2018-05-11T01:29Z"}`

// testReordered is testItem with the keys of every object in reverse
// order.
const testReordered = `{"lastModifiedDate":"2018-05-11T01:29Z","publishedDate":"2014-04-07T22:55Z",` +
	`"impact":{"backportedV3":{"baseSeverity":"HIGH","baseScore":7.1},"baseMetricV2":{"severity":"MEDIUM","cvssV2":{"baseScore":5.0,"vectorString":"AV:N/AC:L/Au:N/C:P/I:N/A:N","version":"2.0"}},` +
	`"baseMetricV3":{"cvssV3":{"baseSeverity":"HIGH","baseScore":7.5,"vectorString":"CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:N/A:N","version":"3.0"}}},` +
	`"configurations":{"nodes":[{"cpe_match":[{"cpe23Uri":"cpe:2.3:a:parent:own:1.0:*:*:*:*:*:*:*","vulnerable":true},{"cpe23Uri":"cpe:2.3:a:not:vulnerable:*:*:*:*:*:*:*:*","vulnerable":false}],` +
	`"children":[{"cpe_match":[{"cpe23Uri":"cpe:2.3:a:child:one:*:*:*:*:*:*:*:*","vulnerable":true}],"operator":"OR"}],"operator":"AND"},` +
	`{"cpe_match":[{"cpe23Uri":"cpe:/o:legacy:uri:2.2","vulnerable":true}],"operator":"OR"}],"CVE_data_version":"4.0"},` +
	`"cve":{"description":{"description_data":[{"value":"Heartbleed","lang":"en"},{"source":"evaluator","value":"evaluator: CWE-20","lang":"en"}]},` +
	`"references":{"reference_data":[{"tags":["Patch","Vendor Advisory"],"name":"1","url":"http://a.example/1"},{"tags":[],"name":"2","url":"http://b.example/2"},{"url":"http://c.example/3"}]},` +
	`"problemtype":{"problemtype_data":[{"description":[{"value":"CWE-119","lang":"en"},{"source":"nvd","value":"NVD-CWE-Other","lang":"en"}]}]},` +
	`"CVE_data_meta":{"ASSIGNER":"cve@mitre.org","ID":"CVE-2014-0160"}}}`

// feedDoc returns a feed document listing items.
func feedDoc(items ...string) string {
	return `{"CVE_data_type":"CVE","CVE_data_format":"MITRE","CVE_data_version":"4.0","CVE_data_numberOfCVEs":"1",` +
		`"CVE_data_timestamp":"2018-05-21T07:00Z","CVE_Items":[` + strings.Join(items, ",") + `]}`
}

// itemWith returns testItem with each old string replaced by its new
// one, as strings.NewReplacer pairs them.
func itemWith(oldnew ...string) string {
	return strings.NewReplacer(oldnew...).Replace(testItem)
}

// deltaDoc returns a log record adding testItem and removing removed,
// a JSON value.
func deltaDoc(kindKey, removed string) string {
	return `{"` + kindKey + `":"cve-delta","capturedAt":"2018-05-22T00:00Z","added":[` + testItem + `],` +
		`"modified":[` + itemWith("CVE-2014-0160", "CVE-2013-0001") + `],"removed":` + removed + `}`
}

// nested returns a document whose deepest list is depth levels down,
// counting the document's own object: the lists sit under the
// unknown key "x" of a feed without items.
func nested(depth int) string {
	return `{"CVE_Items":[],"x":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `}`
}

// nestedNodes returns a feed with one item whose configuration nodes
// nest through "children" until the document is depth levels deep.
func nestedNodes(depth int) string {
	// The document, its item list, the item, "configurations" and
	// "nodes" are five levels, and each node with its children two
	// more. The innermost node, its match list and the match are three.
	n := (depth - 8) / 2
	inner := `{"cpe_match":[{"vulnerable":true,"cpe23Uri":"cpe:2.3:a:deep:node:*:*:*:*:*:*:*:*"}]}`
	if depth%2 == 1 {
		n = (depth - 7) / 2
		inner = `{"cpe_match":[]}`
	}
	return `{"CVE_Items":[{"cve":{"CVE_data_meta":{"ID":"CVE-2014-0001"}},"publishedDate":"2014-04-07T22:55Z",` +
		`"configurations":{"nodes":[` + strings.Repeat(`{"children":[`, n) + inner + strings.Repeat(`]}`, n) + `]}}]}`
}

// maxDepth returns how deeply objects and lists nest in a valid JSON
// document.
func maxDepth(doc string) int {
	dec := json.NewDecoder(strings.NewReader(doc))
	depth, deepest := 0, 0
	for {
		tok, err := dec.Token()
		if err != nil {
			return deepest
		}
		switch tok {
		case json.Delim('{'), json.Delim('['):
			depth++
			deepest = max(deepest, depth)
		case json.Delim('}'), json.Delim(']'):
			depth--
		}
	}
}

// decodingCase is a hand-written document for the decoder and its
// reference. strict marks a document only the decoder rejects, under
// one of its two stricter rules.
type decodingCase struct {
	name   string
	doc    string
	strict bool
}

// escapes is JSON string content holding every escape class, surrogate
// pairs and lone surrogates, and raw multibyte, invalid and
// control-adjacent bytes.
const escapes = `q\"b\\s\/\b\f\n\r\t\u00e9é\u0000\u001f \u007f ` +
	`\uD83D\uDE00 \uD83D \uDE00 \uD83Dx \uD83DA \uD83D\uD83D\uDE00 \uDE00\uD83D ` +
	"é日本語\U0001F600\x7f\xff\x80\xc3 \xe6\x97 \xed\xa0\x80 \xc0\xaf \xef\xbf\xbd"

// decodingCases returns the hand-written documents of
// TestFeedDecodingMatchesReference, which FuzzReadFeed also takes as
// seeds.
func decodingCases() []decodingCase {
	cs := []decodingCase{
		{"full item", feedDoc(testItem), false},
		{"reordered keys", feedDoc(testReordered), false},
		{"items out of ID order", feedDoc(itemWith("CVE-2014-0160", "CVE-2015-0002"), testItem, itemWith("CVE-2014-0160", "CVE-2014-0002")), false},
		{"repeated ID", feedDoc(testItem, testItem), false},
		{"respelled ID", feedDoc(testItem, itemWith("CVE-2014-0160", "CVE-2014-00160")), false},
		{"no items", feedDoc(), false},
		{"null item", feedDoc("null"), false},
		{"empty item", feedDoc("{}"), false},
		{"number item", feedDoc("1"), false},
		{"top-level null", "null", false},
		{"top-level null with whitespace", " \n null \t", false},
		{"top-level list", "[]", false},
		{"top-level string", `"feed"`, false},
		{"top-level number", "1", false},
		{"empty document", "", false},
		{"whitespace only", " \n\t\r", false},
		{"byte order mark", "\ufeff" + feedDoc(testItem), false},
		{"trailing whitespace", feedDoc(testItem) + " \n\t\r \n", false},
		{"two documents", feedDoc(testItem) + feedDoc(itemWith("CVE-2014-0160", "CVE-2014-0161")), false},
		{"trailing junk", feedDoc(testItem) + " x", false},
		{"truncated", feedDoc(testItem)[:200], false},
		{"unknown keys", feedDoc(itemWith(
			`"cve":{`, `"cve":{"x":{"a":[1,-2.5e-3,{"b":null,"c":[true,false]}],"d":"é\n"},`,
			`"cpe_match":[`, `"versionEndExcluding":"1.0","cpe_name":[],"cpe_match":[`,
			`"baseScore":7.5,`, `"baseScore":7.5,"exploitabilityScore":1e400,"impactScore":3.6,`,
			`"publishedDate":`, `"x":1,"x":2,"publishedDate":`,
		)), false},
		{"mixed-case keys", feedDoc(itemWith(
			`"cve":`, `"CVE":`, `"ID":`, `"id":`, `"publishedDate":`, `"PUBLISHEDdate":`,
			`"cpe23Uri":`, `"CPE23URI":`, `"vectorString":`, `"VectorString":`, `"tags":`, `"Tags":`,
		)), false},
		{"escaped keys", feedDoc(itemWith(
			`"cve":`, `"\u0063ve":`, `"ID":`, `"I\u0044":`, `"reference_data":`, `"reference\u005fdata":`,
			`"vulnerable":true`, `"vulnerabl\u0065":true`,
		)), false},
		{"folded keys", feedDoc(itemWith(`"source":`, "\"\u017fource\":", `"tags":`, `"tag\u017f":`, `"ID":`, `"\u0069d":`)), false},
		{"dotless i is no i", feedDoc(itemWith(`"ID":`, `"\u0131D":`)), false},
		{"escaped values", feedDoc(itemWith(
			`"CVE-2014-0160"`, `"CVE\u002d2014\u002d0160"`,
			`"2014-04-07T22:55Z"`, `"2014-04-07T22\u003a55Z"`,
			`"AV:N/AC:L/Au:N/C:P/I:N/A:N"`, `"AV:N\/AC:L/Au:N/C:P/I:N/A:N"`,
			`"cpe:2.3:a:parent:own`, `"cpe:2.3:a:parent:\u006fwn`,
			`"CWE-119"`, `"CWE\u002d119"`,
		)), false},
		{"every escape", feedDoc(itemWith(`"Heartbleed"`, `"`+escapes+`"`, `"http://a.example/1"`, `"`+escapes+`"`,
			`"Patch"`, `"`+escapes+`"`, `"source":"evaluator"`, `"source":"`+escapes+`"`)), false},
		{"escaped CPE attributes", feedDoc(itemWith(`child:one:*`, `ch\\:ild:o\\*ne\\?:\\\\`)), false},
		{"CPE with a trailing backslash", feedDoc(itemWith(`child:one:*:*:*:*:*:*:*:*`, `child:one:*:*:*:*:*:*:*:\\`)), false},
		{"malformed CPEs", feedDoc(itemWith(`cpe:2.3:a:child:one:*:*:*:*:*:*:*:*`, `cpe:2.3:a:child:one:*:*:*:*:*:*:*:*:*`,
			`cpe:2.3:a:parent:own:1.0`, `cpe:2.3:x:parent:own:1.0`, `cpe:/o:legacy:uri:2.2`, `cpe:/o::uri`)), false},
		{"CPEs with empty attributes", feedDoc(itemWith(`cpe:2.3:a:child:one:*:*:*:*:*:*:*:*`, `cpe:2.3:a:child:one::*:*:*:*:*:*:`,
			`cpe:2.3:a:parent:own:1.0:*:*:*:*:*:*:*`, `cpe:2.3:a:parent:own:1.0:*:*:*:*:*:*: `)), false},
		{"malformed CWEs", feedDoc(itemWith(`"CWE-119"`, `"CWE-0"`, `"NVD-CWE-Other"`, `" CWE-79 "`)), false},
		{"more CWE spellings", feedDoc(itemWith(`"CWE-119"`, `"cwe-79"`, `"NVD-CWE-Other"`, `"NVD-CWE-noinfo"`)), false},
		{"empty CWE", feedDoc(itemWith(`"CWE-119"`, `""`)), false},
		{"vulnerable null", feedDoc(itemWith(`"vulnerable":true`, `"vulnerable":null`)), false},
		{"vulnerable string", feedDoc(itemWith(`"vulnerable":true`, `"vulnerable":"true"`)), false},
		{"vulnerable number", feedDoc(itemWith(`"vulnerable":false`, `"vulnerable":0`)), false},
		{"no cpe23Uri", feedDoc(itemWith(`"vulnerable":true,"cpe23Uri":"cpe:/o:legacy:uri:2.2"`, `"vulnerable":true`)), false},
		{"null match", feedDoc(itemWith(`"cpe_match":[{"vulnerable":true,"cpe23Uri":"cpe:/o`, `"cpe_match":[null,{"vulnerable":true,"cpe23Uri":"cpe:/o`)), false},
		{"null node", feedDoc(itemWith(`"nodes":[`, `"nodes":[null,`)), false},
		{"null list elements", feedDoc(itemWith(`"tags":["Patch"`, `"tags":[null,"Patch"`, `"reference_data":[`, `"reference_data":[null,`,
			`"description_data":[`, `"description_data":[null,`, `"problemtype_data":[`, `"problemtype_data":[null,`, `"description":[{"lang"`, `"description":[null,{"lang"`)), false},
		{"empty metric v2", feedDoc(itemWith(`"baseMetricV2":{"cvssV2"`, `"baseMetricV2":{},"x":{"cvssV2"`)), false},
		{"empty metric v3", feedDoc(itemWith(`"baseMetricV3":{"cvssV3"`, `"baseMetricV3":{},"x":{"cvssV3"`)), false},
		{"null cvssV2", feedDoc(itemWith(`"cvssV2":{`, `"cvssV2":null,"x":{`)), false},
		{"null vector", feedDoc(itemWith(`"vectorString":"AV:N`, `"vectorString":null,"x":"AV:N`)), false},
		{"severity without cvssV2", feedDoc(itemWith(`"cvssV2":{`, `"x":{`)), false},
		{"malformed v2 vector", feedDoc(itemWith(`"AV:N/AC:L/Au:N/C:P/I:N/A:N"`, `"AV:X"`)), false},
		{"malformed v3 vector", feedDoc(itemWith(`"CVSS:3.0/AV:N`, `"CVSS:3.0/AV:X`)), false},
		{"v2 vector forms", feedDoc(itemWith(`"AV:N/AC:L/Au:N/C:P/I:N/A:N"`, `" (AV:N/AC:L/Au:N/C:P/I:N/A:N/E:F) "`)), false},
		{"v3.1 vector", feedDoc(itemWith(`"CVSS:3.0/`, `"CVSS:3.1/`)), false},
		{"bare v3 vector", feedDoc(itemWith(`"CVSS:3.0/`, `"`)), false},
		{"null metrics", feedDoc(itemWith(`"baseMetricV3":{`, `"baseMetricV3":null,"x":{`, `"baseMetricV2":{`, `"baseMetricV2":null,"y":{`, `"backportedV3":{`, `"backportedV3":null,"z":{`)), false},
		{"empty backported score", feedDoc(itemWith(`"backportedV3":{"baseScore":7.1,`, `"backportedV3":{`)), false},
		{"null backported score", feedDoc(itemWith(`"backportedV3":{"baseScore":7.1,`, `"backportedV3":{"baseScore":null,`)), false},
		{"null impact", feedDoc(itemWith(`"impact":{`, `"impact":null,"x":{`)), false},
		{"null configurations", feedDoc(itemWith(`"configurations":{`, `"configurations":null,"x":{`)), false},
		{"no publishedDate", feedDoc(itemWith(`"publishedDate":`, `"x":`)), false},
		{"no ID", feedDoc(itemWith(`"ID":`, `"x":`)), false},
		{"empty timestamp", strings.Replace(feedDoc(testItem), `"2018-05-21T07:00Z"`, `""`, 1), false},
		{"no timestamp", strings.Replace(feedDoc(testItem), `"CVE_data_timestamp"`, `"x"`, 1), false},
		{"unknown keys only", `{"a":{"b":[]},"c":null}`, false},
		{"delta", deltaDoc("kind", `["CVE-2012-0001","CVE-2012-0002"]`), false},
		{"delta with folded kind key", deltaDoc("Kind", `[]`), false},
		{"delta with upper-case kind key", deltaDoc("KIND", `null`), false},
		{"delta with null removal", deltaDoc("kind", `[null,"CVE-2012-0001"]`), false},
		{"delta with removal object", deltaDoc("kind", `{}`), false},
		{"delta of another kind", strings.Replace(deltaDoc("kind", `[]`), `"cve-delta"`, `"cve-deltas"`, 1), false},
		{"delta without kind", deltaDoc("x", `[]`), false},
		{"delta with bad capture time", strings.Replace(deltaDoc("kind", `[]`), `"2018-05-22T00:00Z"`, `"May 22"`, 1), false},
		{"delta with null capture time", strings.Replace(deltaDoc("kind", `[]`), `"2018-05-22T00:00Z"`, `null`, 1), false},
		{"delta with null item", strings.Replace(deltaDoc("kind", `[]`), `"added":[`, `"added":[null,`, 1), false},
		{"delta with trailing data", deltaDoc("kind", `[]`) + "{}", false},
		{"empty delta", `{"kind":"cve-delta"}`, false},
		{"repeated list key", `{"CVE_Items":[],"CVE_Items":[]}`, true},
		{"repeated cve", feedDoc(itemWith(`"publishedDate":`, `"cve":{"CVE_data_meta":{"ID":"CVE-2014-0161"}},"publishedDate":`)), true},
		{"repeated reference_data", feedDoc(itemWith(`"reference_data":[`, `"reference_data":[{"url":"http://c"}],"reference_data":[`)), true},
		{"repeated key under two spellings", feedDoc(itemWith(`"ID":"CVE-2014-0160"`, `"ID":"CVE-2014-0160","id":"CVE-2014-0160"`)), true},
		{"repeated scalar", feedDoc(itemWith(`"vulnerable":true,`, `"vulnerable":false,"vulnerable":true,`)), true},
		{"repeated removal list", deltaDoc("kind", `[],"removed":["CVE-2012-0001"]`), true},
	}
	for _, depth := range []int{9999, 10000, 10001} {
		cs = append(cs,
			decodingCase{fmt.Sprintf("nested %d levels", depth), nested(depth), false},
			decodingCase{fmt.Sprintf("nodes nested %d levels", depth), nestedNodes(depth), false})
	}
	for _, date := range []string{
		"2014-04-07T5:04Z", "2014-02-30T00:00Z", "2016-02-29T00:00Z", "2015-02-29T00:00Z", "0000-01-01T00:00Z",
		"2014-13-01T00:00Z", "2014-00-10T00:00Z", "2014-04-00T00:00Z", "2014-04-07T24:00Z", "2014-04-07T23:60Z",
		"2014-04-07T22:55", "+014-04-07T22:55Z", "2014-4-07T22:55Z", "2014-04-07t22:55z", "2014-04-07T22:55Z ",
		"２０１４-04-07T22:55Z", "", "yesterday",
	} {
		for _, key := range []string{"publishedDate", "lastModifiedDate"} {
			cs = append(cs, decodingCase{key + " " + date, feedDoc(itemWith(`"`+key+`":"`, `"`+key+`":"`+date+`","x":"`)), false})
		}
		cs = append(cs,
			decodingCase{"timestamp " + date, strings.Replace(feedDoc(testItem), "2018-05-21T07:00Z", date, 1), false},
			decodingCase{"capture time " + date, strings.Replace(deltaDoc("kind", `[]`), "2018-05-22T00:00Z", date, 1), false})
	}
	for _, num := range []string{
		"1e400", "-1e400", "1e-400", "5.0e0", "-0", "0.1E+2", "0", "123456789012345678901234567890",
		"01", "1.", ".5", "+1", "1e", "1e+", "-", "--1", "NaN", "Infinity", "0x10", "1_0",
	} {
		cs = append(cs,
			decodingCase{"backported score " + num, feedDoc(itemWith(`"baseScore":7.1`, `"baseScore":`+num)), false},
			decodingCase{"v2 score " + num, feedDoc(itemWith(`"baseScore":5.0`, `"baseScore":`+num)), false},
			decodingCase{"unknown number " + num, feedDoc(itemWith(`"publishedDate":`, `"x":`+num+`,"publishedDate":`)), false})
	}
	for _, lit := range []string{"tru", "nul", "nulll", "True", "falsey", "fals", "n"} {
		cs = append(cs, decodingCase{"literal " + lit, feedDoc(itemWith(`"vulnerable":false`, `"vulnerable":`+lit)), false})
	}
	for _, s := range []string{`\x`, `\u12`, `\u12G4`, `\U0041`, "\x01", "\t", "\n", `\`, `\uD83D\u12`} {
		cs = append(cs, decodingCase{fmt.Sprintf("string %q", s), feedDoc(itemWith(`"Heartbleed"`, `"Heart`+s+`bleed"`)), false})
	}
	for _, doc := range []string{`{"CVE_Items":[}`, `{"CVE_Items":[],}`, `{"CVE_Items" []}`, `{,}`, `{"CVE_Items":[1,]}`, `{"a"}`, `{1:2}`, `{"CVE_Items":[]`, `{"CVE_Items":[]]`} {
		cs = append(cs, decodingCase{"syntax " + doc, doc, false})
	}
	// A null, and every type of value, for each occurrence of each key.
	values := []string{"null", "1", "-0.5e1", `"x"`, `"2014-04-07T22:55Z"`, "true", "[]", "{}", "[null]", `[""]`, "[{}]"}
	for _, doc := range []string{feedDoc(testItem), deltaDoc("kind", `[]`)} {
		for i := 0; ; {
			at := strings.Index(doc[i:], `":`)
			if at < 0 {
				break
			}
			end := i + at + 2
			key := doc[strings.LastIndexByte(doc[:end-2], '"')+1 : end-2]
			for _, v := range values {
				cs = append(cs, decodingCase{fmt.Sprintf("%s at %d is %s", key, end, v), doc[:end] + v + `,"` + key + `~":` + doc[end:], false})
			}
			i = end
		}
	}
	// Extra whitespace around every token.
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, []byte(feedDoc(testItem, testReordered)), " \r", "\t \n"); err != nil {
		panic(err)
	}
	cs = append(cs, decodingCase{"extra whitespace", "\n\t " + spaced.String() + "\r\n", false})
	return cs
}

// TestFeedDecodingMatchesReference is the one-pass decoder's oracle: on
// every input, ReadFeed and UnmarshalDelta return exactly what the
// reflection-based reference returns (reflect.DeepEqual, which tells
// nil from empty lists), or both fail. The decoder alone rejects a
// document that repeats a key. The inputs are the encoder test's seeded
// snapshots, compact and indented, and their log records; the same
// snapshots with valid IDs, dates and vectors, which must decode; and
// the hand-written documents of decodingCases.
func TestFeedDecodingMatchesReference(t *testing.T) {
	for _, depth := range []int{9999, 10000, 10001} {
		if got, gotNodes := maxDepth(nested(depth)), maxDepth(nestedNodes(depth)); got != depth || gotNodes != depth {
			t.Fatalf("documents built to nest %d levels nest %d and %d", depth, got, gotNodes)
		}
	}
	for _, tc := range decodingCases() {
		if strict := checkDecoding(t, tc.name, []byte(tc.doc)); (strict > 0) != tc.strict {
			t.Errorf("%s: %d readings rejected under a stricter rule, want strict %v", tc.name, strict, tc.strict)
		}
	}

	seeds := 500
	if testing.Short() {
		seeds = 50
	}
	decoded := 0
	for seed := range seeds {
		s, d := randFeed(seed)
		for v, s := range []*Snapshot{s, validFeed(s, seed)} {
			for _, indent := range []bool{false, true} {
				write := WriteFeedCompact
				if indent {
					write = WriteFeed
				}
				var buf bytes.Buffer
				if err := write(&buf, s); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("seed %d, valid %v, indent %v", seed, v == 1, indent)
				checkDecoding(t, name, buf.Bytes())
				if _, err := ReadFeed(&buf); err == nil {
					decoded++
				} else if v == 1 {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		rec, err := MarshalDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		checkDecoding(t, fmt.Sprintf("seed %d, delta", seed), rec)
		vd := &Delta{CapturedAt: time.Date(2018, 5, 22, 0, seed%60, 0, 0, time.UTC), Removed: d.Removed}
		vd.Added = validFeed(&Snapshot{Entries: d.Added}, seed).Entries
		if rec, err = MarshalDelta(vd); err != nil {
			t.Fatal(err)
		}
		checkDecoding(t, fmt.Sprintf("seed %d, valid delta", seed), rec)
		if _, err := UnmarshalDelta(rec); err != nil {
			t.Fatalf("seed %d, valid delta: %v", seed, err)
		}
	}
	t.Logf("%d of %d seeded feeds decoded", decoded, 4*seeds)
}

// randFeed returns the snapshot and delta TestFeedEncodingMatchesReference
// draws for seed.
func randFeed(seed int) (*Snapshot, *Delta) {
	r := rand.New(rand.NewSource(int64(seed)))
	s := &Snapshot{CapturedAt: randTime(r)}
	if n := r.Intn(9); n > 0 || r.Intn(2) == 0 {
		s.Entries = make([]*Entry, n)
	}
	for i := range s.Entries {
		s.Entries[i] = randEntry(r, (seed+i)%8)
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
	return s, d
}

// validFeed returns s with the fields a feed must get right made valid:
// distinct IDs in order, publication dates the feed's four-digit years
// can write, and vectors that parse. The other fields stay as drawn.
func validFeed(s *Snapshot, seed int) *Snapshot {
	out := &Snapshot{CapturedAt: s.CapturedAt}
	for i, e := range s.Entries {
		c := *e
		c.ID = FormatID(2000+i, seed+1)
		c.Published = time.Date(1990+i, time.Month(1+seed%12), 1+seed%28, seed%24, i, 0, 0, time.UTC)
		if c.V2 != nil && !c.V2.Valid() {
			c.V2 = &cvss.AllV2Vectors()[seed%len(cvss.AllV2Vectors())]
		}
		if c.V3 != nil && !c.V3.Valid() {
			c.V3 = &cvss.AllV3Vectors()[seed%len(cvss.AllV3Vectors())]
		}
		out.Entries = append(out.Entries, &c)
	}
	return out
}

// checkDecoding reads data as a feed with ReadFeed and as a log record
// with UnmarshalDelta, and reads it again with each one's reference. It
// fails t unless the two agree: both fail, or both succeed with
// DeepEqual results, or the decoder alone fails under one of its two
// stricter rules, which checkDecoding confirms from data itself: it is
// not valid JSON (data after the document), or one of its objects gives
// a field of its layout twice. A feed the decoder accepts must also
// read back, once re-encoded with WriteFeedCompact, as itself
// (checkRoundTrip). checkDecoding returns how many of the two readings
// only the decoder rejected.
func checkDecoding(t testing.TB, name string, data []byte) (strict int) {
	t.Helper()
	feed, err := ReadFeed(bytes.NewReader(data))
	refFeed, refErr := readFeedReference(data)
	strict += compareDecoding(t, name+", as a feed", data, reflect.TypeFor[feedJSON](), feed, refFeed, err, refErr)
	if err == nil {
		checkRoundTrip(t, name, feed)
	}
	dl, err := UnmarshalDelta(data)
	refDelta, refErr := unmarshalDeltaReference(data)
	strict += compareDecoding(t, name+", as a record", data, reflect.TypeFor[deltaJSON](), dl, refDelta, err, refErr)
	return strict
}

func compareDecoding(t testing.TB, name string, data []byte, layout reflect.Type, got, want any, err, refErr error) int {
	t.Helper()
	switch {
	case err == nil && refErr == nil:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoder and reference disagree:\n got  %s\n want %s", name, dump(got), dump(want))
		}
	case err == nil:
		t.Fatalf("%s: decoder read what the reference rejects (%v): %s", name, refErr, dump(got))
	case refErr == nil:
		if !json.Valid(data) || repeatsKey(data, layout) {
			return 1
		}
		t.Fatalf("%s: decoder rejected what the reference reads: %v", name, err)
	}
	return 0
}

// dump renders a decoded value for a failure message.
func dump(v any) string {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err.Error()
	}
	return string(b)
}

// repeatsKey reports whether data, walked with json.Decoder.Token
// alongside layout, holds an object that names one field of its layout
// struct under two keys, matched as encoding/json matches keys.
func repeatsKey(data []byte, layout reflect.Type) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	var walk func(t reflect.Type) bool
	walk = func(t reflect.Type) bool {
		for t != nil && t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		repeated := false
		switch tok {
		case json.Delim('{'):
			seen := map[int]bool{}
			for dec.More() {
				key, err := dec.Token()
				if err != nil {
					return repeated
				}
				var field reflect.Type
				if t != nil && t.Kind() == reflect.Struct {
					if i := fieldIndex(t, key.(string)); i >= 0 {
						repeated = repeated || seen[i]
						seen[i] = true
						field = t.Field(i).Type
					}
				}
				repeated = walk(field) || repeated
			}
			dec.Token()
		case json.Delim('['):
			var elem reflect.Type
			if t != nil && t.Kind() == reflect.Slice {
				elem = t.Elem()
			}
			for dec.More() {
				repeated = walk(elem) || repeated
			}
			dec.Token()
		}
		return repeated
	}
	return walk(layout)
}

// fieldIndex returns the index of t's field whose JSON name key names,
// or -1.
func fieldIndex(t reflect.Type, key string) int {
	for i := range t.NumField() {
		if name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ","); bytes.EqualFold([]byte(name), []byte(key)) {
			return i
		}
	}
	return -1
}

// checkRoundTrip re-encodes a decoded feed with WriteFeedCompact and
// requires it to read back as the same snapshot, up to the one thing
// the encoder normalizes: it leaves an empty tag list out.
func checkRoundTrip(t testing.TB, name string, s *Snapshot) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFeedCompact(&buf, s); err != nil {
		t.Fatalf("%s: re-encoding: %v", name, err)
	}
	back, err := ReadFeed(&buf)
	if err != nil {
		t.Fatalf("%s: reading the re-encoded feed: %v", name, err)
	}
	want := &Snapshot{CapturedAt: s.CapturedAt, Entries: make([]*Entry, 0, len(s.Entries))}
	for _, e := range s.Entries {
		c := *e
		c.References = nil
		for _, r := range e.References {
			if len(r.Tags) == 0 {
				r.Tags = nil
			}
			c.References = append(c.References, r)
		}
		want.Entries = append(want.Entries, &c)
	}
	if len(want.Entries) == 0 {
		want.Entries = nil
	}
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("%s: re-encoded feed reads back differently:\n got  %s\n want %s", name, dump(back), dump(want))
	}
}
