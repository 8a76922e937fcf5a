package cve

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"nvdclean/internal/cpe"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
)

// maxNesting is how deeply objects and lists may nest in a document,
// counted as encoding/json's scanner counts it: the document's own
// object is level 1.
const maxNesting = 10000

// The keys of each object of the feed layout. A key in a document
// names one of these as encoding/json matches a key to a struct field
// (matchKey); any other key's value is checked and skipped.
var (
	feedKeys        = []string{"CVE_data_type", "CVE_data_format", "CVE_data_version", "CVE_data_numberOfCVEs", "CVE_data_timestamp", "CVE_Items"}
	deltaKeys       = []string{"kind", "capturedAt", "added", "modified", "removed"}
	itemKeys        = []string{"cve", "configurations", "impact", "publishedDate", "lastModifiedDate"}
	cveKeys         = []string{"CVE_data_meta", "problemtype", "references", "description"}
	metaKeys        = []string{"ID", "ASSIGNER"}
	problemKeys     = []string{"problemtype_data"}
	problemDataKeys = []string{"description"}
	langValueKeys   = []string{"lang", "value", "source"}
	refsKeys        = []string{"reference_data"}
	refKeys         = []string{"url", "name", "tags"}
	descListKeys    = []string{"description_data"}
	configsKeys     = []string{"CVE_data_version", "nodes"}
	nodeKeys        = []string{"operator", "cpe_match", "children"}
	cpeMatchKeys    = []string{"vulnerable", "cpe23Uri"}
	impactKeys      = []string{"baseMetricV3", "baseMetricV2", "backportedV3"}
	metricV3Keys    = []string{"cvssV3"}
	metricV2Keys    = []string{"cvssV2", "severity"}
	cvssV3Keys      = []string{"version", "vectorString", "baseScore", "baseSeverity"}
	cvssV2Keys      = cvssV3Keys[:3] // no baseSeverity
	backportedKeys  = []string{"baseScore", "baseSeverity"}
)

// decoder reads the feed layout in one pass over a document, straight
// into entries. It accepts what encoding/json accepts for the layout's
// types (see json_test.go) and converts as decodeItem does there, with
// two stricter rules: nothing but whitespace may follow the document,
// and no object may give a known key twice.
//
// Every string it returns is its own allocation, never a slice of the
// document, so a decoded snapshot does not keep the document alive. The
// one sharing: a CPE name's attributes are substrings of that name's
// own URI string (cpe.Parse).
type decoder struct {
	data  []byte
	pos   int
	depth int
	// buf holds the text of the last string str had to unescape.
	buf []byte

	// One item's lists, copied at the item's end into its entry at
	// their exact length.
	cwes  []cwe.ID
	refs  []Reference
	descs []Description
	cpes  []cpe.Name
	tags  []string // one reference's tags
	uri   []byte   // one cpe_match's cpe23Uri

	// Parses of the short strings a feed repeats over its entries.
	cweIDs    memo[cwe.ID]
	vectorsV2 memo[cvss.VectorV2]
	vectorsV3 memo[cvss.VectorV3]
}

// memo caches the parse of a string by its text. Only successful
// parses are kept.
type memo[V any] map[string]V

func (m *memo[V]) parse(b []byte, parse func(string) (V, error)) (V, error) {
	if v, ok := (*m)[string(b)]; ok {
		return v, nil
	}
	s := string(b)
	v, err := parse(s)
	if err == nil {
		if *m == nil {
			*m = make(memo[V])
		}
		(*m)[s] = v
	}
	return v, err
}

// document reads all of d.data as one value with read: only whitespace
// may follow it.
func (d *decoder) document(read func() error) error {
	if err := read(); err != nil {
		return err
	}
	if d.next(); d.pos < len(d.data) {
		return fmt.Errorf("data after the document at offset %d", d.pos)
	}
	return nil
}

// feed reads a feed document into s.
func (d *decoder) feed(s *Snapshot) error {
	return d.object(feedKeys, func(key string) error {
		switch key {
		case "CVE_data_timestamp":
			b, err := d.text()
			if len(b) > 0 {
				if ts, perr := parseFeedTime(b); perr == nil {
					s.CapturedAt = ts
				}
			}
			return err
		case "CVE_Items":
			return d.items(&s.Entries, "item")
		}
		_, err := d.text() // the type, format, version and count
		return err
	})
}

// delta reads a log record into dl and returns its kind.
func (d *decoder) delta(dl *Delta) (kind string, err error) {
	err = d.object(deltaKeys, func(key string) error {
		switch key {
		case "kind":
			b, err := d.text()
			kind = string(b)
			return err
		case "capturedAt":
			b, err := d.text()
			if err != nil || len(b) == 0 {
				return err
			}
			if dl.CapturedAt, err = parseFeedTime(b); err != nil {
				return fmt.Errorf("delta capture time: %w", err)
			}
			return nil
		case "added":
			return d.items(&dl.Added, "added")
		case "modified":
			return d.items(&dl.Modified, "modified")
		}
		list, err := d.array(func() error { // "removed"
			b, err := d.text()
			dl.Removed = append(dl.Removed, string(b))
			return err
		})
		if list && dl.Removed == nil {
			dl.Removed = []string{}
		}
		return err
	})
	return kind, err
}

// items reads a list of items, appending their entries to es; what
// names an item in an error.
func (d *decoder) items(es *[]*Entry, what string) error {
	_, err := d.array(func() error {
		e, err := d.item()
		if err != nil {
			return fmt.Errorf("%s %d (%s): %w", what, len(*es), e.ID, err)
		}
		*es = append(*es, e)
		return nil
	})
	return err
}

// item reads one item into a new entry. As the feed rules go, a
// malformed CWE string or CPE URI is skipped, a malformed ID, CVSS
// vector or publishedDate is an error, and a malformed lastModifiedDate
// leaves LastModified zero.
func (d *decoder) item() (*Entry, error) {
	e := &Entry{}
	d.cwes, d.refs, d.descs, d.cpes = d.cwes[:0], d.refs[:0], d.descs[:0], d.cpes[:0]
	published := false
	var pubErr error
	err := d.object(itemKeys, func(key string) error {
		switch key {
		case "cve":
			return d.cve(e)
		case "configurations":
			return d.object(configsKeys, func(key string) error {
				if key == "nodes" {
					_, err := d.array(d.node)
					return err
				}
				_, err := d.text()
				return err
			})
		case "impact":
			return d.impact(e)
		}
		b, err := d.text()
		if err != nil {
			return err
		}
		if key == "publishedDate" {
			e.Published, pubErr = parseFeedTime(b)
			published = true
		} else if len(b) > 0 {
			e.LastModified, _ = parseFeedTime(b)
		}
		return nil
	})
	if err != nil {
		return e, err
	}
	if _, _, err := SplitID(e.ID); err != nil {
		return e, err
	}
	if !published {
		_, pubErr = parseFeedTime(nil)
	}
	if pubErr != nil {
		return e, fmt.Errorf("published date: %w", pubErr)
	}
	e.CWEs, e.References, e.Descriptions, e.CPEs = own(d.cwes), own(d.refs), own(d.descs), own(d.cpes)
	return e, nil
}

// own returns a copy of s at its exact length, or nil for an empty s:
// an entry's lists are nil when the feed lists nothing.
func own[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

func (d *decoder) cve(e *Entry) error {
	return d.object(cveKeys, func(key string) error {
		switch key {
		case "CVE_data_meta":
			return d.object(metaKeys, func(key string) error {
				b, err := d.text()
				if key == "ID" {
					e.ID = string(b)
				}
				return err
			})
		case "problemtype":
			return d.object(problemKeys, func(string) error {
				_, err := d.array(func() error {
					return d.object(problemDataKeys, func(string) error {
						_, err := d.array(d.cweValue)
						return err
					})
				})
				return err
			})
		case "references":
			return d.object(refsKeys, func(string) error {
				_, err := d.array(d.reference)
				return err
			})
		}
		return d.object(descListKeys, func(string) error { // "description"
			_, err := d.array(d.description)
			return err
		})
	})
}

// cweValue reads one problem type description, adding its CWE to the
// item's unless it is malformed or empty.
func (d *decoder) cweValue() error {
	return d.object(langValueKeys, func(key string) error {
		b, err := d.text()
		if err == nil && key == "value" {
			if id, perr := d.cweIDs.parse(b, cwe.Parse); perr == nil && id != cwe.Unassigned {
				d.cwes = append(d.cwes, id)
			}
		}
		return err
	})
}

func (d *decoder) reference() error {
	var r Reference
	err := d.object(refKeys, func(key string) error {
		if key != "tags" {
			b, err := d.text()
			if key == "url" {
				r.URL = string(b)
			}
			return err
		}
		d.tags = d.tags[:0]
		list, err := d.array(func() error {
			b, err := d.text()
			d.tags = append(d.tags, string(b))
			return err
		})
		if list {
			r.Tags = append(make([]string, 0, len(d.tags)), d.tags...)
		}
		return err
	})
	d.refs = append(d.refs, r)
	return err
}

func (d *decoder) description() error {
	var desc Description
	err := d.object(langValueKeys, func(key string) error {
		b, err := d.text()
		switch key {
		case "value":
			desc.Value = string(b)
		case "source":
			desc.Source = string(b)
		}
		return err
	})
	d.descs = append(d.descs, desc)
	return err
}

// node reads a configuration node. Its vulnerable matches' CPE names
// come before its children's, whichever of its keys comes first.
func (d *decoder) node() error {
	start := len(d.cpes)
	return d.object(nodeKeys, func(key string) error {
		switch key {
		case "cpe_match":
			mid := len(d.cpes)
			_, err := d.array(d.cpeMatch)
			if mid > start {
				// Move this node's names in front of its children's.
				own := d.cpes[start:]
				slices.Reverse(own[:mid-start])
				slices.Reverse(own[mid-start:])
				slices.Reverse(own)
			}
			return err
		case "children":
			_, err := d.array(d.node)
			return err
		}
		_, err := d.text() // "operator"
		return err
	})
}

func (d *decoder) cpeMatch() error {
	vulnerable := false
	d.uri = d.uri[:0]
	err := d.object(cpeMatchKeys, func(key string) error {
		if key == "vulnerable" {
			var err error
			vulnerable, err = d.bool()
			return err
		}
		b, err := d.text()
		d.uri = append(d.uri, b...)
		return err
	})
	if err != nil || !vulnerable {
		return err
	}
	if n, perr := cpe.Parse(string(d.uri)); perr == nil {
		d.cpes = append(d.cpes, n)
	}
	return nil
}

func (d *decoder) impact(e *Entry) error {
	return d.object(impactKeys, func(key string) error {
		if d.next() == 'n' {
			return d.literal("null") // a null metric is no metric
		}
		var err error
		switch key {
		case "baseMetricV3":
			e.V3, err = vector(d, "v3", metricV3Keys, cvssV3Keys, &d.vectorsV3, cvss.ParseV3)
		case "baseMetricV2":
			e.V2, err = vector(d, "v2", metricV2Keys, cvssV2Keys, &d.vectorsV2, cvss.ParseV2)
		default: // "backportedV3"
			var score float64
			err = d.object(backportedKeys, func(key string) error {
				if key == "baseScore" {
					var err error
					score, err = d.float()
					return err
				}
				_, err := d.text()
				return err
			})
			e.PV3 = &score
		}
		return err
	})
}

// vector reads a baseMetricV2 or baseMetricV3 object, whose keys are
// metricKeys with the cvss object first, and parses its vectorString
// with parse; a missing one parses as "", which is an error.
func vector[V any](d *decoder, version string, metricKeys, cvssKeys []string, m *memo[V], parse func(string) (V, error)) (*V, error) {
	var v V
	var verr error
	read := false
	err := d.object(metricKeys, func(key string) error {
		if key != metricKeys[0] {
			_, err := d.text()
			return err
		}
		return d.object(cvssKeys, func(key string) error {
			switch key {
			case "vectorString":
				b, err := d.text()
				if err != nil {
					return err
				}
				v, verr = m.parse(b, parse)
				read = true
				return nil
			case "baseScore":
				_, err := d.float()
				return err
			}
			_, err := d.text()
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	if !read {
		v, verr = parse("")
	}
	if verr != nil {
		return nil, fmt.Errorf("%s vector: %w", version, verr)
	}
	return &v, nil
}

// parseFeedTime parses a feedTime timestamp as time.Parse does, without
// making a string of the form the feeds write.
func parseFeedTime(b []byte) (time.Time, error) {
	if len(b) == len(feedTime) && b[4] == '-' && b[7] == '-' && b[10] == 'T' && b[13] == ':' && b[16] == 'Z' {
		year, ok1 := digitsValue(b[0:4])
		month, ok2 := digitsValue(b[5:7])
		day, ok3 := digitsValue(b[8:10])
		hour, ok4 := digitsValue(b[11:13])
		minute, ok5 := digitsValue(b[14:16])
		if ok1 && ok2 && ok3 && ok4 && ok5 && 1 <= month && month <= 12 && hour < 24 && minute < 60 {
			// time.Date moves a day past its month's end, or day 0, into
			// another month: time.Parse rejects those below.
			if t := time.Date(year, time.Month(month), day, hour, minute, 0, 0, time.UTC); t.Day() == day {
				return t, nil
			}
		}
	}
	return time.Parse(feedTime, string(b))
}

// digitsValue returns the value of the decimal digits b, and false if b
// holds anything else.
func digitsValue(b []byte) (int, bool) {
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// next skips whitespace and returns the byte the next token starts
// with, or 0 at the end of the document.
func (d *decoder) next() byte {
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// object reads an object whose known keys are keys, calling fn with the
// key each known value belongs to; it checks and skips every other
// value. A null reads as an object with no keys. A known key given
// twice is an error: encoding/json decodes the second value into the
// first, which a one-pass reader cannot mirror and no feed does.
func (d *decoder) object(keys []string, fn func(key string) error) error {
	switch d.next() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.wrongType("an object")
	}
	if err := d.open(); err != nil {
		return err
	}
	if d.next() == '}' {
		d.close()
		return nil
	}
	var seen uint64
	for {
		if d.next() != '"' {
			return d.syntaxError("an object key")
		}
		name, err := d.str()
		if err != nil {
			return err
		}
		k := matchKey(keys, name)
		if d.next() != ':' {
			return d.syntaxError("':' after an object key")
		}
		d.pos++
		switch {
		case k < 0:
			err = d.skip()
		case seen&(1<<k) != 0:
			return fmt.Errorf("key %q given twice in one object at offset %d", keys[k], d.pos)
		default:
			seen |= 1 << k
			err = fn(keys[k])
		}
		if err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.pos++
		case '}':
			d.close()
			return nil
		default:
			return d.syntaxError("',' or '}' after an object value")
		}
	}
}

// array reads a list, calling fn to read each element, and reports
// whether there was one: a null reads as no list.
func (d *decoder) array(fn func() error) (bool, error) {
	switch d.next() {
	case 'n':
		return false, d.literal("null")
	case '[':
	default:
		return false, d.wrongType("a list")
	}
	if err := d.open(); err != nil {
		return true, err
	}
	if d.next() == ']' {
		d.close()
		return true, nil
	}
	for {
		if err := fn(); err != nil {
			return true, err
		}
		switch d.next() {
		case ',':
			d.pos++
		case ']':
			d.close()
			return true, nil
		default:
			return true, d.syntaxError("',' or ']' after a list element")
		}
	}
}

// open enters the object or list that opens at d.pos.
func (d *decoder) open() error {
	if d.depth++; d.depth > maxNesting {
		return fmt.Errorf("nesting deeper than %d at offset %d", maxNesting, d.pos)
	}
	d.pos++
	return nil
}

// close leaves the object or list that closes at d.pos.
func (d *decoder) close() {
	d.depth--
	d.pos++
}

// skip checks and skips a value no key of the layout names.
func (d *decoder) skip() error {
	switch c := d.next(); {
	case c == '{':
		return d.object(nil, nil)
	case c == '[':
		_, err := d.array(d.skip)
		return err
	case c == '"':
		_, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	return d.syntaxError("a value")
}

// text reads a string, or a null, which every string of the layout
// reads as the empty string. The text is valid until the next string.
func (d *decoder) text() ([]byte, error) {
	switch d.next() {
	case '"':
		return d.str()
	case 'n':
		return nil, d.literal("null")
	}
	return nil, d.wrongType("a string")
}

// float reads a number, or a null as 0. A number beyond float64's range
// is an error, as it is to encoding/json.
func (d *decoder) float() (float64, error) {
	switch c := d.next(); {
	case c == 'n':
		return 0, d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		start := d.pos
		b, err := d.number()
		if err != nil {
			return 0, err
		}
		f, err := strconv.ParseFloat(string(b), 64)
		if err != nil {
			return 0, fmt.Errorf("number %s at offset %d overflows a float64", b, start)
		}
		return f, nil
	}
	return 0, d.wrongType("a number")
}

// bool reads true or false, or a null as false.
func (d *decoder) bool() (bool, error) {
	switch d.next() {
	case 't':
		return true, d.literal("true")
	case 'f':
		return false, d.literal("false")
	case 'n':
		return false, d.literal("null")
	}
	return false, d.wrongType("a bool")
}

// literal reads the word true, false or null at d.pos.
func (d *decoder) literal(word string) error {
	if end := d.pos + len(word); end <= len(d.data) && string(d.data[d.pos:end]) == word {
		d.pos = end
		return nil
	}
	return d.syntaxError(word)
}

// number reads a number at d.pos, checked against JSON's grammar, and
// returns its text.
func (d *decoder) number() ([]byte, error) {
	start := d.pos
	if d.at('-') {
		d.pos++
	}
	switch {
	case d.at('0'):
		d.pos++
	case !d.digits():
		return nil, d.syntaxError("a digit")
	}
	if d.at('.') {
		d.pos++
		if !d.digits() {
			return nil, d.syntaxError("a digit after '.'")
		}
	}
	if d.at('e') || d.at('E') {
		d.pos++
		if d.at('+') || d.at('-') {
			d.pos++
		}
		if !d.digits() {
			return nil, d.syntaxError("a digit in an exponent")
		}
	}
	return d.data[start:d.pos], nil
}

// at reports whether the byte at d.pos is c.
func (d *decoder) at(c byte) bool {
	return d.pos < len(d.data) && d.data[d.pos] == c
}

// digits reads a run of decimal digits and reports whether there was
// one.
func (d *decoder) digits() bool {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// str reads the string that opens at d.pos and returns its text: a
// slice of the document when the string is printable ASCII without
// escapes, and otherwise d.buf.
func (d *decoder) str() ([]byte, error) {
	start := d.pos + 1
	n := bytes.IndexByte(d.data[start:], '"')
	if n < 0 {
		return d.unquote(start, start)
	}
	s := d.data[start : start+n]
	for i, c := range s {
		if c < ' ' || c == '\\' || c >= utf8.RuneSelf {
			return d.unquote(start, start+i)
		}
	}
	d.pos = start + n + 1
	return s, nil
}

// unquote builds in d.buf the text of the string that opened at
// start-1, from the first byte at i that str does not return as is. As
// encoding/json does, it decodes the \u escapes of a surrogate pair to
// one rune, and reads a lone surrogate and each byte of invalid UTF-8
// as U+FFFD.
func (d *decoder) unquote(start, i int) ([]byte, error) {
	b := append(d.buf[:0], d.data[start:i]...)
	defer func() { d.buf = b }()
	for i < len(d.data) {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return b, nil
		case c == '\\':
			if i+1 == len(d.data) {
				i++
				break
			}
			switch c := d.data[i+1]; c {
			case '"', '\\', '/':
				b = append(b, c)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r, ok := hex4(d.data[i+2:])
				if !ok {
					d.pos = i
					return nil, d.syntaxError("a \\u escape")
				}
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if rest := d.data[i+6:]; len(rest) >= 2 && rest[0] == '\\' && rest[1] == 'u' {
						r2, _ = hex4(rest[2:])
					}
					if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
						i += 6 // the pair's second escape
					}
				}
				b = utf8.AppendRune(b, r)
				i += 4
			default:
				d.pos = i
				return nil, d.syntaxError("an escape")
			}
			i += 2
		case c < ' ':
			d.pos = i
			return nil, d.syntaxError("the end of a string")
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRune(d.data[i:])
			b = utf8.AppendRune(b, r) // an invalid byte decodes as U+FFFD
			i += n
		}
	}
	d.pos = len(d.data)
	return nil, d.syntaxError("the end of a string")
}

// hex4 returns the value of the four hex digits b starts with, and false
// if it does not start with four.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return -1, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// matchKey returns the index of the name in keys that key matches, or
// -1. It matches as encoding/json matches a key to a struct field: an
// exact match, or else one under Unicode simple case folding, so "id"
// matches "ID" and "ſource" (U+017F) matches "source".
func matchKey(keys []string, key []byte) int {
	for i, k := range keys {
		if string(key) == k {
			return i
		}
	}
	for i, k := range keys {
		if foldEqual(key, k) {
			return i
		}
	}
	return -1
}

// foldEqual reports whether key and the ASCII name fold to the same
// runes, as encoding/json's foldName folds them.
func foldEqual(key []byte, name string) bool {
	for i := 0; i < len(name); i++ {
		if len(key) == 0 {
			return false
		}
		r, n := utf8.DecodeRune(key)
		key = key[n:]
		if r != rune(name[i]) && foldRune(r) != foldRune(rune(name[i])) {
			return false
		}
	}
	return len(key) == 0
}

// foldRune returns the smallest rune of r's case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// wrongType reports the value at d.pos as not the JSON type want names,
// or as a syntax error if it is not a value.
func (d *decoder) wrongType(want string) error {
	var got string
	switch c := d.next(); {
	case c == '{':
		got = "an object"
	case c == '[':
		got = "a list"
	case c == '"':
		got = "a string"
	case c == 't' || c == 'f':
		got = "a bool"
	case c == 'n':
		got = "null"
	case c == '-' || '0' <= c && c <= '9':
		got = "a number"
	default:
		return d.syntaxError("a value")
	}
	return fmt.Errorf("%s at offset %d where %s belongs", got, d.pos, want)
}

// syntaxError reports the byte at d.pos, or the end of the document, as
// found where the decoder looked for what.
func (d *decoder) syntaxError(what string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("unexpected end of JSON input looking for %s", what)
	}
	return fmt.Errorf("invalid character %q at offset %d looking for %s", d.data[d.pos], d.pos, what)
}
