package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"nvdclean"
)

// The read hot path. Every read response is a pure function of
// (request URL, serving generation): the generation is immutable and
// swaps atomically, so its sequence number is a correct HTTP validator
// and anything cached per generation is trivially coherent. This file
// holds the pieces the handlers share — body rendering, query-string
// scanning, the ETag scheme, and conditional (If-None-Match / 304)
// serving.

// readCacheControl is sent on every cacheable read response: clients
// and intermediaries may store responses but must revalidate, because
// generations swap on unpredictable POST /feed ingests. Revalidation
// is nearly free — a matching ETag costs a 304 with no body.
const readCacheControl = "no-cache"

// encodeJSON renders the bodies the read renderers do not: errors,
// probes and /stats. It encodes compactly by default, indented only
// when a client opts in with ?pretty=1, and always newline-terminated
// (the json.Encoder convention the wire format has used since the
// first release). Encode errors are impossible for the maps the server
// encodes and are ignored, matching the previous writeJSON behavior.
func encodeJSON(v any, pretty bool) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if pretty {
		enc.SetIndent("", "  ")
	}
	_ = enc.Encode(v)
	return buf.Bytes()
}

// bodyBufs holds the scratch buffers read bodies are rendered in.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// renderBody renders one /cve or /query body: appendTo appends the
// compact JSON document and reports false where encoding/json fails to
// encode it. The document is appended in a pooled scratch buffer and
// copied, newline-terminated as json.Encoder writes it, into a body
// allocated at its own length, so a cached body holds no spare
// capacity. With pretty the body is json.Indent of those bytes with
// two-space indentation, which is what json.Encoder writes after
// SetIndent("", "  "). A failed render is a nil body: json.Encoder
// writes nothing for a value it cannot encode.
func renderBody(pretty bool, appendTo func([]byte) ([]byte, bool)) []byte {
	buf := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(buf)
	b, ok := appendTo((*buf)[:0])
	if !ok {
		return nil
	}
	b = append(b, '\n')
	*buf = b
	if pretty {
		var out bytes.Buffer
		if err := json.Indent(&out, b, "", "  "); err != nil {
			return nil
		}
		return out.Bytes()
	}
	body := make([]byte, len(b))
	copy(body, b)
	return body
}

// nextQueryPair returns the first pair of the raw query string raw
// that url.ParseQuery keeps, its key and value unescaped, and the rest
// of raw after it; it reports false when none is left. Pairs split on
// '&', and a key from its value on the first '='. ParseQuery drops an
// empty pair, a pair holding ';', and a pair whose key or value holds
// a malformed %XX escape. A key or value holding neither '%' nor '+'
// is a substring of raw, so scanning it allocates nothing.
func nextQueryPair(raw string) (key, value, rest string, ok bool) {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		var kerr, verr error
		key, kerr = url.QueryUnescape(k)
		value, verr = url.QueryUnescape(v)
		if kerr == nil && verr == nil {
			return key, value, raw, true
		}
	}
	return "", "", "", false
}

// queryValue returns the first value of the parameter name in the raw
// query string, or "" when it has none: what r.URL.Query().Get(name)
// returns, without the map.
func queryValue(raw, name string) string {
	for {
		k, v, rest, ok := nextQueryPair(raw)
		if !ok || k == name {
			return v
		}
		raw = rest
	}
}

// parsePretty reads a ?pretty value: absent, "0" or "false" means
// compact, "1" or "true" means indented, anything else is an error.
func parsePretty(v string) (bool, error) {
	switch v {
	case "", "0", "false":
		return false, nil
	case "1", "true":
		return true, nil
	default:
		return false, fmt.Errorf("bad pretty %q (want 1 or 0)", v)
	}
}

// Header values every read response shares. net/http clones a
// handler's header map when the handler writes its header and never
// writes into a value slice, so serving assigns these slices instead
// of building one per response. The map keys are in the canonical
// form Header.Set writes, so the wire bytes are the same.
var (
	jsonContentType   = []string{"application/json"}
	readCacheControls = []string{readCacheControl}
)

// setETag makes etag the generation's validator, the one readValidator
// captured at the swap — "w<seq>-<off>", the store's stream position,
// with a store, or "<bootEpoch>-<gen>" without one — and builds the
// header values etagHeader hands out.
func (st *serveState) setETag(etag string) {
	st.etagHeaders = [2][]string{{etag}, {etag[:len(etag)-1] + `-p"`}}
}

// etagHeader returns the strong ETag of this generation's
// representation of any read resource as a header value shared by every
// response of the generation, which must not be modified. The pretty
// and compact representations of one URL carry distinct tags.
func (st *serveState) etagHeader(pretty bool) []string {
	if pretty {
		return st.etagHeaders[1]
	}
	return st.etagHeaders[0]
}

// etagMatch reports whether an If-None-Match header matches etag. The
// header is a comma-separated list of entity tags or "*"; weak
// validator prefixes compare as their opaque tag (our tags are strong
// and byte-exact per generation, so a weak match is still exact).
func etagMatch(header, etag string) bool {
	for more := true; more; {
		var tok string
		tok, header, more = strings.Cut(header, ",")
		tok = strings.TrimPrefix(strings.TrimSpace(tok), "W/")
		if tok == "*" || tok == etag {
			return true
		}
	}
	return false
}

// serveNotModified answers a conditional request whose validator still
// matches: a 304 with the validator and cache policy, no body. cached
// is the representation that was not resent, when cheaply known (nil
// is fine) — it feeds the bytes-saved counter only; the whole point of
// the 304 path is never rendering the body.
func (s *server) serveNotModified(w http.ResponseWriter, etag []string, cached []byte) {
	s.metrics.NotModified.Add(1)
	s.metrics.NotModifiedBytes.Add(int64(len(cached)))
	h := w.Header()
	h["Etag"] = etag
	h["Cache-Control"] = readCacheControls
	w.WriteHeader(http.StatusNotModified)
}

// serveRead writes a 200 read response with its validator and cache
// policy. body is shared cache memory and is never modified.
func serveRead(w http.ResponseWriter, etag []string, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Etag"] = etag
	h["Cache-Control"] = readCacheControls
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// cveBody returns the encoded /cve/{id} response for e, from the
// generation's pre-encoded cache on the compact path. Pretty rendering
// bypasses the cache: it is a debugging convenience, not the hot path,
// and caching both representations would double the cache for no
// reader benefit.
func (st *serveState) cveBody(e *nvdclean.Entry, pretty bool) []byte {
	render := func(b []byte) ([]byte, bool) { return st.appendCVE(b, e) }
	if pretty {
		return renderBody(true, render)
	}
	return st.entries.Get(e.ID, func() []byte { return renderBody(false, render) })
}

// queryBody returns the encoded /query response for p, consulting the
// generation's canonical-key response cache on the compact path.
func (st *serveState) queryBody(p queryParams) []byte {
	render := func(b []byte) ([]byte, bool) { return st.appendQuery(b, p) }
	if p.pretty {
		return renderBody(true, render)
	}
	key := p.cacheKey()
	if b, ok := st.queries.Get(key); ok {
		return b
	}
	b := renderBody(false, render)
	st.queries.Put(key, b)
	return b
}

// cacheKey returns p's canonical query string, the key of its page in
// the /query cache: what url.Values.Encode writes for p's filters and
// window — keys in byte order, unset filters left out, values escaped
// by url.QueryEscape. Two URLs that parse to the same parameters share
// one key, whatever their order or spelling, and parseQueryParams reads
// a key back to the parameters it was built from, so two that parse
// differently never do. A key of up to 256 bytes whose vendor and
// product need no escaping is built in one allocation.
func (p queryParams) cacheKey() string {
	var buf [256]byte
	b := buf[:0]
	if p.HasCWE {
		b = append(p.CWE.Append(append(b, "cwe="...)), '&')
	}
	b = strconv.AppendInt(append(b, "limit="...), int64(p.limit), 10)
	b = strconv.AppendInt(append(b, "&offset="...), int64(p.offset), 10)
	if p.Product != "" {
		b = append(append(b, "&product="...), url.QueryEscape(p.Product)...)
	}
	if p.HasSeverity {
		b = append(append(b, "&severity="...), p.Severity.String()...)
	}
	if p.Vendor != "" {
		b = append(append(b, "&vendor="...), url.QueryEscape(p.Vendor)...)
	}
	if p.Year != 0 {
		b = strconv.AppendInt(append(b, "&year="...), int64(p.Year), 10)
	}
	return string(b)
}
