package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// The read hot path. Every read response is a pure function of
// (request URL, serving generation): the generation is immutable and
// swaps atomically, so its sequence number is a correct HTTP validator
// and anything cached per generation is trivially coherent. This file
// holds the pieces the handlers share — encoding, the ETag scheme, and
// conditional (If-None-Match / 304) serving.

// readCacheControl is sent on every cacheable read response: clients
// and intermediaries may store responses but must revalidate, because
// generations swap on unpredictable POST /feed ingests. Revalidation
// is nearly free — a matching ETag costs a 304 with no body.
const readCacheControl = "no-cache"

// encodeJSON renders v the way every response body is encoded: compact
// by default, indented only when a client opts in with ?pretty=1, and
// always newline-terminated (the json.Encoder convention the wire
// format has used since the first release). Encode errors are
// impossible for the server's own view types and are ignored, matching
// the previous writeJSON behavior.
func encodeJSON(v any, pretty bool) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if pretty {
		enc.SetIndent("", "  ")
	}
	_ = enc.Encode(v)
	return buf.Bytes()
}

// parsePretty reads the ?pretty flag: absent or "0"/"false" means
// compact, "1"/"true" means indented, anything else is an error.
func parsePretty(values url.Values) (bool, error) {
	switch v := values.Get("pretty"); v {
	case "", "0", "false":
		return false, nil
	case "1", "true":
		return true, nil
	default:
		return false, fmt.Errorf("bad pretty %q (want 1 or 0)", v)
	}
}

// etagFor returns the strong ETag of this generation's representation
// of any read resource: the validator readValidator captured at the
// swap — "w<seq>-<off>", the store's stream position, with a store, or
// "<bootEpoch>-<gen>" without one. The pretty and compact
// representations of one URL carry distinct tags.
func (st *serveState) etagFor(pretty bool) string {
	if pretty {
		return st.etag[:len(st.etag)-1] + `-p"`
	}
	return st.etag
}

// etagMatch reports whether an If-None-Match header matches etag. The
// header is a comma-separated list of entity tags or "*"; weak
// validator prefixes compare as their opaque tag (our tags are strong
// and byte-exact per generation, so a weak match is still exact).
func etagMatch(header, etag string) bool {
	for _, tok := range strings.Split(header, ",") {
		tok = strings.TrimSpace(tok)
		tok = strings.TrimPrefix(tok, "W/")
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
func (s *server) serveNotModified(w http.ResponseWriter, etag string, cached []byte) {
	s.metrics.NotModified.Add(1)
	s.metrics.NotModifiedBytes.Add(int64(len(cached)))
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Cache-Control", readCacheControl)
	w.WriteHeader(http.StatusNotModified)
}

// serveRead writes a 200 read response with its validator and cache
// policy. body is shared cache memory and is never modified.
func serveRead(w http.ResponseWriter, etag string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("ETag", etag)
	h.Set("Cache-Control", readCacheControl)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// cveBody returns the encoded /cve/{id} response for e, from the
// generation's pre-encoded cache on the compact path. Pretty rendering
// bypasses the cache: it is a debugging convenience, not the hot path,
// and caching both representations would double the cache for no
// reader benefit.
func (st *serveState) cveBody(id string, pretty bool) []byte {
	e := st.byID[id]
	if pretty {
		return encodeJSON(st.view(e), true)
	}
	return st.entries.Get(id, func() []byte {
		return encodeJSON(st.view(e), false)
	})
}

// queryBody returns the encoded /query response for p, consulting the
// generation's canonical-key response cache on the compact path.
func (st *serveState) queryBody(p queryParams) []byte {
	if p.pretty {
		return encodeJSON(st.queryIndexed(p), true)
	}
	key := p.cacheKey()
	if b, ok := st.queries.Get(key); ok {
		return b
	}
	b := encodeJSON(st.queryIndexed(p), false)
	st.queries.Put(key, b)
	return b
}

// cacheKey canonicalizes the parsed parameter set: two URLs that parse
// to the same filters share one cache slot regardless of parameter
// order or defaulted values. Fields are joined with a separator byte
// that cannot occur in any value, so concatenations never collide.
func (p queryParams) cacheKey() string {
	var b strings.Builder
	const sep = '\x1f'
	b.WriteString(p.vendor)
	b.WriteByte(sep)
	b.WriteString(p.product)
	b.WriteByte(sep)
	if p.hasCWE {
		b.WriteString(p.cweID.String())
	}
	b.WriteByte(sep)
	if p.hasSev {
		b.WriteString(p.sev.String())
	}
	b.WriteByte(sep)
	b.WriteString(strconv.Itoa(p.year))
	b.WriteByte(sep)
	b.WriteString(strconv.Itoa(p.limit))
	b.WriteByte(sep)
	b.WriteString(strconv.Itoa(p.offset))
	return b.String()
}
