package main

// The primary side of the replication stream: three GET handlers that
// expose the store's manifest, checkpoint files and log segments over
// HTTP. The wire format is the store's native artifacts — manifest
// JSON, verbatim checkpoint file bytes, verbatim segment frame bytes —
// so the follower re-verifies everything with the same CRCs the store
// itself uses, and the handlers never re-encode anything on the hot
// path.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"nvdclean/internal/replica"
	"nvdclean/internal/store"
)

// replicationSource returns the store to replicate from, answering 404
// when the daemon runs without one (an in-memory daemon has no stream
// to offer).
func (s *server) replicationSource(w http.ResponseWriter) *store.Store {
	if s.persist == nil {
		writeError(w, http.StatusNotFound, "replication requires a -data-dir store")
		return nil
	}
	return s.persist
}

// handleReplicateManifest serves the point-in-time replication
// manifest: the committed checkpoint's file list (with sums), its
// watermark and the active segment seq. 503 until the first checkpoint
// commits.
func (s *server) handleReplicateManifest(w http.ResponseWriter, r *http.Request) {
	src := s.replicationSource(w)
	if src == nil {
		return
	}
	rm, err := src.ReplicationManifest()
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, rm)
}

// handleReplicateCheckpoint streams one checkpoint file verbatim. The
// follower verifies the bytes against the manifest sums, so no
// integrity metadata travels here — just the bytes.
func (s *server) handleReplicateCheckpoint(w http.ResponseWriter, r *http.Request) {
	src := s.replicationSource(w)
	if src == nil {
		return
	}
	name := r.PathValue("file")
	rc, size, err := src.CheckpointFile(name)
	if err != nil {
		writeError(w, http.StatusNotFound, "no checkpoint file %q", name)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = io.Copy(w, rc)
}

// handleReplicateLog serves committed segment bytes from a follower's
// cursor: ?from={seq} names the segment, an optional "Range: bytes=N-"
// header resumes mid-segment (answered 206). The response headers
// carry the segment's sealed flag, the checkpoint watermark and the
// active seq so the follower can steer without a manifest round trip.
// Protocol statuses: 204 + Retry-After when the cursor is at the
// committed end of the active segment (nothing to ship — pollers back
// off without parsing a body), 410 when the segment is retired into a
// checkpoint (the follower must re-bootstrap), 404 for a segment that
// does not exist yet.
func (s *server) handleReplicateLog(w http.ResponseWriter, r *http.Request) {
	src := s.replicationSource(w)
	if src == nil {
		return
	}
	fromArg := queryValue(r.URL.RawQuery, "from")
	from, err := strconv.ParseUint(fromArg, 10, 64)
	if err != nil || from == 0 {
		writeError(w, http.StatusBadRequest, "bad or missing from=%q (want a segment seq)", fromArg)
		return
	}
	var off int64
	if rng := r.Header.Get("Range"); rng != "" {
		rest, okPrefix := strings.CutPrefix(rng, "bytes=")
		rest, okSuffix := strings.CutSuffix(rest, "-")
		if okPrefix && okSuffix {
			off, err = strconv.ParseInt(rest, 10, 64)
		}
		if !okPrefix || !okSuffix || err != nil || off < 0 {
			writeError(w, http.StatusBadRequest, "bad Range %q (want bytes=N-)", rng)
			return
		}
	}
	data, sealed, err := src.ReadSegment(from, off)
	h := w.Header()
	h.Set(replica.HeaderWatermark, strconv.FormatUint(src.Watermark(), 10))
	walSeq, _ := src.ActivePosition()
	h.Set(replica.HeaderWALSeq, strconv.FormatUint(walSeq, 10))
	switch {
	case errors.Is(err, store.ErrSegmentRetired):
		writeError(w, http.StatusGone,
			"segment %d is retired into the checkpoint (watermark %d); re-bootstrap from %s",
			from, src.Watermark(), replica.ManifestPath)
		return
	case errors.Is(err, store.ErrNoSegment):
		writeError(w, http.StatusNotFound, "no segment %d", from)
		return
	case err != nil:
		writeError(w, http.StatusRequestedRangeNotSatisfiable, "%v", err)
		return
	}
	if sealed {
		h.Set(replica.HeaderSealed, "1")
	} else {
		h.Set(replica.HeaderSealed, "0")
	}
	if len(data) == 0 && !sealed {
		h.Set("Retry-After", "1")
		w.WriteHeader(http.StatusNoContent)
		return
	}
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(data)))
	if off > 0 && len(data) > 0 {
		h.Set("Content-Range", fmt.Sprintf("bytes %d-%d/*", off, off+int64(len(data))-1))
		w.WriteHeader(http.StatusPartialContent)
	} else {
		w.WriteHeader(http.StatusOK)
	}
	_, _ = w.Write(data)
}
