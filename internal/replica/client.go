// Package replica is the follower side of nvdserve's replication
// stream: an HTTP client for the /replicate surface a primary daemon
// serves from its internal/store checkpoint and delta log.
//
// The wire protocol is deliberately dumb — three GET endpoints over
// the store's native artifacts:
//
//	/replicate/manifest            the ReplicationManifest (JSON)
//	/replicate/checkpoint/{file}   one checkpoint file, verbatim bytes
//	/replicate/log?from={seq}      segment bytes from a cursor; a
//	                               Range: bytes=N- header resumes
//	                               mid-segment
//
// Every response that carries stream bytes is re-verified on the
// follower: checkpoint files against the manifest's CRC-32C sums as
// they stream (CheckpointFile), and log bytes by re-running the frame
// scanner when the store appends them — the client trusts the network
// for liveness only, never for integrity.
package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"nvdclean/internal/store"
)

// Paths and headers of the /replicate surface, shared by the client
// and the primary's handlers so they cannot drift.
const (
	ManifestPath         = "/replicate/manifest"
	CheckpointPathPrefix = "/replicate/checkpoint/"
	LogPath              = "/replicate/log"

	// HeaderSealed ("1"/"0") reports whether the served segment is
	// sealed: a sealed segment with no bytes past the cursor tells the
	// follower to seal its own copy and advance to the successor.
	HeaderSealed = "X-Nvdserve-Sealed"
	// HeaderWatermark is the primary's committed checkpoint watermark;
	// sent on every log response (including 204/410) so followers can
	// tell how far behind a retirement they fell.
	HeaderWatermark = "X-Nvdserve-Watermark"
	// HeaderWALSeq is the primary's active segment seq.
	HeaderWALSeq = "X-Nvdserve-Wal-Seq"
)

// LogChunk is one /replicate/log response decoded.
type LogChunk struct {
	// Data holds committed frame bytes from the cursor on; empty when
	// the follower is caught up (AtWatermark) or the segment ended
	// exactly at the cursor (Sealed with no Data).
	Data []byte
	// Sealed reports the served segment sealed: once Data is consumed
	// the follower seals its copy and advances to seq+1.
	Sealed bool
	// AtWatermark reports a 204: the cursor is at the committed end of
	// the active segment; poll again after RetryAfter.
	AtWatermark bool
	// Retired reports a 410: the cursor's segment is folded into the
	// primary's checkpoint. The follower must re-bootstrap from a fresh
	// manifest.
	Retired bool
	// RetryAfter is the primary's suggested poll delay (zero when the
	// response carried none).
	RetryAfter time.Duration
}

// Client fetches the replication surface of one primary. It retries
// transient failures (network errors, 5xx) with exponential backoff
// internally; protocol outcomes (204, 410) are returned as LogChunk
// flags, not errors.
type Client struct {
	base string
	http *http.Client
	// retries is the number of attempts per request; backoff is the
	// initial inter-attempt delay, doubling each time.
	retries int
	backoff time.Duration
}

// NewClient returns a Client for the primary at base (scheme://host
// [:port], no trailing slash needed).
func NewClient(base string) *Client {
	return &Client{
		base:    strings.TrimRight(base, "/"),
		http:    &http.Client{Timeout: 5 * time.Minute},
		retries: 3,
		backoff: 200 * time.Millisecond,
	}
}

// Base returns the primary base URL the client was built with.
func (c *Client) Base() string { return c.base }

// SetTransport replaces the underlying HTTP transport — the seam a
// fault-injection layer (FaultTransport) or a custom TLS/proxy config
// plugs into.
func (c *Client) SetTransport(rt http.RoundTripper) {
	c.http.Transport = rt
}

// SetRetry overrides the per-request retry budget: attempts per
// request and the initial inter-attempt delay (doubling, jittered).
func (c *Client) SetRetry(attempts int, backoff time.Duration) {
	if attempts > 0 {
		c.retries = attempts
	}
	if backoff > 0 {
		c.backoff = backoff
	}
}

// maxRetryAfter caps the poll delay a primary's Retry-After header can
// impose: a misconfigured (or compromised) primary must not be able to
// park a whole follower fleet for minutes with one header.
const maxRetryAfter = 30 * time.Second

// retryable reports whether an attempt outcome is worth another try:
// transport errors and 5xx statuses are; context cancellation and
// protocol statuses are not.
func retryable(err error, status int) bool {
	if err != nil {
		return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
	}
	return status >= 500
}

// do issues one GET with retries. On success the caller owns resp.Body.
func (c *Client) do(ctx context.Context, url string, header http.Header) (*http.Response, error) {
	var lastErr error
	delay := c.backoff
	for attempt := 0; attempt < c.retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(store.Jitter(delay)):
			}
			delay *= 2
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		for k, v := range header {
			req.Header[k] = v
		}
		resp, err := c.http.Do(req)
		if err != nil {
			lastErr = err
			if !retryable(err, 0) {
				return nil, err
			}
			continue
		}
		if retryable(nil, resp.StatusCode) {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			lastErr = fmt.Errorf("replica: %s: %s (%s)", url, resp.Status, strings.TrimSpace(string(body)))
			continue
		}
		return resp, nil
	}
	return nil, lastErr
}

// Manifest fetches and decodes the primary's replication manifest.
func (c *Client) Manifest(ctx context.Context) (*store.ReplicationManifest, error) {
	resp, err := c.do(ctx, c.base+ManifestPath, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("replica: manifest: %s", resp.Status)
	}
	var rm store.ReplicationManifest
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&rm); err != nil {
		return nil, fmt.Errorf("replica: decoding manifest: %w", err)
	}
	if rm.Generation == 0 || len(rm.Files) == 0 {
		return nil, fmt.Errorf("replica: manifest names no checkpoint")
	}
	return &rm, nil
}

// CheckpointFile streams one checkpoint file, verifying its size and
// CRC-32C against mf as the bytes pass through: the returned reader
// yields an error before EOF if the body does not match, so a store
// installing through it never accepts a corrupt file.
func (c *Client) CheckpointFile(ctx context.Context, mf store.ManifestFile) (io.ReadCloser, error) {
	resp, err := c.do(ctx, c.base+CheckpointPathPrefix+mf.Name, nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("replica: checkpoint file %s: %s", mf.Name, resp.Status)
	}
	return &verifyReader{body: resp.Body, crc: crc32.New(crc32.MakeTable(crc32.Castagnoli)), want: mf}, nil
}

// verifyReader re-verifies a checkpoint file against its manifest
// entry as it streams. It fails the read (not just the close) on
// mismatch so io.Copy-style consumers see the corruption.
type verifyReader struct {
	body io.ReadCloser
	crc  hash.Hash32
	n    int64
	want store.ManifestFile
}

func (v *verifyReader) Read(p []byte) (int, error) {
	n, err := v.body.Read(p)
	if n > 0 {
		v.crc.Write(p[:n])
		v.n += int64(n)
		if v.n > v.want.Size {
			return n, fmt.Errorf("replica: %s: body exceeds manifest size %d", v.want.Name, v.want.Size)
		}
	}
	if err == io.EOF {
		if v.n != v.want.Size {
			return n, fmt.Errorf("replica: %s: short body (%d of %d bytes)", v.want.Name, v.n, v.want.Size)
		}
		if v.crc.Sum32() != v.want.CRC32C {
			return n, fmt.Errorf("replica: %s: checksum mismatch (crc %08x, want %08x)", v.want.Name, v.crc.Sum32(), v.want.CRC32C)
		}
	}
	return n, err
}

func (v *verifyReader) Close() error { return v.body.Close() }

// Log fetches segment bytes from the cursor (seq, off). off > 0 is
// sent as a Range header, resuming mid-segment after a partial fetch
// or follower restart.
func (c *Client) Log(ctx context.Context, seq uint64, off int64) (*LogChunk, error) {
	url := fmt.Sprintf("%s%s?from=%d", c.base, LogPath, seq)
	var header http.Header
	if off > 0 {
		header = http.Header{"Range": []string{fmt.Sprintf("bytes=%d-", off)}}
	}
	resp, err := c.do(ctx, url, header)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	chunk := &LogChunk{Sealed: resp.Header.Get(HeaderSealed) == "1"}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
		chunk.RetryAfter = min(time.Duration(ra)*time.Second, maxRetryAfter)
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusPartialContent:
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("replica: reading log segment %d: %w", seq, err)
		}
		chunk.Data = data
		return chunk, nil
	case http.StatusNoContent:
		chunk.AtWatermark = true
		return chunk, nil
	case http.StatusGone:
		chunk.Retired = true
		return chunk, nil
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("replica: log segment %d: %s (%s)", seq, resp.Status, strings.TrimSpace(string(body)))
	}
}
