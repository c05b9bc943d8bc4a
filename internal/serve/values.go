package serve

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"lossyts/internal/core"
	"lossyts/internal/timeseries"
)

// isValueSep reports whether b separates value tokens in a request body.
// Newlines, commas, and blanks all work, so `seq`, CSV columns, and JSON-ish
// number lists can be piped in without reformatting.
func isValueSep(b byte) bool {
	switch b {
	case ' ', '\t', '\r', '\n', ',', ';':
		return true
	}
	return false
}

// scanTokens is the bufio.SplitFunc for value bodies.
func scanTokens(data []byte, atEOF bool) (advance int, token []byte, err error) {
	start := 0
	for start < len(data) && isValueSep(data[start]) {
		start++
	}
	for i := start; i < len(data); i++ {
		if isValueSep(data[i]) {
			return i + 1, data[start:i], nil
		}
	}
	if atEOF && len(data) > start {
		return len(data), data[start:], nil
	}
	return start, nil, nil
}

// readValues tokenises a request body into a value series, streaming tokens
// chunk by chunk: ctx is checked at every chunk boundary, so a disconnected
// client stops the parse within one chunk. The body bytes also feed h (the
// content hash the cache keys on). The returned slice's length is bounded by
// the request body cap upstream.
func readValues(ctx context.Context, r io.Reader, h io.Writer, chunkSize int) ([]float64, error) {
	sc := bufio.NewScanner(io.TeeReader(r, h))
	sc.Split(scanTokens)
	values := make([]float64, 0, chunkSize)
	sinceCheck := 0
	for sc.Scan() {
		tok := sc.Text()
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, badRequest("value %d: %q is not a number", len(values)+1, tok)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, badRequest("value %d: %q is not finite", len(values)+1, tok)
		}
		values = append(values, v)
		if sinceCheck++; sinceCheck >= chunkSize {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err // a *http.MaxBytesError lands here → 413
	}
	if len(values) == 0 {
		return nil, badRequest("empty body: send whitespace-, newline-, or comma-separated values")
	}
	return values, nil
}

// readRaw reads a binary body (compressed payloads) fully.
func readRaw(r io.Reader) ([]byte, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(body) == 0 {
		return nil, badRequest("empty body: send a compressed payload")
	}
	return body, nil
}

// chunksOf drives values through fn in chunkSize pieces with the correct
// per-chunk timestamps — the bridge from a parsed request body onto the
// chunked data plane (StreamEncoder.PushChunk and friends).
func chunksOf(ctx context.Context, values []float64, start, interval int64, chunkSize int, fn func(c timeseries.Chunk) error) error {
	for lo := 0; lo < len(values); lo += chunkSize {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := lo + chunkSize
		if hi > len(values) {
			hi = len(values)
		}
		c := timeseries.Chunk{
			Start:    start + int64(lo)*interval,
			Interval: interval,
			Values:   values[lo:hi],
		}
		if err := fn(c); err != nil {
			return err
		}
	}
	return nil
}

// requestHash accumulates the cache key of a request: every parameter that
// changes the response, then the body bytes (via readValues' tee).
type requestHash struct {
	h interface {
		io.Writer
		Sum([]byte) []byte
	}
}

func newRequestHash(endpoint string) *requestHash {
	rh := &requestHash{h: sha256.New()}
	fmt.Fprintf(rh.h, "%s\x00", endpoint)
	return rh
}

// param mixes one named parameter into the key.
func (rh *requestHash) param(name string, v any) {
	fmt.Fprintf(rh.h, "%s=%v\x00", name, v)
}

// Write feeds body bytes (io.TeeReader target).
func (rh *requestHash) Write(p []byte) (int, error) { return rh.h.Write(p) }

// key renders the final cache key under the serve namespace. The "serve"
// prefix keeps these records disjoint from grid cell/dataset records, so a
// cache store and a grid store could even share a file without collisions.
func (rh *requestHash) key() string {
	return "serve|" + hex.EncodeToString(rh.h.Sum(nil))
}

// floatParam parses an optional float query parameter.
func floatParam(r *http.Request, name string, def float64) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, badRequest("parameter %s: %q is not a number", name, raw)
	}
	return v, nil
}

// intParam parses an optional integer query parameter.
func intParam(r *http.Request, name string, def int64) (int64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, badRequest("parameter %s: %q is not an integer", name, raw)
	}
	return v, nil
}

// cached runs one cacheable computation as a work-plane unit through the
// server's executor: store lookup first, then the singleflight layer, then
// compute (core.WorkExec.Do — the exact semantics the batch grid path
// shares, including the follower-retries-cancelled-leader rule). The
// X-Lossyts-Cache response header records which layer answered — "hit"
// (durable store), "dedup" (joined another request's in-flight
// computation), or "miss" (computed here).
func (s *Server) cached(ctx context.Context, w http.ResponseWriter, key string, compute func() ([]byte, error)) ([]byte, error) {
	u := core.WorkUnit{
		Key:     key,
		Compute: func(context.Context) ([]byte, error) { return compute() },
	}
	out, src, err := s.exec.Do(ctx, u)
	if err != nil {
		return nil, err
	}
	switch src {
	case core.WorkShared:
		s.dedups.Add(1)
	case core.WorkHit:
		s.hits.Add(1)
	}
	w.Header().Set("X-Lossyts-Cache", src.String())
	return out, nil
}
