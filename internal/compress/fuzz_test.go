package compress

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"lossyts/internal/timeseries"
)

// fuzzSeedPayloads returns decompressed (header+body) frames of every
// registered method over the corruption-test corpus series — the same
// starting points TestDecompressNeverPanics mutates, handed to the fuzzer as
// seeds so coverage-guided mutation starts from well-formed frames.
func fuzzSeedPayloads(tb testing.TB) [][]byte {
	tb.Helper()
	s := synthSeries(300, 63)
	var comps []*Compressed
	for _, m := range streamMethods() {
		c, err := New(m)
		if err != nil {
			tb.Fatal(err)
		}
		comp, err := c.Compress(s, 0.1)
		if err != nil {
			tb.Fatal(err)
		}
		comps = append(comps, comp)
	}
	spmc, err := (SeasonalPMC{Period: 48}).Compress(s, 0.1)
	if err != nil {
		tb.Fatal(err)
	}
	comps = append(comps, spmc)
	var raws [][]byte
	for _, comp := range comps {
		raw, err := GunzipBytes(comp.Payload)
		if err != nil {
			tb.Fatal(err)
		}
		raws = append(raws, raw)
	}
	return raws
}

// collectStream drains a ValueStream, with an iteration guard so a buggy
// stream that stops making progress fails instead of hanging the fuzzer.
func collectStream(tb testing.TB, vs ValueStream, count int) ([]float64, error) {
	tb.Helper()
	var out []float64
	buf := make([]float64, 256)
	for iter := 0; ; iter++ {
		if iter > count/len(buf)+2 {
			tb.Fatal("value stream not making progress")
		}
		n, err := vs.Next(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return out, err
		}
	}
}

// FuzzDecodeHeader differentially fuzzes frame parsing: any input that the
// method's batch oracle (decode_oracle_test.go, or an external
// registration's Decode) accepts must stream-decode to bit-identical values,
// any input the oracle rejects must not stream-decode cleanly to a full
// reconstruction, and no decoder may panic or hang. Methods without an
// oracle (Gorilla, LFZip) are fuzzed for panics and hangs alone.
func FuzzDecodeHeader(f *testing.F) {
	for _, raw := range fuzzSeedPayloads(f) {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 4096 {
			t.Skip("oversized frame")
		}
		hdr, body, err := decodeHeader(raw)
		if err != nil {
			return
		}
		count := int(hdr.count)
		if count > 1<<20 {
			// The claimed count is attacker-controlled; decoders bound their
			// pre-allocation (allocHint) but the reconstruction itself is
			// legitimately O(count), so keep fuzz iterations small.
			t.Skip("oversized claimed count")
		}
		reg, err := lookup(hdr.method)
		if err != nil {
			return
		}
		oracle := batchOracles[hdr.method]
		if reg.Decode != nil {
			oracle = reg.Decode
		}
		if reg.DecodeStream == nil {
			_, _ = oracle(body, count)
			return
		}
		vs, err := reg.DecodeStream(body, count)
		if oracle == nil {
			if err == nil {
				_, _ = collectStream(t, vs, count)
			}
			return
		}
		batch, batchErr := oracle(body, count)
		if err != nil {
			if batchErr == nil {
				t.Fatalf("stream constructor rejected a frame batch accepts: %v", err)
			}
			return
		}
		streamed, streamErr := collectStream(t, vs, count)
		if batchErr == nil {
			if streamErr != nil {
				t.Fatalf("stream decode failed on a frame batch accepts: %v", streamErr)
			}
			if len(streamed) != len(batch) {
				t.Fatalf("stream decoded %d values, batch %d", len(streamed), len(batch))
			}
			for i := range batch {
				if math.Float64bits(batch[i]) != math.Float64bits(streamed[i]) {
					t.Fatalf("value %d: stream %x != batch %x", i, math.Float64bits(streamed[i]), math.Float64bits(batch[i]))
				}
			}
		} else if streamErr == nil && len(streamed) == count {
			t.Fatalf("stream decoded a full series from a frame batch rejects (%v)", batchErr)
		}
	})
}

// FuzzStreamRoundTrip fuzzes the encode side: for arbitrary series shapes,
// bounds, chunkings, and methods, chunked streaming must produce the exact
// batch payload and the chunked decoder must reproduce the batch
// reconstruction.
func FuzzStreamRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(100), 0.1, uint8(0), uint16(7))
	f.Add(int64(2), uint16(333), 0.01, uint8(1), uint16(0))
	f.Add(int64(3), uint16(1024), 0.5, uint8(2), uint16(128))
	f.Add(int64(4), uint16(17), 0.0, uint8(3), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, eps float64, mi uint8, chunk uint16) {
		if n == 0 || n > 2048 {
			t.Skip()
		}
		if math.IsNaN(eps) || math.IsInf(eps, 0) || eps < 0 || eps > 2 {
			t.Skip()
		}
		methods := streamMethods()
		m := methods[int(mi)%len(methods)]
		s := synthSeries(int(n), seed)

		enc, err := NewStreamEncoderAt(m, s.Start, s.Interval, eps)
		if err != nil {
			t.Fatal(err)
		}
		src := s.Chunks(int(chunk))
		for {
			c, ok := src.Next()
			if !ok {
				break
			}
			if err := enc.PushChunk(c); err != nil {
				t.Fatal(err)
			}
		}
		streamed, err := enc.Close()
		if err != nil {
			t.Fatal(err)
		}
		comp, err := New(m)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := comp.Compress(s, eps)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed.Payload, batch.Payload) {
			t.Fatalf("%s n=%d eps=%v chunk=%d: streamed payload differs from batch", m, n, eps, chunk)
		}
		want, err := batch.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewStreamDecoder(streamed, 96)
		if err != nil {
			t.Fatal(err)
		}
		got, err := timeseries.Collect("", dec)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s n=%d eps=%v: streamed reconstruction differs from batch", m, n, eps)
		}
	})
}
