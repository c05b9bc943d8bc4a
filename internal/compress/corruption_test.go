package compress

import (
	"bytes"
	"compress/gzip"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// TestDecompressNeverPanics injects random corruption — bit flips,
// truncation, and garbage prefixes — into valid payloads of every method.
// Decompression must fail cleanly (or succeed on benign flips); it must
// never panic or loop.
func TestDecompressNeverPanics(t *testing.T) {
	s := synthSeries(500, 63)
	var payloads []*Compressed
	for _, m := range append(lossyMethods(), MethodGorilla) {
		c, _ := New(m)
		comp, err := c.Compress(s, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, comp)
	}
	spmc, err := (SeasonalPMC{Period: 48}).Compress(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	payloads = append(payloads, spmc)
	f := func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
				t.Logf("panic: %v", r)
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		base := payloads[rng.Intn(len(payloads))]
		mutated := &Compressed{
			Method:  base.Method,
			Epsilon: base.Epsilon,
			N:       base.N,
			Payload: append([]byte(nil), base.Payload...),
		}
		switch rng.Intn(3) {
		case 0: // flip a few bytes
			for k := 0; k < 1+rng.Intn(8); k++ {
				i := rng.Intn(len(mutated.Payload))
				mutated.Payload[i] ^= byte(1 + rng.Intn(255))
			}
		case 1: // truncate
			mutated.Payload = mutated.Payload[:rng.Intn(len(mutated.Payload))]
		case 2: // replace with noise
			for i := range mutated.Payload {
				mutated.Payload[i] = byte(rng.Intn(256))
			}
		}
		series, err := mutated.Decompress()
		// Either a clean error, or a decoded series; both are acceptable —
		// gzip checksums catch most corruption, the rest must fail safely.
		if err == nil && series == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDecompressLengthMismatch feeds a payload claiming more points than
// its segments provide.
func TestDecompressLengthMismatch(t *testing.T) {
	s := synthSeries(100, 64)
	comp, err := (PMC{}).Compress(s, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	body, err := GunzipBytes(comp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	// Inflate the count field (bytes 7..11 of the header).
	body[7] = 0xFF
	body[8] = 0xFF
	gz, err := GzipBytes(body)
	if err != nil {
		t.Fatal(err)
	}
	comp.Payload = gz
	if _, err := comp.Decompress(); err == nil {
		t.Error("inflated count should fail decompression")
	}
}

// TestDecompressionBombRejectedAtHeader feeds both decode APIs a
// 260,930-byte gzip of 256 MiB of zeros. Its header carries wire code 0,
// which no method owns, so the payload must be rejected with the typed
// unknown-code error after its 11 header bytes are inflated — not after the
// whole body is (which allocated about 1.4 GB).
func TestDecompressionBombRejectedAtHeader(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zeros := make([]byte, 1<<20)
	for i := 0; i < 256; i++ {
		if _, err := zw.Write(zeros); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 260930 {
		t.Fatalf("bomb payload is %d bytes, want 260930", buf.Len())
	}
	bomb := &Compressed{Method: MethodPMC, Payload: buf.Bytes()}
	decoders := []struct {
		name   string
		decode func() error
	}{
		{"AppendValues", func() error {
			_, err := bomb.AppendValues(nil)
			return err
		}},
		{"NewStreamDecoder", func() error {
			dec, err := NewStreamDecoder(bomb, 0)
			if err == nil {
				dec.Release()
			}
			return err
		}},
	}
	for _, d := range decoders {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := d.decode()
		runtime.ReadMemStats(&after)
		var code unknownCodeError
		if !errors.As(err, &code) || code != 0 {
			t.Errorf("%s: got error %v, want the unknown method code 0 error", d.name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: allocated %d B before rejecting the header, want < 1 MiB", d.name, alloc)
		}
	}
}
