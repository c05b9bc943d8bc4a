package compress

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestBitRoundTrip(t *testing.T) {
	var w BitWriter
	w.WriteBit(1)
	w.WriteBit(0)
	w.WriteBits(0b1011, 4)
	w.WriteBits(0xDEADBEEF, 32)
	r := NewBitReader(w.Bytes())
	if b, _ := r.ReadBit(); b != 1 {
		t.Fatal("first bit")
	}
	if b, _ := r.ReadBit(); b != 0 {
		t.Fatal("second bit")
	}
	if v, _ := r.ReadBits(4); v != 0b1011 {
		t.Fatalf("4 bits = %b", v)
	}
	if v, _ := r.ReadBits(32); v != 0xDEADBEEF {
		t.Fatalf("32 bits = %x", v)
	}
}

func TestBitReaderEOF(t *testing.T) {
	r := NewBitReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err == nil {
		t.Fatal("expected EOF")
	}
	if _, err := r.ReadBits(65); err == nil {
		t.Fatal("n>64 should error")
	}
}

func TestBitRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		type item struct {
			v    uint64
			bits uint
		}
		items := make([]item, n)
		var w BitWriter
		for i := range items {
			bits := uint(1 + rng.Intn(64))
			v := rng.Uint64()
			if bits < 64 {
				v &= (1 << bits) - 1
			}
			items[i] = item{v, bits}
			w.WriteBits(v, bits)
		}
		r := NewBitReader(w.Bytes())
		for _, it := range items {
			got, err := r.ReadBits(it.bits)
			if err != nil || got != it.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHuffmanRoundTrip(t *testing.T) {
	syms := []uint16{1, 1, 1, 1, 2, 2, 3, 70, 70, 70, 70, 70, 70, 65535}
	enc, err := HuffmanEncode(syms)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := HuffmanDecode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(syms) {
		t.Fatalf("decoded %d symbols, want %d", len(dec), len(syms))
	}
	for i := range syms {
		if dec[i] != syms[i] {
			t.Fatalf("symbol %d = %d, want %d", i, dec[i], syms[i])
		}
	}
}

// TestHuffmanConcurrentRoundTrip runs more coders at once than the scratch
// free list holds, so scratch objects are taken, dropped and reused across
// goroutines; every payload must equal its serial encoding and decode back.
func TestHuffmanConcurrentRoundTrip(t *testing.T) {
	streams := make([][]uint16, 12)
	want := make([][]byte, len(streams))
	for i := range streams {
		rng := rand.New(rand.NewSource(int64(i)))
		streams[i] = make([]uint16, 500+100*i)
		for j := range streams[i] {
			streams[i][j] = uint16(rng.Intn(3 + 40*i))
		}
		var err error
		if want[i], err = HuffmanEncode(streams[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for range 20 {
				enc, err := HuffmanEncode(streams[i])
				if err != nil || !bytes.Equal(enc, want[i]) {
					t.Errorf("stream %d: concurrent encoding differs from serial (err %v)", i, err)
					return
				}
				dec, err := HuffmanDecode(enc)
				if err != nil || !slices.Equal(dec, streams[i]) {
					t.Errorf("stream %d: concurrent round trip failed (err %v)", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestHuffmanSingleSymbol(t *testing.T) {
	syms := []uint16{7, 7, 7, 7}
	enc, err := HuffmanEncode(syms)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := HuffmanDecode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range dec {
		if s != 7 {
			t.Fatalf("decoded %v", dec)
		}
	}
}

func TestHuffmanEmpty(t *testing.T) {
	if _, err := HuffmanEncode(nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := HuffmanDecode([]byte{1, 2}); err == nil {
		t.Error("truncated stream should error")
	}
}

func TestHuffmanCompresses(t *testing.T) {
	// A heavily skewed stream should come out well below 2 bytes/symbol.
	syms := make([]uint16, 10000)
	rng := rand.New(rand.NewSource(1))
	for i := range syms {
		if rng.Float64() < 0.95 {
			syms[i] = 42
		} else {
			syms[i] = uint16(rng.Intn(16))
		}
	}
	enc, err := HuffmanEncode(syms)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > len(syms) {
		t.Fatalf("huffman output %d bytes for %d skewed symbols", len(enc), len(syms))
	}
}

func TestHuffmanRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		syms := make([]uint16, n)
		alphabet := 1 + rng.Intn(64)
		for i := range syms {
			syms[i] = uint16(rng.Intn(alphabet))
		}
		enc, err := HuffmanEncode(syms)
		if err != nil {
			return false
		}
		dec, err := HuffmanDecode(enc)
		if err != nil || len(dec) != n {
			return false
		}
		for i := range syms {
			if dec[i] != syms[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGzipRoundTrip(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog, repeatedly: " +
		"the quick brown fox jumps over the lazy dog")
	gz, err := GzipBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := GunzipBytes(gz)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(data) {
		t.Fatal("gzip round trip mismatch")
	}
	if _, err := GunzipBytes([]byte("not gzip")); err == nil {
		t.Error("invalid gzip should error")
	}
}
