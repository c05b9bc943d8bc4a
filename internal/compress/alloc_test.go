package compress

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"testing"

	"lossyts/internal/timeseries"
)

// These tests pin the tentpole invariant of the codec kernel layer: once the
// pools are warm, the per-series encode and decode loops of all four stream
// kernels allocate nothing. testing.AllocsPerRun is deterministic here
// because the GC is disabled for the duration (sync.Pool eviction is the one
// nondeterminism) and the assertions are skipped under -race, whose runtime
// instruments allocations.

// withGCOff disables the GC for the test so pooled buffers cannot be evicted
// mid-measurement.
func withGCOff(t *testing.T) {
	t.Helper()
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

func allocSeries() *timeseries.Series { return synthSeries(4096, 17) }

// rewindDecoder restarts a drained StreamDecoder over the same payload
// without re-parsing it — the in-package hook behind the decode-side
// zero-allocation measurements.
func rewindDecoder(t *testing.T, d *StreamDecoder) {
	t.Helper()
	rw, ok := d.vs.(valueRewinder)
	if !ok {
		t.Fatalf("value stream %T lacks rewind", d.vs)
	}
	rw.rewind()
	d.pos = 0
	d.err = nil
}

func TestKernelEncodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race")
	}
	withGCOff(t)
	s := allocSeries()
	for _, m := range streamMethods() {
		t.Run(string(m), func(t *testing.T) {
			enc, err := NewStreamEncoder(m, s, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			fa, ok := enc.kernel.(FinishAppender)
			if !ok {
				t.Fatalf("%s kernel does not implement FinishAppender", m)
			}
			body := GetBytes(4096)
			defer func() { PutBytes(body); enc.Release() }()
			run := func() {
				if err := enc.Reset(s.Start, s.Interval); err != nil {
					t.Fatal(err)
				}
				for _, v := range s.Values {
					enc.kernel.Push(v)
				}
				body, _ = fa.AppendFinish(body[:0])
				if len(body) == 0 {
					t.Fatal("empty body")
				}
			}
			run() // warm the pools and grow every scratch buffer to full size
			if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
				t.Fatalf("%s steady-state encode: %v allocs/op, want 0", m, allocs)
			}
		})
	}
}

func TestKernelDecodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race")
	}
	withGCOff(t)
	s := allocSeries()
	for _, m := range streamMethods() {
		t.Run(string(m), func(t *testing.T) {
			comp, err := New(m)
			if err != nil {
				t.Fatal(err)
			}
			c, err := comp.Compress(s, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := NewStreamDecoder(c, 512)
			if err != nil {
				t.Fatal(err)
			}
			defer dec.Release()
			run := func() {
				rewindDecoder(t, dec)
				total := 0
				for {
					chunk, ok := dec.Next()
					if !ok {
						break
					}
					total += chunk.Len()
				}
				if dec.Err() != nil {
					t.Fatal(dec.Err())
				}
				if total != s.Len() {
					t.Fatalf("drained %d of %d values", total, s.Len())
				}
			}
			run()
			if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
				t.Fatalf("%s steady-state decode: %v allocs/op, want 0", m, allocs)
			}
		})
	}
}

// TestRawGzipSizeAllocs pins the raw-size path of every compression ratio:
// the gzip writer comes from the pool and every CSV row reuses one buffer,
// so a call allocates a fixed handful of objects whatever the series
// length. A fresh gzip writer costs more than this budget on its own.
func TestRawGzipSizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race")
	}
	withGCOff(t)
	s := allocSeries()
	op := func() {
		if _, err := RawGzipSize(s); err != nil {
			t.Fatal(err)
		}
	}
	op() // warm the writer pool
	if allocs := testing.AllocsPerRun(20, op); allocs > 4 {
		t.Fatalf("RawGzipSize: %v allocs/op, want at most 4", allocs)
	}
}

// TestHuffmanScratchSurvivesGC pins the Huffman coder's scratch free list:
// a garbage collection between two coding passes must not cost a fresh set
// of symbol tables, as it did while the scratch lived in a sync.Pool. The
// stream spans the whole 16-bit alphabet, so fresh tables would be 1.4 MB.
func TestHuffmanScratchSurvivesGC(t *testing.T) {
	symbols := make([]uint16, 4096)
	for i := range symbols {
		symbols[i] = uint16(i*i) % 37
	}
	symbols[0], symbols[1] = 0, 65535
	payload, err := HuffmanEncode(symbols)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 2*len(payload))
	const passes = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		runtime.GC()
		if _, err := AppendHuffman(dst[:0], symbols); err != nil {
			t.Fatal(err)
		}
		if _, err := HuffmanDecode(payload); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / passes; per > 256<<10 {
		t.Fatalf("encode+decode after a GC allocated %d B, want at most 256 KiB (fresh tables are 1.4 MB)", per)
	}
}

// allocBudget mirrors testdata/alloc_budget.json: the committed per-method
// ceiling for full-operation allocation counts (fresh encoder, gzip framing,
// fresh decoder — everything a cache-missed request pays — plus the batch
// Compress and AppendValues paths). The steady-state loops are pinned to zero
// above; this guards the constructor-and-frame path against silent
// regressions. Budgets carry about twice the measured values, so only a real
// regression — a lost pool, a reintroduced per-point allocation — trips it.
type allocBudget struct {
	SeriesLen int                           `json:"series_len"`
	Runs      int                           `json:"runs"`
	MaxAllocs map[string]map[string]float64 `json:"max_allocs_per_op"`
}

func TestKernelAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race")
	}
	withGCOff(t)
	raw, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var budget allocBudget
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatal(err)
	}
	s := synthSeries(budget.SeriesLen, 17)
	for _, m := range streamMethods() {
		limits, ok := budget.MaxAllocs[string(m)]
		if !ok {
			t.Fatalf("no alloc budget committed for %s", m)
		}
		t.Run(string(m), func(t *testing.T) {
			compressOp := func() {
				enc, err := NewStreamEncoder(m, s, 0.05)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range s.Values {
					if err := enc.Push(v); err != nil {
						t.Fatal(err)
					}
				}
				buf := GetBytes(1024)
				c, err := enc.CloseAppend(buf)
				if err != nil {
					t.Fatal(err)
				}
				PutBytes(c.Payload)
				enc.Release()
			}
			compressOp() // warm pools
			got := testing.AllocsPerRun(budget.Runs, compressOp)
			if max := limits["compress"]; got > max {
				t.Errorf("%s compress: %v allocs/op exceeds budget %v", m, got, max)
			}

			comp, err := New(m)
			if err != nil {
				t.Fatal(err)
			}
			c, err := comp.Compress(s, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			decompressOp := func() {
				dec, err := NewStreamDecoder(c, 512)
				if err != nil {
					t.Fatal(err)
				}
				for {
					if _, ok := dec.Next(); !ok {
						break
					}
				}
				if dec.Err() != nil {
					t.Fatal(dec.Err())
				}
				dec.Release()
			}
			decompressOp()
			got = testing.AllocsPerRun(budget.Runs, decompressOp)
			if max := limits["decompress"]; got > max {
				t.Errorf("%s decompress: %v allocs/op exceeds budget %v", m, got, max)
			}

			// The batch path: a whole-series Compress, and AppendValues into
			// a slice the caller reuses.
			batchOp := func() {
				if _, err := comp.Compress(s, 0.05); err != nil {
					t.Fatal(err)
				}
			}
			batchOp()
			got = testing.AllocsPerRun(budget.Runs, batchOp)
			if max, ok := limits["batch_compress"]; !ok || got > max {
				t.Errorf("%s batch_compress: %v allocs/op exceeds budget %v", m, got, max)
			}
			dst := make([]float64, 0, s.Len())
			appendOp := func() {
				var err error
				if dst, err = c.AppendValues(dst[:0]); err != nil {
					t.Fatal(err)
				}
			}
			appendOp()
			got = testing.AllocsPerRun(budget.Runs, appendOp)
			if max, ok := limits["append_values"]; !ok || got > max {
				t.Errorf("%s append_values: %v allocs/op exceeds budget %v", m, got, max)
			}
		})
	}
}
