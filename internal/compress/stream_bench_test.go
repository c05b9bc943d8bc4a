package compress

import (
	"testing"

	"lossyts/internal/timeseries"
)

// The benchmarks below pair the batch and chunked-streaming paths over the
// same series so -benchmem shows what each plane allocates. The streamed
// payload is byte-identical to the batch one (TestStreamMatchesBatch); only
// the memory profile differs.

func benchSeries(n int) *timeseries.Series { return synthSeries(n, 63) }

func BenchmarkBatchCompress(b *testing.B) {
	s := benchSeries(20000)
	comp, _ := New(MethodPMC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comp.Compress(s, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamEncode(b *testing.B) {
	s := benchSeries(20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := NewStreamEncoder(MethodPMC, s, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		src := s.Chunks(512)
		for {
			c, ok := src.Next()
			if !ok {
				break
			}
			if err := enc.PushChunk(c); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := enc.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchDecompress(b *testing.B) {
	s := benchSeries(20000)
	comp, _ := New(MethodPMC)
	c, err := comp.Compress(s, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decompress(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamDecode(b *testing.B) {
	s := benchSeries(20000)
	comp, _ := New(MethodPMC)
	c, err := comp.Compress(s, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := NewStreamDecoder(c, 512)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, ok := dec.Next(); !ok {
				break
			}
		}
		if err := dec.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// The per-kernel benchmarks below measure one full codec op — fresh encoder
// (or decoder), all points pushed (or drained), payload finished — for each
// of the four stream kernels separately, the unit cost the serving plane
// pays per cache-missed request. ns/op divided by the point count gives the
// per-kernel ns/point.

const kernelBenchPoints = 20000

func BenchmarkKernelCompress(b *testing.B) {
	s := benchSeries(kernelBenchPoints)
	for _, m := range streamMethods() {
		b.Run(string(m), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(s.Len() * 8))
			for i := 0; i < b.N; i++ {
				enc, err := NewStreamEncoder(m, s, 0.05)
				if err != nil {
					b.Fatal(err)
				}
				src := s.Chunks(512)
				for {
					c, ok := src.Next()
					if !ok {
						break
					}
					if err := enc.PushChunk(c); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := enc.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The Raw variants isolate the kernel layer — the per-point encode/decode
// loops — from the shared gzip stage, whose cost is fixed by the wire format
// (the paper's sizes are .gz byte counts, at the default level). They
// measure the steady state the rework targets: one encoder serving many
// series through Reset/AppendFinish, one value stream replayed through
// rewind — zero heap allocation per op (see alloc_test.go).

func BenchmarkKernelEncodeRaw(b *testing.B) {
	s := benchSeries(kernelBenchPoints)
	for _, m := range streamMethods() {
		b.Run(string(m), func(b *testing.B) {
			enc, err := NewStreamEncoder(m, s, 0.05)
			if err != nil {
				b.Fatal(err)
			}
			fa, ok := enc.kernel.(FinishAppender)
			if !ok {
				b.Fatalf("%s kernel lacks AppendFinish", m)
			}
			body := GetBytes(4096)
			b.Cleanup(func() { PutBytes(body); enc.Release() })
			b.ReportAllocs()
			b.SetBytes(int64(s.Len() * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := enc.Reset(s.Start, s.Interval); err != nil {
					b.Fatal(err)
				}
				for _, v := range s.Values {
					enc.kernel.Push(v)
				}
				body, _ = fa.AppendFinish(body[:0])
				if len(body) == 0 {
					b.Fatal("empty body")
				}
			}
		})
	}
}

func BenchmarkKernelDecodeRaw(b *testing.B) {
	s := benchSeries(kernelBenchPoints)
	for _, m := range streamMethods() {
		b.Run(string(m), func(b *testing.B) {
			comp, err := New(m)
			if err != nil {
				b.Fatal(err)
			}
			c, err := comp.Compress(s, 0.05)
			if err != nil {
				b.Fatal(err)
			}
			raw, err := GunzipBytes(c.Payload)
			if err != nil {
				b.Fatal(err)
			}
			hdr, body, err := decodeHeader(raw)
			if err != nil {
				b.Fatal(err)
			}
			reg, err := lookup(m)
			if err != nil || reg.DecodeStream == nil {
				b.Fatal("no stream decoder")
			}
			vs, err := reg.DecodeStream(body, int(hdr.count))
			if err != nil {
				b.Fatal(err)
			}
			rw, ok := vs.(valueRewinder)
			if !ok {
				b.Fatalf("%s value stream lacks rewind", m)
			}
			var buf [512]float64
			b.ReportAllocs()
			b.SetBytes(int64(s.Len() * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rw.rewind()
				total := 0
				for total < int(hdr.count) {
					n, err := vs.Next(buf[:])
					total += n
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkKernelDecompress(b *testing.B) {
	s := benchSeries(kernelBenchPoints)
	for _, m := range streamMethods() {
		b.Run(string(m), func(b *testing.B) {
			comp, err := New(m)
			if err != nil {
				b.Fatal(err)
			}
			c, err := comp.Compress(s, 0.05)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(s.Len() * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec, err := NewStreamDecoder(c, 512)
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, ok := dec.Next(); !ok {
						break
					}
				}
				if err := dec.Err(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
