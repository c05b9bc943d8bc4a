// Streaming: the chunked data plane end to end — read a dataset chunk by
// chunk, compress it incrementally at the edge, decode it chunk by chunk in
// the cloud, and verify the whole path is byte-identical to batch
// processing.
package main

import (
	"bytes"
	"fmt"
	"log"

	"lossyts"
)

func main() {
	const (
		dataset = "Wind"
		scale   = 0.05
		seed    = int64(1)
		chunk   = 512
		eps     = 0.05
	)

	// 1. Read the target column chunk by chunk. StreamDataset loads the
	// dataset once and serves its target as chunk views, standing in for a
	// sensor feed that delivers one chunk at a time.
	src, err := lossyts.StreamDataset(dataset, scale, seed, chunk)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streaming %s: %d points in chunks of %d\n", dataset, src.Len(), chunk)

	// 2. Feed the chunks straight into a streaming encoder. Only the start
	// timestamp and interval are needed up front — the usual situation on an
	// edge device that has not seen the data yet.
	enc, err := lossyts.NewStreamEncoderAt(lossyts.PMC, src.Start(), src.Interval(), eps)
	if err != nil {
		log.Fatal(err)
	}
	chunks := 0
	for {
		c, ok := src.Next()
		if !ok {
			break
		}
		chunks++
		if err := enc.PushChunk(c); err != nil {
			log.Fatal(err)
		}
	}
	if err := src.Err(); err != nil {
		log.Fatal(err)
	}
	streamed, err := enc.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encoded %d chunks -> %d segments, %d payload bytes\n",
		chunks, streamed.Segments, len(streamed.Payload))

	// 3. The streamed payload is byte-identical to batch compression: batch
	// Compress drives the same incremental kernel, so there is nothing the
	// two planes can disagree about.
	ds := lossyts.MustLoadDataset(dataset, scale, seed)
	batch, err := lossyts.Compress(lossyts.PMC, ds.Target(), eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("payload identical to batch compression: %v\n",
		bytes.Equal(streamed.Payload, batch.Payload))
	cr, err := lossyts.Ratio(ds.Target(), streamed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compression ratio %.1fx at eps=%.2f\n", cr, eps)

	// 4. Decode chunk by chunk on the consuming side. StreamDecoder is a
	// SeriesSource, so it plugs into anything that accepts chunks —
	// CollectSeries bridges back to the batch world when needed.
	dec, err := lossyts.NewStreamDecoder(streamed, chunk)
	if err != nil {
		log.Fatal(err)
	}
	var maxAbs float64
	i := 0
	for {
		c, ok := dec.Next()
		if !ok {
			break
		}
		for _, v := range c.Values {
			if d := abs(v - ds.Target().Values[i]); d > maxAbs {
				maxAbs = d
			}
			i++
		}
	}
	if err := dec.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decoded %d points chunk by chunk, max abs reconstruction error %.4f\n", i, maxAbs)

	// The evaluation harness stays batch: Algorithm 1 forecasts from the
	// whole decompressed test subset, and batch Compress/Decompress run
	// these same stream kernels, so its payloads match the ones above.
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
