package bench

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"lossyts/internal/compress"
	"lossyts/internal/datasets"
	"lossyts/internal/timeseries"
)

// ingestChunk is the edge scenario's upload unit in points.
const ingestChunk = 512

// ingestBounds are the error bounds every lossy stream codec runs at; the
// lossless Gorilla codec runs once.
var ingestBounds = []float64{0.01, 0.05, 0.1, 0.4}

// ingestJob is one (dataset, codec, bound) stream.
type ingestJob struct {
	key    string
	series *timeseries.Series
	chunks []timeseries.Chunk
	method compress.Method
	eps    float64
	hash   string // payload hash of the first round; later rounds must match
}

// ingestPlan generates the datasets (set-up) and lists the jobs.
func ingestPlan(c *child) ([]*ingestJob, error) {
	names, scale := datasets.Names, 1.0
	if c.spec.Small {
		names, scale = []string{"ETTm1", "Solar"}, 0.05
	}
	var jobs []*ingestJob
	for _, name := range names {
		span := c.rec.Begin("datasets.StreamTarget/"+name, 0, 0)
		src, err := datasets.StreamTarget(name, scale, c.spec.Seed, ingestChunk)
		if err != nil {
			return nil, err
		}
		s, err := timeseries.Collect(name, src)
		c.rec.End(span)
		if err != nil {
			return nil, err
		}
		chunks := chunksOf(s, ingestChunk)
		for _, m := range compress.StreamingMethods() {
			bounds := ingestBounds
			if m == compress.MethodGorilla {
				bounds = []float64{0}
			}
			for _, eps := range bounds {
				jobs = append(jobs, &ingestJob{key: fmt.Sprintf("%s/%s/%g", name, m, eps), series: s, chunks: chunks, method: m, eps: eps})
			}
		}
	}
	return jobs, nil
}

// chunksOf cuts s into views of at most size points.
func chunksOf(s *timeseries.Series, size int) []timeseries.Chunk {
	var out []timeseries.Chunk
	for lo := 0; lo < s.Len(); lo += size {
		hi := min(lo+size, s.Len())
		out = append(out, timeseries.Chunk{Start: s.Start + int64(lo)*s.Interval, Interval: s.Interval, Values: s.Values[lo:hi]})
	}
	return out
}

// ingestRounds is the number of passes over every job: one per three
// nominal seconds, so both sides of a comparison do the same work.
func ingestRounds(c *child) int {
	return max(1, int(math.Round(c.spec.Seconds/3)))
}

// ingestTotals accumulates encode and decode time across workers.
type ingestTotals struct {
	encodeNs, decodeNs, points atomic.Int64
}

// runIngest streams every dataset through every stream codec: push
// 512-point chunks, close, decode with AppendValues and check the bound.
func runIngest(c *child) error {
	jobs, err := ingestPlan(c)
	if err != nil {
		return err
	}
	if !c.ready() {
		return nil
	}
	rounds := ingestRounds(c)
	var tot ingestTotals
	c.begin()
	for r := 0; r < rounds; r++ {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < loadWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var payload []byte
				var values []float64
				for {
					j := int(next.Add(1)) - 1
					if j >= len(jobs) {
						return
					}
					payload, values = ingestOne(c, jobs[j], r, int64(r*len(jobs)+j), payload, values, &tot)
				}
			}()
		}
		wg.Wait()
	}
	wall := c.end()
	if c.rec != nil {
		c.metric("datasets.load_s", loadSeconds(c))
		c.metric("compress_mpts_s", float64(tot.points.Load())/float64(tot.encodeNs.Load())*1e3)
		c.metric("decompress_mpts_s", float64(tot.points.Load())/float64(tot.decodeNs.Load())*1e3)
		c.metric("points_per_s", float64(tot.points.Load())/wall)
		ingestLayers(c, jobs, rounds)
	}
	return nil
}

// loadSeconds sums the dataset generation spans of the set-up.
func loadSeconds(c *child) float64 {
	var s float64
	for _, name := range datasets.Names {
		s += c.rec.Total("datasets.StreamTarget/" + name)
	}
	return s
}

// ingestOne runs one job once, reusing the worker's payload and value
// buffers, and records the job as an operation timed over encode+decode.
func ingestOne(c *child, job *ingestJob, round int, req int64, payload []byte, values []float64, tot *ingestTotals) ([]byte, []float64) {
	m := string(job.method)
	root := c.rec.Begin("ingest.job", 0, req)
	t0 := time.Now()
	span := c.rec.Begin("compress.push/"+m, root, req)
	enc, err := compress.NewStreamEncoderAt(job.method, job.series.Start, job.series.Interval, job.eps)
	for _, ch := range job.chunks {
		if err != nil {
			break
		}
		err = enc.PushChunk(ch)
	}
	c.rec.End(span)
	var comp *compress.Compressed
	if err == nil {
		span = c.rec.Begin("compress.close/"+m, root, req)
		comp, err = enc.CloseAppend(payload[:0])
		c.rec.End(span)
	}
	t1 := time.Now()
	if err == nil {
		payload = comp.Payload
		span = c.rec.Begin("compress.decode/"+m, root, req)
		values, err = comp.AppendValues(values[:0])
		c.rec.End(span)
	}
	t2 := time.Now()
	if enc != nil {
		enc.Release()
	}
	c.rec.End(root)
	if err != nil {
		c.op(float64(t2.Sub(t0))/1e6, fmt.Sprintf("ingest %s: %v", job.key, err))
		return payload, values
	}
	n := int64(job.series.Len())
	tot.encodeNs.Add(int64(t1.Sub(t0)))
	tot.decodeNs.Add(int64(t2.Sub(t1)))
	tot.points.Add(n)
	c.op(float64(t2.Sub(t0))/1e6, checkIngest(c, job, round, comp.Payload, values))
	return payload, values
}

// checkIngest checks one decoded job: the error bound (exact equality for
// the lossless codec), the same payload in every round, and the golden
// payload hash.
func checkIngest(c *child, job *ingestJob, round int, payload []byte, values []float64) string {
	var msg string
	if job.eps == 0 {
		if len(values) != job.series.Len() {
			msg = fmt.Sprintf("decoded %d values, want %d", len(values), job.series.Len())
		}
		for i, v := range job.series.Values {
			if msg == "" && math.Float64bits(v) != math.Float64bits(values[i]) {
				msg = fmt.Sprintf("lossless codec changed index %d: %v -> %v", i, v, values[i])
			}
		}
	} else {
		msg = checkBound(job.series.Values, values, job.eps)
	}
	if msg != "" {
		return fmt.Sprintf("ingest %s: %s", job.key, msg)
	}
	if round == 0 {
		job.hash = hashHex(payload)
		return c.output(job.key, payload)
	}
	if h := hashHex(payload); h != job.hash {
		return fmt.Sprintf("ingest %s: round %d payload differs from round 0", job.key, round)
	}
	return ""
}

// ingestLayers runs the traced run's attribution pass: per codec, the push,
// close and decode spans of the measured rounds, plus the gzip share of
// close (AppendGzip over the gunzipped frame) and the gunzip share of
// decode, each timed once per job. The pass also checks that every
// streamed payload equals the batch Compress payload of the same series.
func ingestLayers(c *child, jobs []*ingestJob, rounds int) {
	points := map[compress.Method]float64{}
	bytesOut := map[compress.Method]float64{}
	var frame, gz []byte
	for i, job := range jobs {
		req := int64(rounds*len(jobs) + i)
		comp, err := compress.New(job.method)
		var batch *compress.Compressed
		if err == nil {
			batch, err = comp.Compress(job.series, job.eps)
		}
		if err != nil {
			c.fail("ingest %s: batch compress: %v", job.key, err)
			continue
		}
		if hashHex(batch.Payload) != job.hash {
			c.fail("ingest %s: streamed payload differs from batch Compress", job.key)
		}
		m := string(job.method)
		span := c.rec.Begin("compress.gunzip/"+m, 0, req)
		frame, err = compress.AppendGunzip(frame[:0], batch.Payload)
		c.rec.End(span)
		if err == nil {
			span = c.rec.Begin("compress.gzip/"+m, 0, req)
			gz, err = compress.AppendGzip(gz[:0], frame)
			c.rec.End(span)
		}
		if err != nil {
			c.fail("ingest %s: gzip attribution: %v", job.key, err)
		} else if !bytes.Equal(gz, batch.Payload) {
			c.fail("ingest %s: re-gzipped frame differs from the payload", job.key)
		}
		points[job.method] += float64(job.series.Len())
		bytesOut[job.method] += float64(len(batch.Payload))
	}
	for _, m := range compress.StreamingMethods() {
		if points[m] == 0 {
			continue
		}
		perPoint := func(layer string, n float64) float64 {
			return c.rec.Total("compress."+layer+"/"+string(m)) * 1e9 / n
		}
		name := "compress." + string(m) + "."
		for _, layer := range []string{"push", "close", "decode"} {
			c.metric(name+layer+"_ns_pt", perPoint(layer, points[m]*float64(rounds)))
		}
		c.metric(name+"gzip_ns_pt", perPoint("gzip", points[m]))
		c.metric(name+"gunzip_ns_pt", perPoint("gunzip", points[m]))
		c.metric(name+"payload_bytes_pt", bytesOut[m]/points[m])
	}
}
