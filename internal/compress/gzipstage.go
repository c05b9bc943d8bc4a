package compress

import (
	"bytes"
	"compress/gzip"
	"io"
	"sync"
)

// The gzip stage is shared by every method (§3.2, §3.5), which also makes
// it the last allocation in the hot encode/decode path. Writers and readers
// are pooled and Reset between uses — deflate output depends only on the
// input bytes and level, so pooling changes no payload byte — and the
// Append variants write into caller-supplied buffers so steady-state
// compression of a stream does zero heap allocation past warm-up.

// appendWriter is an io.Writer that appends to a byte slice.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// pooledGzipWriter bundles a gzip.Writer with its append sink so one pool
// object carries both across uses.
type pooledGzipWriter struct {
	aw appendWriter
	zw *gzip.Writer
}

var gzipWriterPool = sync.Pool{New: func() any {
	g := &pooledGzipWriter{}
	g.zw = gzip.NewWriter(&g.aw)
	return g
}}

// AppendGzip appends the gzip encoding of data to dst and returns the
// extended slice, reusing a pooled writer. The bytes produced are identical
// to GzipBytes(data). On error the (possibly grown) dst is returned
// alongside, so a pooled buffer is never lost.
func AppendGzip(dst, data []byte) ([]byte, error) {
	g := gzipWriterPool.Get().(*pooledGzipWriter)
	g.aw.b = dst
	g.zw.Reset(&g.aw)
	_, err := g.zw.Write(data)
	if cerr := g.zw.Close(); err == nil {
		err = cerr
	}
	out := g.aw.b
	g.aw.b = nil // do not pin the caller's buffer inside the pool
	gzipWriterPool.Put(g)
	return out, err
}

// GzipBytes compresses data with gzip at the default compression level.
// The paper applies gzip as the final stage of every method (and to the raw
// data) so all reported sizes are .gz byte counts (§3.2, §3.5).
func GzipBytes(data []byte) ([]byte, error) {
	return AppendGzip(nil, data)
}

// pooledGzipReader bundles a gzip.Reader with the bytes.Reader it drains,
// and room for a payload header so inflating it ahead of the body
// (openPayload) allocates nothing.
type pooledGzipReader struct {
	br   bytes.Reader
	zr   gzip.Reader
	head [headerLen]byte
}

var gzipReaderPool = sync.Pool{New: func() any { return &pooledGzipReader{} }}

// openGzip returns a pooled reader positioned at the start of data's
// inflated stream; release it when done.
func openGzip(data []byte) (*pooledGzipReader, error) {
	g := gzipReaderPool.Get().(*pooledGzipReader)
	g.br.Reset(data)
	if err := g.zr.Reset(&g.br); err != nil {
		g.release()
		return nil, err
	}
	return g, nil
}

// release returns the reader to the pool without pinning its input.
func (g *pooledGzipReader) release() {
	g.br.Reset(nil)
	gzipReaderPool.Put(g)
}

// AppendGunzip appends the decompression of gzip data to dst and returns
// the extended slice, reusing a pooled reader. On error the (possibly
// grown) dst is returned alongside, so a pooled buffer is never lost.
func AppendGunzip(dst, data []byte) ([]byte, error) {
	g, err := openGzip(data)
	if err != nil {
		return dst, err
	}
	defer g.release()
	return appendInflated(dst, &g.zr)
}

// appendInflated appends everything left in zr to dst, verifying the gzip
// checksum at the end of the stream.
func appendInflated(dst []byte, zr *gzip.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := zr.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// GunzipBytes decompresses gzip data.
func GunzipBytes(data []byte) ([]byte, error) {
	return AppendGunzip(nil, data)
}
