package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// The Huffman coder runs once per SZ payload over the whole quantisation
// code stream, so it sits on the hot compress path. It works entirely on
// flat, pooled arrays — dense per-symbol frequency/length/code tables, an
// index-based node arena and binary heap, and counting-sorted canonical
// order — with no maps, no container/heap interface boxing, and no
// recursion, so a warm encode or decode allocates nothing.
//
// The emitted bytes are identical to the historical map-based
// implementation: node keys (freq, symbol) form a strict total order (leaf
// symbols are unique and an internal node's symbol is the minimum of its
// disjoint subtree), so the merge sequence — and therefore every code
// length, canonical code, and table byte — is fully determined by the
// symbol frequencies alone.

// maxHuffmanCodeLen bounds canonical code lengths so codes fit comfortably
// in a uint64 during encoding. Residual-quantisation alphabets are small and
// never approach this in practice; hitting the bound is reported as an error
// and callers fall back to raw symbol storage.
const maxHuffmanCodeLen = 56

// huffNode is one node of the code tree, held in a flat arena and linked by
// index; left < 0 marks a leaf.
type huffNode struct {
	freq        uint64
	sym         uint16
	left, right int32
}

// huffScratch is the pooled working state shared by encode and decode. The
// dense per-symbol tables (13 bytes a symbol) cover the symbol range of the
// stream in hand, indexed by symbol minus base: a narrow alphabet, such as
// SZ's codes around the code radius on smooth data, needs a few kilobytes
// where all 65536 symbols would take 850 KB. The tables grow when a wider
// range arrives and are cleaned sparsely — only the entries named by
// present are touched — so a small alphabet pays for its own symbols.
type huffScratch struct {
	base    uint16   // the symbol at index 0 of the dense tables
	freq    []uint64 // per-symbol frequency, then canonical code, once lengths are built
	lens    []uint8  // per-symbol code length
	marks   []uint32 // per-symbol epoch stamp (decode table parsing)
	epoch   uint32
	present []uint16 // symbols in play, ascending
	order   []uint16 // present counting-sorted by (length, symbol)
	nodes   []huffNode
	heap    []int32
	stack   []int32
	depth   []uint16 // parallel to stack
	// Canonical decode tables indexed by code length (lengths come from
	// untrusted bytes, so the full 0..255 range is representable).
	count  [256]uint32
	first  [256]uint64
	offset [256]uint32
	bw     BitWriter
}

// huffFree holds idle scratch objects. A Huffman pass runs once per SZ
// payload, rarely enough that a sync.Pool is usually emptied by a garbage
// collection between two uses; this free list is never emptied. Its
// capacity caps what a burst of concurrent coders leaves retained: a
// scratch returned to a full list is dropped.
var huffFree = make(chan *huffScratch, 4)

// getHuffScratch takes an idle scratch object, or makes one, with dense
// tables covering the symbols lo..hi.
func getHuffScratch(lo, hi uint16) *huffScratch {
	var h *huffScratch
	select {
	case h = <-huffFree:
	default:
		h = &huffScratch{}
	}
	if n := int(hi-lo) + 1; len(h.lens) < n {
		// Cleaned tables hold only zeros and stale epochs, so nothing
		// carries over into the larger ones.
		h.freq = make([]uint64, n)
		h.lens = make([]uint8, n)
		h.marks = make([]uint32, n)
	}
	h.base = lo
	return h
}

// clean re-zeroes the sparse entries this use touched and returns the
// scratch to the free list, or drops it when the list is full.
func (h *huffScratch) clean() {
	for _, s := range h.present {
		i := s - h.base
		l := h.lens[i]
		h.count[l], h.first[l], h.offset[l] = 0, 0, 0
		h.freq[i] = 0
		h.lens[i] = 0
	}
	h.present = h.present[:0]
	h.order = h.order[:0]
	h.nodes = h.nodes[:0]
	h.heap = h.heap[:0]
	h.stack = h.stack[:0]
	h.depth = h.depth[:0]
	h.bw.Reset()
	select {
	case huffFree <- h:
	default:
	}
}

// heap helpers: a plain binary min-heap of node-arena indexes ordered by
// (freq, symbol) — a strict total order, see the package comment.

func (h *huffScratch) nodeLess(a, b int32) bool {
	na, nb := &h.nodes[a], &h.nodes[b]
	if na.freq != nb.freq {
		return na.freq < nb.freq
	}
	return na.sym < nb.sym
}

func (h *huffScratch) siftDown(i int) {
	n := len(h.heap)
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if j2 := j + 1; j2 < n && h.nodeLess(h.heap[j2], h.heap[j]) {
			j = j2
		}
		if !h.nodeLess(h.heap[j], h.heap[i]) {
			return
		}
		h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
		i = j
	}
}

func (h *huffScratch) heapPop() int32 {
	top := h.heap[0]
	n := len(h.heap) - 1
	h.heap[0] = h.heap[n]
	h.heap = h.heap[:n]
	if n > 0 {
		h.siftDown(0)
	}
	return top
}

func (h *huffScratch) heapPush(v int32) {
	h.heap = append(h.heap, v)
	i := len(h.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.nodeLess(h.heap[i], h.heap[parent]) {
			return
		}
		h.heap[i], h.heap[parent] = h.heap[parent], h.heap[i]
		i = parent
	}
}

// buildLengths fills lens for every symbol in present (which must be sorted
// and non-empty) from the frequencies in freq.
func (h *huffScratch) buildLengths() error {
	if len(h.present) == 1 {
		h.lens[h.present[0]-h.base] = 1
		return nil
	}
	for _, s := range h.present {
		h.nodes = append(h.nodes, huffNode{freq: h.freq[s-h.base], sym: s, left: -1})
		h.heap = append(h.heap, int32(len(h.nodes)-1))
	}
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	for len(h.heap) > 1 {
		a := h.heapPop()
		b := h.heapPop()
		sym := h.nodes[a].sym
		if s := h.nodes[b].sym; s < sym {
			sym = s
		}
		h.nodes = append(h.nodes, huffNode{freq: h.nodes[a].freq + h.nodes[b].freq, sym: sym, left: a, right: b})
		h.heapPush(int32(len(h.nodes) - 1))
	}
	// Depth-first walk of the arena assigns leaf depths as code lengths.
	h.stack = append(h.stack[:0], h.heap[0])
	h.depth = append(h.depth[:0], 0)
	for len(h.stack) > 0 {
		n := len(h.stack) - 1
		ni, d := h.stack[n], h.depth[n]
		h.stack, h.depth = h.stack[:n], h.depth[:n]
		node := &h.nodes[ni]
		if node.left < 0 {
			if d > maxHuffmanCodeLen {
				return fmt.Errorf("compress: huffman code length %d exceeds limit", d)
			}
			if d == 0 {
				d = 1
			}
			h.lens[node.sym-h.base] = uint8(d)
			continue
		}
		h.stack = append(h.stack, node.left, node.right)
		h.depth = append(h.depth, d+1, d+1)
	}
	return nil
}

// assignCanonical counting-sorts present by (length, symbol) into order and
// assigns canonical codes exactly as the historical implementation did:
// shorter codes first, ties by symbol order, code <<= length delta between
// entries. Each code overwrites its symbol's frequency in freq, which
// buildLengths has consumed. It also fills the per-length count/first/offset
// decode tables.
func (h *huffScratch) assignCanonical() {
	for _, s := range h.present {
		h.count[h.lens[s-h.base]]++
	}
	var starts [256]uint32
	var acc uint32
	for l := 0; l < 256; l++ {
		starts[l] = acc
		h.offset[l] = acc
		acc += h.count[l]
	}
	h.order = slices.Grow(h.order[:0], len(h.present))[:len(h.present)]
	for _, s := range h.present {
		l := h.lens[s-h.base]
		h.order[starts[l]] = s
		starts[l]++
	}
	var code uint64
	var prevLen uint8
	for i, s := range h.order {
		l := h.lens[s-h.base]
		code <<= uint(l - prevLen)
		if l > prevLen || i == 0 {
			h.first[l] = code
		}
		h.freq[s-h.base] = code
		code++
		prevLen = l
	}
}

// AppendHuffman appends the Huffman encoding of the symbol stream to dst
// and returns the extended slice. The code is canonical, built from the
// stream's own frequencies, and the output embeds the code table so it is
// self-describing. On error dst is returned unextended, so pooled buffers
// are never lost.
func AppendHuffman(dst []byte, symbols []uint16) ([]byte, error) {
	if len(symbols) == 0 {
		return dst, errors.New("compress: huffman with empty alphabet")
	}
	lo, hi := slices.Min(symbols), slices.Max(symbols)
	h := getHuffScratch(lo, hi)
	defer h.clean()
	for _, s := range symbols {
		if h.freq[s-lo] == 0 {
			h.present = append(h.present, s)
		}
		h.freq[s-lo]++
	}
	slices.Sort(h.present)
	if err := h.buildLengths(); err != nil {
		return dst, err
	}
	h.assignCanonical()

	var scratch [8]byte
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(symbols)))
	dst = append(dst, scratch[:4]...)
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(h.present)))
	dst = append(dst, scratch[:4]...)
	for _, s := range h.present {
		binary.LittleEndian.PutUint16(scratch[:2], s)
		dst = append(dst, scratch[0], scratch[1], h.lens[s-lo])
	}
	h.bw.initPooled(len(symbols))
	for _, s := range symbols {
		h.bw.WriteBits(h.freq[s-lo], uint(h.lens[s-lo]))
	}
	dst = append(dst, h.bw.Bytes()...)
	h.bw.release()
	return dst, nil
}

// HuffmanEncode compresses the symbol stream with a canonical Huffman code
// built from the stream's own frequencies. The output embeds the code table
// so it is self-describing.
func HuffmanEncode(symbols []uint16) ([]byte, error) {
	return AppendHuffman(nil, symbols)
}

// HuffmanDecode reverses HuffmanEncode. Decoding walks the canonical
// first-code tables bit by bit — a code of length l matches iff it falls in
// [first[l], first[l]+count[l]) — which accepts exactly the codes the
// historical (length, code)→symbol map contained.
func HuffmanDecode(data []byte) ([]uint16, error) {
	if len(data) < 8 {
		return nil, io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint32(data[:4])
	nsym := binary.LittleEndian.Uint32(data[4:8])
	if nsym == 0 {
		return nil, errors.New("compress: invalid huffman stream")
	}
	if uint64(len(data)-8)/3 < uint64(nsym) {
		return nil, io.ErrUnexpectedEOF
	}
	table := data[8 : 8+3*int(nsym)]
	lo, hi := uint16(math.MaxUint16), uint16(0)
	for pos := 0; pos < len(table); pos += 3 {
		s := binary.LittleEndian.Uint16(table[pos : pos+2])
		lo, hi = min(lo, s), max(hi, s)
	}
	h := getHuffScratch(lo, hi)
	defer h.clean()
	h.epoch++
	for pos := 0; pos < len(table); pos += 3 {
		i := binary.LittleEndian.Uint16(table[pos:pos+2]) - lo
		if h.marks[i] != h.epoch {
			h.marks[i] = h.epoch
			h.present = append(h.present, i+lo)
		}
		h.lens[i] = table[pos+2] // duplicate table entries: last one wins
	}
	slices.Sort(h.present)
	h.assignCanonical()
	maxLen := h.lens[h.order[len(h.order)-1]-lo]
	pos := len(table) + 8

	br := BitReader{buf: data[pos:]}
	out := make([]uint16, 0, allocHint(int(n)))
	for uint32(len(out)) < n {
		var code uint64
		found := false
		for l := uint8(0); l < maxLen; {
			b, err := br.ReadBit()
			if err != nil {
				return nil, err
			}
			code = code<<1 | b
			l++
			if c := h.count[l]; c > 0 && code >= h.first[l] && code-h.first[l] < uint64(c) {
				out = append(out, h.order[h.offset[l]+uint32(code-h.first[l])])
				found = true
				break
			}
		}
		if !found {
			return nil, errors.New("compress: invalid huffman stream")
		}
	}
	return out, nil
}
