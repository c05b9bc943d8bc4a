package nn

import (
	"math/bits"
	"sync"
)

// Buffers are pooled in power-of-two size classes from 64 to 4M float64s
// (512 B to 32 MB). Larger requests fall through to plain allocation.
const (
	minClassShift = 6
	maxClassShift = 22
	numClasses    = maxClassShift - minClassShift + 1
)

// classPools shares retired buffers across goroutines (and therefore across
// the evaluation harness's (model, seed) units). Pointers to slice headers
// are stored to avoid an interface allocation on every Put.
var classPools [numClasses]sync.Pool

// classIndex maps a requested length to its size class, or -1 when the
// request is too large to pool.
func classIndex(n int) int {
	if n <= 0 {
		return -1
	}
	s := bits.Len(uint(n - 1)) // ceil(log2 n)
	if s < minClassShift {
		s = minClassShift
	}
	if s > maxClassShift {
		return -1
	}
	return s - minClassShift
}

// Arena is a per-goroutine tensor-buffer pool. Ops allocate every
// intermediate Data/Grad buffer from the arena of their inputs (see
// allocFrom and result), the training loop calls Reset at each
// optimizer-step boundary to recycle the whole step's buffers locally, and
// Release at the end of a fit/predict returns the memory to the global
// size-classed pools for other goroutines. An Arena must not be shared
// between goroutines; the global pools behind it are safe for concurrent
// use.
type Arena struct {
	free [numClasses][]*[]float64 // recycled by Reset, reused by alloc
	live []*[]float64             // handed out since the last Reset

	// Graph nodes are pooled alongside buffers: result draws the output
	// Tensor struct (with its Shape and parents slice capacity) from
	// nodeFree, so the per-op metadata allocations — struct, shape copy,
	// parent list — disappear in steady state along with the data buffers.
	nodeFree []*Tensor
	nodeLive []*Tensor

	// Backward traversal scratch, reused across steps: the visited set,
	// topological order, and DFS stack of Tensor.Backward. Stale graph
	// references left after a traversal pin only pooled nodes (recycled by
	// Reset regardless) and parameters (owned by the model), never data
	// buffers.
	bwSeen  map[*Tensor]bool
	bwOrder []*Tensor
	bwStack []bwFrame
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// alloc returns a zeroed slice of length n backed by pooled memory.
func (a *Arena) alloc(n int) []float64 {
	buf := a.allocUninit(n)
	clear(buf)
	return buf
}

// allocUninit returns a pooled slice of length n with arbitrary contents,
// for outputs every element of which the caller overwrites.
func (a *Arena) allocUninit(n int) []float64 {
	c := classIndex(n)
	if c < 0 {
		return make([]float64, n)
	}
	var bp *[]float64
	if l := len(a.free[c]); l > 0 {
		bp = a.free[c][l-1]
		a.free[c] = a.free[c][:l-1]
	} else if v := classPools[c].Get(); v != nil {
		bp = v.(*[]float64)
	} else {
		b := make([]float64, 1<<(c+minClassShift))
		bp = &b
	}
	a.live = append(a.live, bp)
	return (*bp)[:n]
}

// Zeros returns a zero tensor of the given shape whose buffer and node come
// from the arena, tagged with it like InArena: an input batch that the next
// Reset recycles together with the step's intermediates.
func (a *Arena) Zeros(shape ...int) *Tensor {
	t := a.node()
	t.Shape = append(t.Shape, shape...)
	t.Data = a.alloc(Numel(shape))
	t.arena = a
	return t
}

// node returns a recycled (or fresh) Tensor struct for result to fill. The
// returned tensor keeps the Shape and parents capacity of its previous
// life; all fields referencing old state have been cleared by Reset.
func (a *Arena) node() *Tensor {
	var t *Tensor
	if l := len(a.nodeFree); l > 0 {
		t = a.nodeFree[l-1]
		a.nodeFree = a.nodeFree[:l-1]
	} else {
		t = &Tensor{}
	}
	a.nodeLive = append(a.nodeLive, t)
	return t
}

// Reset recycles every buffer and graph node handed out since the previous
// Reset into the arena's local free lists. Call it only when no tensor
// allocated from the arena is referenced anymore — in training, after the
// optimizer step has consumed the gradients.
func (a *Arena) Reset() {
	for _, bp := range a.live {
		a.free[classIndex(cap(*bp))] = append(a.free[classIndex(cap(*bp))], bp)
	}
	a.live = a.live[:0]
	for _, t := range a.nodeLive {
		// Clear references so recycled buffers and parent tensors are not
		// pinned by the node free list; Shape and parents keep their
		// capacity for reuse.
		t.Data = nil
		t.Grad = nil
		t.Shape = t.Shape[:0]
		clear(t.parents)
		t.parents = t.parents[:0]
		t.backward = nil
		t.requiresGrad = false
		t.arena = nil
		a.nodeFree = append(a.nodeFree, t)
	}
	a.nodeLive = a.nodeLive[:0]
}

// Release resets the arena and returns all of its buffers to the global
// pools, where other goroutines (e.g. the next (model, seed) unit of the
// evaluation grid) can claim them.
func (a *Arena) Release() {
	a.Reset()
	for c := range a.free {
		for _, bp := range a.free[c] {
			classPools[c].Put(bp)
		}
		a.free[c] = nil
	}
}

// allocFrom returns a zeroed length-n buffer: pooled when an arena is
// available, plainly heap-allocated otherwise.
func allocFrom(a *Arena, n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return a.alloc(n)
}

// allocFromUninit is allocFrom without the zero fill, for op outputs whose
// every element is written before the buffer escapes.
func allocFromUninit(a *Arena, n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return a.allocUninit(n)
}

// arenaOf picks the arena shared by an op's inputs: the first non-nil one.
func arenaOf(a *Tensor) *Arena { return a.arena }

func arenaOf2(a, b *Tensor) *Arena {
	if a.arena != nil {
		return a.arena
	}
	return b.arena
}
