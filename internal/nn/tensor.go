// Package nn is a small from-scratch neural network library: reverse-mode
// automatic differentiation over dense tensors, the layers needed by the
// paper's deep forecasting models (linear, layer norm, dropout, GRU cells,
// multi-head attention, positional encodings), and an Adam optimizer with
// weight decay. It substitutes for the PyTorch/Darts stack the paper uses
// (DESIGN.md substitution table).
package nn

import (
	"fmt"
	"math/rand"
)

// Tensor is a dense row-major tensor participating in an autodiff graph.
type Tensor struct {
	Data  []float64
	Grad  []float64
	Shape []int

	requiresGrad bool
	parents      []*Tensor
	backward     func(out *Tensor)

	// arena, when non-nil, is the buffer pool downstream ops allocate
	// their intermediate Data/Grad buffers from. It propagates through
	// result from inputs to outputs, so tagging the input batch of a
	// forward pass (InArena) pools the whole graph for free.
	arena *Arena
}

// New wraps data in a tensor of the given shape (data is used directly).
func New(shape []int, data []float64) *Tensor {
	n := Numel(shape)
	if len(data) != n {
		panic(fmt.Sprintf("nn: shape %v needs %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{Data: data, Shape: append([]int(nil), shape...)}
}

// Zeros returns a zero tensor of the given shape.
func Zeros(shape ...int) *Tensor {
	return New(shape, make([]float64, Numel(shape)))
}

// Full returns a tensor filled with v.
func Full(v float64, shape ...int) *Tensor {
	t := Zeros(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Randn returns a tensor of normal samples scaled by scale.
func Randn(rng *rand.Rand, scale float64, shape ...int) *Tensor {
	t := Zeros(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * scale
	}
	return t
}

// Numel returns the element count of a shape.
func Numel(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// Param marks the tensor as a trainable parameter (gradient required).
func (t *Tensor) Param() *Tensor {
	t.requiresGrad = true
	if t.Grad == nil {
		t.Grad = make([]float64, len(t.Data))
	}
	return t
}

// RequiresGrad reports whether the tensor participates in gradients.
func (t *Tensor) RequiresGrad() bool { return t.requiresGrad }

// InArena tags the tensor with a buffer arena. The tensor's own Data is
// untouched; the tag makes every downstream op of the graph allocate its
// intermediates from the arena (released in bulk at step boundaries).
// Trainable parameters must not be tagged: their buffers outlive steps.
func (t *Tensor) InArena(a *Arena) *Tensor {
	t.arena = a
	return t
}

// Dim returns the size of dimension i (negative indices count from the end).
func (t *Tensor) Dim(i int) int {
	if i < 0 {
		i += len(t.Shape)
	}
	return t.Shape[i]
}

// Clone returns a deep copy detached from the graph.
func (t *Tensor) Clone() *Tensor {
	c := Zeros(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Item returns the single element of a scalar tensor.
func (t *Tensor) Item() float64 {
	if len(t.Data) != 1 {
		panic("nn: Item on non-scalar tensor")
	}
	return t.Data[0]
}

// result builds an op output that links into the autodiff graph when any
// parent requires gradients. With an arena in reach the output node itself
// comes from the inputs' arena, which recycles the Tensor struct together with
// its Shape and parent-list capacity; copying the variadic parents into the
// pooled slice also lets the compiler keep the call-site argument slice off
// the heap.
func result(shape []int, data []float64, back func(out *Tensor), parents ...*Tensor) *Tensor {
	var ar *Arena
	requiresGrad := false
	for _, p := range parents {
		if p.requiresGrad {
			requiresGrad = true
		}
		if ar == nil {
			ar = p.arena
		}
	}
	var out *Tensor
	if ar != nil {
		out = ar.node()
		out.Shape = append(out.Shape, shape...)
		out.Data = data
		out.arena = ar
	} else {
		out = New(shape, data)
		out.arena = ar
	}
	if requiresGrad && back != nil {
		out.requiresGrad = true
		out.Grad = allocFrom(ar, len(data))
		out.parents = append(out.parents, parents...)
		out.backward = back
	}
	return out
}

// bwFrame is one DFS stack entry of the Backward traversal.
type bwFrame struct {
	node *Tensor
	next int
}

// Backward runs reverse-mode differentiation from a scalar tensor,
// accumulating gradients into every parameter that contributed.
func (t *Tensor) Backward() {
	if len(t.Data) != 1 {
		panic("nn: Backward must start from a scalar loss")
	}
	if !t.requiresGrad {
		return
	}
	// Topological order via iterative DFS. With an arena the traversal
	// scratch comes from it, so steady-state training steps reuse
	// the visited set, order, and stack instead of reallocating them.
	var (
		order []*Tensor
		seen  map[*Tensor]bool
		stack []bwFrame
	)
	ar := t.arena
	if ar != nil {
		if ar.bwSeen == nil {
			ar.bwSeen = make(map[*Tensor]bool)
		}
		clear(ar.bwSeen)
		seen = ar.bwSeen
		order = ar.bwOrder[:0]
		stack = ar.bwStack[:0]
	} else {
		seen = map[*Tensor]bool{}
	}
	stack = append(stack, bwFrame{node: t})
	seen[t] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.node.parents) {
			p := f.node.parents[f.next]
			f.next++
			if !seen[p] && p.requiresGrad {
				seen[p] = true
				stack = append(stack, bwFrame{node: p})
			}
			continue
		}
		order = append(order, f.node)
		stack = stack[:len(stack)-1]
	}
	if ar != nil {
		// Hand the (possibly grown) scratch back for the next step.
		ar.bwOrder = order
		ar.bwStack = stack
	}
	t.Grad[0] = 1
	// order is child-before-parent reversed: children appear after their
	// parents were pushed, so walk from the end (t last appended? t is
	// appended last in post-order) — post-order appends leaves first, so
	// iterate in reverse to visit each node before its parents.
	for i := len(order) - 1; i >= 0; i-- {
		if order[i].backward != nil {
			order[i].backward(order[i])
		}
	}
}

// ZeroGrad clears the gradient buffer.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("nn: index %v for shape %v", idx, t.Shape))
	}
	off := 0
	stride := 1
	for i := len(t.Shape) - 1; i >= 0; i-- {
		if idx[i] < 0 || idx[i] >= t.Shape[i] {
			panic(fmt.Sprintf("nn: index %v out of range for shape %v", idx, t.Shape))
		}
		off += idx[i] * stride
		stride *= t.Shape[i]
	}
	return off
}

func sameShape(a, b *Tensor) {
	if len(a.Shape) != len(b.Shape) {
		panic(fmt.Sprintf("nn: shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			panic(fmt.Sprintf("nn: shape mismatch %v vs %v", a.Shape, b.Shape))
		}
	}
}
