package compress

import (
	"fmt"
	"sort"
	"sync"
)

// Registration declares a compression method to the package registry: how
// to construct its compressor and how to decode its payload body. The
// built-in methods self-register from their own files; external packages
// (e.g. an LFZip or CAMEO port) register the same way and immediately work
// everywhere a Method is accepted — New, Decompress, and the evaluation
// grid — without touching any dispatch site.
type Registration struct {
	// Method is the registry key, e.g. "PMC".
	Method Method
	// Code is the method's wire code in the payload header. It must be
	// unique; codes 1–63 are reserved for the built-ins, so external
	// methods should use 64 and above.
	Code byte
	// Lossy marks methods that honour an error bound (ε sweeps are
	// meaningful) AND construct parameter-free through New, so the grid,
	// sweep, and serve surfaces can enumerate them without a hardcoded
	// list. Lossless baselines (Gorilla) and parameterised variants
	// (SeasonalPMC, which needs a period) leave it false.
	Lossy bool
	// New constructs a fresh compressor. It may return an error for
	// methods that need explicit construction parameters (SeasonalPMC's
	// period).
	New func() (Compressor, error)
	// Decode reconstructs count values from a decompressed payload body
	// (the bytes after the shared stream header) in one batch. A method
	// sets Decode or DecodeStream; Decode is used only when DecodeStream is
	// nil, and the built-ins set DecodeStream alone.
	Decode func(body []byte, count int) ([]float64, error)
	// NewStream constructs the method's incremental encoder state (nil for
	// batch-only methods, which NewStreamEncoder then rejects). absolute
	// selects the classic |v − v̂| ≤ ε bound instead of the paper's relative
	// bound. Streamed output must be byte-identical to the batch Compress
	// of the same values.
	NewStream func(epsilon float64, absolute bool) (StreamKernel, error)
	// DecodeStream returns an incremental decoder over a payload body so
	// reconstruction yields chunks instead of materialising the series.
	// Both decode APIs (Compressed.AppendValues and NewStreamDecoder) go
	// through it; when it is nil they serve Decode's slice instead.
	DecodeStream func(body []byte, count int) (ValueStream, error)
}

// UnknownMethodError is returned when a Method has no registration.
type UnknownMethodError struct {
	Method Method
}

func (e *UnknownMethodError) Error() string {
	return fmt.Sprintf("compress: unknown method %q (registered: %v)", e.Method, Registered())
}

var (
	registryMu sync.RWMutex
	registry   = map[Method]Registration{}
	byCode     = map[byte]Method{}
)

// Register adds a compression method to the registry. It panics if the
// method name or wire code is already taken, or if the registration is
// incomplete — registration happens in init functions, where a loud
// failure at process start beats a silent misroute at decode time.
func Register(r Registration) {
	if r.Method == "" {
		panic("compress: Register with empty method name")
	}
	if r.New == nil || (r.Decode == nil && r.DecodeStream == nil) {
		panic(fmt.Sprintf("compress: Register(%s) needs New and one of Decode or DecodeStream", r.Method))
	}
	if r.Code == 0 {
		panic(fmt.Sprintf("compress: Register(%s) needs a non-zero wire code", r.Method))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[r.Method]; dup {
		panic(fmt.Sprintf("compress: method %q registered twice", r.Method))
	}
	if prev, dup := byCode[r.Code]; dup {
		panic(fmt.Sprintf("compress: wire code %d of %q already taken by %q", r.Code, r.Method, prev))
	}
	registry[r.Method] = r
	byCode[r.Code] = r.Method
}

// lookup returns the registration for m, or a typed unknown-method error.
func lookup(m Method) (Registration, error) {
	registryMu.RLock()
	r, ok := registry[m]
	registryMu.RUnlock()
	if !ok {
		return Registration{}, &UnknownMethodError{Method: m}
	}
	return r, nil
}

// Registered lists every registered method name in sorted order. The
// paper's lossy grid is the fixed Methods slice; Registered also includes
// the lossless baseline and any externally registered methods.
func Registered() []Method {
	registryMu.RLock()
	out := make([]Method, 0, len(registry))
	for m := range registry {
		out = append(out, m)
	}
	registryMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// StreamingMethods lists, in sorted order, every registered method with an
// incremental encoder (NewStream non-nil) — the set the stream-kernel test
// and fuzz matrices, the alloc guard, and the monitor plane cover. Growing
// the registry grows every one of those surfaces automatically.
func StreamingMethods() []Method {
	registryMu.RLock()
	out := make([]Method, 0, len(registry))
	for m, r := range registry {
		if r.NewStream != nil {
			out = append(out, m)
		}
	}
	registryMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LossyMethods lists, in sorted order, every registered error-bounded
// method that constructs parameter-free (Registration.Lossy) — the widest
// grid the study planes can enumerate. The paper's fixed grid stays the
// Methods slice; LossyMethods additionally picks up CAMEO, LFZip, and any
// external registrations.
func LossyMethods() []Method {
	registryMu.RLock()
	out := make([]Method, 0, len(registry))
	for m, r := range registry {
		if r.Lossy {
			out = append(out, m)
		}
	}
	registryMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// methodCode returns the wire code for m.
func methodCode(m Method) (byte, error) {
	r, err := lookup(m)
	if err != nil {
		return 0, err
	}
	return r.Code, nil
}

// methodFromCode resolves a payload wire code back to its method.
func methodFromCode(b byte) (Method, error) {
	registryMu.RLock()
	m, ok := byCode[b]
	registryMu.RUnlock()
	if !ok {
		return "", unknownCodeError(b)
	}
	return m, nil
}

// unknownCodeError is returned when a payload header carries a wire code no
// registration owns.
type unknownCodeError byte

func (e unknownCodeError) Error() string {
	return fmt.Sprintf("compress: unknown method code %d", byte(e))
}
