package nn

// useAVX2 selects the assembly micro-kernels of kernels_amd64.s. It is set
// once from CPUID and XGETBV: AVX2 present and YMM state enabled by the OS.
// Without it every kernel runs its Go form.
var useAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

//go:noescape
func gemmAVX2(dst, a, b []float64, m, k, n, mode int)

//go:noescape
func bwdBAVX2(dB, a, g []float64, m, k, n int)
