//go:build !amd64

package nn

// useAVX2 is false off amd64: every kernel runs its Go form.
const useAVX2 = false

func gemmAVX2(dst, a, b []float64, m, k, n, mode int) {
	panic("nn: gemmAVX2 called without AVX2")
}

func bwdBAVX2(dB, a, g []float64, m, k, n int) {
	panic("nn: bwdBAVX2 called without AVX2")
}
