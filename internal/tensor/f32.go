package tensor

// Float32 row kernels of the CPT-GPT decode fast path's per-row work
// (attention over a slot's KV rows, token widening); the linear layers run
// through GemmF32 (gemm32.go). The kernels are scalar Go with a fixed
// accumulation order, so results are deterministic for a given input
// regardless of the worker pool's degree — the same contract the float64
// kernels keep.

// DotF32 returns the dot product of a and b over len(a) elements, b must be
// at least as long. Accumulation runs in eight independent partial sums
// (scalar FP add/mul chains are latency-bound, so independent accumulators
// are what keep the ports busy) combined pairwise at the end; the order is
// fixed, so the result is deterministic (though not equal to a
// single-accumulator reduction).
func DotF32(a, b []float32) float32 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= n; i += 8 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
		s4 += a[i+4] * b[i+4]
		s5 += a[i+5] * b[i+5]
		s6 += a[i+6] * b[i+6]
		s7 += a[i+7] * b[i+7]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}

// AxpyF32 computes dst[i] += a*x[i] over len(x) elements.
func AxpyF32(dst []float32, a float32, x []float32) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] += a * v
	}
}

// F32From widens/narrows a float64 slice into dst (len(src) elements).
func F32From(dst []float32, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float32(v)
	}
}
