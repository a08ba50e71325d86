//go:build !amd64

package tensor

// hasGemmAsm: no assembly kernel on this architecture; GemmF32 always runs
// the portable fallback.
func hasGemmAsm() bool { return false }

// gemmF32Asm is never called when hasGemmAsm reports false; the stub keeps
// the dispatch site portable.
func gemmF32Asm(dst, x, w, b *float32, rows, in, out int, act Act, k *float32, mask *int32) {
	panic("tensor: gemmF32Asm called without assembly support")
}
