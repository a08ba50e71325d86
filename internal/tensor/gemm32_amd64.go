//go:build amd64

package tensor

// hasGemmAsm reports whether this CPU can run the AVX2+FMA GEMM kernel.
// Detection is a one-shot CPUID/XGETBV probe (see gemm32_amd64.s): FMA, AVX
// and OSXSAVE from leaf 1, OS-enabled XMM+YMM state from XCR0, and AVX2 from
// leaf 7 — the exact feature set the kernel's instruction mix needs.
func hasGemmAsm() bool { return cpuHasAVX2FMA() }

// cpuHasAVX2FMA is implemented in gemm32_amd64.s.
func cpuHasAVX2FMA() bool

// gemmF32Asm is GemmF32's AVX2+FMA kernel. All slices must be fully in
// bounds (the GemmF32 wrapper hoists the checks); rows, in and out must be
// positive. k points at epilogueK and mask at the last panel's store mask.
//
//go:noescape
func gemmF32Asm(dst, x, w, b *float32, rows, in, out int, act Act, k *float32, mask *int32)
