// AVX2+FMA kernel of GemmF32 (see gemm32.go for the packed layout and the
// determinism contract). Each 4×16 output tile keeps eight accumulators in
// registers: per reduction step it loads one 16-wide weight panel row,
// broadcasts four input values and issues eight FMAs. Every output is one
// sequential FMA chain seeded with its bias, so a row's bits do not depend
// on the rows that share its tile.

#include "textflag.h"

// func cpuHasAVX2FMA() bool
//
// One-shot feature probe: FMA + AVX + OSXSAVE (CPUID leaf 1), OS-enabled
// XMM/YMM state (XCR0 via XGETBV), and AVX2 (leaf 7). Matches the probe
// order of golang.org/x/sys/cpu without importing it.
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	// Leaf 0: the CPU must implement leaf 7 at all.
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no

	// Leaf 1 ECX: FMA (bit 12), OSXSAVE (bit 27), AVX (bit 28).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $0x18001000, R8
	CMPL R8, $0x18001000
	JNE  no

	// XCR0: the OS must context-switch XMM (bit 1) and YMM (bit 2) state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	// Leaf 7 subleaf 0 EBX: AVX2 (bit 5).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JEQ  no

	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// ROWIDX sets reg = min(R11+t, R15): tile row t, clamped to the last row so
// a short tail tile recomputes (and rewrites) the last row instead of
// reading past the input.
#define ROWIDX(t, reg) \
	MOVQ    R11, reg;  \
	ADDQ    $t, reg;   \
	CMPQ    reg, R15;  \
	CMOVQGT R15, reg

// XROW points reg at tile row t of x.
#define XROW(t, reg) \
	ROWIDX(t, reg); \
	IMULQ R13, reg; \
	ADDQ  SI, reg

// STORE writes tile row t (accumulators ya, yb) to this panel's columns of
// dst; MSTORE does the same under the tail-panel masks in Y14/Y15.
#define STORE(t, ya, yb) \
	ROWIDX(t, CX);        \
	IMULQ   BX, CX;       \
	ADDQ    DI, CX;       \
	VMOVUPS ya, (CX);     \
	VMOVUPS yb, 32(CX)

#define MSTORE(t, ya, yb) \
	ROWIDX(t, CX);              \
	IMULQ      BX, CX;          \
	ADDQ       DI, CX;          \
	VMASKMOVPS ya, Y14, (CX);   \
	VMASKMOVPS yb, Y15, 32(CX)

// STEP is one reduction step of the tile: weight panel row at BX+wo,
// input column at CX+xo.
#define STEP(wo, xo) \
	VMOVUPS      wo(BX), Y8;            \
	VMOVUPS      (wo+32)(BX), Y9;       \
	VBROADCASTSS xo(R9)(CX*1), Y10;     \
	VFMADD231PS  Y8, Y10, Y0;           \
	VFMADD231PS  Y9, Y10, Y1;           \
	VBROADCASTSS xo(R10)(CX*1), Y11;    \
	VFMADD231PS  Y8, Y11, Y2;           \
	VFMADD231PS  Y9, Y11, Y3;           \
	VBROADCASTSS xo(R12)(CX*1), Y12;    \
	VFMADD231PS  Y8, Y12, Y4;           \
	VFMADD231PS  Y9, Y12, Y5;           \
	VBROADCASTSS xo(AX)(CX*1), Y13;     \
	VFMADD231PS  Y8, Y13, Y6;           \
	VFMADD231PS  Y9, Y13, Y7

// GELU replaces y with gelu(y) = y/2·(1 + tanh(u)), u = y·(c + c'·y²),
// tanh by the rational approximation of gemm32.go. BX points at epilogueK;
// Y8-Y13 are scratch.
#define GELU(y) \
	VMULPS       y, y, Y8;      \
	VBROADCASTSS 4(BX), Y9;     \
	VBROADCASTSS 0(BX), Y10;    \
	VFMADD213PS  Y10, Y8, Y9;   \
	VMULPS       y, Y9, Y9;     \
	VBROADCASTSS 8(BX), Y10;    \
	VMINPS       Y10, Y9, Y9;   \
	VBROADCASTSS 12(BX), Y10;   \
	VMAXPS       Y10, Y9, Y9;   \
	VMULPS       Y9, Y9, Y10;   \
	VBROADCASTSS 16(BX), Y11;   \
	VBROADCASTSS 20(BX), Y12;   \
	VFMADD213PS  Y12, Y10, Y11; \
	VBROADCASTSS 24(BX), Y12;   \
	VFMADD213PS  Y12, Y10, Y11; \
	VBROADCASTSS 28(BX), Y12;   \
	VFMADD213PS  Y12, Y10, Y11; \
	VBROADCASTSS 32(BX), Y12;   \
	VFMADD213PS  Y12, Y10, Y11; \
	VBROADCASTSS 36(BX), Y12;   \
	VFMADD213PS  Y12, Y10, Y11; \
	VBROADCASTSS 40(BX), Y12;   \
	VFMADD213PS  Y12, Y10, Y11; \
	VMULPS       Y9, Y11, Y11;  \
	VBROADCASTSS 44(BX), Y12;   \
	VBROADCASTSS 48(BX), Y13;   \
	VFMADD213PS  Y13, Y10, Y12; \
	VBROADCASTSS 52(BX), Y13;   \
	VFMADD213PS  Y13, Y10, Y12; \
	VBROADCASTSS 56(BX), Y13;   \
	VFMADD213PS  Y13, Y10, Y12; \
	VDIVPS       Y12, Y11, Y11; \
	VBROADCASTSS 60(BX), Y12;   \
	VMULPS       Y12, y, y;     \
	VFMADD231PS  y, Y11, y

// func gemmF32Asm(dst, x, w, b *float32, rows, in, out int, act Act, k *float32, mask *int32)
//
// Panels outer, 4-row tiles inner: a panel (in×16 floats) stays cache-hot
// while every tile of the pass streams through it.
//
// Registers: DI dst at this panel's first column, SI x, DX this panel, R8
// its bias, R13 in*4 (the x row stride), R14 columns left, R15 rows-1 (the
// unrolled loop's bound while reducing), R11 the tile's first row,
// R9/R10/R12/AX the tile's x rows, BX the weight cursor and CX the input
// column offset while reducing, scratch otherwise.
TEXT ·gemmF32Asm(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ b+24(FP), R8
	MOVQ rows+32(FP), R15
	DECQ R15
	MOVQ in+40(FP), R13
	SHLQ $2, R13
	MOVQ out+48(FP), R14

panel:
	XORQ R11, R11

tile:
	XROW(0, R9)
	XROW(1, R10)
	XROW(2, R12)
	XROW(3, AX)

	VMOVUPS (R8), Y0
	VMOVUPS 32(R8), Y1
	VMOVAPS Y0, Y2
	VMOVAPS Y1, Y3
	VMOVAPS Y0, Y4
	VMOVAPS Y1, Y5
	VMOVAPS Y0, Y6
	VMOVAPS Y1, Y7
	MOVQ    DX, BX
	XORQ    CX, CX

	// Two reduction steps per iteration, then an odd last step.
	MOVQ R13, R15
	SUBQ $4, R15
	JMP  reduce2

reduce:
	STEP(0, 0)
	STEP(64, 4)
	ADDQ $128, BX
	ADDQ $8, CX

reduce2:
	CMPQ CX, R15
	JLT  reduce
	CMPQ CX, R13
	JGE  reduced
	STEP(0, 0)

reduced:
	MOVQ rows+32(FP), R15
	DECQ R15

	// Epilogue: act 0 stores as is, 1 is ReLU, 2 is GELU.
	MOVQ act+56(FP), CX
	CMPQ CX, $1
	JLT  store
	JEQ  relu
	MOVQ k+64(FP), BX
	GELU(Y0)
	GELU(Y1)
	GELU(Y2)
	GELU(Y3)
	GELU(Y4)
	GELU(Y5)
	GELU(Y6)
	GELU(Y7)
	JMP  store

relu:
	VXORPS Y8, Y8, Y8
	VMAXPS Y8, Y0, Y0
	VMAXPS Y8, Y1, Y1
	VMAXPS Y8, Y2, Y2
	VMAXPS Y8, Y3, Y3
	VMAXPS Y8, Y4, Y4
	VMAXPS Y8, Y5, Y5
	VMAXPS Y8, Y6, Y6
	VMAXPS Y8, Y7, Y7

store:
	MOVQ out+48(FP), BX
	SHLQ $2, BX
	CMPQ R14, $16
	JLT  masked
	STORE(0, Y0, Y1)
	STORE(1, Y2, Y3)
	STORE(2, Y4, Y5)
	STORE(3, Y6, Y7)
	JMP  nexttile

masked:
	MOVQ    mask+72(FP), CX
	VMOVUPS (CX), Y14
	VMOVUPS 32(CX), Y15
	MSTORE(0, Y0, Y1)
	MSTORE(1, Y2, Y3)
	MSTORE(2, Y4, Y5)
	MSTORE(3, Y6, Y7)

nexttile:
	ADDQ $4, R11
	CMPQ R11, R15
	JLE  tile

	// Next panel: in*16 floats of weights, 16 bias values, 16 columns.
	MOVQ R13, CX
	SHLQ $4, CX
	ADDQ CX, DX
	ADDQ $64, R8
	ADDQ $64, DI
	SUBQ $16, R14
	JGT  panel

	VZEROUPPER
	RET
