package tensor

import "sync/atomic"

// Float32 GEMM behind every linear layer of the CPT-GPT f32 decode path.
//
// A decode pass stacks the rows of every live slot — one row per slot for a
// plain step, k for a speculative verify — and runs each linear layer as
// one GemmF32 call over all of them, so each weight panel is streamed once
// per pass instead of once per slot.
//
// Weights are packed once, at export, into panels of PanelW output
// columns: panel p holds W[i][p*PanelW : (p+1)*PanelW] for i = 0..in-1,
// contiguous and zero-padded past out (PackF32). The kernel walks one panel
// against a tile of four input rows, so every weight load feeds four rows
// and every broadcast input value feeds PanelW outputs.
//
// GemmF32 has two implementations over that one layout:
//
//   - an AVX2+FMA assembly kernel (amd64, runtime-detected) with 4×16
//     register tiles, the bias loaded into the accumulators and the
//     activation applied before the store;
//   - a portable scalar fallback, used on other architectures or with the
//     kill switch thrown.
//
// In both, output (r, j) is the sequential chain acc = b[j]; acc += x[r][i]
// × W[i][j] for i = 0..in-1 — FMA-fused in the assembly, whatever the
// compiler emits in the fallback. No reduction crosses rows, so a row's
// output bits do not depend on which rows share its tile or its call: a
// plain step (one row per slot) and a verify pass (k rows per slot) compute
// identical bits for identical rows, and decoding is deterministic at every
// batch composition and worker fan-out. The two implementations differ
// from each other (fused versus separately rounded multiply-adds), so a
// given machine and kill-switch setting reproduces its own bits.

// PanelW is the number of output columns in one packed weight panel.
const PanelW = 16

// Act selects the activation GemmF32 applies to each output before storing
// it.
type Act int

const (
	// ActNone stores the affine output.
	ActNone Act = iota
	// ActReLU stores max(0, ·): the hidden layers of the output heads.
	ActReLU
	// ActGELU stores the tanh-form GELU: the feed-forward up-projection.
	ActGELU
)

// gemmAsmAvailable reports whether the platform provides the assembly
// kernel (set by gemm32_amd64.go / gemm32_noasm.go at init).
var gemmAsmAvailable = hasGemmAsm()

// gemmAsmEnabled gates dispatch to the assembly kernel; it starts at the
// platform's capability and can be lowered (never raised past capability)
// via SetGemmF32Asm.
var gemmAsmEnabled atomic.Bool

func init() {
	gemmAsmEnabled.Store(gemmAsmAvailable)
}

// GemmF32Asm reports whether GemmF32 currently dispatches to the AVX2
// assembly kernel.
func GemmF32Asm() bool { return gemmAsmEnabled.Load() }

// SetGemmF32Asm enables or disables the assembly GEMM kernel, returning the
// previous setting. Enabling is a no-op on machines without AVX2+FMA. The
// scalar fallback runs the same packed layout at scalar speed — useful for
// cross-checking and for pinning tests to the portable arithmetic.
func SetGemmF32Asm(on bool) (prev bool) {
	prev = gemmAsmEnabled.Load()
	gemmAsmEnabled.Store(on && gemmAsmAvailable)
	return prev
}

// PackF32 converts an in×out row-major float64 weight matrix w and its bias
// b (len out) into GemmF32's layout: the weight panels described above and
// the bias zero-padded to whole panels.
func PackF32(w, b []float64, in, out int) (pw, pb []float32) {
	np := (out + PanelW - 1) / PanelW
	pw = make([]float32, np*in*PanelW)
	for i := 0; i < in; i++ {
		for j, v := range w[i*out : (i+1)*out] {
			pw[(j/PanelW*in+i)*PanelW+j%PanelW] = float32(v)
		}
	}
	pb = make([]float32, np*PanelW)
	for j, v := range b[:out] {
		pb[j] = float32(v)
	}
	return pw, pb
}

// GemmF32 computes dst[r*out+j] = act(b[j] + Σ_i x[r*in+i]·W[i][j]) for
// r < rows and j < out, with W and b packed by PackF32. x and dst are
// row-major and must not overlap; in must be positive.
func GemmF32(dst, x []float32, rows int, w, b []float32, in, out int, act Act) {
	if rows <= 0 || out <= 0 {
		return
	}
	np := (out + PanelW - 1) / PanelW
	// Bounds are hoisted here so both kernels can run unchecked.
	_ = dst[rows*out-1]
	_ = x[rows*in-1]
	_ = w[np*in*PanelW-1]
	_ = b[np*PanelW-1]
	if gemmAsmEnabled.Load() {
		tail := out - (np-1)*PanelW
		gemmF32Asm(&dst[0], &x[0], &w[0], &b[0], rows, in, out, act,
			&epilogueK[0], &tailMask[PanelW-tail])
		return
	}
	gemmF32Go(dst, x, rows, w, b, in, out, act)
}

// gemmF32Go is the portable kernel: one panel against one row at a time,
// the accumulators seeded with the bias.
func gemmF32Go(dst, x []float32, rows int, w, b []float32, in, out int, act Act) {
	var acc [PanelW]float32
	for p := 0; p*PanelW < out; p++ {
		panel := w[p*in*PanelW : (p+1)*in*PanelW]
		n := min(PanelW, out-p*PanelW)
		for r := 0; r < rows; r++ {
			copy(acc[:], b[p*PanelW:(p+1)*PanelW])
			for i, xv := range x[r*in : (r+1)*in] {
				wi := (*[PanelW]float32)(panel[i*PanelW:])
				for c := range acc {
					acc[c] += xv * wi[c]
				}
			}
			d := dst[r*out+p*PanelW : r*out+p*PanelW+n]
			for c := range d {
				switch v := acc[c]; act {
				case ActReLU:
					d[c] = max(v, 0)
				case ActGELU:
					d[c] = gelu32(v)
				default:
					d[c] = v
				}
			}
		}
	}
}

// Coefficients of the tanh-form GELU: gelu(x) = x/2 · (1 + tanh(u)) with
// u = x·(c + c·0.044715·x²), tanh evaluated by the 13/6-degree rational
// minimax approximation (the Eigen/XNNPACK fast tanh), accurate to a few
// float32 ULP over the clamped range.
const (
	geluC     = 0.7978845608028654 // √(2/π)
	geluCK    = geluC * 0.044715
	tanhClamp = 7.90531110763549805 // tanh(±clamp) rounds to ±1 in float32
	tanhA1    = 4.89352455891786e-03
	tanhA3    = 6.37261928875436e-04
	tanhA5    = 1.48572235717979e-05
	tanhA7    = 5.12229709037114e-08
	tanhA9    = -8.60467152213735e-11
	tanhA11   = 2.00018790482477e-13
	tanhA13   = -2.76076847742355e-16
	tanhB0    = 4.89352518554385e-03
	tanhB2    = 2.26843463243900e-03
	tanhB4    = 1.18534705686654e-04
	tanhB6    = 1.19825839466702e-06
)

// epilogueK is the assembly kernel's GELU constant table; the byte offsets
// in gemm32_amd64.s index it in this order.
var epilogueK = [...]float32{
	geluC, geluCK, tanhClamp, -tanhClamp,
	tanhA13, tanhA11, tanhA9, tanhA7, tanhA5, tanhA3, tanhA1,
	tanhB6, tanhB4, tanhB2, tanhB0, 0.5,
}

// tailMask[PanelW-n:][:PanelW] is the store mask of a panel whose first n
// columns are real outputs.
var tailMask = [2 * PanelW]int32{-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1}

// gelu32 is the fallback's GELU, the same formula as the assembly
// epilogue's.
func gelu32(x float32) float32 {
	u := x * (geluC + geluCK*x*x)
	u = min(max(u, -tanhClamp), tanhClamp)
	u2 := u * u
	p := u * (tanhA1 + u2*(tanhA3+u2*(tanhA5+u2*(tanhA7+u2*(tanhA9+u2*(tanhA11+u2*tanhA13))))))
	q := tanhB0 + u2*(tanhB2+u2*(tanhB4+u2*tanhB6))
	h := 0.5 * x
	return h + h*(p/q)
}
