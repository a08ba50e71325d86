package tensor

import (
	"math"
	"testing"

	"cptgpt/internal/stats"
)

func TestDotF32MatchesFloat64(t *testing.T) {
	rng := stats.NewRand(11)
	for _, n := range []int{0, 1, 3, 4, 7, 8, 33, 129} {
		a := make([]float32, n)
		b := make([]float32, n)
		var want float64
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
			want += float64(a[i]) * float64(b[i])
		}
		got := float64(DotF32(a, b))
		tol := 1e-4 * (1 + math.Abs(want))
		if math.Abs(got-want) > tol {
			t.Fatalf("n=%d: DotF32 = %v, float64 reference = %v (tol %v)", n, got, want, tol)
		}
	}
}

func TestDotF32Deterministic(t *testing.T) {
	rng := stats.NewRand(3)
	a := make([]float32, 101)
	b := make([]float32, 101)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
		b[i] = float32(rng.NormFloat64())
	}
	first := DotF32(a, b)
	for i := 0; i < 10; i++ {
		if got := DotF32(a, b); got != first {
			t.Fatalf("DotF32 not deterministic: %v != %v", got, first)
		}
	}
}

// MatVecF32 is the test oracle for GemmF32: dst[j] = bias[j] + x·wT[j] over
// a transposed (out×in, row-major) weight panel, one DotF32 per output.
func MatVecF32(dst, wT, bias, x []float32, in, out int) {
	for j := 0; j < out; j++ {
		dst[j] = bias[j] + DotF32(x[:in], wT[j*in:(j+1)*in])
	}
}

func TestMatVecF32(t *testing.T) {
	rng := stats.NewRand(7)
	const in, out = 13, 9
	wT := make([]float32, in*out)
	bias := make([]float32, out)
	x := make([]float32, in)
	for i := range wT {
		wT[i] = float32(rng.NormFloat64())
	}
	for i := range bias {
		bias[i] = float32(rng.NormFloat64())
	}
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	dst := make([]float32, out)
	MatVecF32(dst, wT, bias, x, in, out)
	for j := 0; j < out; j++ {
		want := float64(bias[j])
		for k := 0; k < in; k++ {
			want += float64(x[k]) * float64(wT[j*in+k])
		}
		if math.Abs(float64(dst[j])-want) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("output %d: got %v, want ≈ %v", j, dst[j], want)
		}
	}
}

func TestAxpyAndF32From(t *testing.T) {
	dst := []float32{1, 2, 3}
	AxpyF32(dst, 2, []float32{10, 20, 30})
	for i, want := range []float32{21, 42, 63} {
		if dst[i] != want {
			t.Fatalf("AxpyF32[%d] = %v, want %v", i, dst[i], want)
		}
	}
	out := make([]float32, 3)
	F32From(out, []float64{0.5, -1, 2.25})
	for i, want := range []float32{0.5, -1, 2.25} {
		if out[i] != want {
			t.Fatalf("F32From[%d] = %v, want %v", i, out[i], want)
		}
	}
}
