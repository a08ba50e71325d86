package tensor

import (
	"fmt"
	"math"
	"testing"

	"cptgpt/internal/stats"
)

func randF32(n int, seed uint64) []float32 {
	rng := stats.NewRand(seed)
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// gemmCase is one random layer: float64 weights (in×out row-major, values
// exactly representable in float32) and bias, their packed form, and a
// batch of input rows.
type gemmCase struct {
	rows, in, out int
	w, b          []float64
	pw, pb, x     []float32
}

func newGemmCase(rows, in, out int, seed uint64) *gemmCase {
	c := &gemmCase{rows: rows, in: in, out: out, x: randF32(rows*in, seed+2)}
	for _, v := range randF32(in*out, seed) {
		c.w = append(c.w, float64(v))
	}
	for _, v := range randF32(out, seed+1) {
		c.b = append(c.b, float64(v))
	}
	c.pw, c.pb = PackF32(c.w, c.b, in, out)
	return c
}

func (c *gemmCase) run(act Act) []float32 {
	dst := make([]float32, c.rows*c.out)
	GemmF32(dst, c.x, c.rows, c.pw, c.pb, c.in, c.out, act)
	return dst
}

// ref is the float64 reference of output (r, j).
func (c *gemmCase) ref(r, j int, act Act) float64 {
	acc := c.b[j]
	for i := 0; i < c.in; i++ {
		acc += float64(c.x[r*c.in+i]) * c.w[i*c.out+j]
	}
	switch act {
	case ActReLU:
		return math.Max(acc, 0)
	case ActGELU:
		return 0.5 * acc * (1 + math.Tanh(geluC*(acc+0.044715*acc*acc*acc)))
	}
	return acc
}

// forKernels runs f once per available kernel (assembly on and off).
func forKernels(t *testing.T, f func(t *testing.T)) {
	for _, asm := range []bool{false, true} {
		if asm && !gemmAsmAvailable {
			continue
		}
		t.Run(fmt.Sprintf("asm=%v", asm), func(t *testing.T) {
			prev := SetGemmF32Asm(asm)
			defer SetGemmF32Asm(prev)
			f(t)
		})
	}
}

// TestGemmF32Shapes exercises both kernels over awkward shapes (1-row and
// tail tiles, reductions shorter than a vector, outputs narrower than a
// panel), comparing against the transposed-layout MatVecF32 oracle within
// a float32 reduction-error tolerance.
func TestGemmF32Shapes(t *testing.T) {
	shapes := []struct{ rows, in, out int }{
		{1, 1, 1}, {1, 7, 3}, {2, 8, 2}, {3, 10, 5}, {4, 128, 128},
		{5, 128, 1024}, {4, 1024, 128}, {2, 33, 7}, {3, 40, 6}, {6, 64, 2},
		{1, 130, 1}, {7, 9, 9}, {9, 17, 31}, {8, 16, 16},
	}
	forKernels(t, func(t *testing.T) {
		for _, s := range shapes {
			c := newGemmCase(s.rows, s.in, s.out, 1)
			got := c.run(ActNone)
			wT := make([]float32, s.out*s.in)
			for i := 0; i < s.in; i++ {
				for j := 0; j < s.out; j++ {
					wT[j*s.in+i] = float32(c.w[i*s.out+j])
				}
			}
			bias := make([]float32, s.out)
			for j := range bias {
				bias[j] = float32(c.b[j])
			}
			want := make([]float32, s.out)
			for r := 0; r < s.rows; r++ {
				MatVecF32(want, wT, bias, c.x[r*s.in:(r+1)*s.in], s.in, s.out)
				for j, w := range want {
					g := got[r*s.out+j]
					tol := 1e-5 * (1 + math.Abs(float64(w))) * math.Sqrt(float64(s.in))
					if diff := math.Abs(float64(g - w)); diff > tol || math.IsNaN(float64(g)) {
						t.Fatalf("shape %v: dst[%d][%d] = %v, oracle %v (|Δ| %.2e > %.2e)", s, r, j, g, w, diff, tol)
					}
				}
			}
		}
	})
}

// TestGemmF32MatchesFloat64 checks every epilogue against a float64
// reference at random row counts from 1 to 70, reduction widths that are
// not multiples of 8 (the tokenizer width among them) and output widths
// that are not multiples of a panel.
func TestGemmF32MatchesFloat64(t *testing.T) {
	rng := stats.NewRand(17)
	ins := []int{1, 5, 13, 27, 64, 131}
	outs := []int{1, 2, 11, 17, 40, 64, 100}
	forKernels(t, func(t *testing.T) {
		for n := 0; n < 40; n++ {
			rows := 1 + rng.IntN(70)
			in, out := ins[rng.IntN(len(ins))], outs[rng.IntN(len(outs))]
			c := newGemmCase(rows, in, out, uint64(100+n))
			for _, act := range []Act{ActNone, ActReLU, ActGELU} {
				got := c.run(act)
				for r := 0; r < rows; r++ {
					for j := 0; j < out; j++ {
						want := c.ref(r, j, act)
						g := float64(got[r*out+j])
						tol := 2e-5 * (1 + math.Abs(want)) * math.Sqrt(float64(in))
						if diff := math.Abs(g - want); diff > tol || math.IsNaN(g) {
							t.Fatalf("rows %d in %d out %d act %d: dst[%d][%d] = %v, want %v (|Δ| %.2e > %.2e)",
								rows, in, out, act, r, j, g, want, diff, tol)
						}
					}
				}
			}
		}
	})
}

// TestGemmF32RowIndependent pins the property the decode's determinism
// rests on: a row's output bits are the same whether it is computed alone,
// as the tail of a call whose last tile is short, or inside a full tile.
func TestGemmF32RowIndependent(t *testing.T) {
	const in, out = 37, 45
	full := newGemmCase(11, in, out, 9)
	forKernels(t, func(t *testing.T) {
		for _, act := range []Act{ActNone, ActReLU, ActGELU} {
			want := full.run(act)
			for r := 0; r < full.rows; r++ {
				row := full.x[r*in : (r+1)*in]
				for _, place := range []struct{ rows, at int }{{1, 0}, {5, 4}, {7, 5}, {4, 2}, {8, 1}} {
					c := *full
					c.rows = place.rows
					c.x = randF32(place.rows*in, uint64(r))
					copy(c.x[place.at*in:], row)
					got := c.run(act)[place.at*out : (place.at+1)*out]
					for j := range got {
						if got[j] != want[r*out+j] {
							t.Fatalf("act %d row %d at %d of %d: out %d = %v, in the full call %v",
								act, r, place.at, place.rows, j, got[j], want[r*out+j])
						}
					}
				}
			}
		}
	})
}

// TestGemmF32Deterministic requires repeated calls to produce identical bits
// (each kernel has a fixed reduction order).
func TestGemmF32Deterministic(t *testing.T) {
	c := newGemmCase(6, 129, 33, 7)
	forKernels(t, func(t *testing.T) {
		a, b := c.run(ActGELU), c.run(ActGELU)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
			}
		}
	})
}

// TestGemmF32KillSwitch pins SetGemmF32Asm semantics: it reports the prior
// state, never enables beyond platform capability, and GemmF32Asm tracks it.
func TestGemmF32KillSwitch(t *testing.T) {
	orig := GemmF32Asm()
	defer SetGemmF32Asm(orig)
	if prev := SetGemmF32Asm(false); prev != orig {
		t.Fatalf("SetGemmF32Asm(false) reported prev %v, want %v", prev, orig)
	}
	if GemmF32Asm() {
		t.Fatal("kill switch did not disable the asm kernel")
	}
	SetGemmF32Asm(true)
	if GemmF32Asm() != gemmAsmAvailable {
		t.Fatalf("enabling asm: got %v, want capability %v", GemmF32Asm(), gemmAsmAvailable)
	}
}

// BenchmarkGemmF32 times the kernels at the decode pass's shapes: a shard
// of stacked rows (32 slots × 5 verify rows) against the paper-scale
// attention and feed-forward panels, and a plain step's 32 rows.
func BenchmarkGemmF32(b *testing.B) {
	for _, s := range []struct {
		rows, in, out int
		act           Act
	}{
		{160, 128, 1024, ActGELU},
		{160, 1024, 128, ActNone},
		{160, 128, 128, ActNone},
		{32, 128, 128, ActNone},
		{1, 128, 128, ActNone},
	} {
		c := newGemmCase(s.rows, s.in, s.out, 1)
		dst := make([]float32, s.rows*s.out)
		for _, asm := range []bool{true, false} {
			if asm && !gemmAsmAvailable {
				continue
			}
			b.Run(fmt.Sprintf("%dx%dx%d/act=%d/asm=%v", s.rows, s.in, s.out, s.act, asm), func(b *testing.B) {
				prev := SetGemmF32Asm(asm)
				defer SetGemmF32Asm(prev)
				for i := 0; i < b.N; i++ {
					GemmF32(dst, c.x, s.rows, c.pw, c.pb, s.in, s.out, s.act)
				}
				b.ReportMetric(float64(b.N)*float64(s.rows*s.in*s.out)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}
