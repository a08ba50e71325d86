package nn

import "cptgpt/internal/tensor"

// Inference weight export: frozen float32 snapshots of trained layers for
// the decode fast path. Training keeps float64 (the optimizer's precision
// contract is bit-exactness across batching), but autoregressive decoding is
// read-only and memory-bandwidth bound, so a one-time conversion into
// contiguous float32 panels roughly halves the traffic of every step.
//
// Linear weights are exported in tensor.GemmF32's packed panel layout (see
// tensor.PackF32), the one copy the decode GEMM reads. The snapshots share
// no storage with the live parameters: they are value copies, safe to read
// from any number of goroutines while the source model stays untouched.

// LinearF32 is a frozen float32 snapshot of a Linear layer: W holds the
// In×Out weights as packed panels and B the bias zero-padded to whole
// panels (B[:Out] is the bias).
type LinearF32 struct {
	In, Out int
	W, B    []float32
}

// ExportF32 freezes the layer into packed float32 panels.
func (l *Linear) ExportF32() LinearF32 {
	in, out := l.W.Rows, l.W.Cols
	w, b := tensor.PackF32(l.W.Data, l.B.Data, in, out)
	return LinearF32{In: in, Out: out, W: w, B: b}
}

// Apply computes dst = act(x·W + B) for rows row-major input rows through
// tensor.GemmF32.
func (l *LinearF32) Apply(dst, x []float32, rows int, act tensor.Act) {
	tensor.GemmF32(dst, x, rows, l.W, l.B, l.In, l.Out, act)
}

// LayerNormF32 is a frozen float32 snapshot of a LayerNorm.
type LayerNormF32 struct {
	Gain, Bias []float32
	Eps        float64
}

// ExportF32 freezes the layer norm's gain and bias.
func (l *LayerNorm) ExportF32() LayerNormF32 {
	e := LayerNormF32{
		Gain: make([]float32, len(l.Gain.Data)),
		Bias: make([]float32, len(l.Bias.Data)),
		Eps:  l.Eps,
	}
	for i, g := range l.Gain.Data {
		e.Gain[i] = float32(g)
	}
	for i, b := range l.Bias.Data {
		e.Bias[i] = float32(b)
	}
	return e
}

// MLPF32 is a frozen float32 snapshot of an MLP (ReLU between layers).
type MLPF32 struct {
	Layers []LinearF32
}

// ExportF32 freezes every layer of the MLP.
func (m *MLP) ExportF32() MLPF32 {
	e := MLPF32{Layers: make([]LinearF32, len(m.Layers))}
	for i, l := range m.Layers {
		e.Layers[i] = l.ExportF32()
	}
	return e
}
