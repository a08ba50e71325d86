package cptgpt

import (
	"math"
	"math/rand/v2"

	"cptgpt/internal/stats"
	"cptgpt/internal/trace"
)

// decoder is the serial reference decoder: a tape-free incremental forward
// pass over one stream with per-block key/value caching, verified against
// Model.Forward. BatchDecoder's F64 pass runs the same row kernels
// (infer.go) side by side over a shared cache layout, so the batched paths
// are tested against this bit for bit.
type decoder struct {
	m   *Model
	pos int
	// kc/vc hold, per block, the cached keys/values: pos rows × DModel,
	// pre-sized to MaxLen rows so appends never reallocate.
	kc [][]float64
	vc [][]float64
	// scratch buffers reused across steps
	x, q, k, v, att, tmp []float64
	ff                   []float64
	scores               []float64 // attention weights over cached positions
	hid, hid2            []float64 // MLP-head hidden activations (ping-pong)
	evOut                []float64 // event-head output (V logits)
	iaOut                []float64 // interarrival-head output (1 or 2)
	stopOut              []float64 // stop-head output (2 logits)
}

// newDecoder creates an incremental decoder for m.
func newDecoder(m *Model) *decoder {
	d := &decoder{m: m}
	dm := m.Cfg.DModel
	d.kc = make([][]float64, len(m.BlocksNN))
	d.vc = make([][]float64, len(m.BlocksNN))
	for i := range d.kc {
		d.kc[i] = make([]float64, 0, m.Cfg.MaxLen*dm)
		d.vc[i] = make([]float64, 0, m.Cfg.MaxLen*dm)
	}
	d.x = make([]float64, dm)
	d.q = make([]float64, dm)
	d.k = make([]float64, dm)
	d.v = make([]float64, dm)
	d.att = make([]float64, dm)
	d.tmp = make([]float64, dm)
	d.ff = make([]float64, m.Cfg.MLPHidden)
	d.scores = make([]float64, m.Cfg.MaxLen)
	d.hid = make([]float64, headHiddenMax(m))
	d.hid2 = make([]float64, headHiddenMax(m))
	d.evOut = make([]float64, m.Tok.V())
	d.iaOut = make([]float64, m.IAHd.Layers[len(m.IAHd.Layers)-1].W.Cols)
	d.stopOut = make([]float64, 2)
	return d
}

// step consumes one token (d_token values) and returns the head outputs at
// the new position. It panics if the position exceeds MaxLen.
func (d *decoder) step(token []float64) StepOut {
	m := d.m
	dm := m.Cfg.DModel
	if d.pos >= m.Cfg.MaxLen {
		panic("cptgpt: decoder stepped past MaxLen")
	}

	// Token projection + positional embedding.
	linearRowInto(d.x, token, m.InProj)
	pe := m.PosEmb.Data[d.pos*dm : (d.pos+1)*dm]
	for i := range d.x {
		d.x[i] += pe[i]
	}

	tmp := d.tmp
	for bi, b := range m.BlocksNN {
		// Attention sub-layer (pre-norm, residual).
		layerNormRow(tmp, d.x, b.LN1)
		linearRowInto(d.q, tmp, b.Attn.Wq)
		linearRowInto(d.k, tmp, b.Attn.Wk)
		linearRowInto(d.v, tmp, b.Attn.Wv)
		d.kc[bi] = append(d.kc[bi], d.k...)
		d.vc[bi] = append(d.vc[bi], d.v...)
		attendRow(d.att, d.q, d.kc[bi], d.vc[bi], d.pos+1, b.Attn.Heads, dm, d.scores)
		linearRowInto(tmp, d.att, b.Attn.Wo)
		for i := range d.x {
			d.x[i] += tmp[i]
		}

		// Feed-forward sub-layer (pre-norm, residual).
		layerNormRow(tmp, d.x, b.LN2)
		linearRowInto(d.ff, tmp, b.FF.In)
		for i := range d.ff {
			d.ff[i] = gelu(d.ff[i])
		}
		linearRowInto(tmp, d.ff, b.FF.Out)
		for i := range d.x {
			d.x[i] += tmp[i]
		}
	}

	layerNormRow(tmp, d.x, m.Final)

	var out StepOut
	mlpRowInto(d.evOut, d.hid, d.hid2, tmp, m.EventHd)
	out.EventLogits = d.evOut
	mlpRowInto(d.iaOut, d.hid, d.hid2, tmp, m.IAHd)
	out.IAMean = d.iaOut[0]
	if m.Cfg.DistHead {
		out.IALogStd = math.Min(math.Max(d.iaOut[1], -6), 2)
	} else {
		out.IALogStd = math.NaN()
	}
	mlpRowInto(d.stopOut, d.hid, d.hid2, tmp, m.StopHd)
	out.StopLogits = [2]float64{d.stopOut[0], d.stopOut[1]}

	d.pos++
	return out
}

// sampleStream decodes one UE stream through the serial decoder. It is the
// reference implementation the batched path is tested against (identical
// output for identical opts.Seed and stream index).
func (m *Model) sampleStream(idx int, opts GenOpts, init *stats.Categorical, rng *rand.Rand) trace.Stream {
	vocab := m.Tok.Vocab()
	dec := newDecoder(m)

	// Bootstrap token: sampled initial event, interarrival 0, stop 0 (the
	// shared helper defines the draw order).
	var s trace.Stream
	evIdx, t := bootStream(&s, idx, opts, init, vocab, rng)
	tok := make([]float64, m.Tok.Dim())
	probs := make([]float64, m.Tok.V())
	m.Tok.writeToken(tok, evIdx, 0, 0)

	for len(s.Events) < m.Cfg.MaxLen {
		nextEv, scaled, stopIdx := m.sampleStep(dec.step(tok), opts.Temperature, rng, probs)
		t += m.Tok.UnscaleIA(scaled)
		s.Events = append(s.Events, trace.Event{Time: t, Type: vocab[nextEv]})
		if stopIdx == 1 {
			break
		}
		m.Tok.writeToken(tok, nextEv, scaled, stopIdx)
	}
	return s
}

// stepOnce runs one pass of a single row per listed slot — StepK with
// k = 1, the pass shape of plain decoding — and returns each slot's head
// outputs in slots order. They alias the decoder's scratch like StepK's.
func stepOnce(d *BatchDecoder, slots []int, tokens []float64) []StepOut {
	ones := make([]int, len(slots))
	for i := range ones {
		ones[i] = 1
	}
	outs := make([]StepOut, len(slots))
	for i, o := range d.StepK(slots, ones, 1, tokens) {
		outs[i] = o[0]
	}
	return outs
}
