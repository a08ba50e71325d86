package cptgpt

import (
	"math"

	"cptgpt/internal/nn"
	"cptgpt/internal/tensor"
)

// Float32 kernels of the decode fast path. They mirror the float64 kernels
// in infer.go but trade bit-compatibility for throughput:
//
//   - Every linear layer of a pass runs as one tensor.GemmF32 over the
//     stacked rows of all the pass's slots (AVX2+FMA where the machine has
//     it), with the GELU of the feed-forward up-projection and the ReLUs of
//     the output heads fused into the kernel's store.
//   - attendRowF32 computes attention scores, the softmax and the weighted
//     value sum in ONE pass over the interleaved KV cache (online softmax
//     with running max/sum per head), instead of the three passes the
//     float64 kernel makes. Every cached row is touched exactly once.
//
// Every kernel has a fixed order and no reduction crosses rows, so F32
// decoding is deterministic — the per-precision half of the determinism
// contract.

// negInf32 seeds the online-softmax running max.
var negInf32 = float32(math.Inf(-1))

// exp32 is the float32 exponential (computed via the float64 routine; the
// argument is ≤ 0 by construction in the online softmax).
func exp32(x float32) float32 {
	return float32(math.Exp(float64(x)))
}

// attendRowF32 computes one stream's multi-head attention output for query q
// against nPos cached positions, writing into att (len dm). kv is the slot's
// interleaved cache: row t is kv[t*2*dm : (t+1)*2*dm], keys in the first dm
// values, values in the second. mAcc and lAcc (len ≥ heads) carry the
// per-head running max and normalizer of the online softmax.
//
// The kernel makes a single pass over the cache: for each position it reads
// the KV row once, scores every head against the key half, and folds the
// value half into the output with flash-attention-style rescaling when a new
// max appears. One sweep of sequential memory per step is what makes long
// contexts cheap.
func attendRowF32(att, q, kv []float32, nPos, heads, dm int, mAcc, lAcc []float32) {
	dh := dm / heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	for h := 0; h < heads; h++ {
		mAcc[h] = negInf32
		lAcc[h] = 0
	}
	att = att[:dm]
	for i := range att {
		att[i] = 0
	}
	stride := 2 * dm
	for t := 0; t < nPos; t++ {
		row := kv[t*stride : (t+1)*stride]
		k, v := row[:dm], row[dm:]
		for h := 0; h < heads; h++ {
			lo := h * dh
			s := tensor.DotF32(q[lo:lo+dh], k[lo:lo+dh]) * scale
			if s > mAcc[h] {
				// New running max: rescale the accumulated sum and output.
				c := exp32(mAcc[h] - s)
				lAcc[h] *= c
				for j := lo; j < lo+dh; j++ {
					att[j] *= c
				}
				mAcc[h] = s
			}
			w := exp32(s - mAcc[h])
			lAcc[h] += w
			tensor.AxpyF32(att[lo:lo+dh], w, v[lo:lo+dh])
		}
	}
	for h := 0; h < heads; h++ {
		inv := 1 / lAcc[h]
		for j := h * dh; j < (h+1)*dh; j++ {
			att[j] *= inv
		}
	}
}

// layerNormRowF32 computes dst = LN(row) with l's gain and bias. The mean
// and variance accumulate in float64 (scalar registers, effectively free)
// to keep the normalization statistics tight.
func layerNormRowF32(dst, row []float32, l *nn.LayerNormF32) {
	n := float64(len(row))
	var mu float64
	for _, v := range row {
		mu += float64(v)
	}
	mu /= n
	var va float64
	for _, v := range row {
		d := float64(v) - mu
		va += d * d
	}
	va /= n
	m := float32(mu)
	istd := float32(1 / math.Sqrt(va+l.Eps))
	for i, v := range row {
		dst[i] = (v-m)*istd*l.Gain[i] + l.Bias[i]
	}
}

// stepRowsF32 runs slots[lo:hi] of a pass through the float32 kernels over
// the frozen InferModel snapshot. Slot slots[i] consumes its ks[i] token
// rows, stacked at pass rows [d.off[i], d.off[i+1]), and every linear layer
// runs as one GEMM over the shard's rows. The per-row work — positional
// embedding, layer norms, residual adds, attention over the slot's own KV
// rows, widening the head outputs to float64 — runs row by row in pass
// order, so row r of a slot lands its keys and values and then attends to
// exactly the cache through its own position. A pass is therefore causally
// identical to single-token steps, and since GEMM rows are independent,
// bit-identical to them.
func (d *BatchDecoder) stepRowsF32(slots, ks []int, lo, hi, kMax int, tokens []float64) {
	m, inf := d.m, d.inf
	dm, dim, heads, v := m.Cfg.DModel, m.Tok.Dim(), m.Cfg.Heads, m.Tok.V()
	r0, r1 := d.off[lo], d.off[hi]
	n := r1 - r0
	// rows returns the shard's rows of a pass buffer of row width w.
	rows := func(buf []float32, w int) []float32 { return buf[r0*w : r1*w] }

	// Token intake (and the past-MaxLen panic, before any work).
	for i := lo; i < hi; i++ {
		slot := slots[i]
		if d.pos[slot]+ks[i] > m.Cfg.MaxLen {
			panic("cptgpt: BatchDecoder stepped past MaxLen")
		}
		for r := 0; r < ks[i]; r++ {
			row, src := d.off[i]+r, (slot*kMax+r)*dim
			d.rowSlot[row], d.rowPos[row] = slot, d.pos[slot]+r
			tensor.F32From(d.tok32[row*dim:(row+1)*dim], tokens[src:src+dim])
		}
	}

	x, t := rows(d.x32, dm), rows(d.tmp32, dm)
	inf.inProj.Apply(x, rows(d.tok32, dim), n, tensor.ActNone)
	for row := r0; row < r1; row++ {
		tensor.AxpyF32(d.x32[row*dm:(row+1)*dm], 1, inf.posEmb[d.rowPos[row]*dm:(d.rowPos[row]+1)*dm])
	}

	stride := 2 * dm
	slotKV := m.Cfg.MaxLen * stride
	for bi := range inf.blocks {
		b := &inf.blocks[bi]
		// Attention sub-layer (pre-norm, residual).
		layerNormRowsF32(t, x, dm, &b.ln1)
		b.wq.Apply(rows(d.q32, dm), t, n, tensor.ActNone)
		b.wk.Apply(rows(d.k32, dm), t, n, tensor.ActNone)
		b.wv.Apply(rows(d.v32, dm), t, n, tensor.ActNone)
		for row := r0; row < r1; row++ {
			slot, pos := d.rowSlot[row], d.rowPos[row]
			kv := d.kv32[(bi*d.capacity+slot)*slotKV : (bi*d.capacity+slot+1)*slotKV]
			copy(kv[pos*stride:pos*stride+dm], d.k32[row*dm:(row+1)*dm])
			copy(kv[pos*stride+dm:(pos+1)*stride], d.v32[row*dm:(row+1)*dm])
			attendRowF32(d.att32[row*dm:(row+1)*dm], d.q32[row*dm:(row+1)*dm], kv,
				pos+1, b.heads, dm, d.mAcc32[slot*heads:(slot+1)*heads], d.lAcc32[slot*heads:(slot+1)*heads])
		}
		b.wo.Apply(t, rows(d.att32, dm), n, tensor.ActNone)
		tensor.AxpyF32(x, 1, t)

		// Feed-forward sub-layer (pre-norm, residual), GELU fused.
		layerNormRowsF32(t, x, dm, &b.ln2)
		ff := rows(d.ff32, m.Cfg.MLPHidden)
		b.ffIn.Apply(ff, t, n, tensor.ActGELU)
		b.ffOut.Apply(t, ff, n, tensor.ActNone)
		tensor.AxpyF32(x, 1, t)
	}

	// Final norm, output heads, widening.
	layerNormRowsF32(t, x, dm, &inf.final)
	hid, hid2 := rows(d.hid32, d.hw), rows(d.hid232, d.hw)
	ev, ia, stop := rows(d.evOut32, v), rows(d.iaOut32, d.iaW), rows(d.stopOut32, 2)
	mlpF32(ev, hid, hid2, t, n, &inf.eventHd)
	mlpF32(ia, hid, hid2, t, n, &inf.iaHd)
	mlpF32(stop, hid, hid2, t, n, &inf.stopHd)
	widenF32(d.evOut[r0*v:r1*v], ev)
	widenF32(d.iaOut[r0*d.iaW:r1*d.iaW], ia)
	widenF32(d.stopOut[r0*2:r1*2], stop)
	for row := r0; row < r1; row++ {
		fillStepOut(&d.rowOuts[row], m.Cfg.DistHead, d.evOut[row*v:(row+1)*v],
			d.iaOut[row*d.iaW:(row+1)*d.iaW], d.stopOut[row*2:(row+1)*2])
	}
	for i := lo; i < hi; i++ {
		d.pos[slots[i]] += ks[i]
	}
}

// mlpF32 applies an exported MLP to n rows of x, writing the last layer into
// dst: every layer is one GEMM, the ReLU between layers fused into it, and
// intermediate activations ping-pong through hid/hid2 (each with room for n
// rows of the widest layer).
func mlpF32(dst, hid, hid2, x []float32, n int, m *nn.MLPF32) {
	cur := x
	last := len(m.Layers) - 1
	for i := range m.Layers {
		l := &m.Layers[i]
		next, act := dst, tensor.ActReLU
		switch {
		case i == last:
			act = tensor.ActNone
		case i%2 == 0:
			next = hid
		default:
			next = hid2
		}
		l.Apply(next[:n*l.Out], cur, n, act)
		cur = next[:n*l.Out]
	}
}

// layerNormRowsF32 layer-normalizes every width-w row of x into dst.
func layerNormRowsF32(dst, x []float32, w int, l *nn.LayerNormF32) {
	for i := 0; i < len(x); i += w {
		layerNormRowF32(dst[i:i+w], x[i:i+w], l)
	}
}

// widenF32 converts src into dst element by element (exact).
func widenF32(dst []float64, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float64(v)
	}
}
