package cptgpt

import (
	"fmt"
	"math"

	"cptgpt/internal/nn"
)

// headHiddenMax returns the widest intermediate layer across the three
// output heads, sizing the shared hidden scratch.
func headHiddenMax(m *Model) int {
	w := 1
	for _, h := range []*nn.MLP{m.EventHd, m.IAHd, m.StopHd} {
		for _, l := range h.Layers {
			if l.W.Cols > w {
				w = l.W.Cols
			}
		}
	}
	return w
}

// StepOut carries the raw head outputs of one decode step for one stream.
// EventLogits aliases decoder-owned scratch and is valid only until the
// next step of the same decoder (or decoder slot).
type StepOut struct {
	EventLogits []float64
	IAMean      float64
	IALogStd    float64 // NaN when the distribution head is disabled
	StopLogits  [2]float64
}

// attendRow computes one stream's multi-head attention output for the newest
// query row q against nPos cached key/value rows, writing into att (len dm).
// scores must have length ≥ nPos: the serial decoder and each BatchDecoder
// slot own a MaxLen-sized scores region, and every caller bounds nPos by the
// slot's own position (≤ MaxLen), so the check only fires if a slot is
// stepped past MaxLen without ResetSlot — the invariant continuous batching
// relies on when it seats a new stream in a retired slot. This is the shared
// row kernel of the serial decoder and the F64 BatchDecoder path, so both
// are bit-identical.
func attendRow(att, q, kc, vc []float64, nPos, heads, dm int, scores []float64) {
	if len(scores) < nPos {
		panic(fmt.Sprintf("cptgpt: attendRow scores buffer has %d rows for %d cached positions (slot stepped past MaxLen without reset?)", len(scores), nPos))
	}
	dh := dm / heads
	scale := 1 / math.Sqrt(float64(dh))
	scores = scores[:nPos]
	for h := 0; h < heads; h++ {
		lo := h * dh
		maxv := math.Inf(-1)
		for t := 0; t < nPos; t++ {
			kRow := kc[t*dm+lo : t*dm+lo+dh]
			var s float64
			for j := 0; j < dh; j++ {
				s += q[lo+j] * kRow[j]
			}
			s *= scale
			scores[t] = s
			if s > maxv {
				maxv = s
			}
		}
		var sum float64
		for t := range scores {
			scores[t] = math.Exp(scores[t] - maxv)
			sum += scores[t]
		}
		inv := 1 / sum
		for j := 0; j < dh; j++ {
			att[lo+j] = 0
		}
		for t := 0; t < nPos; t++ {
			w := scores[t] * inv
			vRow := vc[t*dm+lo : t*dm+lo+dh]
			for j := 0; j < dh; j++ {
				att[lo+j] += w * vRow[j]
			}
		}
	}
}

// linearRowInto computes dst = row·W + b for a single row; dst must have
// length = l.W.Cols and may not alias row.
func linearRowInto(dst, row []float64, l *nn.Linear) {
	cols := l.W.Cols
	copy(dst, l.B.Data)
	for k, x := range row {
		if x == 0 {
			continue
		}
		// A 4-way unroll: every dst[j] still takes the same operations in
		// the same order (bit-identical to the plain loop), but the loop
		// branches once per four elements, so its speed no longer hinges
		// on where the linker happens to place it.
		wRow := l.W.Data[k*cols : (k+1)*cols]
		d := dst[:len(wRow)]
		j := 0
		for ; j+4 <= len(wRow); j += 4 {
			d[j] += x * wRow[j]
			d[j+1] += x * wRow[j+1]
			d[j+2] += x * wRow[j+2]
			d[j+3] += x * wRow[j+3]
		}
		for ; j < len(wRow); j++ {
			d[j] += x * wRow[j]
		}
	}
}

// layerNormRow computes dst = LN(row) with l's gain and bias.
func layerNormRow(dst, row []float64, l *nn.LayerNorm) {
	n := float64(len(row))
	var mu float64
	for _, v := range row {
		mu += v
	}
	mu /= n
	var va float64
	for _, v := range row {
		d := v - mu
		va += d * d
	}
	va /= n
	istd := 1 / math.Sqrt(va+l.Eps)
	for i, v := range row {
		dst[i] = (v-mu)*istd*l.Gain.Data[i] + l.Bias.Data[i]
	}
}

// mlpRowInto applies an MLP (ReLU between layers) to a single row, writing
// the final layer into dst (len = last layer width). hid and hid2 are
// ping-pong scratch, each wide enough for every intermediate layer (they
// keep consecutive layers from aliasing); row is never modified.
func mlpRowInto(dst, hid, hid2, row []float64, m *nn.MLP) {
	cur := row
	last := len(m.Layers) - 1
	for i, l := range m.Layers {
		var next []float64
		switch {
		case i == last:
			next = dst[:l.W.Cols]
		case i%2 == 0:
			next = hid[:l.W.Cols]
		default:
			next = hid2[:l.W.Cols]
		}
		linearRowInto(next, cur, l)
		if i != last {
			for j := range next {
				if next[j] < 0 {
					next[j] = 0
				}
			}
		}
		cur = next
	}
}

func gelu(x float64) float64 {
	const c = 0.7978845608028654
	return 0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x)))
}
