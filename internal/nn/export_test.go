package nn

import (
	"testing"

	"cptgpt/internal/stats"
	"cptgpt/internal/tensor"
)

func TestLinearExportF32Packs(t *testing.T) {
	rng := stats.NewRand(5)
	l := NewLinear(7, 20, rng) // two panels, the second one partial
	l.B.Data[19] = 0.25
	e := l.ExportF32()
	const pw = tensor.PanelW
	if e.In != 7 || e.Out != 20 || len(e.W) != 2*7*pw || len(e.B) != 2*pw {
		t.Fatalf("bad export shape: In %d Out %d len(W) %d len(B) %d", e.In, e.Out, len(e.W), len(e.B))
	}
	for k := 0; k < e.In; k++ {
		for j := 0; j < 2*pw; j++ {
			want := float32(0)
			if j < e.Out {
				want = float32(l.W.Data[k*e.Out+j])
			}
			if got := e.W[(j/pw*e.In+k)*pw+j%pw]; got != want {
				t.Fatalf("packed W[%d][%d] = %v, want %v", k, j, got, want)
			}
		}
	}
	for j := range e.B {
		want := float32(0)
		if j < e.Out {
			want = float32(l.B.Data[j])
		}
		if e.B[j] != want {
			t.Fatalf("B[%d] = %v, want %v", j, e.B[j], want)
		}
	}
	// Snapshot must not alias the live parameters.
	before := e.W[0]
	l.W.Data[0] += 1
	if e.W[0] != before {
		t.Fatal("export aliases live weights")
	}
}

func TestLayerNormAndMLPExportF32(t *testing.T) {
	rng := stats.NewRand(6)
	ln := NewLayerNorm(5)
	ln.Gain.Data[2] = 1.5
	ln.Bias.Data[3] = -0.25
	le := ln.ExportF32()
	if le.Eps != ln.Eps || le.Gain[2] != 1.5 || le.Bias[3] != -0.25 {
		t.Fatalf("layer norm export mismatch: %+v", le)
	}

	m := NewMLP(rng, 6, 8, 3)
	me := m.ExportF32()
	if len(me.Layers) != 2 || me.Layers[0].In != 6 || me.Layers[0].Out != 8 || me.Layers[1].Out != 3 {
		t.Fatalf("mlp export shape mismatch: %+v", me)
	}
}
