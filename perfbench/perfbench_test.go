package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"

	"cptgpt/internal/tensor"
)

// tinySizes runs every workload's code path in well under a second each.
var tinySizes = sizes{
	flashUEs:    300,
	warmUEs:     100,
	gptUEs:      64,
	gptChunk:    16,
	truthUEs:    8,
	epochs:      1,
	jsonlUEs:    200,
	replayUEs:   100,
	compression: 36000,
}

// TestWorkloadsTiny runs every workload, untraced and traced, at tiny
// sizes with every output check on: repeat and traced-vs-untraced digests,
// the daemon's jsonl bytes against in-process WriteJSONL, and the closed
// loop's sent = acked = events with no duplicates.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 3, trace: traced, workdir: t.TempDir(), sizes: tinySizes}
			res, err := runBench(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minOps {
				t.Fatalf("%s traced=%v: correct=%v failed=%d of %d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) {
					t.Fatalf("%s traced=%v: metric %s = %+v", w.name, traced, m.name, v)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, v.Value)
				}
			}
		}
	}
}

// TestSynthFlashDigestAcrossParallelism pins that the synth-flash-mcn
// output digest does not depend on the worker count, untraced or through
// the benchmark's own timed source bindings.
func TestSynthFlashDigestAcrossParallelism(t *testing.T) {
	spec, err := flashSpec(5)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{cfg: config{seed: 5, sizes: tinySizes}, dir: t.TempDir()}
	var want uint64
	for _, par := range []int{1, 2} {
		prev := tensor.SetParallelism(par)
		for _, traced := range []bool{false, true} {
			f := &inproc{b: b, spec: spec, ues: 700, chunk: 128, workers: par}
			r, err := f.run(traced)
			if err != nil {
				t.Fatal(err)
			}
			if want == 0 {
				want = r.digest
			} else if r.digest != want {
				t.Errorf("parallelism %d traced=%v: digest %016x, want %016x", par, traced, r.digest, want)
			}
		}
		tensor.SetParallelism(prev)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and perfbench's workload
// and metric lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		doc  []struct{ Name, Unit string }
		want []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.doc) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, perfbench %d", len(c.doc), len(c.want))
		}
		for i, m := range c.doc {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], perfbench %s [%s]", i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}

// TestHistogramQuantile checks the /metrics histogram read-back and the
// in-bucket interpolation the lag and transaction percentiles use.
func TestHistogramQuantile(t *testing.T) {
	text := `# TYPE x_seconds histogram
x_seconds_bucket{run="run-1",le="0.001"} 10
x_seconds_bucket{run="run-1",le="0.002"} 90
x_seconds_bucket{run="run-1",le="0.004"} 100
x_seconds_bucket{run="run-1",le="+Inf"} 100
x_seconds_sum{run="run-1"} 0.2
x_seconds_count{run="run-1"} 100
x_seconds_bucket{run="run-10",le="0.001"} 5
x_seconds_count{run="run-10"} 5
`
	h, err := parseHist(text, "x_seconds", `run="run-1"`)
	if err != nil {
		t.Fatal(err)
	}
	if h.count != 100 || len(h.edges) != 3 {
		t.Fatalf("parsed %+v", h)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.05, 0.0005}, // half-way through the first bucket, from 0
		{0.5, 0.0015},  // 50th of 80 samples in (0.001, 0.002]
		{0.99, 0.0038}, // 9th of 10 in (0.002, 0.004]
	} {
		if got := h.quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if _, err := parseHist(text, "y_seconds", `run="run-1"`); err == nil {
		t.Error("missing family parsed without error")
	}
}
