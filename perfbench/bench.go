package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"cptgpt/internal/tensor"
)

// workers is the generation worker bound of every workload: the tensor
// pool, the scenario engine's chunk workers and the daemon's runs.
const workers = 2

// setupReps is how many times an in-process workload sets up before its
// measured loop; setup_s is their median. Daemon workloads set up once per
// operation instead, so they get one sample per operation.
const setupReps = 3

// minOps is the fewest operations a run measures, however short
// --seconds is: enough for a median. A traced run needs two of each kind.
const minOps, minTracedOps = 3, 4

// sizes are the workload input sizes. benchSizes is what the benchmark
// runs; the self-test runs the same code at tinySizes.
type sizes struct {
	flashUEs    int     // synth-flash-mcn population
	warmUEs     int     // in-process warm-up population (set-up)
	gptUEs      int     // gpt-spec-mcn population
	gptChunk    int     // gpt-spec-mcn chunk streams (RunOpts.BatchSize)
	truthUEs    int     // phones in the seeded ground truth the model trains on
	epochs      int     // training epochs
	jsonlUEs    int     // served-jsonl population
	replayUEs   int     // served-paced-replay population
	compression float64 // served-paced-replay time compression
}

var benchSizes = sizes{
	flashUEs:    40000,
	warmUEs:     2000,
	gptUEs:      4096,
	gptChunk:    64,
	truthUEs:    96,
	epochs:      3,
	jsonlUEs:    15000,
	replayUEs:   3000,
	compression: 900,
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	sizes    sizes
}

// metricDef names a metric and its unit; the lists below are the
// benchmark's contract and match BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"allocs_per_event", "count"},
	{"viol_frac", "ratio"},
}

var perLayer = []metricDef{
	{"scenario.open_s", "s"},
	{"scenario.open_allocs_per_event", "count"},
	{"synthetic.busy_s", "s"},
	{"synthetic.calls", "count"},
	{"cptgpt.busy_s", "s"},
	{"cptgpt.calls", "count"},
	{"cptgpt.steps", "count"},
	{"cptgpt.slot_util", "ratio"},
	{"cptgpt.draft_accept", "ratio"},
	{"cptgpt.step_s", "s"},
	{"scenario.ops_spill_s", "s"},
	{"scenario.merge_s", "s"},
	{"scenario.drain_allocs_per_event", "count"},
	{"mcn.busy_s", "s"},
	{"served.submit_ms", "ms"},
	{"served.generating_s", "s"},
	{"served.streaming_s", "s"},
	{"runlog.appends", "count"},
	{"runlog.fsyncs", "count"},
	{"runlog.bytes", "B"},
	{"served.sink_bytes_per_s", "B/s"},
	{"scenario.pacer_shed", "count"},
	{"lag_p50_ms", "ms"},
	{"lag_p99_ms", "ms"},
	{"lag_samples", "count"},
	{"replaynet.ack_ratio", "ratio"},
	{"replaynet.retransmits", "count"},
	{"replaynet.reconnects", "count"},
	{"replaynet.srtt_ms", "ms"},
	{"txn_p50_ms", "ms"},
	{"txn_p99_ms", "ms"},
	{"txn_samples", "count"},
	{"trace.events_per_s", "1/s"},
	{"trace.overhead_ratio", "ratio"},
}

// opResult is one measured operation of a workload.
type opResult struct {
	traced bool
	wall   float64 // seconds of the operation's timed span
	events int64
	allocs float64 // heap allocations per event in the timed span
	rssMB  float64 // peak RSS during the timed span
	viol   float64 // sink-rejected events / events (-1 = from the reference)
	// digest identifies the output: the event-sequence digest in process,
	// the jsonl file's hash on the daemon (0 = no output to compare).
	digest uint64
	layers map[string]float64
}

// fixture is a workload set up and ready to measure.
type fixture interface {
	run(traced bool) (opResult, error)
	close() error
}

// reference is the expected output of a seed, computed in process after
// the measured loop: digest and event count every operation must match,
// and the violation rate when the operation's sink cannot score it.
type reference struct {
	digest uint64
	events int64
	viol   float64
}

type workload struct {
	name string
	// perOpSetup gives every operation a fresh fixture (the daemon
	// workloads: a new daemon, spill, journal and output directory, and
	// replay server per run, so no state carries over between runs).
	perOpSetup bool
	setup      func(b *bench) (fixture, error)
	// reference, when set, computes the seed's expected output; without
	// it every operation's digest must equal the first one's.
	reference func(b *bench) (reference, error)
}

var workloads = []workload{
	{name: "synth-flash-mcn", setup: setupSynthFlash},
	{name: "gpt-spec-mcn", setup: setupGPTSpec},
	{name: "served-jsonl", perOpSetup: true, setup: setupServedJSONL, reference: referenceJSONL},
	{name: "served-paced-replay", perOpSetup: true, setup: setupServedReplay, reference: referenceReplay},
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// bench is one benchmark run's shared state.
type bench struct {
	cfg config
	dir string // the run's scratch directory, removed at the end
}

// scratch makes a fresh directory for one operation or fixture.
func (b *bench) scratch(prefix string) (string, error) {
	return os.MkdirTemp(b.dir, prefix)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runBench sets the workload up, measures it for cfg.seconds, checks every
// operation and summarizes. Human-readable lines go to out; the result is
// returned for the caller to print.
func runBench(cfg config, out io.Writer) (*result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, workloadNames())
	}
	tensor.SetParallelism(workers)
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{cfg: cfg, dir: dir}

	var setups []float64
	var fx fixture
	if !w.perOpSetup {
		for i := 0; i < setupReps; i++ {
			t0 := time.Now()
			f, err := w.setup(b)
			if err != nil {
				return nil, fmt.Errorf("%s set-up: %w", w.name, err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			if fx != nil {
				fx.close()
			}
			fx = f
		}
		defer fx.close()
	}

	need := minOps
	if cfg.trace {
		need = minTracedOps
	}
	var ops []opResult
	attempted, failed := 0, 0
	fail := func(err error) {
		failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s op %d failed: %v\n", w.name, attempted, err)
	}
	start := time.Now()
	for i := 0; i < need || time.Since(start).Seconds() < cfg.seconds; i++ {
		attempted++
		traced := cfg.trace && i%2 == 1
		f := fx
		if w.perOpSetup {
			t0 := time.Now()
			f, err = w.setup(b)
			if err != nil {
				fail(fmt.Errorf("set-up: %w", err))
				continue
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		r, err := f.run(traced)
		if w.perOpSetup {
			if cerr := f.close(); cerr != nil && err == nil {
				err = fmt.Errorf("teardown: %w", cerr)
			}
		}
		if err != nil {
			fail(err)
			continue
		}
		r.traced = traced
		ops = append(ops, r)
	}
	measured := time.Since(start)

	// Output checks across operations.
	var ref *reference
	if w.reference != nil {
		r, err := w.reference(b)
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", w.name, err)
		}
		ref = &r
	} else if len(ops) > 0 {
		ref = &reference{digest: ops[0].digest, events: ops[0].events, viol: ops[0].viol}
	}
	good := ops[:0]
	for _, op := range ops {
		switch {
		case op.digest != ref.digest:
			fail(fmt.Errorf("output digest %016x, want %016x (traced=%v)", op.digest, ref.digest, op.traced))
		case op.events != ref.events:
			fail(fmt.Errorf("%d events, want %d", op.events, ref.events))
		default:
			if op.viol < 0 {
				op.viol = ref.viol
			}
			good = append(good, op)
		}
	}
	if len(good) == 0 {
		return nil, fmt.Errorf("%s: all %d operations failed", w.name, attempted)
	}

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	var plain, traced []opResult
	for _, op := range good {
		if op.traced {
			traced = append(traced, op)
		} else {
			plain = append(plain, op)
		}
	}
	eps := func(ops []opResult) float64 {
		return medianOf(ops, func(o opResult) float64 { return float64(o.events) / o.wall })
	}
	fmt.Fprintf(out, "perfbench %s seed=%d trace=%v: %d ops in %.1fs (%d failed), %d events/op, %d workers\n",
		w.name, cfg.seed, cfg.trace, attempted, measured.Seconds(), failed, ref.events, workers)
	if !cfg.trace {
		vals := map[string]float64{
			"setup_s":          median(setups),
			"events_per_s":     eps(plain),
			"peak_rss_mb":      medianOf(plain, func(o opResult) float64 { return o.rssMB }),
			"allocs_per_event": medianOf(plain, func(o opResult) float64 { return o.allocs }),
			"viol_frac":        medianOf(plain, func(o opResult) float64 { return o.viol }),
		}
		fmt.Fprintf(out, "  %-34s %14s  %s\n", "end-to-end metric (median)", "value", "unit")
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
			fmt.Fprintf(out, "  %-34s %14.6g  %s\n", m.name, vals[m.name], m.unit)
		}
		fmt.Fprintf(out, "  %-34s %14.6g  ratio (%d of %d ops)\n", "fail_frac", float64(failed)/float64(attempted), failed, attempted)
		fmt.Fprintf(out, "  setup samples %d, measured ops %d; per-op events_per_s:", len(setups), len(plain))
		for _, op := range plain {
			fmt.Fprintf(out, " %.6g", float64(op.events)/op.wall)
		}
		fmt.Fprintln(out)
		return res, nil
	}

	if len(plain) == 0 || len(traced) == 0 {
		return nil, fmt.Errorf("%s: traced run needs both untraced and traced operations", w.name)
	}
	vals := map[string]float64{}
	for _, m := range perLayer {
		vals[m.name] = medianOf(traced, func(o opResult) float64 { return o.layers[m.name] })
	}
	base, tr := eps(plain), eps(traced)
	vals["trace.events_per_s"] = tr
	vals["trace.overhead_ratio"] = base / tr
	fmt.Fprintf(out, "  %-34s %14s  %s\n", "per-layer metric (traced median)", "value", "unit")
	for _, m := range perLayer {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
		fmt.Fprintf(out, "  %-34s %14.6g  %s\n", m.name, v, m.unit)
	}
	fmt.Fprintf(out, "  tracing overhead: untraced/traced events_per_s = %.4f (base: untraced median %.6g events/s over %d ops; traced %.6g over %d ops)\n",
		base/tr, base, len(plain), tr, len(traced))
	return res, nil
}

// medianOf is the median of f over ops.
func medianOf(ops []opResult, f func(opResult) float64) float64 {
	xs := make([]float64, len(ops))
	for i, o := range ops {
		xs[i] = f(o)
	}
	return median(xs)
}
