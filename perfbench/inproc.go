package main

import (
	"fmt"
	"os"
	"time"

	"cptgpt/internal/cptgpt"
	"cptgpt/internal/events"
	"cptgpt/internal/mcn"
	"cptgpt/internal/scenario"
	"cptgpt/internal/synthetic"
	"cptgpt/internal/telemetry"
)

// flashSpec is the built-in flash-crowd scenario under the workload seed.
func flashSpec(seed uint64) (*scenario.Spec, error) {
	spec, err := scenario.Builtin("flash-crowd")
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	return spec, nil
}

// modelName is the model file name the gpt spec names; the in-process
// workload resolves it to the model trained in set-up.
const modelName = "perfbench-model"

// gptSpec is a one-source scenario decoded by a CPT-GPT model with the f32
// fast path and speculative decoding.
func gptSpec(seed uint64) *scenario.Spec {
	return &scenario.Spec{
		Name:       "gpt-spec",
		Generation: "4G",
		Seed:       seed,
		HorizonSec: 3600,
		Sources: []scenario.SourceSpec{{
			ID: "gpt", Kind: "cptgpt", Share: 1, ModelFile: modelName,
			Device: "phone", Precision: "f32", Speculative: true,
		}},
	}
}

// modelSeed seeds the ground truth and the training of the gpt-spec-mcn
// model. It is fixed rather than taken from --seed: small models trained
// under different seeds decode at very different speeds (1.3k to 7.2k
// events/s, violation rates 0.02 to 0.41, over five seeds), which would
// swamp every change the workload exists to measure. The workload seed
// still seeds the spec, so each seed samples different traffic from the
// same model.
const modelSeed = 1

// trainModel trains a CPT-GPT at the paper's tuned shape (2 blocks,
// d_model 128, MLP hidden 1024) on seeded synthetic ground truth, for a
// fixed epoch count, so nothing is downloaded.
func trainModel(sz sizes) (*cptgpt.Model, error) {
	seed := uint64(modelSeed)
	d, err := synthetic.Generate(synthetic.Config{
		Generation: events.Gen4G, Seed: splitmix(seed ^ 0x7472757468),
		UEs: map[events.DeviceType]int{events.Phone: sz.truthUEs}, Hours: 1, StartHour: 10,
	})
	if err != nil {
		return nil, err
	}
	cfg := cptgpt.DefaultConfig()
	cfg.DModel = 128
	cfg.Heads = 4
	cfg.MLPHidden = 1024
	cfg.HeadHidden = 64
	cfg.MaxLen = 256
	cfg.Epochs = sz.epochs
	cfg.Seed = splitmix(seed ^ 0x6d6f64656c)
	m, err := cptgpt.NewModel(cfg, cptgpt.FitTokenizer(d))
	if err != nil {
		return nil, err
	}
	if _, err := cptgpt.Train(m, d, cptgpt.TrainOpts{Parallelism: workers}); err != nil {
		return nil, err
	}
	return m, nil
}

// inproc runs a scenario in process into the mcn sink.
type inproc struct {
	b       *bench
	spec    *scenario.Spec
	ues     int
	chunk   int
	workers int
	model   *cptgpt.Model // nil for synthetic-only specs
}

func setupSynthFlash(b *bench) (fixture, error) {
	spec, err := flashSpec(b.cfg.seed)
	if err != nil {
		return nil, err
	}
	f := &inproc{b: b, spec: spec, ues: b.cfg.sizes.flashUEs, workers: workers}
	return f, f.warmUp()
}

func setupGPTSpec(b *bench) (fixture, error) {
	m, err := trainModel(b.cfg.sizes)
	if err != nil {
		return nil, err
	}
	f := &inproc{b: b, spec: gptSpec(b.cfg.seed), ues: b.cfg.sizes.gptUEs, chunk: b.cfg.sizes.gptChunk, workers: workers, model: m}
	return f, f.warmUp()
}

// warmUp runs a small untimed operation so lazy set-up (the tensor worker
// pool, a model's f32 inference snapshot and speculative draft) finishes
// before anything is timed.
func (f *inproc) warmUp() error {
	full := f.ues
	f.ues = min(full, f.b.cfg.sizes.warmUEs)
	if f.chunk > 0 {
		f.ues = min(full, 2*f.chunk)
	}
	_, err := f.run(false)
	f.ues = full
	return err
}

func (f *inproc) close() error { return nil }

func (f *inproc) loadModel(path string) (*cptgpt.Model, error) {
	if f.model == nil || path != modelName {
		return nil, fmt.Errorf("no model %q", path)
	}
	return f.model, nil
}

func (f *inproc) opts(dir string) scenario.RunOpts {
	return scenario.RunOpts{
		UEs: f.ues, Parallelism: f.workers, BatchSize: f.chunk,
		TempDir: dir, LoadModel: f.loadModel,
	}
}

// run opens the scenario and drains it into the mcn sink. Untraced, only
// the whole span from Open to the sink's return is timed; traced, each
// layer is timed around the calls into it.
func (f *inproc) run(traced bool) (r opResult, err error) {
	dir, err := f.b.scratch("op-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	opts := f.opts(dir)
	var (
		tm       sourceTimers
		dstats   cptgpt.DecodeStats
		stepHist *telemetry.Histogram
	)
	if traced {
		stepHist = telemetry.NewHistogram(telemetry.LatencyBuckets)
		opts.SourceStats = func(string) *cptgpt.DecodeStats { return &dstats }
		opts.SourceStepHist = func(string) *telemetry.Histogram { return stepHist }
		if opts.Sources, err = timedBindings(f.spec, opts, f.ues, &tm); err != nil {
			return r, err
		}
	}

	rss := startRSS()
	m0 := mallocs()
	t0 := time.Now()
	st, err := f.spec.Open(opts)
	if err != nil {
		rss.peakMB()
		return r, err
	}
	defer st.Close()
	openWall := time.Since(t0)
	var m1 uint64
	var src scenario.EventSource = st
	var ts *timedSource
	if traced {
		m1 = mallocs()
		ts = &timedSource{EventSource: st}
		src = ts
	}
	dg := newDigestSource(src)
	t1 := time.Now()
	rep, err := scenario.RunMCN(dg, mcn.DefaultConfig())
	drain := time.Since(t1)
	wall := time.Since(t0)
	m2 := mallocs()
	r.rssMB = rss.peakMB()
	if err != nil {
		return r, err
	}
	if rep.Events != int(dg.n) || dg.n == 0 {
		return r, fmt.Errorf("mcn processed %d events, stream emitted %d", rep.Events, dg.n)
	}
	if err := st.Close(); err != nil {
		return r, err
	}
	n := float64(dg.n)
	r.wall, r.events, r.digest = wall.Seconds(), dg.n, dg.h
	r.allocs = float64(m2-m0) / n
	r.viol = float64(rep.Rejected) / n
	if !traced {
		return r, nil
	}
	open := openWall.Seconds()
	r.layers = map[string]float64{
		"scenario.open_s":                 open,
		"scenario.open_allocs_per_event":  float64(m1-m0) / n,
		"synthetic.busy_s":                tm.synthetic.seconds(),
		"synthetic.calls":                 float64(tm.synthetic.calls.Load()),
		"cptgpt.busy_s":                   tm.cptgpt.seconds(),
		"cptgpt.calls":                    float64(tm.cptgpt.calls.Load()),
		"scenario.ops_spill_s":            float64(f.workers)*open - tm.synthetic.seconds() - tm.cptgpt.seconds(),
		"scenario.merge_s":                ts.busy.Seconds(),
		"scenario.drain_allocs_per_event": float64(m2-m1) / n,
		"mcn.busy_s":                      (drain - ts.busy).Seconds(),
	}
	if ds := dstats.Load(); ds.Steps > 0 {
		r.layers["cptgpt.steps"] = float64(ds.Steps)
		r.layers["cptgpt.slot_util"] = float64(ds.SlotSteps) / float64(ds.Steps*int64(opts.DecodeBatch()))
		r.layers["cptgpt.step_s"] = stepHist.Sum()
		if ds.DraftProposed > 0 {
			r.layers["cptgpt.draft_accept"] = float64(ds.DraftAccepted) / float64(ds.DraftProposed)
		}
	}
	return r, nil
}
