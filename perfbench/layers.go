package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"cptgpt/internal/cptgpt"
	"cptgpt/internal/events"
	"cptgpt/internal/scenario"
	"cptgpt/internal/synthetic"
	"cptgpt/internal/telemetry"
	"cptgpt/internal/trace"
)

// digestSource folds every event it passes on into an FNV-1a digest of
// the (Time, UE, Seq, Type, Device) sequence: the output check for the
// in-process workloads, equal across repeats and between traced and
// untraced runs of one seed.
type digestSource struct {
	scenario.EventSource
	h   uint64
	n   int64
	buf [22]byte
}

func newDigestSource(src scenario.EventSource) *digestSource {
	return &digestSource{EventSource: src, h: fnvOffset}
}

func (d *digestSource) Next() (scenario.Event, bool) {
	e, ok := d.EventSource.Next()
	if ok {
		b := d.buf[:]
		binary.LittleEndian.PutUint64(b[0:], math.Float64bits(e.Time))
		binary.LittleEndian.PutUint64(b[8:], e.UE)
		binary.LittleEndian.PutUint32(b[16:], e.Seq)
		b[20] = byte(e.Type)
		b[21] = byte(e.Device)
		d.h = fnvBytes(d.h, b)
		d.n++
	}
	return e, ok
}

// timedSource times every Next of the merged stream: the scenario layer's
// final k-way merge, measured from outside.
type timedSource struct {
	scenario.EventSource
	busy time.Duration
}

func (t *timedSource) Next() (scenario.Event, bool) {
	t0 := time.Now()
	e, ok := t.EventSource.Next()
	t.busy += time.Since(t0)
	return e, ok
}

// chunkTimer sums the wall time and call count of one source kind's
// ChunkFunc across generation workers.
type chunkTimer struct {
	busy  atomic.Int64 // nanoseconds
	calls atomic.Int64
}

func (c *chunkTimer) wrap(f scenario.ChunkFunc) scenario.ChunkFunc {
	return func(lo, hi int) ([]trace.Stream, error) {
		t0 := time.Now()
		s, err := f(lo, hi)
		c.busy.Add(int64(time.Since(t0)))
		c.calls.Add(1)
		return s, err
	}
}

func (c *chunkTimer) seconds() float64 { return time.Duration(c.busy.Load()).Seconds() }

// sourceTimers holds one chunkTimer per source layer.
type sourceTimers struct {
	synthetic, cptgpt chunkTimer
}

// timedBindings binds every source of spec to a ChunkFunc wrapped in the
// timer of its layer, for RunOpts.Sources. The engine keeps its own
// binding private, so this mirrors it from the scenario package's
// documented contract: population shares apportioned largest remainder
// first, per-source seeds derived from the spec seed and the source's
// position, synthetic device mixes apportioned the same way over whole
// hours, and cptgpt sources decoding with the spec's precision and
// speculation settings (RunOpts overrides on top), RunOpts.DecodeBatch
// slots and one decode worker per chunk. The traced run's digest must
// equal the untraced run's, which is what proves the two bindings agree.
func timedBindings(spec *scenario.Spec, opts scenario.RunOpts, total int, tm *sourceTimers) (map[string]scenario.ChunkFunc, error) {
	gen, err := events.ParseGeneration(spec.Generation)
	if err != nil {
		return nil, err
	}
	shares := make([]float64, len(spec.Sources))
	for i, s := range spec.Sources {
		shares[i] = s.Share
	}
	counts := apportion(shares, total)
	out := make(map[string]scenario.ChunkFunc, len(spec.Sources))
	for i := range spec.Sources {
		src := &spec.Sources[i]
		if counts[i] == 0 {
			continue
		}
		seed := sourceSeed(spec.Seed, i)
		switch src.Kind {
		case "", "synthetic":
			cfg, err := syntheticConfig(spec, src, gen, seed, counts[i])
			if err != nil {
				return nil, err
			}
			out[src.ID] = tm.synthetic.wrap(func(lo, hi int) ([]trace.Stream, error) {
				return synthetic.GenerateRange(cfg, lo, hi)
			})
		case "cptgpt":
			f, err := cptgptChunk(spec, src, opts, seed)
			if err != nil {
				return nil, err
			}
			out[src.ID] = tm.cptgpt.wrap(f)
		default:
			return nil, fmt.Errorf("source %q: kind %q has no timed binding", src.ID, src.Kind)
		}
	}
	return out, nil
}

// cptgptChunk mirrors the engine's cptgpt source binding.
func cptgptChunk(spec *scenario.Spec, src *scenario.SourceSpec, opts scenario.RunOpts, seed uint64) (scenario.ChunkFunc, error) {
	load := opts.LoadModel
	if load == nil {
		load = cptgpt.LoadFile
	}
	m, err := load(src.ModelFile)
	if err != nil {
		return nil, err
	}
	dev := events.Phone
	if src.Device != "" {
		if dev, err = events.ParseDeviceType(src.Device); err != nil {
			return nil, err
		}
	}
	precSpec := src.Precision
	if opts.Precision != "" {
		precSpec = opts.Precision
	}
	prec, err := cptgpt.ParsePrecision(precSpec)
	if err != nil {
		return nil, err
	}
	speculative := src.Speculative
	switch opts.Speculative {
	case "on":
		speculative = true
	case "off":
		speculative = false
	}
	draftK := src.DraftTokens
	if opts.DraftTokens > 0 {
		draftK = opts.DraftTokens
	}
	var stats *cptgpt.DecodeStats
	if opts.SourceStats != nil {
		stats = opts.SourceStats(src.ID)
	}
	var stepHist *telemetry.Histogram
	if opts.SourceStepHist != nil {
		stepHist = opts.SourceStepHist(src.ID)
	}
	g := cptgpt.GenOpts{
		Device:      dev,
		Seed:        seed,
		Temperature: src.Temperature,
		Precision:   prec,
		BatchSize:   opts.DecodeBatch(),
		Speculative: speculative,
		DraftTokens: draftK,
		Stats:       stats,
		StepHist:    stepHist,
		StartWindow: spec.HorizonSec,
		Parallelism: 1,
	}
	return func(lo, hi int) ([]trace.Stream, error) { return m.GenerateRange(lo, hi, g) }, nil
}

// syntheticConfig mirrors the engine's synthetic source configuration.
func syntheticConfig(spec *scenario.Spec, src *scenario.SourceSpec, gen events.Generation, seed uint64, n int) (synthetic.Config, error) {
	mix := src.DeviceMix
	if len(mix) == 0 {
		mix = map[string]float64{"phone": 0.65, "connected_car": 0.26, "tablet": 0.09}
	}
	devs := events.DeviceTypes()
	weights := make([]float64, len(devs))
	for i, dev := range devs {
		weights[i] = mix[dev.String()]
	}
	counts := apportion(weights, n)
	ues := make(map[events.DeviceType]int, len(devs))
	for i, dev := range devs {
		ues[dev] = counts[i]
	}
	cfg := synthetic.Config{
		Generation: gen,
		Seed:       seed,
		UEs:        ues,
		Hours:      max(1, int(math.Ceil(spec.HorizonSec/3600))),
		StartHour:  src.StartHour,
	}
	if err := cfg.Validate(); err != nil {
		return synthetic.Config{}, fmt.Errorf("source %q: %w", src.ID, err)
	}
	return cfg, nil
}

// apportion splits total proportionally to weights, handing rounding
// remainders out largest fractional part first, ties by index.
func apportion(weights []float64, total int) []int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	counts := make([]int, len(weights))
	if sum <= 0 || total <= 0 {
		return counts
	}
	fracs := make([]float64, len(weights))
	assigned := 0
	for i, w := range weights {
		exact := w / sum * float64(total)
		counts[i] = int(exact)
		fracs[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	order := make([]int, len(counts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return fracs[order[a]] > fracs[order[b]] })
	for k := 0; assigned < total; k++ {
		counts[order[k%len(order)]]++
		assigned++
	}
	return counts
}

// sourceSeed is the engine's per-source seed: the spec seed mixed with
// the source's position through SplitMix64.
func sourceSeed(specSeed uint64, idx int) uint64 {
	return specSeed ^ splitmix(uint64(idx)+0xd1b54a32d192ed03)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
