package cptgpt

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"cptgpt/internal/events"
	"cptgpt/internal/stats"
	"cptgpt/internal/telemetry"
	"cptgpt/internal/tensor"
	"cptgpt/internal/trace"
	"cptgpt/internal/tracez"
)

// GenOpts parameterizes synthetic dataset generation.
type GenOpts struct {
	// NumStreams is the UE population to synthesize (§4.5: the user invokes
	// the model once per UE).
	NumStreams int
	// Device labels the generated streams (one CPT-GPT model is trained per
	// device type, as in the paper's evaluation).
	Device events.DeviceType
	// Seed fixes sampling randomness.
	Seed uint64
	// Temperature scales event/stop logits at sampling time (1 = faithful).
	Temperature float64
	// Precision selects the decode arithmetic. F64 (the default) is the
	// bit-exact reference path; F32 decodes through the model's frozen
	// float32 inference snapshot with fused kernels — about half the memory
	// traffic of F64 — under its own per-seed determinism contract. For a
	// fixed precision, output is identical at every Parallelism × BatchSize.
	Precision Precision
	// Parallelism bounds cross-stream decoding concurrency; 0 means the
	// tensor-layer default (GOMAXPROCS, or tensor.SetParallelism's value).
	// Output is identical at every setting: each stream's randomness comes
	// from its own index-seeded RNG.
	Parallelism int
	// BatchSize is the number of decode slots per BatchDecoder; 0 means
	// DefaultBatchSize. Output is identical at every batch size.
	BatchSize int
	// StartWindow, when positive, offsets each stream's start uniformly in
	// [0, StartWindow) seconds so downstream consumers (e.g. an MCN) do
	// not see a synchronized t=0 attach storm. Interarrivals, sojourns and
	// flow lengths are unaffected.
	StartWindow float64
	// Speculative enables speculative decoding: a cheap draft model
	// proposes DraftTokens tokens per slot and the transformer verifies
	// the whole chain in one multi-token pass, with acceptance–rejection
	// sampling preserving the output distribution exactly (see
	// speculate.go). Both settings run the same scheduler; false is a
	// draft chain of zero tokens. Output remains deterministic per Seed at
	// every Parallelism × BatchSize, but differs stream-by-stream from
	// plain decoding (different RNG consumption); workload statistics
	// match within the fidelity gates. The throughput win needs
	// high draft acceptance and the distribution head (the default); under
	// the Table 8 ablation chains cannot extend and speculation degrades to
	// plain decoding speed.
	Speculative bool
	// DraftTokens is the number of draft tokens proposed per verify pass
	// (the speculation depth k); 0 means DefaultDraftTokens. Output is
	// deterministic per (Seed, DraftTokens) but differs across k — k
	// changes RNG consumption, not the output law.
	DraftTokens int
	// DraftModel proposes the draft chains. nil uses the model's
	// self-distilled n-gram (Model.SelfDraft, fitted once and cached);
	// NewSMMDraft adapts the paper's semi-Markov baseline. The draft only
	// moves the acceptance rate, never the output distribution.
	DraftModel DraftModel
	// Stats, when non-nil, accumulates the decode counters of every
	// BatchDecoder the call used (added atomically as workers finish):
	// scheduling steps plus, under Speculative, proposed/accepted draft
	// tokens — the acceptance-rate telemetry.
	Stats *DecodeStats
	// StepHist, when non-nil, observes every BatchDecoder.StepK wall
	// duration (seconds) across all workers — the decode-step latency
	// distribution behind the daemon's native Prometheus histogram. It is
	// lock-free and never changes the generated output.
	StepHist *telemetry.Histogram
}

// parallelism resolves the effective worker count.
func (o GenOpts) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return tensor.Parallelism()
}

// streamSeed derives stream i's RNG seed; the per-stream RNG is the only
// randomness in decoding, which is what makes generation deterministic
// regardless of parallelism and batching.
func streamSeed(seed uint64, i int) uint64 {
	return seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15
}

// bootStream performs one stream's bootstrap: identity stamp, initial-event
// draw from the released distribution, optional start-window offset, and
// the first emitted event, consuming the stream's own RNG. Like sampleStep
// for the per-token draws, this is the single copy of the bootstrap draw
// order (init.Sample, then the StartWindow uniform) — the bit-identical-output
// and per-seed determinism contracts are exactly "same draws in the same
// order", so this helper is the only place that order may be defined.
func bootStream(s *trace.Stream, globalIdx int, opts GenOpts, init *stats.Categorical, vocab []events.Type, rng *rand.Rand) (evIdx int, start float64) {
	s.UEID = fmt.Sprintf("gen-%s-%06d", opts.Device, globalIdx)
	s.Device = opts.Device
	evIdx = init.Sample(rng)
	if opts.StartWindow > 0 {
		start = rng.Float64() * opts.StartWindow
	}
	s.Events = append(s.Events, trace.Event{Time: start, Type: vocab[evIdx]})
	return evIdx, start
}

// Generate synthesizes a dataset of NumStreams independent UE streams by
// autoregressive decoding. Each stream starts from a bootstrap token whose
// event type is drawn from the model's released initial-event-type
// distribution, with interarrival and stop flag zero (§4.5), and decoding
// runs until the model emits a token with stop flag 1 or MaxLen is reached.
//
// Scheduling is continuous batching: every worker owns a BatchDecoder of
// BatchSize slots and claims stream indices from a shared counter; the
// moment a slot's stream emits STOP, the slot is reset and reseated with the
// next pending stream, so all slots stay hot even under heavily skewed
// stream-length distributions. For a fixed Seed and Precision the output
// is bit-identical at every Parallelism and BatchSize — every stream
// consumes only its own index-seeded RNG and its own slot state, so who
// decodes it when cannot matter.
func (m *Model) Generate(opts GenOpts) (*trace.Dataset, error) {
	if opts.NumStreams <= 0 {
		return nil, fmt.Errorf("cptgpt: NumStreams must be positive, got %d", opts.NumStreams)
	}
	streams := make([]trace.Stream, opts.NumStreams)
	if err := m.generate(streams, 0, opts.parallelism(), opts); err != nil {
		return nil, err
	}
	return &trace.Dataset{Generation: m.Cfg.Generation, Streams: streams}, nil
}

// GenerateRange synthesizes the UE streams with global indices [lo, hi) of
// the population Generate would produce for the same opts: the returned
// slice equals Generate(opts).Streams[lo:hi] bit-for-bit whenever
// opts.NumStreams ≥ hi (batch_test pins this). Each stream consumes only
// its own index-seeded RNG, so chunked emission over any partition of the
// index space reproduces one full run — the streaming scenario engine pulls
// million-UE populations through this in O(chunk) memory, decoding each
// chunk through one continuously refilled BatchDecoder.
func (m *Model) GenerateRange(lo, hi int, opts GenOpts) ([]trace.Stream, error) {
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("cptgpt: invalid stream range [%d,%d)", lo, hi)
	}
	if hi == lo {
		return nil, nil
	}
	streams := make([]trace.Stream, hi-lo)
	if err := m.generate(streams, lo, 1, opts); err != nil {
		return nil, err
	}
	return streams, nil
}

// generate decodes out, the streams with global indices [lo, lo+len(out)),
// through up to workers BatchDecoders that claim indices from one shared
// counter; the caller's goroutine runs one of them. It resolves every
// per-call setting once — temperature, batch size, the initial-event
// distribution and, under Speculative, the draft model and chain length —
// and wires each decoder's stats and step histogram into opts.
func (m *Model) generate(out []trace.Stream, lo, workers int, opts GenOpts) error {
	if opts.Temperature <= 0 {
		opts.Temperature = 1
	}
	batch := opts.BatchSize
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	batch = min(batch, len(out))
	workers = min(workers, (len(out)+batch-1)/batch)
	init, err := stats.NewCategorical(m.InitialDist)
	if err != nil {
		return fmt.Errorf("cptgpt: invalid initial-event distribution: %w", err)
	}

	// Plain decoding drafts chains of zero tokens. Speculation resolves its
	// draft model once, up front, so all decoders share it (the self-draft
	// fit itself decodes plainly).
	var draft DraftModel
	k := 0
	if opts.Speculative {
		k = opts.draftTokens()
		if draft = opts.DraftModel; draft == nil {
			draft = m.SelfDraft()
		}
	}

	var next atomic.Int64
	run := func() {
		dec := m.NewBatchDecoder(batch, opts.Precision)
		dec.SetStepHist(opts.StepHist)
		defer func() { addDecodeStats(opts.Stats, dec.Stats()) }()
		m.decodeStreams(dec, out, lo, &next, opts, init, draft, k)
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	return nil
}

// sampleStep draws one decode step's fields from the head outputs: the next
// event index, the scaled interarrival (Gaussian-sampled under DistHead,
// deterministic scalar in the Table 8 ablation) and the stop flag. It is
// the single copy of the per-token RNG draw order of plain decoding and of
// a fully accepted speculative chain's free token — the bit-identical-output
// contract is exactly "same draws in the same order", so this helper is the
// only place that order may be defined.
func (m *Model) sampleStep(so StepOut, temp float64, rng *rand.Rand, probs []float64) (nextEv int, scaled float64, stopIdx int) {
	nextEv = sampleLogitsInto(so.EventLogits, temp, rng, probs)
	if m.Cfg.DistHead {
		std := math.Exp(so.IALogStd)
		scaled = so.IAMean + std*rng.NormFloat64()
	} else {
		// Ablation (Table 8, "No dist. pred."): deterministic scalar.
		scaled = so.IAMean
	}
	scaled = math.Min(math.Max(scaled, 0), 1)
	stopIdx = sampleLogitsInto(so.StopLogits[:], temp, rng, probs)
	return nextEv, scaled, stopIdx
}

// decodeStreams is the decode scheduler behind Generate and GenerateRange.
// It decodes the streams of out (global indices baseIdx+i) through dec with
// continuous batching: slots are seated by claiming the next unclaimed
// index from next (shared across all decoders of one call), and the moment
// a slot's stream stops — STOP token or MaxLen — the slot is reseated with
// a fresh claim instead of idling until the rest of the batch drains.
//
// Every round is one StepK pass. A seated stream always carries either a
// PENDING token (emitted but not yet consumed by the transformer — the
// bootstrap token right after seating, or a rejection's replacement) or
// HELD head outputs (the previous pass's final conditional, from which the
// next token is sampled through sampleStep). Each round turns held heads
// into an emission + pending token, drafts a chain of up to k tokens
// behind the pending token, runs pending token and chain through StepK,
// and accepts a prefix of the chain (speculate.go).
//
// Plain decoding is k = 0: every chain is empty, every pass has one row per
// slot, every pass ends holding its heads, and each token's draws are
// exactly sampleStep's, in the order plain sampling makes them. With no
// chain there is nothing to draft or verify, so the draft model is never
// consulted and no decode.draft/decode.verify spans are recorded.
//
// Per-stream output is invariant to seating: a stream's events depend only
// on its own index-seeded RNG and its own slot's rows, which StepK computes
// independently of the pass's other slots.
func (m *Model) decodeStreams(dec *BatchDecoder, out []trace.Stream, baseIdx int, next *atomic.Int64, opts GenOpts, init *stats.Categorical, draft DraftModel, k int) {
	decoding.Add(1)
	defer decoding.Add(-1)
	capacity := dec.Capacity()
	dim := m.Tok.Dim()
	vocab := m.Tok.Vocab()
	v := m.Tok.V()
	total := int64(len(out))
	maxLen := m.Cfg.MaxLen
	temp := opts.Temperature
	kMax := k + 1

	rngs := make([]*rand.Rand, capacity)
	times := make([]float64, capacity)
	cur := make([]int, capacity) // stream index (into out) seated in each slot
	var committed, scratch []DraftState
	if k > 0 {
		committed = make([]DraftState, capacity)
		scratch = make([]DraftState, capacity)
		for i := range committed {
			committed[i] = draft.NewDraftState()
			scratch[i] = draft.NewDraftState()
		}
	}

	toks := make([]float64, capacity*kMax*dim)
	probs := make([]float64, v)
	qProbs := make([]float64, v)

	// Held target heads (per slot; valid when held[slot]). They alias the
	// last pass's outputs, which stay valid until the next StepK — and every
	// held slot is resolved by ensurePending before that pass runs.
	held := make([]bool, capacity)
	heads := make([]StepOut, capacity)

	// Pending emitted-but-unconsumed token (valid when !held for an active
	// slot).
	pendEv := make([]int, capacity)
	pendIA := make([]float64, capacity)

	// Draft chain bookkeeping, slot-major kMax rows (row 0 unused — it is
	// the pending token).
	type chainEnt struct {
		ev       int
		ia       float64
		qMu, qSd float64
	}
	chain := make([]chainEnt, capacity*kMax)
	chainQ := make([]float64, capacity*kMax*v)

	// claim returns the next unclaimed stream index, or -1 when the
	// population is exhausted.
	claim := func() int {
		if i := next.Add(1) - 1; i < total {
			return int(i)
		}
		return -1
	}

	// seat boots stream li into slot through the shared bootStream helper
	// and reports whether it needs decode passes. The bootstrap token
	// becomes the slot's pending token.
	seat := func(slot, li int) bool {
		dec.ResetSlot(slot)
		rng := stats.NewRand(streamSeed(opts.Seed, baseIdx+li))
		rngs[slot] = rng
		cur[slot] = li
		s := &out[li]
		evIdx, start := bootStream(s, baseIdx+li, opts, init, vocab, rng)
		times[slot] = start
		if len(s.Events) >= maxLen {
			return false
		}
		if k > 0 {
			committed[slot].Reset(evIdx)
		}
		pendEv[slot], pendIA[slot] = evIdx, 0
		held[slot] = false
		return true
	}

	// refill claims streams into slot until one needs decoding; it returns
	// false when the population is exhausted.
	refill := func(slot int) bool {
		for {
			li := claim()
			if li < 0 {
				return false
			}
			if seat(slot, li) {
				return true
			}
		}
	}

	// ensurePending converts held heads into an emission + pending token.
	// On stream end it reseats the slot; false retires the slot (population
	// exhausted).
	ensurePending := func(slot int) bool {
		if !held[slot] {
			return true
		}
		held[slot] = false
		ev, scaled, stopIdx := m.sampleStep(heads[slot], temp, rngs[slot], probs)
		s := &out[cur[slot]]
		times[slot] += m.Tok.UnscaleIA(scaled)
		s.Events = append(s.Events, trace.Event{Time: times[slot], Type: vocab[ev]})
		if stopIdx != 1 && len(s.Events) < maxLen {
			if k > 0 {
				committed[slot].Observe(ev, scaled)
			}
			pendEv[slot], pendIA[slot] = ev, scaled
			return true
		}
		return refill(slot)
	}

	active := make([]int, 0, capacity)
	for slot := 0; slot < capacity; slot++ {
		if !refill(slot) {
			break
		}
		active = append(active, slot)
	}

	slotsRun := make([]int, 0, capacity)
	ks := make([]int, 0, capacity)
	keep := make([]int, 0, capacity)
	var draftSp, verifySp tracez.Active
	for len(active) > 0 {
		// Phase 1: resolve held heads, then draft a chain behind every
		// slot's pending token.
		if k > 0 {
			draftSp = tracez.Begin(tracez.StageDecodeDraft, "")
		}
		slotsRun = slotsRun[:0]
		ks = ks[:0]
		for _, slot := range active {
			if !ensurePending(slot) {
				continue
			}
			c := min(k, maxLen-len(out[cur[slot]].Events))
			m.Tok.writeToken(toks[(slot*kMax)*dim:(slot*kMax+1)*dim], pendEv[slot], pendIA[slot], 0)
			if c > 0 {
				scratch[slot].CopyFrom(committed[slot])
			}
			for r := 1; r <= c; r++ {
				scratch[slot].Propose(qProbs)
				evD := drawProbs(qProbs, rngs[slot])
				qMu, qSd := scratch[slot].ProposeIA(evD)
				var iaD float64
				if m.Cfg.DistHead {
					iaD = clamp01(qMu + qSd*rngs[slot].NormFloat64())
				} else {
					iaD = clamp01(qMu)
				}
				ce := &chain[slot*kMax+r]
				ce.ev, ce.ia, ce.qMu, ce.qSd = evD, iaD, qMu, qSd
				copy(chainQ[(slot*kMax+r)*v:(slot*kMax+r+1)*v], qProbs)
				scratch[slot].Observe(evD, iaD)
				m.Tok.writeToken(toks[(slot*kMax+r)*dim:(slot*kMax+r+1)*dim], evD, iaD, 0)
			}
			slotsRun = append(slotsRun, slot)
			ks = append(ks, c+1)
		}
		draftSp.End(int64(len(slotsRun)), "")
		if len(slotsRun) == 0 {
			break
		}

		// Phase 2: one pass for the whole batch (StepK records its own
		// decode.step/decode.stepk span).
		outs := dec.StepK(slotsRun, ks, kMax, toks)

		// Phase 3: acceptance–rejection over each slot's chain.
		if k > 0 {
			verifySp = tracez.Begin(tracez.StageDecodeVerify, "")
		}
		keep = keep[:0]
		var propTotal, accTotal int64
		for j, slot := range slotsRun {
			c := ks[j] - 1
			s := &out[cur[slot]]
			rng := rngs[slot]
			pos0 := dec.Pos(slot) - (c + 1) // slot position before the pass
			propTotal += int64(c)
			done := false
			i := 1
			for ; i <= c; i++ {
				h := outs[j][i-1] // target conditional for chain position i
				ce := chain[slot*kMax+i]

				softmaxInto(probs, h.EventLogits, temp)
				ev, okEv := verifyEvent(ce.ev, chainQ[(slot*kMax+i)*v:(slot*kMax+i+1)*v], probs, rng)
				pSd := math.Exp(h.IALogStd) // unused when !DistHead
				ia, okIA := verifyIA(ce.ia, ce.qMu, ce.qSd, h.IAMean, pSd, m.Cfg.DistHead, rng)
				stopIdx := 0
				if rng.Float64() >= stopContinueProb(h.StopLogits, temp) {
					stopIdx = 1
				}

				times[slot] += m.Tok.UnscaleIA(ia)
				s.Events = append(s.Events, trace.Event{Time: times[slot], Type: vocab[ev]})
				if okEv && okIA {
					accTotal++
				}
				if stopIdx == 1 || len(s.Events) >= maxLen {
					done = true
					break
				}
				committed[slot].Observe(ev, ia)
				if !(okEv && okIA) {
					// Rejection: the emitted replacement becomes the pending
					// token; drop the chain's unverified suffix.
					pendEv[slot], pendIA[slot] = ev, ia
					dec.TruncateSlot(slot, pos0+i)
					break
				}
			}
			if done {
				if refill(slot) {
					keep = append(keep, slot)
				}
				continue
			}
			if i > c {
				// Full acceptance (always, for an empty chain): the pass's
				// final heads give the next round's token.
				heads[slot] = outs[j][c]
				held[slot] = true
			}
			keep = append(keep, slot)
		}
		dec.countDraft(propTotal, accTotal)
		verifySp.End(accTotal, "")
		active, keep = keep, active
	}
}

// expUnderflow is math.Exp's underflow threshold: for arguments strictly
// below it Exp returns exactly 0, so the call can be skipped without
// changing a single bit of the result.
const expUnderflow = -7.45133219101941108420e+02

// sampleLogitsInto is sampleLogits with caller-provided probability scratch
// (len(probs) ≥ len(logits)). It max-shifts the logits before
// exponentiating and early-exits the math.Exp call for entries so far below
// the max that Exp underflows to zero anyway — when one candidate dominates
// (the common case for the 2-way stop head late in a stream), most of the
// vocabulary skips the transcendental entirely. The temperature division is
// elided at temp == 1 (faithful sampling, the default), which is exact.
// Results are bit-identical to the straightforward implementation; the
// regression test pins sampled indices against it.
func sampleLogitsInto(logits []float64, temp float64, rng *rand.Rand, probs []float64) int {
	maxv := math.Inf(-1)
	if temp == 1 {
		for _, v := range logits {
			if v > maxv {
				maxv = v
			}
		}
	} else {
		for _, v := range logits {
			if v/temp > maxv {
				maxv = v / temp
			}
		}
	}
	var sum float64
	probs = probs[:len(logits)]
	for i, v := range logits {
		z := v - maxv
		if temp != 1 {
			z = v/temp - maxv
		}
		var p float64
		if z >= expUnderflow {
			p = math.Exp(z)
		}
		probs[i] = p
		sum += p
	}
	u := rng.Float64() * sum
	for i, p := range probs {
		u -= p
		if u < 0 {
			return i
		}
	}
	return len(logits) - 1
}
