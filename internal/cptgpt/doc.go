// Package cptgpt implements CPT-GPT, the paper's decoder-only transformer
// for control-plane traffic generation (§4): a multi-modal tokenizer over
// (event type, interarrival, stop flag), next-token training with packed
// multi-stream minibatches, and autoregressive decoding of arbitrarily many
// UE streams through a KV-cached BatchDecoder — with a float32 inference
// fast path, continuous slot batching and speculative (draft + multi-token
// verify) decoding layered on top. One scheduler loop runs every decode:
// plain decoding is speculative decoding with an empty draft chain, one
// row per slot per pass and no draft model consulted.
//
// Determinism contract, per decoding path:
//
//   - Plain f64 decoding (the default) is bit-identical at every
//     Parallelism × BatchSize: each stream consumes only
//     its own index-seeded RNG and slot state, so who decodes it when
//     cannot matter.
//   - f32 decoding fixes every per-row reduction order and no reduction
//     crosses rows, so it is deterministic per (Seed, Precision) at every
//     Parallelism × BatchSize × pass composition — but differs numerically
//     from f64 within the fidelity gates pinned by the package tests.
//   - Speculative decoding is deterministic per (Seed, DraftTokens) and
//     distributionally exact (acceptance–rejection preserves plain
//     sampling's per-position conditionals), but consumes RNG draws
//     differently from plain decoding, so streams differ event-by-event.
//
// Concurrency contract: a Model is safe for concurrent Generate /
// GenerateRange calls once trained (the frozen inference snapshot is built
// under a mutex and shared read-only); each BatchDecoder belongs to one
// goroutine. DecodeStats counters are atomics — GenOpts.Stats sinks are
// accumulated atomically as workers finish, and a snapshot may be read
// (atomically, field by field) from any goroutine while generation runs,
// which is what the scenario engine's SourceStats hook and the cptserved
// daemon's live decode telemetry rely on.
package cptgpt
