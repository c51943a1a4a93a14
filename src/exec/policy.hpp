#pragma once
/// \file policy.hpp
/// qrm::exec — the unified execution-policy layer.
///
/// ExecPolicy is the single home of every execution knob — the worker
/// pool size, replan strategy, plan caching and schedule retention — next
/// to the RNG stream derivation below. The loop, batch, and campaign layers
/// (LoopConfig, BatchConfig, CampaignConfig) each embed one and honour the
/// fields that apply at their level.
///
/// None of these knobs can change an outcome: results are bit-identical
/// for any worker count (every shot draws from its own derived streams),
/// Delta replans are bit-identical to Scratch, and cache hits are bit-equal
/// to cold plans. The policy is therefore pure mechanism — fingerprints,
/// PlanCache keys, and spec serialization never see it, which is what lets
/// campaigns be re-run under any policy without touching a golden corpus.

#include <cstdint>
#include <memory>

#include "core/config.hpp"

namespace qrm::exec {

class PlanCache;

/// The execution policy one run executes under.
struct ExecPolicy {
  /// Top-level fan-out width (batch shots, campaign scenarios x shots).
  /// 0 = hardware_concurrency. Ignored by layers below batch.
  std::uint32_t workers = 0;
  /// Scratch replans every loop round from nothing; Delta reuses untouched
  /// quadrant kernels via core::DeltaReplanner (bit-identical plans).
  ReplanMode replan = ReplanMode::Scratch;
  /// Plan memoisation, null = off. This is the one attachment point: a
  /// layer that wants caching attaches a cache here and shares the pointer
  /// across shots/scenarios/shards.
  std::shared_ptr<PlanCache> plan_cache;
  /// Retain per-round schedules (replay-style tests; schedules are large).
  bool keep_schedules = false;
};

// --- RNG stream derivation -------------------------------------------------
// The seed-stream schema every deterministic fan-out uses: one master seed,
// SplitMix64-derived per-shot streams, fixed stream indices within a shot's
// domain. Centralised here so batch and campaign can never drift apart on
// byte-level derivation (the golden corpus pins the exact values).

/// Stream index of the photon-noise RNG within one shot's seed domain
/// (stream 0 is the loading draw itself; keep indices distinct).
inline constexpr std::uint64_t kImagingStream = 1;

/// Domain tag folded into the loss master seed before the loop splits it
/// per shot. Without it, master_seed == loss.seed (a natural "one seed for
/// everything" configuration) would make every shot's loss RNG replay the
/// exact bit stream that generated its initial grid.
inline constexpr std::uint64_t kLossDomain = 0x10550000;

/// The seed of shot `shot`'s loading/imaging domain: derive_seed(master, shot).
[[nodiscard]] std::uint64_t shot_seed(std::uint64_t master_seed, std::uint64_t shot) noexcept;

/// The photon-noise stream within one shot's domain.
[[nodiscard]] std::uint64_t imaging_seed(std::uint64_t shot_seed) noexcept;

/// The loss master seed the rearrangement loops split per shot
/// (rt::LossModel::derive): the configured loss seed, domain-separated.
[[nodiscard]] std::uint64_t loss_master_seed(std::uint64_t loss_seed) noexcept;

}  // namespace qrm::exec
