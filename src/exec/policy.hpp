#pragma once
/// \file policy.hpp
/// qrm::exec — the unified execution-policy layer.
///
/// Every execution knob shipped since the batch subsystem landed — worker
/// pools, intra-plan quadrant parallelism, replan strategy, plan caching,
/// RNG stream derivation, schedule retention — used to be re-declared per
/// layer (LoopConfig, BatchConfig, CampaignConfig) with hand-rolled
/// override rules (`-1` sentinels, pool-sharing special cases). ExecPolicy
/// is the single home for all of them: the loop, batch, and campaign layers
/// each embed one and honour the fields that apply at their level.
///
/// None of these knobs can change an outcome: plans are bit-identical for
/// any worker count (quadrants are data-independent), Delta replans are
/// bit-identical to Scratch, and cache hits are bit-equal to cold plans.
/// The policy is therefore pure mechanism — fingerprints, PlanCache keys,
/// and spec serialization never see it, which is what lets campaigns be
/// re-run under any policy without touching a golden corpus.
///
/// Precedence is explicit, not sentinel-encoded: resolve() applies
/// ExecOverrides layers lowest-precedence-first over a base policy
/// (campaign usage: spec keys, then campaign overrides, which is where
/// scenario_runner's flags land — campaign > spec > default), pinned by
/// tests/exec_test.cpp.

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>

#include "core/config.hpp"

namespace qrm::exec {

class PlanCache;

/// The resolved execution policy one run executes under.
struct ExecPolicy {
  /// Top-level fan-out width (batch shots, campaign scenarios x shots).
  /// 0 = hardware_concurrency. Ignored by layers below batch.
  std::uint32_t workers = 0;
  /// Intra-plan quadrant parallelism (PlanParallelism::workers). 0 =
  /// sequential planning, the default.
  std::uint32_t intra_plan_workers = 0;
  /// Pool the quadrant work draws from. The shot fan-out
  /// (batch::run_batches) attaches its own pool here for every shot it
  /// runs, so shot-level and quadrant-level work share one worker budget;
  /// when null, each planner spins a transient pool per plan
  /// (QrmPlanner::plan).
  std::shared_ptr<ThreadPool> pool;
  /// Scratch replans every loop round from nothing; Delta reuses untouched
  /// quadrant kernels via core::DeltaReplanner (bit-identical plans).
  ReplanMode replan = ReplanMode::Scratch;
  /// Plan memoisation, null = off. This is the one attachment point: a
  /// layer that wants caching attaches (or lets resolve() create) a cache
  /// here and shares the pointer across shots/scenarios/shards.
  std::shared_ptr<PlanCache> plan_cache;
  /// Retain per-round schedules (replay-style tests; schedules are large).
  bool keep_schedules = false;

  /// The planner-facing slice of the policy (QrmPlanner / PassDriver /
  /// DeltaReplanner all take one).
  [[nodiscard]] PlanParallelism plan_parallelism() const noexcept {
    return {intra_plan_workers, pool};
  }
};

/// One precedence layer: fields left unset fall through to the layer below
/// (ultimately the base ExecPolicy). Replaces the per-layer `-1`-sentinel
/// conventions — "unset" is now a type, not a magic value.
struct ExecOverrides {
  // NSDMIs keep partial designated initializers ({.plan_cache = true})
  // clean under -Wextra's missing-field-initializers.
  std::optional<std::uint32_t> workers = std::nullopt;
  std::optional<std::uint32_t> intra_plan_workers = std::nullopt;
  std::optional<ReplanMode> replan = std::nullopt;
  /// Tri-state cache policy: true = ensure a cache is attached (an already
  /// attached one — e.g. a cross-shard cache — is kept; otherwise resolve()
  /// creates a fresh one), false = detach, unset = keep the base as-is.
  std::optional<bool> plan_cache = std::nullopt;
  std::optional<bool> keep_schedules = std::nullopt;
};

/// Apply override layers over `base`, lowest precedence first: a field set
/// in a later layer wins over earlier layers and over the base. The
/// plan_cache bools resolve last, against whatever attachment the base
/// carries (see ExecOverrides::plan_cache).
[[nodiscard]] ExecPolicy resolve(ExecPolicy base, std::initializer_list<ExecOverrides> layers);

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
