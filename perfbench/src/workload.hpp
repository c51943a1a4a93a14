#pragma once
/// \file workload.hpp
/// The interface each benchmark workload implements, and the metric and
/// sample containers main.cpp aggregates.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using MetricList = std::vector<Metric>;

/// Named per-operation samples recorded by the instrumented pass: counts
/// and modelled clocks, all deterministic for a given seed.
using Samples = std::map<std::string, std::vector<double>>;

/// What one untraced operation reports back.
struct OpResult {
  double ms = 0.0;                ///< wall time of the public call alone
  std::uint64_t fingerprint = 0;  ///< outcome fingerprint, timings excluded
  std::uint32_t shots = 0;
  std::uint32_t successes = 0;
};

/// The samples recorded under `key` (empty when none were).
[[nodiscard]] const std::vector<double>& sample(const Samples& samples, const char* key);

/// Sum and mean of a sample list (0 when empty), and the p-th percentile
/// (0..100, linear interpolation) of an unsorted one.
[[nodiscard]] double sum(const std::vector<double>& xs);
[[nodiscard]] double mean(const std::vector<double>& xs);
[[nodiscard]] double percentile(std::vector<double> xs, double p);
/// Median of values that come in whole steps of `interval` (cycle counts),
/// interpolated within the median's step as statistics.median_grouped
/// does. A plain median of such values is one tie on every seed.
[[nodiscard]] double grouped_median(std::vector<double> xs, double interval);

class Workload {
 public:
  virtual ~Workload() = default;

  /// Draw every input the run may use; each call replaces the previous
  /// inputs with the same values, so main.cpp can set up again between
  /// operations (it reports the median of several set-ups).
  /// Spans go to `tracer` when it is non-null.
  virtual void setup(Tracer* tracer) = 0;
  /// Operations the inputs drawn by setup() cover.
  [[nodiscard]] virtual std::size_t capacity() const = 0;
  /// Shots one operation runs.
  [[nodiscard]] virtual std::uint32_t shots_per_op() const = 0;

  /// The operation a user waits for: one public call, no tracing.
  [[nodiscard]] virtual OpResult run_op(std::size_t op) = 0;

  /// Operation `op` rebuilt from public calls under `tracer`: records the
  /// per-operation samples and checks the outcome against the untraced
  /// run of the same operation. Returns "" when every check holds,
  /// otherwise a description of the first failure.
  [[nodiscard]] virtual std::string traced_op(std::size_t op, const OpResult& untraced,
                                              Tracer& tracer, Samples& samples) = 0;

  /// Operations (a prefix of the run) the deterministic end-to-end
  /// metrics are computed on: the instrumented pass for model clocks, and
  /// the untraced results for the success rate.
  [[nodiscard]] virtual std::size_t model_ops() const = 0;
  [[nodiscard]] virtual std::size_t success_ops() const = 0;

  /// Modelled end-to-end clocks from the instrumented samples.
  [[nodiscard]] virtual double aod_ms_per_shot(const Samples& samples) const = 0;
  [[nodiscard]] virtual double accel_us_p50(const Samples& samples) const = 0;

  /// Per-layer metrics of a traced pass over `ops` operations.
  /// `untraced_op_ms` is the median untraced operation time.
  /// Every workload reports the same names; main.cpp fills in zeros for
  /// those a workload does not exercise.
  virtual void layer_metrics(const Tracer& tracer, const Samples& samples, std::size_t ops,
                             double untraced_op_ms, MetricList& out) const = 0;

  /// Workload parameters for the run header.
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Factories. `seconds` sizes how many operations setup() prepares.
[[nodiscard]] std::unique_ptr<Workload> make_shot_workload(const std::string& name,
                                                           std::uint64_t seed, double seconds);
[[nodiscard]] std::unique_ptr<Workload> make_campaign_workload(std::uint64_t seed, double seconds,
                                                               std::uint32_t workers);

}  // namespace perfbench
