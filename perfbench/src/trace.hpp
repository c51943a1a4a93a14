#pragma once
/// \file trace.hpp
/// In-memory span recorder for the benchmark's traced run.
///
/// Spans are recorded only around the benchmark's own calls into the
/// library's public functions; nothing inside the library is instrumented.
/// Each span carries a name, start and end (steady clock, ns since the
/// tracer was created), the index of its parent span (-1 for a root) and
/// the id of the operation it belongs to. The recorder is single-threaded:
/// the benchmark issues its traced calls from one thread.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< string literal; spans never own their names
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t op = 0;

  [[nodiscard]] double ms() const noexcept { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

class Tracer {
 public:
  Tracer();

  /// RAII span: opens on construction, closes on destruction. A null
  /// tracer makes the scope a no-op, so untraced code paths share the code.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t id_ = -1;
  };

  /// Operation id stamped on every span opened from now on.
  void set_op(std::uint32_t op) noexcept { op_ = op; }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Durations (ms) of every span called `name`, in recording order.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;
  /// Summed duration (ms) of every span called `name`.
  [[nodiscard]] double total_ms(std::string_view name) const;
  /// Summed time (ms) that direct children cover inside spans called `name`.
  [[nodiscard]] double child_ms(std::string_view name) const;
  /// Summed self time (ms): span time minus the time its children cover.
  [[nodiscard]] double self_ms(std::string_view name) const {
    return total_ms(name) - child_ms(name);
  }

  /// One JSON object per line: name, op, parent, start/end in ns.
  void write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const noexcept;
  std::int32_t open(const char* name);
  void close(std::int32_t id) noexcept;

  std::int64_t origin_ns_ = 0;
  std::uint32_t op_ = 0;
  std::int32_t top_ = -1;  ///< innermost open span
  std::vector<Span> spans_;
};

}  // namespace perfbench
