#include "trace.hpp"

#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::int64_t steady_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer() : origin_ns_(steady_ns()) { spans_.reserve(1 << 16); }

std::int64_t Tracer::now_ns() const noexcept { return steady_ns() - origin_ns_; }

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->open(name);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(id_);
}

std::int32_t Tracer::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = top_;
  span.op = op_;
  spans_.push_back(span);
  top_ = static_cast<std::int32_t>(spans_.size() - 1);
  // Stamp the start last so the bookkeeping above is not charged to the span.
  spans_.back().start_ns = now_ns();
  return top_;
}

void Tracer::close(std::int32_t id) noexcept {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  top_ = span.parent;
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_)
    if (name == span.name) out.push_back(span.ms());
  return out;
}

double Tracer::total_ms(std::string_view name) const {
  double total = 0.0;
  for (const Span& span : spans_)
    if (name == span.name) total += span.ms();
  return total;
}

double Tracer::child_ms(std::string_view name) const {
  double total = 0.0;
  for (const Span& span : spans_)
    if (span.parent >= 0 && name == spans_[static_cast<std::size_t>(span.parent)].name)
      total += span.ms();
  return total;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  for (const Span& span : spans_) {
    out << "{\"name\": \"" << span.name << "\", \"op\": " << span.op
        << ", \"parent\": " << span.parent << ", \"start_ns\": " << span.start_ns
        << ", \"end_ns\": " << span.end_ns << "}\n";
  }
}

}  // namespace perfbench
