#include "core/typical.hpp"

#include "moves/realizer.hpp"
#include "util/assert.hpp"

namespace qrm {

namespace {

/// Compaction targets for one full line: atoms in the low half right-justify
/// against the centre boundary, atoms in the high half left-justify from it.
/// `length` is the line length (even); returns an assignment or nullopt-like
/// empty sources when the line is already in place.
LineAssignment half_compact_line(const BitRow& bits, std::int32_t line, std::int32_t length) {
  const std::int32_t centre = length / 2;
  std::vector<std::int32_t> sources;
  std::vector<std::int32_t> targets;
  std::vector<std::int32_t> low;
  std::vector<std::int32_t> high;
  bits.for_each_set([&](std::uint32_t pos) {
    const auto p = static_cast<std::int32_t>(pos);
    (p < centre ? low : high).push_back(p);
  });
  // Low half: n atoms end at [centre-n, centre).
  for (std::size_t i = 0; i < low.size(); ++i) {
    sources.push_back(low[i]);
    targets.push_back(centre - static_cast<std::int32_t>(low.size()) +
                      static_cast<std::int32_t>(i));
  }
  // High half: n atoms end at [centre, centre+n).
  for (std::size_t i = 0; i < high.size(); ++i) {
    sources.push_back(high[i]);
    targets.push_back(centre + static_cast<std::int32_t>(i));
  }
  LineAssignment a;
  a.line = line;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (sources[i] != targets[i]) {
      a.sources.push_back(sources[i]);
      a.targets.push_back(targets[i]);
    }
  }
  return a;
}

}  // namespace

PlanResult plan_typical(const OccupancyGrid& initial, const TypicalConfig& config) {
  QRM_EXPECTS_MSG(initial.height() > 0 && initial.width() > 0, "grid must be non-empty");
  QRM_EXPECTS_MSG(initial.height() % 2 == 0 && initial.width() % 2 == 0,
                  "typical procedure requires even grid dimensions");
  const Region target = config.target;
  QRM_EXPECTS_MSG(target == centered_region(initial.height(), initial.width(), target.rows,
                                            target.cols),
                  "target region must be centred");
  QRM_EXPECTS_MSG(target.rows % 2 == 0 && target.cols % 2 == 0,
                  "target region must be even-sized");

  PlanResult result;
  result.final_grid = initial;
  OccupancyGrid& state = result.final_grid;
  const RealizeOptions realize_options{config.aod_legalize};

  const auto run_pass = [&](Axis axis) -> PassInfo {
    PassInfo info;
    info.axis = axis;
    const std::int32_t line_count = axis == Axis::Rows ? state.height() : state.width();
    const std::int32_t length = axis == Axis::Rows ? state.width() : state.height();
    std::vector<LineAssignment> lines;
    for (std::int32_t line = 0; line < line_count; ++line) {
      const BitRow bits = axis == Axis::Rows ? BitRow(state.row(line)) : state.column(line);
      LineAssignment a = half_compact_line(bits, line, length);
      if (!a.sources.empty()) lines.push_back(std::move(a));
    }
    info.lines_with_motion = lines.size();
    if (!lines.empty()) {
      const RealizeResult rr =
          realize_assignments(state, axis, lines, result.schedule, realize_options);
      info.unit_rounds = rr.rounds_toward_origin + rr.rounds_away;
      info.atoms_moved = rr.atoms_moved;
    }
    return info;
  };

  for (std::int32_t it = 0; it < config.max_iterations; ++it) {
    const PassInfo h = run_pass(Axis::Rows);
    const PassInfo v = run_pass(Axis::Cols);
    result.stats.passes.push_back(h);
    result.stats.passes.push_back(v);
    ++result.stats.iterations;
    if (h.atoms_moved == 0 && v.atoms_moved == 0) break;
    if (state.region_full(target)) break;
  }

  result.stats.target_filled = state.region_full(target);
  result.stats.defects_remaining =
      static_cast<std::int64_t>(target.area()) - state.atom_count(target);
  return result;
}

}  // namespace qrm
