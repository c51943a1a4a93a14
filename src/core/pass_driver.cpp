#include "core/pass_driver.hpp"

#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/stopwatch.hpp"

namespace qrm {

namespace {

/// The maps of quadrant `q` from local to global lines and positions along
/// `axis`.
struct LineMaps {
  AxisMap line;
  AxisMap pos;
};

LineMaps line_maps(const QuadrantGeometry& geometry, Quadrant q, Axis axis) {
  return axis == Axis::Rows ? LineMaps{geometry.row_map(q), geometry.col_map(q)}
                            : LineMaps{geometry.col_map(q), geometry.row_map(q)};
}

std::int32_t global_line(const QuadrantGeometry& geometry, Axis axis, const LineMaps& maps,
                         const LineAssignment& local) {
  const std::int32_t lines = axis == Axis::Rows ? geometry.local_height() : geometry.local_width();
  QRM_EXPECTS_MSG(local.line >= 0 && local.line < lines, "assignment line outside its quadrant");
  return maps.line(local.line);
}

/// Appends `local`'s positions, mapped by `pos`, to `global` in ascending
/// order.
void append_mapped(std::vector<std::int32_t>& global, const std::vector<std::int32_t>& local,
                   AxisMap pos) {
  if (pos.step > 0) {
    for (const std::int32_t p : local) global.push_back(pos(p));
  } else {
    for (auto it = local.rbegin(); it != local.rend(); ++it) global.push_back(pos(*it));
  }
}

/// Validates the grid shape before QuadrantGeometry construction so the
/// caller sees a QRM-specific message rather than the geometry's.
QuadrantGeometry checked_geometry(const OccupancyGrid& grid) {
  QRM_EXPECTS_MSG(grid.height() > 0 && grid.width() > 0 && grid.height() % 2 == 0 &&
                      grid.width() % 2 == 0,
                  "QRM requires non-empty, even grid dimensions");
  return {grid.height(), grid.width()};
}

}  // namespace

std::vector<LineAssignment> lower_assignments(const QuadrantGeometry& geometry, Quadrant q,
                                              Axis axis, std::span<const LineAssignment> local) {
  const LineMaps maps = line_maps(geometry, q, axis);
  std::vector<LineAssignment> out;
  out.reserve(local.size());
  for (const LineAssignment& la : local) {
    LineAssignment& global = out.emplace_back();
    global.line = global_line(geometry, axis, maps, la);
    global.sources.reserve(la.sources.size());
    global.targets.reserve(la.targets.size());
    append_mapped(global.sources, la.sources, maps.pos);
    append_mapped(global.targets, la.targets, maps.pos);
  }
  return out;
}

std::vector<LineAssignment> merge_assignments(
    const QuadrantGeometry& geometry, Axis axis,
    const std::array<std::vector<LineAssignment>, 4>& local) {
  std::array<LineMaps, 4> maps;
  for (std::size_t qi = 0; qi < kAllQuadrants.size(); ++qi)
    maps[qi] = line_maps(geometry, kAllQuadrants[qi], axis);
  // A table indexed by global line: first the number of positions each line
  // collects (-1 while no quadrant moves it), so every merged line is
  // reserved exactly once, then its index in `out`.
  const std::int32_t line_count = axis == Axis::Rows ? geometry.height() : geometry.width();
  std::vector<std::int32_t> table(static_cast<std::size_t>(line_count), -1);
  std::size_t moved_lines = 0;
  for (std::size_t qi = 0; qi < kAllQuadrants.size(); ++qi) {
    for (const LineAssignment& la : local[qi]) {
      const std::int32_t line = global_line(geometry, axis, maps[qi], la);
      std::int32_t& size = table[static_cast<std::size_t>(line)];
      if (size < 0) {
        size = 0;
        ++moved_lines;
      }
      size += static_cast<std::int32_t>(la.sources.size());
    }
  }
  std::vector<LineAssignment> out;
  out.reserve(moved_lines);
  for (std::int32_t line = 0; line < line_count; ++line) {
    std::int32_t& entry = table[static_cast<std::size_t>(line)];
    if (entry < 0) continue;
    LineAssignment& merged = out.emplace_back();
    merged.line = line;
    merged.sources.reserve(static_cast<std::size_t>(entry));
    merged.targets.reserve(static_cast<std::size_t>(entry));
    entry = static_cast<std::int32_t>(out.size() - 1);
  }
  // kAllQuadrants visits NW, NE, SW, SE, so the lower-position half of every
  // merged line (west for rows, north for columns) always arrives first.
  for (std::size_t qi = 0; qi < kAllQuadrants.size(); ++qi) {
    for (const LineAssignment& la : local[qi]) {
      const std::int32_t line = maps[qi].line(la.line);
      LineAssignment& merged = out[static_cast<std::size_t>(table[static_cast<std::size_t>(line)])];
      const std::size_t joint = merged.sources.size();
      append_mapped(merged.sources, la.sources, maps[qi].pos);
      append_mapped(merged.targets, la.targets, maps[qi].pos);
      QRM_ENSURES(joint == 0 || joint == merged.sources.size() ||
                  merged.sources[joint] > merged.sources[joint - 1]);
    }
  }
  return out;
}

PassDriver::PassDriver(const OccupancyGrid& initial, QrmConfig config)
    : config_(std::move(config)), geometry_(checked_geometry(initial)), state_(initial) {
  const Region target = config_.target;
  QRM_EXPECTS_MSG(target.rows > 0 && target.cols > 0 && target.rows % 2 == 0 &&
                      target.cols % 2 == 0,
                  "QRM requires an even-sized target region");
  QRM_EXPECTS_MSG(
      target == centered_region(initial.height(), initial.width(), target.rows, target.cols),
      "QRM requires the target region centred in the grid");
  QRM_EXPECTS_MSG(config_.aod_legalize || config_.dead_channels.empty(),
                  "dead channels require aod_legalize");
  QRM_EXPECTS_MSG(config_.mode != PlanMode::Balanced || config_.sen_limit < 0 ||
                      config_.sen_limit >= target.cols / 2,
                  "balanced mode needs the sen gate at or beyond the target quarter");
  phase_ = config_.mode == PlanMode::Balanced ? Phase::BalanceRow : Phase::CompactRow;
}

std::optional<QuadrantPass> PassDriver::next() {
  QRM_EXPECTS_MSG(!awaiting_apply_, "call apply() before requesting the next pass");
  if (phase_ == Phase::Done) return std::nullopt;

  QuadrantPass pass;
  pass.axis = (phase_ == Phase::BalanceRow || phase_ == Phase::CompactRow) ? Axis::Rows
                                                                           : Axis::Cols;
  pass.balance = phase_ == Phase::BalanceRow;

  const Stopwatch watch;
  const std::int32_t quarter_rows = config_.target.rows / 2;
  const std::int32_t quarter_cols = config_.target.cols / 2;
  // Delta replanning: pass k can serve clean quadrants from the previous
  // drive's captured pass k if the pass kinds line up (they always do until
  // compact-mode termination diverges, at which point extra passes simply
  // compute fresh).
  QuadrantPass* cached = nullptr;
  if (reuse_source_ != nullptr && pass_index_ < reuse_source_->size()) {
    QuadrantPass& prev = (*reuse_source_)[pass_index_];
    if (prev.axis == pass.axis && prev.balance == pass.balance) cached = &prev;
  }
  for (std::size_t qi = 0; qi < kAllQuadrants.size(); ++qi) {
    const Quadrant q = kAllQuadrants[qi];
    const bool reuse = cached != nullptr && !reuse_dirty_[qi];
    if (reuse_stats_ != nullptr)
      ++(reuse ? reuse_stats_->kernels_reused : reuse_stats_->kernels_computed);
    if (reuse) {
      if (reuse_paranoid_) {
        const OccupancyGrid fresh = geometry_.extract_local(state_, q);
        QRM_ENSURES_MSG(fresh == cached->local_grids[qi],
                        "delta reuse: clean quadrant's grid diverged from the cached pass input");
      }
      // Steal the cached kernel data rather than copying it: a deep copy is
      // O(quadrant area), the same order as the extract+compute it replaces.
      // Safe because each cached pass index is consumed at most once per
      // drive and the source vector is discarded afterwards.
      pass.local_grids[qi] = std::move(cached->local_grids[qi]);
      pass.local_assignments[qi] = std::move(cached->local_assignments[qi]);
      pass.balance_reports[qi] = cached->balance_reports[qi];
    } else {
      pass.local_grids[qi] = geometry_.extract_local(state_, q);
      if (pass.balance) {
        pass.local_assignments[qi] = balance_pass(pass.local_grids[qi], quarter_rows,
                                                  quarter_cols, config_.sen_limit,
                                                  &pass.balance_reports[qi]);
      } else {
        pass.local_assignments[qi] =
            compact_pass(pass.local_grids[qi], pass.axis, config_.sen_limit);
      }
    }
    if (pass.balance && !pass.balance_reports[qi].feasible) stats_.feasible = false;
  }
  stats_.timers.pass_compute_us += watch.elapsed_microseconds();
  awaiting_apply_ = true;
  return pass;
}

void PassDriver::apply(QuadrantPass pass) {
  QRM_EXPECTS_MSG(awaiting_apply_, "apply() must follow a successful next()");
  awaiting_apply_ = false;

  PassInfo info;
  info.axis = pass.axis;
  RealizeOptions realize_options{config_.aod_legalize};
  if (!config_.dead_channels.empty()) realize_options.dead = &config_.dead_channels;

  if (config_.merge_quadrants) {
    // Paper Sec. IV-C: west-side (NW+SW) and east-side (NE+SE) shifts run as
    // shared commands; realizing both half-lines of every global line in one
    // call yields exactly those shared rounds.
    const Stopwatch merge_watch;
    const std::vector<LineAssignment> lines =
        merge_assignments(geometry_, pass.axis, pass.local_assignments);
    info.lines_with_motion = lines.size();
    stats_.timers.merge_us += merge_watch.elapsed_microseconds();
    if (!lines.empty()) {
      const Stopwatch realize_watch;
      const RealizeResult rr =
          realize_assignments(state_, pass.axis, lines, schedule_, realize_options);
      info.unit_rounds = rr.rounds_toward_origin + rr.rounds_away;
      info.atoms_moved = rr.atoms_moved;
      stats_.timers.realize_us += realize_watch.elapsed_microseconds();
    }
  } else {
    // Realization mutates the shared grid and schedule: strictly serial, in
    // quadrant order, as the determinism contract requires.
    for (std::size_t qi = 0; qi < kAllQuadrants.size(); ++qi) {
      const Stopwatch lower_watch;
      const std::vector<LineAssignment> lines = lower_assignments(
          geometry_, kAllQuadrants[qi], pass.axis, pass.local_assignments[qi]);
      stats_.timers.merge_us += lower_watch.elapsed_microseconds();
      if (lines.empty()) continue;
      const Stopwatch realize_watch;
      info.lines_with_motion += lines.size();
      const RealizeResult rr =
          realize_assignments(state_, pass.axis, lines, schedule_, realize_options);
      info.unit_rounds += rr.rounds_toward_origin + rr.rounds_away;
      info.atoms_moved += rr.atoms_moved;
      stats_.timers.realize_us += realize_watch.elapsed_microseconds();
    }
  }
  stats_.passes.push_back(info);
  if (capture_sink_ != nullptr) capture_sink_->push_back(std::move(pass));
  ++pass_index_;

  // Advance the pass program.
  switch (phase_) {
    case Phase::BalanceRow:
      phase_ = Phase::BalanceCol;
      break;
    case Phase::BalanceCol:
      stats_.iterations = 1;
      phase_ = Phase::Done;
      break;
    case Phase::CompactRow:
      iteration_atoms_moved_ = info.atoms_moved;
      phase_ = Phase::CompactCol;
      break;
    case Phase::CompactCol:
      iteration_atoms_moved_ += info.atoms_moved;
      ++iteration_;
      stats_.iterations = iteration_;
      if (iteration_atoms_moved_ == 0 || state_.region_full(config_.target) ||
          iteration_ >= config_.max_iterations) {
        phase_ = Phase::Done;
      } else {
        phase_ = Phase::CompactRow;
      }
      break;
    case Phase::Done:
      break;
  }
}

PlanResult PassDriver::take_result() {
  QRM_EXPECTS_MSG(!taken_, "take_result() hands the plan out once per driver");
  taken_ = true;
  phase_ = Phase::Done;
  awaiting_apply_ = false;
  stats_.target_filled = state_.region_full(config_.target);
  stats_.defects_remaining =
      static_cast<std::int64_t>(config_.target.area()) - state_.atom_count(config_.target);
  return {std::move(schedule_), std::move(state_), std::move(stats_)};
}

}  // namespace qrm
