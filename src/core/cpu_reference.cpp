#include "core/cpu_reference.hpp"

#include <array>

#include "core/quadrant_plan.hpp"
#include "lattice/quadrant.hpp"
#include "util/assert.hpp"

namespace qrm {

namespace {

/// Compact one line toward position 0 in place (gated positions keep their
/// contents), returning the number of movement records (atoms that shift).
std::uint64_t compact_line(BitRow& line, std::int32_t sen_limit) {
  const std::uint32_t width = line.width();
  const std::uint32_t gate =
      sen_limit < 0 ? width : std::min(width, static_cast<std::uint32_t>(sen_limit));
  // Atoms below the gate compact to a prefix; everything at/above the gate
  // is frozen. The first hole below the gate ends the already-compact prefix.
  const std::uint32_t atoms = line.count_range(0, gate);
  std::uint32_t prefix = 0;
  while (prefix < gate && line.test(prefix)) ++prefix;
  if (prefix >= atoms) return 0;  // already compact below the gate
  const std::uint64_t records = atoms - prefix;
  // Rebuild: [0, atoms) set, [atoms, gate) clear, tail untouched.
  for (std::uint32_t i = 0; i < atoms; ++i) line.set(i);
  for (std::uint32_t i = atoms; i < gate; ++i) line.clear(i);
  return records;
}

}  // namespace

CpuReferenceResult run_cpu_reference(const OccupancyGrid& initial, const QrmConfig& config) {
  QRM_EXPECTS_MSG(initial.height() > 0 && initial.width() > 0 && initial.height() % 2 == 0 &&
                      initial.width() % 2 == 0,
                  "QRM requires non-empty, even grid dimensions");
  const Region target = config.target;
  QRM_EXPECTS_MSG(
      target == centered_region(initial.height(), initial.width(), target.rows, target.cols) &&
          target.rows % 2 == 0 && target.cols % 2 == 0,
      "QRM requires an even-sized, centred target region");
  QRM_EXPECTS_MSG(config.mode != PlanMode::Balanced || config.sen_limit < 0 ||
                      config.sen_limit >= target.cols / 2,
                  "balanced mode needs the sen gate at or beyond the target quarter");

  const QuadrantGeometry geom(initial.height(), initial.width());
  const std::int32_t quarter_rows = target.rows / 2;
  const std::int32_t quarter_cols = target.cols / 2;

  CpuReferenceResult result;

  // LDM: split + flip into the unified local frame.
  std::array<OccupancyGrid, 4> local;
  for (const Quadrant q : kAllQuadrants)
    local[static_cast<std::size_t>(q)] = geom.extract_local(initial, q);

  const auto compact_pass_all = [&](Axis axis) {
    for (auto& grid : local) {
      const std::int32_t lines = axis == Axis::Rows ? grid.height() : grid.width();
      for (std::int32_t i = 0; i < lines; ++i) {
        BitRow line = axis == Axis::Rows ? BitRow(grid.row(i)) : grid.column(i);
        result.movement_records += compact_line(line, config.sen_limit);
        if (axis == Axis::Rows) {
          grid.set_row(i, line);
        } else {
          grid.set_column(i, line);
        }
      }
    }
    ++result.passes;
  };

  if (config.mode == PlanMode::Balanced) {
    // Balance unit: demand assignment per quadrant, then write the new row
    // images directly (the hardware realises them as shift commands).
    for (auto& grid : local) {
      BalanceReport report;
      const auto assignments =
          balance_pass(grid, quarter_rows, quarter_cols, config.sen_limit, &report);
      if (!report.feasible) result.feasible = false;
      for (const auto& a : assignments) {
        BitRow line(static_cast<std::uint32_t>(grid.width()));
        // Keep gated atoms in place.
        if (config.sen_limit >= 0) {
          const RowView old = grid.row(a.line);
          for (std::uint32_t i = static_cast<std::uint32_t>(config.sen_limit);
               i < old.width(); ++i) {
            if (old.test(i)) line.set(i);
          }
        }
        for (std::size_t i = 0; i < a.targets.size(); ++i) {
          line.set(static_cast<std::uint32_t>(a.targets[i]));
          if (a.targets[i] != a.sources[i]) ++result.movement_records;
        }
        grid.set_row(a.line, line);
      }
    }
    ++result.passes;
    compact_pass_all(Axis::Cols);
  } else {
    const Region quarter{0, 0, quarter_rows, quarter_cols};
    const auto centre_filled = [&] {
      for (const auto& grid : local)
        if (!grid.region_full(quarter)) return false;
      return true;
    };
    for (std::int32_t it = 0; it < config.max_iterations; ++it) {
      const std::uint64_t before = result.movement_records;
      compact_pass_all(Axis::Rows);
      compact_pass_all(Axis::Cols);
      if (result.movement_records == before) break;  // converged
      if (centre_filled()) break;                    // "until the center is filled"
    }
  }

  // OCM restore: write the local frames back into the global grid.
  result.final_grid = OccupancyGrid(initial.height(), initial.width());
  for (const Quadrant q : kAllQuadrants)
    geom.write_back(result.final_grid, q, local[static_cast<std::size_t>(q)]);
  result.target_filled = result.final_grid.region_full(target);
  return result;
}

}  // namespace qrm
