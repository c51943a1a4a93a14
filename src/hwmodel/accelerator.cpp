#include "hwmodel/accelerator.hpp"

#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "core/pass_driver.hpp"
#include "hwmodel/balance_unit.hpp"
#include "hwmodel/ldm.hpp"
#include "hwmodel/ocm.hpp"
#include "hwmodel/shift_kernel.hpp"
#include "util/assert.hpp"

namespace qrm::hw {

namespace {

/// Quadrant-local line beats for one pass: rows for a horizontal pass,
/// columns (as BitRows over row indices) for a vertical one.
std::vector<RowBeat> pass_beats(const OccupancyGrid& local, Axis axis,
                                const std::vector<LineAssignment>& assignments, bool balance) {
  // For balance passes the per-line record count is not derivable from a
  // compaction scan; the balance unit supplies it (movers per line).
  std::map<std::int32_t, std::int32_t> override_records;
  if (balance) {
    for (const auto& a : assignments) {
      std::int32_t movers = 0;
      for (std::size_t i = 0; i < a.sources.size(); ++i)
        if (a.sources[i] != a.targets[i]) ++movers;
      override_records[a.line] = movers;
    }
  }
  const std::int32_t line_count = axis == Axis::Rows ? local.height() : local.width();
  std::vector<RowBeat> beats;
  beats.reserve(static_cast<std::size_t>(line_count));
  for (std::int32_t line = 0; line < line_count; ++line) {
    RowBeat beat;
    beat.line = line;
    beat.bits = axis == Axis::Rows ? BitRow(local.row(line)) : local.column(line);
    if (balance) {
      const auto it = override_records.find(line);
      beat.records_override = it == override_records.end() ? 0 : it->second;
    }
    beats.push_back(std::move(beat));
  }
  return beats;
}

}  // namespace

std::string CycleReport::to_string() const {
  std::ostringstream os;
  os << "control       " << control << " cycles\n";
  os << "load (DMA+LDM)" << ' ' << load << " cycles\n";
  if (balance > 0) os << "balance unit  " << balance << " cycles\n";
  for (const auto& p : passes) os << p.name << "  " << p.cycles << " cycles\n";
  os << "DMA out       " << dma_out << " cycles\n";
  os << "total         " << total() << " cycles\n";
  return os.str();
}

QrmAccelerator::QrmAccelerator(AcceleratorConfig config) : config_(std::move(config)) {
  QRM_EXPECTS_MSG(config_.quadrant_pathways == 1 || config_.quadrant_pathways == 2 ||
                      config_.quadrant_pathways == 4,
                  "quadrant_pathways must be 1, 2 or 4");
  QRM_EXPECTS(config_.clock_mhz > 0.0);
  QRM_EXPECTS(config_.record_bits > 0 && config_.ocm_drain_width > 0);
}

AccelResult QrmAccelerator::run(const OccupancyGrid& initial) const {
  AccelResult result;
  CycleReport& cycles = result.cycles;
  cycles.control = config_.control_overhead_cycles;

  PassDriver driver(initial, config_.plan);
  const QuadrantGeometry& geom = driver.geometry();

  // ----- Load phase: DDR -> AXI -> LDM -> quadrant row buffers -------------
  {
    Simulation sim;
    Fifo<AxiPacket> packet_fifo("axi", 4);
    std::array<std::unique_ptr<Fifo<RowBeat>>, 4> row_fifos;
    std::array<Fifo<RowBeat>*, 4> row_ptrs{};
    for (std::size_t q = 0; q < 4; ++q) {
      row_fifos[q] = std::make_unique<Fifo<RowBeat>>(
          "rows" + std::to_string(q), static_cast<std::size_t>(geom.local_height()) + 4);
      row_ptrs[q] = row_fifos[q].get();
    }
    PacketSource source("ddr", pack_grid(initial, config_.packet_bits), packet_fifo,
                        config_.ddr.read_latency_cycles);
    LoadDataModule ldm("ldm", initial.height(), initial.width(), config_.packet_bits,
                       packet_fifo, row_ptrs);
    std::array<std::unique_ptr<RowSink>, 4> sinks;
    sim.add_module(source);
    sim.add_module(ldm);
    sim.add_fifo(packet_fifo);
    for (std::size_t q = 0; q < 4; ++q) {
      sinks[q] = std::make_unique<RowSink>("sink" + std::to_string(q), *row_fifos[q]);
      sim.add_module(*sinks[q]);
      sim.add_fifo(*row_fifos[q]);
    }
    cycles.load = sim.run();

    // Datapath check: the LDM must deliver exactly the flipped quadrant
    // images the algorithm expects.
    for (const Quadrant q : kAllQuadrants) {
      const OccupancyGrid expected = geom.extract_local(initial, q);
      const auto& rows = sinks[static_cast<std::size_t>(q)]->rows();
      QRM_ENSURES_MSG(rows.size() == static_cast<std::size_t>(expected.height()),
                      "LDM emitted a wrong number of quadrant rows");
      for (const RowBeat& beat : rows) {
        QRM_ENSURES_MSG(beat.bits == expected.row(beat.line),
                        "LDM flip produced a wrong quadrant row");
      }
    }
  }

  // ----- Schedule-analysis passes ------------------------------------------
  const std::uint32_t pathways = config_.quadrant_pathways;
  std::size_t pass_index = 0;
  std::uint64_t total_records = 0;
  while (auto pass = driver.next()) {
    if (pass->balance) {
      // Balance units (our extension; see README.md, "Reproduction notes"):
      // structural simulation — stream the quadrant rows through the
      // counting stage, grant one target column per cycle, stream placements
      // back. All four quadrants run in parallel; cycles come from the
      // simulation and the grant totals are cross-checked against the
      // behavioural analysis.
      Simulation balance_sim;
      std::vector<std::unique_ptr<Fifo<RowBeat>>> fifos;
      std::vector<std::unique_ptr<RowSource>> row_sources;
      std::vector<std::unique_ptr<BalanceUnit>> units;
      const std::int32_t quarter_rows = config_.plan.target.rows / 2;
      const std::int32_t quarter_cols = config_.plan.target.cols / 2;
      for (std::size_t q = 0; q < 4; ++q) {
        std::vector<RowBeat> beats;
        const OccupancyGrid& local = pass->local_grids[q];
        for (std::int32_t r = 0; r < local.height(); ++r)
          beats.push_back({r, BitRow(local.row(r)), -1});
        fifos.push_back(
            std::make_unique<Fifo<RowBeat>>("bal" + std::to_string(q) + ".rows", 4));
        row_sources.push_back(std::make_unique<RowSource>("bal" + std::to_string(q) + ".src",
                                                          std::move(beats), *fifos.back()));
        units.push_back(std::make_unique<BalanceUnit>("bal" + std::to_string(q),
                                                      *fifos.back(), local.height(),
                                                      quarter_rows, quarter_cols,
                                                      config_.plan.sen_limit));
        balance_sim.add_module(*row_sources.back());
        balance_sim.add_module(*units.back());
        balance_sim.add_fifo(*fifos.back());
      }
      cycles.balance += balance_sim.run();
      for (std::size_t q = 0; q < 4; ++q) {
        const auto expected =
            static_cast<std::uint64_t>(quarter_rows) * static_cast<std::uint64_t>(quarter_cols) -
            static_cast<std::uint64_t>(pass->balance_reports[q].shortfall);
        QRM_ENSURES_MSG(units[q]->grants() == expected,
                        "balance unit diverged from the behavioural demand analysis");
      }
    }

    Simulation sim;
    std::vector<std::unique_ptr<Fifo<RowBeat>>> in_fifos;
    std::vector<std::unique_ptr<Fifo<CommandBeat>>> out_fifos;
    std::vector<std::unique_ptr<RowSource>> sources;
    std::vector<std::unique_ptr<ShiftKernel>> kernels;

    const std::size_t line_count = static_cast<std::size_t>(
        pass->axis == Axis::Rows ? geom.local_height() : geom.local_width());
    std::array<Fifo<CommandBeat>*, 4> ocm_inputs{};
    for (std::uint32_t k = 0; k < pathways; ++k) {
      // Pathway k serves quadrants k, k+P, ... sequentially (concatenated
      // row streams) — the 1/2-pathway ablation.
      std::vector<RowBeat> beats;
      for (std::size_t q = k; q < 4; q += pathways) {
        auto quadrant_beats =
            pass_beats(pass->local_grids[q], pass->axis,
                       pass->local_assignments[q], pass->balance);
        beats.insert(beats.end(), quadrant_beats.begin(), quadrant_beats.end());
      }
      in_fifos.push_back(std::make_unique<Fifo<RowBeat>>("k" + std::to_string(k) + ".in", 4));
      out_fifos.push_back(std::make_unique<Fifo<CommandBeat>>(
          "k" + std::to_string(k) + ".out", line_count * (4 / pathways) + 8));
      sources.push_back(std::make_unique<RowSource>("src" + std::to_string(k),
                                                    std::move(beats), *in_fifos.back()));
      kernels.push_back(std::make_unique<ShiftKernel>("kernel" + std::to_string(k),
                                                      *in_fifos.back(), *out_fifos.back(),
                                                      config_.plan.sen_limit));
      ocm_inputs[k] = out_fifos.back().get();
    }
    OutputConcatModule ocm("ocm", ocm_inputs, config_.ocm_drain_width);

    for (auto& s : sources) sim.add_module(*s);
    for (auto& k : kernels) sim.add_module(*k);
    sim.add_module(ocm);
    for (auto& f : in_fifos) sim.add_fifo(*f);
    for (auto& f : out_fifos) sim.add_fifo(*f);

    const std::uint64_t pass_cycles = sim.run();
    total_records += ocm.records_emitted();

    std::ostringstream name;
    name << "pass " << pass_index << " (" << (pass->axis == Axis::Rows ? "H" : "V")
         << (pass->balance ? ", balance" : "") << ")";
    cycles.passes.push_back({name.str(), pass_cycles});
    ++pass_index;

    driver.apply(std::move(*pass));
  }

  result.plan = driver.take_result();
  result.movement_records = total_records;

  // ----- Output DMA ---------------------------------------------------------
  const std::uint64_t record_bits_total = total_records * config_.record_bits;
  cycles.dma_out = config_.ddr.read_latency_cycles +
                   (record_bits_total + config_.packet_bits - 1) / config_.packet_bits;

  result.latency_us = static_cast<double>(cycles.total()) / config_.clock_mhz;
  return result;
}

}  // namespace qrm::hw
