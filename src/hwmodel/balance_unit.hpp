#pragma once
/// \file balance_unit.hpp
/// Structural model of the balance unit (our extension beyond the paper;
/// see README.md, "Reproduction notes"): the hardware stage that grants
/// every local target column enough donor rows before the placement pass.
///
/// Dataflow: phase 1 streams the quadrant's rows one per cycle, counting
/// atoms below the sen gate (a popcount tree in hardware). Phase 2 walks
/// one target column per cycle, granting `target_rows` donors from a
/// capacity-sorted selection network. Phase 3 streams the per-row
/// placements back out, one row per cycle. Total latency is therefore
/// Q_h + T_qc + Q_h cycles — now measured by simulation rather than
/// asserted, and the grant totals are cross-checked against the
/// behavioural balance_pass by the accelerator.

#include <cstdint>
#include <vector>

#include "hwmodel/beats.hpp"
#include "hwmodel/fifo.hpp"
#include "hwmodel/sim.hpp"

namespace qrm::hw {

class BalanceUnit final : public Module {
 public:
  BalanceUnit(std::string name, Fifo<RowBeat>& rows_in, std::int32_t row_count,
              std::int32_t target_rows, std::int32_t target_cols, std::int32_t sen_limit = -1);

  void eval(std::uint64_t cycle) override;
  [[nodiscard]] bool busy() const override;

  /// Total donor grants issued (= demand minus shortfall).
  [[nodiscard]] std::uint64_t grants() const noexcept { return grants_; }
  /// True when every target column received its full demand.
  [[nodiscard]] bool feasible() const noexcept { return shortfall_ == 0; }
  [[nodiscard]] std::uint64_t shortfall() const noexcept { return shortfall_; }

 private:
  enum class Phase { CountRows, GrantColumns, WriteBack, Done };

  Fifo<RowBeat>& rows_in_;
  std::int32_t row_count_;
  std::int32_t target_rows_;
  std::int32_t target_cols_;
  std::int32_t sen_limit_;

  Phase phase_ = Phase::CountRows;
  std::int32_t rows_seen_ = 0;
  std::int32_t column_cursor_ = 0;
  std::int32_t writeback_cursor_ = 0;
  std::vector<std::int32_t> remaining_;  ///< per-row remaining capacity
  std::uint64_t grants_ = 0;
  std::uint64_t shortfall_ = 0;
};

}  // namespace qrm::hw
