// Tests for the cycle-level accelerator model: FIFO/simulation semantics,
// AXI packing, LDM datapath, shift-kernel bit-exactness and pipeline timing,
// OCM accounting, and end-to-end equivalence with the behavioural planner.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <utility>

#include "util/assert.hpp"
#include "core/cpu_reference.hpp"
#include "core/planner.hpp"
#include "hwmodel/accelerator.hpp"
#include "hwmodel/axi.hpp"
#include "hwmodel/balance_unit.hpp"
#include "hwmodel/fifo.hpp"
#include "hwmodel/ldm.hpp"
#include "hwmodel/ocm.hpp"
#include "hwmodel/shift_kernel.hpp"
#include "hwmodel/sim.hpp"
#include "loading/loader.hpp"
#include "util/bitref.hpp"
#include "util/rng.hpp"

namespace qrm::hw {
namespace {

// ---------------------------------------------------------------------------
// FIFO and simulation kernel
// ---------------------------------------------------------------------------

TEST(Fifo, PushVisibleNextCycleOnly) {
  Fifo<int> f("f", 4);
  f.push(1);
  EXPECT_FALSE(f.can_pop()) << "registered FIFO: same-cycle push not visible";
  f.commit();
  ASSERT_TRUE(f.can_pop());
  EXPECT_EQ(f.front(), 1);
  EXPECT_EQ(f.pop(), 1);
  EXPECT_FALSE(f.can_pop());
  f.commit();
  EXPECT_TRUE(f.empty());
}

TEST(Fifo, CapacityEnforced) {
  Fifo<int> f("f", 2);
  f.push(1);
  f.push(2);
  EXPECT_FALSE(f.can_push());
  EXPECT_THROW(f.push(3), PreconditionError);
  f.commit();
  EXPECT_FALSE(f.can_push()) << "pops in flight do not free space within a cycle";
}

TEST(Fifo, FifoOrderPreserved) {
  Fifo<int> f("f", 8);
  for (int i = 0; i < 5; ++i) f.push(i);
  f.commit();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(f.pop(), i);
  EXPECT_EQ(f.total_pushed(), 5u);
}

namespace {
/// Toy producer/consumer to exercise Simulation's idle detection.
class Producer final : public Module {
 public:
  Producer(Fifo<int>& out, int count) : Module("producer"), out_(out), remaining_(count) {}
  void eval(std::uint64_t) override {
    if (remaining_ > 0 && out_.can_push()) {
      out_.push(remaining_--);
    }
  }
  [[nodiscard]] bool busy() const override { return remaining_ > 0; }

 private:
  Fifo<int>& out_;
  int remaining_;
};

class Consumer final : public Module {
 public:
  explicit Consumer(Fifo<int>& in) : Module("consumer"), in_(in) {}
  void eval(std::uint64_t) override {
    if (in_.can_pop()) {
      in_.pop();
      ++consumed_;
    }
  }
  [[nodiscard]] bool busy() const override { return in_.can_pop(); }
  [[nodiscard]] int consumed() const { return consumed_; }

 private:
  Fifo<int>& in_;
  int consumed_ = 0;
};
}  // namespace

TEST(Simulation, RunsUntilDrained) {
  Fifo<int> f("f", 2);
  Producer p(f, 10);
  Consumer c(f);
  Simulation sim;
  sim.add_module(p);
  sim.add_module(c);
  sim.add_fifo(f);
  const std::uint64_t cycles = sim.run();
  EXPECT_EQ(c.consumed(), 10);
  // 10 items, 1/cycle production + 1 cycle pipeline delay.
  EXPECT_GE(cycles, 11u);
  EXPECT_LE(cycles, 13u);
}

TEST(Simulation, DetectsStall) {
  Fifo<int> f("f", 2);
  Consumer c(f);
  // A producer that claims to be busy but never produces.
  class Stuck final : public Module {
   public:
    Stuck() : Module("stuck") {}
    void eval(std::uint64_t) override {}
    [[nodiscard]] bool busy() const override { return true; }
  } stuck;
  Simulation sim;
  sim.add_module(stuck);
  sim.add_module(c);
  sim.add_fifo(f);
  EXPECT_THROW((void)sim.run(100), InvariantError);
}

// ---------------------------------------------------------------------------
// AXI packing
// ---------------------------------------------------------------------------

TEST(Axi, PackUnpackRoundTrip) {
  // Site (r, c) is stream bit r*W + c, beats in order, and the last beat's
  // padding bits are zero: reading the stream back bit by bit is the grid.
  // Widths below, at and across word boundaries, and multiples of 64.
  for (const auto& [h, w] : {std::pair{18, 26}, std::pair{7, 64}, std::pair{5, 70},
                            std::pair{9, 128}, std::pair{3, 130}, std::pair{1, 1}}) {
    for (const std::uint32_t packet_bits : {64u, 128u, 1024u}) {
      const OccupancyGrid g = load_random(h, w, {0.5, 77});
      const auto packets = pack_grid(g, packet_bits);
      const auto sites = static_cast<std::uint64_t>(h) * static_cast<std::uint64_t>(w);
      ASSERT_EQ(packets.size(), (sites + packet_bits - 1) / packet_bits);
      for (std::uint64_t bit = 0; bit < packets.size() * packet_bits; ++bit) {
        const AxiPacket& packet = packets[bit / packet_bits];
        ASSERT_EQ(packet.words.size(), packet_bits / 64);
        const std::uint64_t in_packet = bit % packet_bits;
        const bool set = (packet.words[in_packet / 64] >> (in_packet % 64)) & 1U;
        const auto site = static_cast<std::int32_t>(bit);
        const bool expected = bit < sites && g.occupied({site / w, site % w});
        ASSERT_EQ(set, expected) << h << "x" << w << ", stream bit " << bit << ", "
                                 << packet_bits << "-bit beats";
      }
    }
  }
}

TEST(Axi, PackRejectsBadWidth) {
  const OccupancyGrid g(4, 4);
  EXPECT_THROW((void)pack_grid(g, 0), PreconditionError);
  EXPECT_THROW((void)pack_grid(g, 100), PreconditionError);
}

// ---------------------------------------------------------------------------
// Shift kernel
// ---------------------------------------------------------------------------

/// Run a kernel over `rows` and return (beats, cycles).
std::pair<std::vector<CommandBeat>, std::uint64_t> run_kernel(
    const std::vector<BitRow>& rows, std::int32_t sen_limit = -1) {
  Fifo<RowBeat> in("in", 4);
  Fifo<CommandBeat> out("out", rows.size() + 8);
  std::vector<RowBeat> beats;
  for (std::size_t i = 0; i < rows.size(); ++i)
    beats.push_back({static_cast<std::int32_t>(i), rows[i], -1});
  RowSource source("src", std::move(beats), in);
  ShiftKernel kernel("kernel", in, out, sen_limit);
  // Sink that drains the output FIFO so the run terminates.
  class BeatSink final : public Module {
   public:
    explicit BeatSink(Fifo<CommandBeat>& f) : Module("sink"), in_(f) {}
    void eval(std::uint64_t) override {
      while (in_.can_pop()) collected_.push_back(in_.pop());
    }
    [[nodiscard]] bool busy() const override { return in_.can_pop(); }
    std::vector<CommandBeat> collected_;

   private:
    Fifo<CommandBeat>& in_;
  } sink(out);

  Simulation sim;
  sim.add_module(source);
  sim.add_module(kernel);
  sim.add_module(sink);
  sim.add_fifo(in);
  sim.add_fifo(out);
  const std::uint64_t cycles = sim.run();
  return {sink.collected_, cycles};
}

TEST(ShiftKernel, CommandsAreHoleMap) {
  const BitRow row = BitRow::from_string("0101001");
  const auto [beats, cycles] = run_kernel({row});
  ASSERT_EQ(beats.size(), 1u);
  EXPECT_EQ(beats[0].commands.to_string(), "1010110");
  EXPECT_EQ(beats[0].original, row);
  // Records = atoms with nonzero displacement = all 3 atoms here.
  EXPECT_EQ(beats[0].records, 3u);
  (void)cycles;
}

TEST(ShiftKernel, RecordsSkipAlreadyPlacedAtoms) {
  // "1101..." : the first two atoms have no hole below them -> no record.
  const auto [beats, cycles] = run_kernel({BitRow::from_string("110100")});
  ASSERT_EQ(beats.size(), 1u);
  EXPECT_EQ(beats[0].records, 1u);
  (void)cycles;
}

TEST(ShiftKernel, CommandPrefixPopcountEqualsCompactionDisplacement) {
  // Bit-exactness against the behavioural primitive, randomized.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const OccupancyGrid g = load_random(1, 25, {0.5, 300 + seed});
    const BitRow row(g.row(0));
    const auto [beats, cycles] = run_kernel({row});
    ASSERT_EQ(beats.size(), 1u);
    const auto displacements = ref::compaction_displacements(row);
    std::size_t index = 0;
    for (std::uint32_t pos = 0; pos < row.width(); ++pos) {
      if (!row.test(pos)) continue;
      std::uint32_t prefix = 0;
      for (std::uint32_t i = 0; i < pos; ++i)
        if (beats[0].commands.test(i)) ++prefix;
      EXPECT_EQ(prefix, displacements[index]) << "seed " << seed << " pos " << pos;
      ++index;
    }
    (void)cycles;
  }
}

TEST(ShiftKernel, FullyPipelinedLatency) {
  // Q_h rows of width Q_w: admission is 1 row/cycle, each row takes Q_w
  // cycles, so the pass completes in Q_h + Q_w (+1 FIFO delay) cycles.
  for (const auto& [qh, qw] : {std::pair{5, 5}, std::pair{25, 25}, std::pair{45, 45}}) {
    std::vector<BitRow> rows;
    for (int r = 0; r < qh; ++r) {
      const OccupancyGrid g =
          load_random(1, qw, {0.5, static_cast<std::uint64_t>(qh * 100 + r)});
      rows.emplace_back(g.row(0));
    }
    const auto [beats, cycles] = run_kernel(rows);
    EXPECT_EQ(beats.size(), static_cast<std::size_t>(qh));
    EXPECT_GE(cycles, static_cast<std::uint64_t>(qh + qw));
    EXPECT_LE(cycles, static_cast<std::uint64_t>(qh + qw + 3))
        << "pipeline must sustain one row per cycle";
  }
}

TEST(ShiftKernel, PeakInFlightEqualsPipelineDepth) {
  std::vector<BitRow> rows(20, BitRow(10));
  Fifo<RowBeat> in("in", 4);
  Fifo<CommandBeat> out("out", 64);
  std::vector<RowBeat> beats;
  for (std::size_t i = 0; i < rows.size(); ++i)
    beats.push_back({static_cast<std::int32_t>(i), rows[i], -1});
  RowSource source("src", std::move(beats), in);
  ShiftKernel kernel("kernel", in, out);
  class Drain final : public Module {
   public:
    explicit Drain(Fifo<CommandBeat>& f) : Module("drain"), in_(f) {}
    void eval(std::uint64_t) override {
      while (in_.can_pop()) (void)in_.pop();
    }
    [[nodiscard]] bool busy() const override { return in_.can_pop(); }

   private:
    Fifo<CommandBeat>& in_;
  } drain(out);
  Simulation sim;
  sim.add_module(source);
  sim.add_module(kernel);
  sim.add_module(drain);
  sim.add_fifo(in);
  sim.add_fifo(out);
  (void)sim.run();
  EXPECT_EQ(kernel.rows_processed(), 20u);
  EXPECT_LE(kernel.peak_in_flight(), 10u) << "in-flight rows bounded by row width";
  EXPECT_GE(kernel.peak_in_flight(), 9u) << "pipeline should actually fill";
}

TEST(ShiftKernel, SenGateSuppressesCommandsBeyondLimit) {
  const auto [beats, cycles] = run_kernel({BitRow::from_string("01001010")}, 4);
  ASSERT_EQ(beats.size(), 1u);
  // Holes at 0,2,3 are within the gate; positions >= 4 must have no command.
  EXPECT_EQ(beats[0].commands.to_string(), "10110000");
  // Records: only atoms below the gate count (atom at 1 has hole below).
  EXPECT_EQ(beats[0].records, 1u);
  (void)cycles;
}

TEST(ShiftKernel, TraceNarratesFig6) {
  Fifo<RowBeat> in("in", 4);
  Fifo<CommandBeat> out("out", 8);
  RowSource source("src", {{0, BitRow::from_string("01100"), -1}}, in);
  ShiftKernel kernel("kernel", in, out);
  kernel.enable_trace();
  class Drain final : public Module {
   public:
    explicit Drain(Fifo<CommandBeat>& f) : Module("drain"), in_(f) {}
    void eval(std::uint64_t) override {
      while (in_.can_pop()) (void)in_.pop();
    }
    [[nodiscard]] bool busy() const override { return in_.can_pop(); }

   private:
    Fifo<CommandBeat>& in_;
  } drain(out);
  Simulation sim;
  sim.add_module(source);
  sim.add_module(kernel);
  sim.add_module(drain);
  sim.add_fifo(in);
  sim.add_fifo(out);
  (void)sim.run();
  ASSERT_FALSE(kernel.trace().empty());
  EXPECT_NE(kernel.trace().front().find("admits row 0"), std::string::npos);
  bool saw_command = false;
  for (const auto& line : kernel.trace()) {
    if (line.find("shift command") != std::string::npos) saw_command = true;
  }
  EXPECT_TRUE(saw_command);
}

// ---------------------------------------------------------------------------
// Balance unit
// ---------------------------------------------------------------------------

TEST(BalanceUnit, LatencyIsCountPlusGrantPlusWriteback) {
  // 8 rows, 3 target columns: Q_h + T_qc + Q_h = 19 cycles (+ stream-in).
  Fifo<RowBeat> rows("rows", 4);
  std::vector<RowBeat> beats;
  for (std::int32_t r = 0; r < 8; ++r) {
    const OccupancyGrid g = load_random(1, 8, {0.6, static_cast<std::uint64_t>(r) + 50});
    beats.push_back({r, BitRow(g.row(0)), -1});
  }
  RowSource source("src", std::move(beats), rows);
  BalanceUnit unit("bal", rows, 8, 3, 3);
  Simulation sim;
  sim.add_module(source);
  sim.add_module(unit);
  sim.add_fifo(rows);
  const std::uint64_t cycles = sim.run();
  EXPECT_GE(cycles, 8u + 3u + 8u);
  EXPECT_LE(cycles, 8u + 3u + 8u + 3u) << "latency must be 2*Q_h + T_qc plus stream slack";
}

TEST(BalanceUnit, GrantsFullDemandWhenCapacitySuffices) {
  Fifo<RowBeat> rows("rows", 4);
  std::vector<RowBeat> beats;
  BitRow full(6);
  full.fill();
  for (std::int32_t r = 0; r < 6; ++r) beats.push_back({r, full, -1});
  RowSource source("src", std::move(beats), rows);
  BalanceUnit unit("bal", rows, 6, 3, 3);
  Simulation sim;
  sim.add_module(source);
  sim.add_module(unit);
  sim.add_fifo(rows);
  (void)sim.run();
  EXPECT_TRUE(unit.feasible());
  EXPECT_EQ(unit.grants(), 9u);
  EXPECT_EQ(unit.shortfall(), 0u);
}

TEST(BalanceUnit, ReportsShortfallOnEmptyQuadrant) {
  Fifo<RowBeat> rows("rows", 4);
  std::vector<RowBeat> beats;
  for (std::int32_t r = 0; r < 6; ++r) beats.push_back({r, BitRow(6), -1});
  RowSource source("src", std::move(beats), rows);
  BalanceUnit unit("bal", rows, 6, 3, 3);
  Simulation sim;
  sim.add_module(source);
  sim.add_module(unit);
  sim.add_fifo(rows);
  (void)sim.run();
  EXPECT_FALSE(unit.feasible());
  EXPECT_EQ(unit.grants(), 0u);
  EXPECT_EQ(unit.shortfall(), 9u);
}

TEST(BalanceUnit, SenGateLimitsCapacity) {
  Fifo<RowBeat> rows("rows", 4);
  std::vector<RowBeat> beats;
  BitRow tail_heavy = BitRow::from_string("000111");  // all atoms beyond gate 3
  for (std::int32_t r = 0; r < 4; ++r) beats.push_back({r, tail_heavy, -1});
  RowSource source("src", std::move(beats), rows);
  BalanceUnit unit("bal", rows, 4, 2, 2, /*sen_limit=*/3);
  Simulation sim;
  sim.add_module(source);
  sim.add_module(unit);
  sim.add_fifo(rows);
  (void)sim.run();
  EXPECT_EQ(unit.grants(), 0u) << "gated atoms must not count as capacity";
}

// ---------------------------------------------------------------------------
// OCM
// ---------------------------------------------------------------------------

TEST(Ocm, ConsumesFourStreamsSimultaneouslyAndDrains) {
  std::array<std::unique_ptr<Fifo<CommandBeat>>, 4> fifos;
  std::array<Fifo<CommandBeat>*, 4> ptrs{};
  for (std::size_t q = 0; q < 4; ++q) {
    fifos[q] = std::make_unique<Fifo<CommandBeat>>("c" + std::to_string(q), 16);
    ptrs[q] = fifos[q].get();
  }
  // 8 beats per quadrant, 2 records each -> 64 records total.
  for (auto& f : fifos) {
    for (int i = 0; i < 8; ++i) {
      CommandBeat beat;
      beat.records = 2;
      f->push(beat);
    }
    f->commit();
  }
  OutputConcatModule ocm("ocm", ptrs, 4);
  Simulation sim;
  sim.add_module(ocm);
  for (auto& f : fifos) sim.add_fifo(*f);
  const std::uint64_t cycles = sim.run();
  EXPECT_EQ(ocm.records_emitted(), 64u);
  EXPECT_EQ(ocm.beats_consumed(), 32u);
  // 8 cycles consume all beats (4 at a time = 8 records/cycle arriving),
  // drain 4/cycle -> 16 cycles + epsilon.
  EXPECT_GE(cycles, 16u);
  EXPECT_LE(cycles, 20u);
}

// ---------------------------------------------------------------------------
// Accelerator end-to-end
// ---------------------------------------------------------------------------

AcceleratorConfig config_for(std::int32_t size, std::int32_t target, PlanMode mode) {
  AcceleratorConfig config;
  config.plan.target = centered_square(size, target);
  config.plan.mode = mode;
  return config;
}

TEST(Accelerator, MatchesBehaviouralPlannerExactly) {
  for (const PlanMode mode : {PlanMode::Balanced, PlanMode::Compact}) {
    const OccupancyGrid initial = load_random(20, 20, {0.55, 1234});
    const AcceleratorConfig config = config_for(20, 12, mode);
    const AccelResult hw_result = QrmAccelerator(config).run(initial);
    const PlanResult sw_result = QrmPlanner(config.plan).plan(initial);
    EXPECT_EQ(hw_result.plan.final_grid, sw_result.final_grid);
    EXPECT_EQ(hw_result.plan.schedule, sw_result.schedule);
    EXPECT_EQ(hw_result.plan.stats.target_filled, sw_result.stats.target_filled);
  }

  // Generated grids (even sides 10-90, fill 0.50-0.69, both modes, the
  // centred even ~0.6 x side target): the planner, the CPU reference and
  // the accelerator reach the same final grid, and the two analyses emit the
  // same movement records.
  Rng rng(0xACCE1);
  for (int trial = 0; trial < 240; ++trial) {
    const auto size = static_cast<std::int32_t>(10 + 2 * rng.uniform_below(41));
    const double fill = 0.50 + 0.01 * rng.uniform_below(20);
    const PlanMode mode = trial % 2 == 0 ? PlanMode::Balanced : PlanMode::Compact;
    const OccupancyGrid initial = load_random(size, size, {fill, rng.next_u64()});
    const AcceleratorConfig config = config_for(size, size * 3 / 5 / 2 * 2, mode);
    const PlanResult sw_result = QrmPlanner(config.plan).plan(initial);
    const CpuReferenceResult cpu_result = run_cpu_reference(initial, config.plan);
    const AccelResult hw_result = QrmAccelerator(config).run(initial);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << ": " << size << "x" << size
                                      << " fill " << fill << " " << to_cstring(mode));
    EXPECT_EQ(cpu_result.final_grid, sw_result.final_grid);
    EXPECT_EQ(hw_result.plan.final_grid, sw_result.final_grid);
    EXPECT_EQ(cpu_result.movement_records, hw_result.movement_records);
  }
}

TEST(Accelerator, RejectsASenGateInsideTheTargetQuarter) {
  const OccupancyGrid initial = load_random(20, 20, {0.55, 1234});
  AcceleratorConfig config = config_for(20, 12, PlanMode::Balanced);
  config.plan.sen_limit = 5;
  EXPECT_THROW((void)QrmAccelerator(config).run(initial), PreconditionError);
  config.plan.sen_limit = 6;
  EXPECT_EQ(QrmAccelerator(config).run(initial).plan.final_grid,
            QrmPlanner(config.plan).plan(initial).final_grid);
}

TEST(Accelerator, PaperHeadlineLatencyIsMicroseconds) {
  // 50x50 -> 30x30: the paper reports ~1.0 us at 250 MHz. Our structural
  // model must land in the same regime (hundreds of cycles, low single-digit
  // microseconds).
  const OccupancyGrid initial = load_random(50, 50, {0.55, 42});
  const AccelResult result = QrmAccelerator(config_for(50, 30, PlanMode::Balanced)).run(initial);
  EXPECT_TRUE(result.plan.stats.target_filled);
  EXPECT_GT(result.latency_us, 0.2);
  EXPECT_LT(result.latency_us, 5.0);
  EXPECT_GT(result.cycles.total(), 100u);
  EXPECT_LT(result.cycles.total(), 1500u);
}

TEST(Accelerator, LatencyGrowsModeratelyWithSize) {
  // Fig. 7(a) scalability: latency grows far slower than the CPU's O(W^2).
  std::vector<double> latencies;
  for (const std::int32_t size : {10, 30, 50, 70, 90}) {
    const OccupancyGrid initial =
        load_random(size, size, {0.55, static_cast<std::uint64_t>(size)});
    const std::int32_t target = size * 3 / 5 / 2 * 2;
    latencies.push_back(
        QrmAccelerator(config_for(size, target, PlanMode::Balanced)).run(initial).latency_us);
  }
  for (std::size_t i = 1; i < latencies.size(); ++i)
    EXPECT_GT(latencies[i], latencies[i - 1]) << "latency must grow with array size";
  // 9x the array width should cost well under 9x the latency (pipelining).
  EXPECT_LT(latencies.back() / latencies.front(), 6.0);
}

TEST(Accelerator, QuadrantPathwayAblation) {
  // Fewer pathways serialize the quadrants: 1-path must be slower than
  // 2-path, which must be slower than the 4-path design.
  const OccupancyGrid initial = load_random(40, 40, {0.55, 9});
  double previous = 0.0;
  for (const std::uint32_t pathways : {4u, 2u, 1u}) {
    AcceleratorConfig config = config_for(40, 24, PlanMode::Balanced);
    config.quadrant_pathways = pathways;
    const AccelResult result = QrmAccelerator(config).run(initial);
    EXPECT_GT(result.latency_us, previous) << pathways << " pathways";
    previous = result.latency_us;
    // Semantics never change with the pathway count.
    EXPECT_TRUE(result.plan.stats.target_filled);
  }
}

TEST(Accelerator, PacketWidthChangesLoadCycles) {
  // Narrow beats only hurt once the bus, not the 1-row-per-cycle LDM
  // emission, is the bottleneck: 90*90 bits / 64 > 90 rows.
  const OccupancyGrid initial = load_random(90, 90, {0.55, 4});
  AcceleratorConfig narrow = config_for(90, 54, PlanMode::Balanced);
  narrow.packet_bits = 64;
  AcceleratorConfig wide = config_for(90, 54, PlanMode::Balanced);
  wide.packet_bits = 1024;
  const auto narrow_result = QrmAccelerator(narrow).run(initial);
  const auto wide_result = QrmAccelerator(wide).run(initial);
  EXPECT_GT(narrow_result.cycles.load, wide_result.cycles.load)
      << "wider packets must reduce load-phase cycles";
  EXPECT_EQ(narrow_result.plan.final_grid, wide_result.plan.final_grid);
}

TEST(Accelerator, CycleReportBreakdownSumsToTotal) {
  const OccupancyGrid initial = load_random(30, 30, {0.5, 21});
  const AccelResult result = QrmAccelerator(config_for(30, 18, PlanMode::Balanced)).run(initial);
  const CycleReport& r = result.cycles;
  EXPECT_EQ(r.total(), r.control + r.load + r.balance + r.pass_total() + r.dma_out);
  EXPECT_GT(r.load, 0u);
  EXPECT_GT(r.pass_total(), 0u);
  EXPECT_GT(r.dma_out, 0u);
  EXPECT_FALSE(r.to_string().empty());
  EXPECT_NE(r.to_string().find("total"), std::string::npos);
}

TEST(Accelerator, DeterministicCycleCounts) {
  const OccupancyGrid initial = load_random(30, 30, {0.5, 8});
  const AcceleratorConfig config = config_for(30, 18, PlanMode::Balanced);
  const auto a = QrmAccelerator(config).run(initial);
  const auto b = QrmAccelerator(config).run(initial);
  EXPECT_EQ(a.cycles.total(), b.cycles.total());
  EXPECT_EQ(a.movement_records, b.movement_records);
}

TEST(Accelerator, RejectsBadPathwayCount) {
  AcceleratorConfig config = config_for(20, 12, PlanMode::Balanced);
  config.quadrant_pathways = 3;
  EXPECT_THROW(QrmAccelerator{config}, PreconditionError);
}

TEST(Accelerator, LatencyIndependentOfTargetSizeClaim) {
  // Paper Sec. V-B: "the latency of our design is not directly dependent on
  // the target area... it correlates solely with the initial size of the
  // array". Compact-mode pass structure is identical across target sizes;
  // verify latencies are close (within the OCM drain variation).
  const OccupancyGrid initial = load_random(40, 40, {0.6, 13});
  std::vector<double> latencies;
  for (const std::int32_t target : {12, 10, 20, 24}) {
    AcceleratorConfig config = config_for(40, target, PlanMode::Compact);
    latencies.push_back(QrmAccelerator(config).run(initial).latency_us);
  }
  const double lo = *std::min_element(latencies.begin(), latencies.end());
  const double hi = *std::max_element(latencies.begin(), latencies.end());
  EXPECT_LT(hi / lo, 1.5) << "compact-mode latency should be nearly target-independent";
}

// Sweep: hw/sw equivalence across sizes, fills, and modes.
using HwSweepParam = std::tuple<std::int32_t, double, int>;
class HwEquivalenceSweep : public ::testing::TestWithParam<HwSweepParam> {};

TEST_P(HwEquivalenceSweep, HardwareAndSoftwareAgree) {
  const auto [size, fill, mode_int] = GetParam();
  const PlanMode mode = mode_int == 0 ? PlanMode::Balanced : PlanMode::Compact;
  const OccupancyGrid initial =
      load_random(size, size, {fill, static_cast<std::uint64_t>(size * 7)});
  const std::int32_t target = size * 3 / 5 / 2 * 2;
  if (target < 2) GTEST_SKIP();
  const AcceleratorConfig config = config_for(size, target, mode);
  const AccelResult hw_result = QrmAccelerator(config).run(initial);
  const PlanResult sw_result = QrmPlanner(config.plan).plan(initial);
  EXPECT_EQ(hw_result.plan.final_grid, sw_result.final_grid);
  EXPECT_EQ(hw_result.plan.schedule, sw_result.schedule);
}

INSTANTIATE_TEST_SUITE_P(SizesFillsModes, HwEquivalenceSweep,
                         ::testing::Combine(::testing::Values<std::int32_t>(8, 14, 20, 30),
                                            ::testing::Values(0.45, 0.6),
                                            ::testing::Values(0, 1)));

}  // namespace
}  // namespace qrm::hw
