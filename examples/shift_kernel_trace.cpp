/// \file shift_kernel_trace.cpp
/// Cycle-by-cycle walk-through of the Shift Kernel on a 10x10 array's NW
/// quadrant — the scenario of the paper's Fig. 6. Shows rows being admitted
/// one per cycle, each bit routed to the column buffer or recorded as a
/// shift command, and the resulting command buffers.
///
///   $ ./examples/shift_kernel_trace

#include <cstdio>

#include "hwmodel/ldm.hpp"
#include "hwmodel/shift_kernel.hpp"
#include "lattice/quadrant.hpp"
#include "loading/loader.hpp"

int main() {
  using namespace qrm;
  using namespace qrm::hw;

  // A 10x10 array -> each quadrant is 5x5 (the paper's Q_w = 5 example).
  const OccupancyGrid grid = load_random(10, 10, {0.5, 21});
  const QuadrantGeometry geom(10, 10);
  const OccupancyGrid nw = geom.extract_local(grid, Quadrant::NW);
  std::printf("NW quadrant in the unified local frame (bit 0 = centre-most):\n");
  for (std::int32_t r = 0; r < nw.height(); ++r) {
    std::printf("  row %d: %s\n", r, BitRow(nw.row(r)).to_string().c_str());
  }

  // Feed the quadrant's rows through one kernel, tracing every cycle.
  Fifo<RowBeat> in("in", 4);
  Fifo<CommandBeat> out("out", 16);
  std::vector<RowBeat> beats;
  for (std::int32_t r = 0; r < nw.height(); ++r) beats.push_back({r, BitRow(nw.row(r)), -1});
  RowSource source("source", std::move(beats), in);
  ShiftKernel kernel("kernel", in, out);
  kernel.enable_trace();

  class Collector final : public Module {
   public:
    explicit Collector(Fifo<CommandBeat>& f) : Module("collector"), in_(f) {}
    void eval(std::uint64_t) override {
      while (in_.can_pop()) beats_.push_back(in_.pop());
    }
    [[nodiscard]] bool busy() const override { return in_.can_pop(); }
    std::vector<CommandBeat> beats_;

   private:
    Fifo<CommandBeat>& in_;
  } collector(out);

  Simulation sim;
  sim.add_module(source);
  sim.add_module(kernel);
  sim.add_module(collector);
  sim.add_fifo(in);
  sim.add_fifo(out);
  const std::uint64_t cycles = sim.run();

  std::printf("\nPer-cycle trace (Fig. 6 walk-through):\n");
  for (const auto& line : kernel.trace()) std::printf("  %s\n", line.c_str());

  std::printf("\nShift-command buffers (bit set where the scan saw a hole):\n");
  for (const auto& beat : collector.beats_) {
    std::printf("  row %d: %s -> commands %s, %u movement records\n", beat.line,
                beat.original.to_string().c_str(), beat.commands.to_string().c_str(),
                beat.records);
  }
  std::printf("\nPass completed in %llu cycles (Q_h + Q_w pipeline: %d + %d)\n",
              static_cast<unsigned long long>(cycles), nw.height(), nw.width());
  return 0;
}
