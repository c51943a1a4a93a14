#include "resources/model.hpp"

#include "util/assert.hpp"

namespace qrm::res {

DeviceSpec zcu216() { return {"ZCU216 (XCZU49DR)", 425'280, 850'560, 1080}; }

Utilization estimate_shift_kernel(std::int32_t quadrant_width) {
  QRM_EXPECTS(quadrant_width > 0);
  const auto qw = static_cast<std::uint64_t>(quadrant_width);
  Utilization u;
  // Row shift register + column buffer + shift-command buffer + line tags,
  // all Q_w wide, plus per-bit scan logic and the admission handshake.
  u.ffs = qw * 120 + 512;
  u.luts = qw * 45 + 384;
  // One input row queue and one command queue per kernel.
  u.bram36 = 2;
  return u;
}

Utilization estimate_ldm(std::int32_t array_width, std::uint32_t packet_bits) {
  QRM_EXPECTS(array_width > 0);
  const auto w = static_cast<std::uint64_t>(array_width);
  Utilization u;
  // Beat deserializer (packet_bits wide), row assembly register (W bits),
  // four Load Vector mirror networks (mux trees scale with W).
  u.ffs = w * 30 + packet_bits / 2 + 256;
  u.luts = w * 21 + packet_bits / 4 + 192;
  // Double-buffered packet staging.
  u.bram36 = 2;
  return u;
}

Utilization estimate_ocm(std::int32_t array_width, std::uint32_t record_bits) {
  QRM_EXPECTS(array_width > 0);
  const auto w = static_cast<std::uint64_t>(array_width);
  Utilization u;
  // Movement recording (origin/direction/steps per line in flight), the
  // four-way Row Combination merge network and the output serializer. The
  // paper notes this integration logic costs about as much as the four QPMs
  // together; the coefficients reflect that.
  u.ffs = w * 240 + record_bits * 8;
  u.luts = w * 92 + record_bits * 4;
  // Four command FIFOs plus the large output FIFO.
  u.bram36 = 6;
  return u;
}

Utilization estimate_infrastructure(std::uint32_t packet_bits) {
  Utilization u;
  // AXI-full DMA engine, PS control/status registers, interrupt logic.
  u.ffs = 3000 + packet_bits;
  u.luts = 7200 + packet_bits / 2;
  u.bram36 = 4;
  return u;
}

Utilization estimate_accelerator(std::int32_t array_width, const ResourceModelConfig& config) {
  QRM_EXPECTS_MSG(array_width > 0 && array_width % 2 == 0,
                  "resource model expects an even array width");
  Utilization total;
  const std::int32_t qw = array_width / 2;
  for (std::uint32_t k = 0; k < config.quadrant_pathways; ++k) {
    total += estimate_shift_kernel(qw);
  }
  total += estimate_ldm(array_width, config.packet_bits);
  total += estimate_ocm(array_width, config.record_bits);
  total += estimate_infrastructure(config.packet_bits);
  return total;
}

std::vector<ModuleUsage> estimate_breakdown(std::int32_t array_width,
                                            const ResourceModelConfig& config) {
  QRM_EXPECTS(array_width > 0 && array_width % 2 == 0);
  std::vector<ModuleUsage> out;
  const std::int32_t qw = array_width / 2;
  Utilization qpm;
  for (std::uint32_t k = 0; k < config.quadrant_pathways; ++k) qpm += estimate_shift_kernel(qw);
  out.push_back({"QPM (" + std::to_string(config.quadrant_pathways) + "x shift kernel)", qpm});
  out.push_back({"LDM", estimate_ldm(array_width, config.packet_bits)});
  out.push_back({"OCM / row combination", estimate_ocm(array_width, config.record_bits)});
  out.push_back({"AXI/DMA/control", estimate_infrastructure(config.packet_bits)});
  return out;
}

bool fits(const Utilization& usage, const DeviceSpec& device, double margin) {
  QRM_EXPECTS(margin >= 0.0 && margin < 1.0);
  const double budget = 1.0 - margin;
  return usage.lut_fraction(device) <= budget && usage.ff_fraction(device) <= budget &&
         usage.bram_fraction(device) <= budget;
}

}  // namespace qrm::res
