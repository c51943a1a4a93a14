#include "exec/policy.hpp"

#include "util/rng.hpp"

namespace qrm::exec {

std::uint64_t shot_seed(std::uint64_t master_seed, std::uint64_t shot) noexcept {
  return derive_seed(master_seed, shot);
}

std::uint64_t imaging_seed(std::uint64_t shot_seed) noexcept {
  return derive_seed(shot_seed, kImagingStream);
}

std::uint64_t loss_master_seed(std::uint64_t loss_seed) noexcept {
  return derive_seed(loss_seed, kLossDomain);
}

}  // namespace qrm::exec
