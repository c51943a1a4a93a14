#pragma once
/// \file image.hpp
/// Synthetic fluorescence-image substrate.
///
/// The real system images the trap array with a CMOS camera: each trapped
/// atom scatters photons that land on the sensor through a point-spread
/// function, on top of background counts. The paper replaces camera frames
/// with random occupancy matrices for its evaluation; we additionally
/// provide this renderer so the full Fig. 1 workflow (image -> detection ->
/// rearrangement) is executable and testable end to end.

#include <cstdint>
#include <span>
#include <vector>

#include "lattice/grid.hpp"

namespace qrm {

/// Camera / optics model parameters.
struct ImagingConfig {
  std::int32_t pixels_per_site = 5;   ///< sensor pixels per lattice period
  double psf_sigma_px = 1.1;          ///< Gaussian PSF width, in pixels
  double photons_per_atom = 200.0;    ///< expected signal photons per atom
  double background_photons = 4.0;    ///< expected background per pixel
  std::uint64_t seed = 0xCA3E5A;      ///< shot-noise RNG seed
};

/// A monochrome photon-count image.
class FluorescenceImage {
 public:
  FluorescenceImage() = default;
  FluorescenceImage(std::int32_t height_px, std::int32_t width_px);

  [[nodiscard]] std::int32_t height() const noexcept { return height_px_; }
  [[nodiscard]] std::int32_t width() const noexcept { return width_px_; }

  [[nodiscard]] double at(std::int32_t row, std::int32_t col) const;
  /// The pixels of one row, writable.
  [[nodiscard]] std::span<double> row(std::int32_t row);
  /// Every pixel, row-major, writable.
  [[nodiscard]] std::span<double> pixels() noexcept { return pixels_; }

  /// Sum of a pixel rectangle [r0, r0+h) x [c0, c0+w) (clipped to bounds).
  [[nodiscard]] double integrate(std::int32_t r0, std::int32_t c0, std::int32_t h,
                                 std::int32_t w) const;

  [[nodiscard]] double total_photons() const noexcept;
  [[nodiscard]] double max_pixel() const noexcept;

 private:
  std::int32_t height_px_ = 0;
  std::int32_t width_px_ = 0;
  std::vector<double> pixels_;
};

/// Render `atoms` into a camera frame: per-atom Gaussian PSF photon
/// deposition plus uniform background, both with Poisson shot noise.
/// Throws PreconditionError if a background or PSF-tap photon rate is not a
/// valid PoissonRate (NaN, negative, or above PoissonRate::kMax).
[[nodiscard]] FluorescenceImage render_image(const OccupancyGrid& atoms,
                                             const ImagingConfig& config);

}  // namespace qrm
