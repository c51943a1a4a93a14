#include "detection/image.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace qrm {

FluorescenceImage::FluorescenceImage(std::int32_t height_px, std::int32_t width_px)
    : height_px_(height_px), width_px_(width_px) {
  QRM_EXPECTS(height_px >= 0 && width_px >= 0);
  pixels_.assign(static_cast<std::size_t>(height_px) * static_cast<std::size_t>(width_px), 0.0);
}

double FluorescenceImage::at(std::int32_t row, std::int32_t col) const {
  QRM_EXPECTS(row >= 0 && row < height_px_ && col >= 0 && col < width_px_);
  return pixels_[static_cast<std::size_t>(row) * static_cast<std::size_t>(width_px_) +
                 static_cast<std::size_t>(col)];
}

std::span<double> FluorescenceImage::row(std::int32_t row) {
  QRM_EXPECTS(row >= 0 && row < height_px_);
  return std::span<double>(pixels_).subspan(
      static_cast<std::size_t>(row) * static_cast<std::size_t>(width_px_),
      static_cast<std::size_t>(width_px_));
}

double FluorescenceImage::integrate(std::int32_t r0, std::int32_t c0, std::int32_t h,
                                    std::int32_t w) const {
  const std::int32_t r1 = std::min(height_px_, r0 + h);
  const std::int32_t c1 = std::min(width_px_, c0 + w);
  double sum = 0.0;
  for (std::int32_t r = std::max(0, r0); r < r1; ++r)
    for (std::int32_t c = std::max(0, c0); c < c1; ++c) sum += at(r, c);
  return sum;
}

double FluorescenceImage::total_photons() const noexcept {
  double sum = 0.0;
  for (const double p : pixels_) sum += p;
  return sum;
}

double FluorescenceImage::max_pixel() const noexcept {
  double best = 0.0;
  for (const double p : pixels_) best = std::max(best, p);
  return best;
}

FluorescenceImage render_image(const OccupancyGrid& atoms, const ImagingConfig& config) {
  QRM_EXPECTS(config.pixels_per_site > 0);
  QRM_EXPECTS(config.psf_sigma_px > 0.0);
  const std::int32_t pps = config.pixels_per_site;
  FluorescenceImage image(atoms.height() * pps, atoms.width() * pps);
  Rng rng(config.seed);

  // Background shot noise on every pixel, row-major, as one run of draws.
  rng.poisson_fill(PoissonRate(config.background_photons), image.pixels());

  // Per-atom Gaussian PSF, truncated at 3 sigma, normalized so the expected
  // total signal is photons_per_atom; each pixel's deposit is Poissonian.
  // Every site centre sits half a site into its cell, so a tap's rate
  // depends only on its offset (dr, dc) from the centre pixel. The distances
  // below, taken for site (0, 0), are exact multiples of 1/2 and so equal
  // for every site: the (2r+1)^2 rates are computed once per frame. No tap
  // beyond the frame can land, which bounds the radius of a very wide PSF.
  const double sigma = config.psf_sigma_px;
  const double reach = std::max(image.height(), image.width());
  const auto radius = static_cast<std::int32_t>(std::min(std::ceil(3.0 * sigma), reach));
  const std::int32_t side = 2 * radius + 1;
  const double norm = 1.0 / (2.0 * 3.14159265358979323846 * sigma * sigma);
  const double centre = 0.5 * pps;
  const std::int32_t centre_px = pps / 2;
  std::vector<PoissonRate> taps;
  for (std::int32_t dr = -radius; dr <= radius; ++dr) {
    for (std::int32_t dc = -radius; dc <= radius; ++dc) {
      const double dy = (static_cast<double>(centre_px + dr) + 0.5) - centre;
      const double dx = (static_cast<double>(centre_px + dc) + 0.5) - centre;
      const double weight = norm * std::exp(-(dx * dx + dy * dy) / (2.0 * sigma * sigma));
      taps.emplace_back(config.photons_per_atom * weight);
    }
  }

  // Taps are drawn row by row in (dr, dc) order; those off the frame draw
  // nothing, so each atom's window is clipped to the frame.
  for (const Coord& site : atoms.atom_positions()) {
    const std::int32_t cr = site.row * pps + centre_px;
    const std::int32_t cc = site.col * pps + centre_px;
    const std::int32_t dr_hi = std::min(radius, image.height() - 1 - cr);
    const std::int32_t dc_lo = std::max(-radius, -cc);
    const std::int32_t dc_hi = std::min(radius, image.width() - 1 - cc);
    for (std::int32_t dr = std::max(-radius, -cr); dr <= dr_hi; ++dr) {
      const std::span<double> pixels = image.row(cr + dr);
      const std::span<const PoissonRate> row_taps(taps.data() + (dr + radius) * side, side);
      for (std::int32_t dc = dc_lo; dc <= dc_hi; ++dc)
        pixels[cc + dc] += rng.poisson(row_taps[radius + dc]);
    }
  }
  return image;
}

}  // namespace qrm
