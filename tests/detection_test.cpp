// Tests for the synthetic imaging + detection substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/assert.hpp"
#include "detection/calibration.hpp"
#include "detection/detector.hpp"
#include "detection/image.hpp"
#include "loading/loader.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace qrm {
namespace {

TEST(Image, GeometryAndAccumulation) {
  FluorescenceImage img(10, 12);
  EXPECT_EQ(img.height(), 10);
  EXPECT_EQ(img.width(), 12);
  EXPECT_DOUBLE_EQ(img.total_photons(), 0.0);
  img.row(3)[4] += 7.5;
  img.row(3)[4] += 2.5;
  EXPECT_DOUBLE_EQ(img.at(3, 4), 10.0);
  EXPECT_DOUBLE_EQ(img.total_photons(), 10.0);
  EXPECT_DOUBLE_EQ(img.max_pixel(), 10.0);
  EXPECT_THROW((void)img.at(10, 0), PreconditionError);
  EXPECT_THROW((void)img.row(10), PreconditionError);
}

TEST(Image, IntegrateClipsToBounds) {
  FluorescenceImage img(4, 4);
  img.row(0)[0] += 1.0;
  img.row(3)[3] += 2.0;
  EXPECT_DOUBLE_EQ(img.integrate(0, 0, 4, 4), 3.0);
  EXPECT_DOUBLE_EQ(img.integrate(2, 2, 10, 10), 2.0);
  EXPECT_DOUBLE_EQ(img.integrate(-2, -2, 3, 3), 1.0);
}

TEST(Image, RenderDepositsSignalOnAtoms) {
  OccupancyGrid atoms(6, 6);
  atoms.set({2, 3});
  ImagingConfig config;
  config.background_photons = 0.0;
  config.seed = 1;
  const FluorescenceImage img = render_image(atoms, config);
  EXPECT_EQ(img.height(), 30);
  EXPECT_EQ(img.width(), 30);
  // Expected total signal ~ photons_per_atom (PSF mostly inside the image).
  EXPECT_NEAR(img.total_photons(), config.photons_per_atom, 60.0);
  // The brightest site block must be the atom's.
  const std::int32_t pps = config.pixels_per_site;
  double best = -1;
  Coord best_site{-1, -1};
  for (std::int32_t r = 0; r < 6; ++r) {
    for (std::int32_t c = 0; c < 6; ++c) {
      const double v = img.integrate(r * pps, c * pps, pps, pps);
      if (v > best) {
        best = v;
        best_site = {r, c};
      }
    }
  }
  EXPECT_EQ(best_site, (Coord{2, 3}));
}

TEST(Image, RenderIsDeterministicPerSeed) {
  // Every pixel's bits, pinned per frame: the render's RNG draw order and
  // rounding feed every imaged-detection fingerprint, so a reordered draw or
  // a re-associated rate must fail here first. The atoms fill all four
  // borders, so PSF windows clip at every frame edge.
  OccupancyGrid atoms = load_random(9, 11, {0.5, 3});
  for (std::int32_t r = 0; r < 9; ++r) {
    atoms.set({r, 0});
    atoms.set({r, 10});
  }
  for (std::int32_t c = 0; c < 11; ++c) {
    atoms.set({0, c});
    atoms.set({8, c});
  }
  struct Frame {
    const char* name;
    std::int32_t pixels_per_site;
    double sigma;
    double photons;
    double background;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Frame frames[] = {
      {"default optics, odd centre offset", 5, 1.1, 200.0, 4.0, 99, 0x25a4aa02cfbb8309ULL},
      {"even centre offset", 4, 1.1, 200.0, 4.0, 98, 0x7632fc10ca89b1a1ULL},
      {"radius 7 PSF, no background", 4, 2.3, 200.0, 0.0, 97, 0x45129bf89a6cac34ULL},
      {"tap rates >= 30 take the normal branch", 5, 0.6, 5000.0, 0.0, 96, 0x062752a2725efb80ULL},
      {"background >= 30 takes the normal branch", 3, 1.1, 200.0, 35.0, 95, 0xfc127f4106ec872bULL},
      {"one pixel per site, dim", 1, 0.4, 8.0, 6.0, 94, 0xb88104f4c68e916fULL},
  };
  for (const Frame& frame : frames) {
    ImagingConfig config;
    config.pixels_per_site = frame.pixels_per_site;
    config.psf_sigma_px = frame.sigma;
    config.photons_per_atom = frame.photons;
    config.background_photons = frame.background;
    config.seed = frame.seed;
    const FluorescenceImage img = render_image(atoms, config);
    std::uint64_t hash = fnv::kOffset;
    fnv::mix_u64(hash, static_cast<std::uint64_t>(img.height()));
    fnv::mix_u64(hash, static_cast<std::uint64_t>(img.width()));
    for (std::int32_t r = 0; r < img.height(); ++r)
      for (std::int32_t c = 0; c < img.width(); ++c)
        fnv::mix_u64(hash, std::bit_cast<std::uint64_t>(img.at(r, c)));
    EXPECT_EQ(hash, frame.hash) << frame.name << ": 0x" << std::hex << hash;
  }
}

/// render_image with one poisson() call per background pixel: the per-draw
/// reference for the frame's one poisson_fill run.
FluorescenceImage render_per_draw(const OccupancyGrid& atoms, const ImagingConfig& config) {
  const std::int32_t pps = config.pixels_per_site;
  FluorescenceImage image(atoms.height() * pps, atoms.width() * pps);
  Rng rng(config.seed);
  const PoissonRate background(config.background_photons);
  for (std::int32_t r = 0; r < image.height(); ++r)
    for (double& pixel : image.row(r)) pixel = rng.poisson(background);

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

TEST(Image, RenderMatchesPerDrawReference) {
  // Generated frames, every pixel's bits against the per-draw reference:
  // 45 grids with sides 1-50 (the four extreme shapes first), each at every
  // photon rate and background, with the PSF width and pixels per site
  // cycling over the grids. Zero rates draw nothing, 35 and 5000 take the
  // normal branch, and a background run that ended a uniform early or late
  // would shift every PSF tap after it.
  const std::int32_t extremes[][2] = {{1, 1}, {50, 50}, {1, 50}, {50, 1}};
  const std::array pixels_per_site = {1, 3, 4, 5};
  const std::array sigmas = {0.4, 1.1, 2.3};
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  Rng shapes(2024);
  for (std::size_t g = 0; g < 45; ++g) {
    const std::int32_t height =
        g < 4 ? extremes[g][0] : 1 + static_cast<std::int32_t>(shapes.uniform_below(50));
    const std::int32_t width =
        g < 4 ? extremes[g][1] : 1 + static_cast<std::int32_t>(shapes.uniform_below(50));
    const double fill = 0.1 + 0.2 * static_cast<double>(g / 4 % 4);
    const OccupancyGrid atoms = load_random(height, width, {fill, shapes.next_u64()});
    for (const double photons : {0.0, 24.0, 200.0, 5000.0}) {
      for (const double background : {0.0, 0.5, 4.0, 35.0}) {
        ImagingConfig config;
        config.pixels_per_site = pixels_per_site[g % pixels_per_site.size()];
        config.psf_sigma_px = sigmas[g % sigmas.size()];
        config.photons_per_atom = photons;
        config.background_photons = background;
        config.seed = shapes.next_u64();
        FluorescenceImage img = render_image(atoms, config);
        FluorescenceImage want = render_per_draw(atoms, config);
        ASSERT_EQ(img.height(), want.height());
        ASSERT_EQ(img.width(), want.width());
        const std::span<double> got = img.pixels();
        const auto at = std::ranges::mismatch(got, want.pixels(), same_bits).in1 - got.begin();
        ASSERT_EQ(at, std::ssize(got))
            << height << "x" << width << " grid, " << config.pixels_per_site
            << " px/site, sigma " << config.psf_sigma_px << ", photons " << photons
            << ", background " << background << ": pixel " << at << " differs";
      }
    }
  }
}

TEST(Image, RenderRejectsPhotonRatesWithoutAValidCount) {
  OccupancyGrid atoms(3, 3);
  atoms.set({1, 1});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {nan, -1.0, std::numeric_limits<double>::infinity(), 1e12}) {
    ImagingConfig config;
    config.background_photons = bad;
    EXPECT_THROW((void)render_image(atoms, config), PreconditionError) << bad;
    config = ImagingConfig{};
    config.photons_per_atom = bad;  // 1e12 puts ~1.3e11 on the centre tap
    EXPECT_THROW((void)render_image(atoms, config), PreconditionError) << bad;
  }
}

TEST(Detector, PerfectAtHighSnr) {
  const OccupancyGrid truth = load_random(16, 16, {0.5, 11});
  ImagingConfig imaging;
  imaging.photons_per_atom = 500.0;
  imaging.background_photons = 1.0;
  imaging.seed = 5;
  const FluorescenceImage img = render_image(truth, imaging);
  DetectionConfig det;
  det.pixels_per_site = imaging.pixels_per_site;
  const OccupancyGrid detected = detect_atoms(img, 16, 16, det);
  const DetectionErrors errors = compare_detection(truth, detected);
  EXPECT_EQ(errors.total(), 0) << "fp=" << errors.false_positives
                               << " fn=" << errors.false_negatives;
}

TEST(Detector, DegradesAtLowSnr) {
  const OccupancyGrid truth = load_random(16, 16, {0.5, 11});
  ImagingConfig imaging;
  imaging.photons_per_atom = 8.0;  // barely above background
  imaging.background_photons = 6.0;
  imaging.seed = 5;
  const FluorescenceImage img = render_image(truth, imaging);
  DetectionConfig det;
  det.pixels_per_site = imaging.pixels_per_site;
  const OccupancyGrid detected = detect_atoms(img, 16, 16, det);
  EXPECT_GT(compare_detection(truth, detected).total(), 0)
      << "at this SNR some sites must misclassify";
}

TEST(Detector, ManualThresholdRespected) {
  OccupancyGrid truth(4, 4);
  truth.set({1, 1});
  ImagingConfig imaging;
  imaging.background_photons = 0.0;
  const FluorescenceImage img = render_image(truth, imaging);
  DetectionConfig det;
  det.pixels_per_site = imaging.pixels_per_site;
  det.threshold_photons = 1e9;  // nothing passes
  EXPECT_EQ(detect_atoms(img, 4, 4, det).atom_count(), 0);
  det.threshold_photons = 0.0;  // everything passes
  EXPECT_EQ(detect_atoms(img, 4, 4, det).atom_count(), 16);
}

TEST(Detector, ThresholdTieCountsAsOccupied) {
  // The boundary case every call site must agree on: a site whose photon
  // integral equals the applied threshold EXACTLY is occupied (>=). This was
  // previously unspecified across detector.cpp call sites; meets_threshold
  // pins it in one place and this test pins meets_threshold.
  static_assert(meets_threshold(10.0, 10.0));
  static_assert(!meets_threshold(9.999999999999998, 10.0));
  static_assert(meets_threshold(10.000000000000002, 10.0));

  // End to end: one pixel per site, photon values hand-placed around the
  // manual threshold. Exactly-at-threshold must land occupied.
  FluorescenceImage img(2, 2);
  img.row(0)[0] += 9.999999999999998;   // one ulp below 10 -> dark
  img.row(0)[1] += 10.0;                // exact tie -> occupied
  img.row(1)[0] += 10.000000000000002;  // one ulp above -> occupied
  DetectionConfig det;
  det.pixels_per_site = 1;
  det.threshold_photons = 10.0;
  const OccupancyGrid detected = detect_atoms(img, 2, 2, det);
  EXPECT_FALSE(detected.occupied({0, 0}));
  EXPECT_TRUE(detected.occupied({0, 1}));
  EXPECT_TRUE(detected.occupied({1, 0}));
  EXPECT_FALSE(detected.occupied({1, 1}));  // 0 photons vs threshold 10
}

TEST(Detector, ThresholdBiasScalesManualAndAutoThresholds) {
  FluorescenceImage img(2, 2);
  img.row(0)[0] += 10.0;
  img.row(0)[1] += 30.0;
  DetectionConfig det;
  det.pixels_per_site = 1;
  det.threshold_photons = 10.0;
  // Unbiased: both bright pixels pass (10 ties, 30 clears).
  EXPECT_EQ(detect_atoms(img, 2, 2, det).atom_count(), 2);
  // Bias 1.5: applied threshold 15 — the tie site goes dark, 30 survives.
  det.threshold_bias = 1.5;
  const OccupancyGrid biased = detect_atoms(img, 2, 2, det);
  EXPECT_EQ(biased.atom_count(), 1);
  EXPECT_TRUE(biased.occupied({0, 1}));
  // Bias on the *auto* threshold too: crank it until even the brightest
  // site fails its own class threshold.
  det.threshold_photons = -1.0;
  det.threshold_bias = 10.0;
  EXPECT_EQ(detect_atoms(img, 2, 2, det).atom_count(), 0);
}

TEST(Detector, ThresholdBiasIdentityIsBitExact) {
  // bias=1.0 must be a no-op down to the last bit, or every existing
  // imaged-detection fingerprint would drift.
  const OccupancyGrid truth = load_random(12, 12, {0.5, 17});
  ImagingConfig imaging;
  imaging.photons_per_atom = 24.0;
  imaging.seed = 17;
  const FluorescenceImage img = render_image(truth, imaging);
  DetectionConfig det;
  det.pixels_per_site = imaging.pixels_per_site;
  const OccupancyGrid baseline = detect_atoms(img, 12, 12, det);
  det.threshold_bias = 1.0;
  EXPECT_EQ(detect_atoms(img, 12, 12, det), baseline);
}

TEST(Detector, RejectsBadThresholdBias) {
  const FluorescenceImage img(2, 2);
  DetectionConfig det;
  det.pixels_per_site = 1;
  det.threshold_bias = 0.0;
  EXPECT_THROW((void)detect_atoms(img, 2, 2, det), PreconditionError);
  det.threshold_bias = -1.0;
  EXPECT_THROW((void)detect_atoms(img, 2, 2, det), PreconditionError);
  det.threshold_bias = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)detect_atoms(img, 2, 2, det), PreconditionError);
  det.threshold_bias = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)detect_atoms(img, 2, 2, det), PreconditionError);
}

TEST(Detector, RejectsGeometryMismatch) {
  const FluorescenceImage img(10, 10);
  DetectionConfig det;
  det.pixels_per_site = 5;
  EXPECT_THROW((void)detect_atoms(img, 4, 4, det), PreconditionError);
}

TEST(Detector, CompareDetectionCountsBothKinds) {
  OccupancyGrid truth(2, 2);
  truth.set({0, 0});
  truth.set({0, 1});
  OccupancyGrid detected(2, 2);
  detected.set({0, 0});
  detected.set({1, 1});
  const DetectionErrors errors = compare_detection(truth, detected);
  EXPECT_EQ(errors.false_negatives, 1);
  EXPECT_EQ(errors.false_positives, 1);
  EXPECT_EQ(errors.total(), 2);
}

TEST(CalibrationDrift, FactorIsDeterministicPeriodicAndRngFree) {
  // The drift factor is a pure function of the shot index — same index,
  // same factor, no RNG stream consumed anywhere.
  CalibrationDrift drift;
  EXPECT_DOUBLE_EQ(drift.factor(0), 1.0);  // shape None: identity at any index
  EXPECT_DOUBLE_EQ(drift.factor(123), 1.0);

  drift.shape = DriftShape::Ramp;
  drift.amplitude = 0.4;
  drift.period = 8;
  EXPECT_DOUBLE_EQ(drift.factor(0), 1.0);        // ramp starts at nominal
  EXPECT_DOUBLE_EQ(drift.factor(4), 1.2);        // halfway up
  EXPECT_DOUBLE_EQ(drift.factor(7), 1.0 + 0.4 * 7.0 / 8.0);
  EXPECT_DOUBLE_EQ(drift.factor(8), drift.factor(0));    // periodic
  EXPECT_DOUBLE_EQ(drift.factor(8000), drift.factor(0));

  drift.shape = DriftShape::Sine;
  EXPECT_DOUBLE_EQ(drift.factor(0), 1.0);
  EXPECT_NEAR(drift.factor(2), 1.4, 1e-12);      // quarter period: peak
  EXPECT_NEAR(drift.factor(6), 0.6, 1e-12);      // three quarters: trough
  EXPECT_DOUBLE_EQ(drift.factor(8), drift.factor(0));

  // amplitude 0 and period 0 are identities, not division hazards.
  drift.amplitude = 0.0;
  EXPECT_DOUBLE_EQ(drift.factor(5), 1.0);
  drift.amplitude = 0.4;
  drift.period = 0;
  EXPECT_DOUBLE_EQ(drift.factor(5), 1.0);
}

TEST(Detector, ErrorInjectionRates) {
  const OccupancyGrid truth = load_random(60, 60, {0.5, 31});
  const OccupancyGrid noisy = inject_detection_errors(truth, 0.1, 0.05, 7);
  const DetectionErrors errors = compare_detection(truth, noisy);
  const double atoms = static_cast<double>(truth.atom_count());
  const double empties = 3600.0 - atoms;
  EXPECT_NEAR(static_cast<double>(errors.false_negatives) / atoms, 0.1, 0.04);
  EXPECT_NEAR(static_cast<double>(errors.false_positives) / empties, 0.05, 0.03);
  // Zero rates are exact.
  EXPECT_EQ(compare_detection(truth, inject_detection_errors(truth, 0, 0, 9)).total(), 0);
}

}  // namespace
}  // namespace qrm
