//===- img/Metrics.h - Output quality metrics ---------------------*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Error metrics of the paper's Table 1: mean relative error (MRE) for
/// Gaussian/Median/Hotspot/Inversion, and mean (absolute) error for the
/// Sobel applications whose outputs are frequently zero (where MRE is
/// undefined). PSNR is provided additionally.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_IMG_METRICS_H
#define KPERF_IMG_METRICS_H

#include <vector>

namespace kperf {
namespace img {

/// Mean relative error: mean over samples of min(|t - a| / |t|, Cap).
/// Samples with |t| < Eps are skipped entirely, following the paper's
/// observation that MRE is undefined near zero; the per-sample cap keeps
/// single almost-zero outputs from dominating the mean (a 100% error on
/// one pixel is already "completely wrong"). A non-finite sample error
/// (a NaN or infinite sample on either side) counts as Cap.
double meanRelativeError(const std::vector<float> &TrueValues,
                         const std::vector<float> &TestValues,
                         double Eps = 1e-2, double Cap = 1.0);

/// Mean absolute error: mean of |t - a|.
double meanError(const std::vector<float> &TrueValues,
                 const std::vector<float> &TestValues);

/// Peak signal-to-noise ratio in dB for a signal of range \p Peak.
double psnr(const std::vector<float> &TrueValues,
            const std::vector<float> &TestValues, double Peak = 1.0);

} // namespace img
} // namespace kperf

#endif // KPERF_IMG_METRICS_H
