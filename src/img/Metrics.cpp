//===- img/Metrics.cpp -----------------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "img/Metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace kperf;
using namespace kperf::img;

double img::meanRelativeError(const std::vector<float> &TrueValues,
                              const std::vector<float> &TestValues,
                              double Eps, double Cap) {
  assert(TrueValues.size() == TestValues.size() && "size mismatch");
  if (TrueValues.empty())
    return 0;
  double Sum = 0;
  size_t Counted = 0;
  for (size_t I = 0; I < TrueValues.size(); ++I) {
    double T = TrueValues[I];
    if (std::fabs(T) < Eps)
      continue;
    double Rel = std::fabs(T - TestValues[I]) / std::fabs(T);
    // std::min(NaN, Cap) is NaN, which would poison the whole mean: a
    // non-finite sample error counts as completely wrong instead.
    Sum += std::isfinite(Rel) ? std::min(Rel, Cap) : Cap;
    ++Counted;
  }
  return Counted == 0 ? 0 : Sum / static_cast<double>(Counted);
}

double img::meanError(const std::vector<float> &TrueValues,
                      const std::vector<float> &TestValues) {
  assert(TrueValues.size() == TestValues.size() && "size mismatch");
  if (TrueValues.empty())
    return 0;
  double Sum = 0;
  for (size_t I = 0; I < TrueValues.size(); ++I)
    Sum += std::fabs(static_cast<double>(TrueValues[I]) - TestValues[I]);
  return Sum / static_cast<double>(TrueValues.size());
}

double img::psnr(const std::vector<float> &TrueValues,
                 const std::vector<float> &TestValues, double Peak) {
  assert(TrueValues.size() == TestValues.size() && "size mismatch");
  if (TrueValues.empty())
    return 0;
  double Mse = 0;
  for (size_t I = 0; I < TrueValues.size(); ++I) {
    double D = static_cast<double>(TrueValues[I]) - TestValues[I];
    Mse += D * D;
  }
  Mse /= static_cast<double>(TrueValues.size());
  if (Mse == 0)
    return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(Peak * Peak / Mse);
}
