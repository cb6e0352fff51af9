//===- support/Rng.h - Deterministic random numbers -------------*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, fast, deterministic PRNG (xoshiro-style splitmix64 derivative).
/// All experiments in this repository are seeded so runs are reproducible
/// bit-for-bit across platforms; std::mt19937 distributions are not
/// guaranteed to be portable, hence this hand-rolled generator. Zipf
/// draws ranks from it for the serving tools' request mixes.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_SUPPORT_RNG_H
#define KPERF_SUPPORT_RNG_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace kperf {

/// Deterministic 64-bit PRNG with convenience helpers.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed ? Seed : 0x9e3779b97f4a7c15ULL) {}

  /// Returns the next raw 64-bit value (splitmix64 step).
  uint64_t next() {
    State += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

  /// Returns a uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Returns a uniform double in [Lo, Hi).
  double uniform(double Lo, double Hi) { return Lo + (Hi - Lo) * uniform(); }

  /// Returns a uniform integer in [0, N). \p N must be > 0.
  uint64_t below(uint64_t N) { return next() % N; }

  /// Returns an approximately normal sample (mean 0, stddev 1) via the sum
  /// of uniforms (Irwin-Hall with 12 terms); adequate for image noise.
  double gaussian() {
    double Sum = 0;
    for (int I = 0; I < 12; ++I)
      Sum += uniform();
    return Sum - 6.0;
  }

private:
  uint64_t State;
};

/// Zipf(1) sampler over \p N ranks: weight of rank R is 1/(R+1).
struct Zipf {
  std::vector<double> Cdf;
  explicit Zipf(size_t N) {
    double Total = 0;
    for (size_t I = 0; I < N; ++I)
      Total += 1.0 / static_cast<double>(I + 1);
    double Acc = 0;
    for (size_t I = 0; I < N; ++I) {
      Acc += 1.0 / static_cast<double>(I + 1) / Total;
      Cdf.push_back(Acc);
    }
  }
  size_t sample(Rng &R) const {
    double U = R.uniform();
    for (size_t I = 0; I < Cdf.size(); ++I)
      if (U < Cdf[I])
        return I;
    return Cdf.size() - 1;
  }
};

} // namespace kperf

#endif // KPERF_SUPPORT_RNG_H
