//===- apps/Kernels.h - PCL sources of the six benchmarks ---------*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PCL kernel sources of the paper's six applications (Table 1):
/// Gaussian 3x3, Inversion 1x1, Median 3x3 (selection network over private
/// memory, following the Blum median-of-medians idea the paper cites),
/// Hotspot (one Rodinia-style transient step), Sobel3, Sobel5. All kernels
/// are written in the plain-global-load form the perforation transform
/// consumes; the local-memory variants are *generated*, not hand-written.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_APPS_KERNELS_H
#define KPERF_APPS_KERNELS_H

#include <vector>

namespace kperf {
namespace apps {

/// Gaussian 3x3 low-pass filter; weights 1-2-1 / 2-4-2 / 1-2-1 over 16.
const char *gaussianSource();

/// Digital negative (1x1 "filter"); the no-data-reuse case of the paper.
const char *inversionSource();

/// Median 3x3 via the column-sort selection network (19 min/max ops) over
/// a private window.
const char *medianSource();

/// One explicit-Euler step of the Rodinia Hotspot thermal simulation.
const char *hotspotSource();

/// Sobel edge detector, 3x3 masks.
const char *sobel3Source();

/// Sobel edge detector, 5x5 masks (smoothing [1 4 6 4 1] x derivative
/// [-1 -2 0 2 1]).
const char *sobel5Source();

//===--- Extension applications (Paraprox benchmarks, paper 4.3) ---------===//
//
// The paper quotes Paraprox speedups for ConvolutionSeparable and Mean
// alongside Gaussian; we add them (plus Sharpen, a second center-weighted
// 3x3 filter) so the harness covers that suite too.

/// Mean 3x3 box filter (all weights 1/9).
const char *meanSource();

/// Unsharp-mask sharpen: 5*center minus the 4-neighborhood.
const char *sharpenSource();

/// Horizontal pass of the separable 5-tap Gaussian convolution
/// ([1 4 6 4 1] / 16), NVIDIA-SDK ConvolutionSeparable style.
const char *convSepRowSource();

/// Vertical pass of the separable 5-tap Gaussian convolution.
const char *convSepColSource();

/// A kernel of the standard image signature (global const float* in,
/// global float* out, int w, int h): its function name and PCL source.
struct ImageKernel {
  const char *Name;
  const char *Source;
};

/// The nine standard-signature kernels, in a fixed order: the paper's
/// image apps plus the Paraprox extensions. Hotspot's ten-argument
/// signature is not one of them.
std::vector<ImageKernel> standardImageKernels();

} // namespace apps
} // namespace kperf

#endif // KPERF_APPS_KERNELS_H
