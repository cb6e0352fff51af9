//===- apps/Kernels.cpp ----------------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "apps/Kernels.h"

using namespace kperf;

const char *apps::gaussianSource() {
  return R"(
kernel void gaussian(global const float* in, global float* out,
                     int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  int xm = clamp(x - 1, 0, w - 1);
  int xp = clamp(x + 1, 0, w - 1);
  int ym = clamp(y - 1, 0, h - 1);
  int yp = clamp(y + 1, 0, h - 1);
  float acc = 0.0625 * in[ym * w + xm] + 0.125  * in[ym * w + x]
            + 0.0625 * in[ym * w + xp] + 0.125  * in[y  * w + xm]
            + 0.25   * in[y  * w + x ] + 0.125  * in[y  * w + xp]
            + 0.0625 * in[yp * w + xm] + 0.125  * in[yp * w + x]
            + 0.0625 * in[yp * w + xp];
  out[y * w + x] = acc;
}
)";
}

const char *apps::inversionSource() {
  return R"(
kernel void inversion(global const float* in, global float* out,
                      int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  out[y * w + x] = 1.0 - in[y * w + x];
}
)";
}

const char *apps::medianSource() {
  return R"(
kernel void median(global const float* in, global float* out,
                   int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  float p[9];
  for (int ky = 0; ky < 3; ky++) {
    for (int kx = 0; kx < 3; kx++) {
      p[ky * 3 + kx] = in[clamp(y + ky - 1, 0, h - 1) * w
                          + clamp(x + kx - 1, 0, w - 1)];
    }
  }
  // Column-sort selection network (median-of-medians style): sort each
  // column of the 3x3 window, then combine extrema and medians.
  for (int c = 0; c < 3; c++) {
    float a = p[c];
    float b = p[c + 3];
    float d = p[c + 6];
    float lo = min(min(a, b), d);
    float hi = max(max(a, b), d);
    p[c] = lo;
    p[c + 3] = a + b + d - lo - hi;
    p[c + 6] = hi;
  }
  float maxOfMins = max(max(p[0], p[1]), p[2]);
  float medOfMeds = p[3] + p[4] + p[5]
                  - min(min(p[3], p[4]), p[5])
                  - max(max(p[3], p[4]), p[5]);
  float minOfMaxs = min(min(p[6], p[7]), p[8]);
  float lo2 = min(min(maxOfMins, medOfMeds), minOfMaxs);
  float hi2 = max(max(maxOfMins, medOfMeds), minOfMaxs);
  out[y * w + x] = maxOfMins + medOfMeds + minOfMaxs - lo2 - hi2;
}
)";
}

const char *apps::hotspotSource() {
  return R"(
kernel void hotspot(global const float* power, global const float* temp,
                    global float* out, int w, int h,
                    float cap, float rx, float ry, float rz,
                    float amb) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  float t  = temp[y * w + x];
  float tn = temp[clamp(y - 1, 0, h - 1) * w + x];
  float ts = temp[clamp(y + 1, 0, h - 1) * w + x];
  float tw = temp[y * w + clamp(x - 1, 0, w - 1)];
  float te = temp[y * w + clamp(x + 1, 0, w - 1)];
  float delta = cap * (power[y * w + x]
                       + (tn + ts - 2.0 * t) / ry
                       + (te + tw - 2.0 * t) / rx
                       + (amb - t) / rz);
  out[y * w + x] = t + delta;
}
)";
}

const char *apps::sobel3Source() {
  return R"(
kernel void sobel3(global const float* in, global float* out,
                   int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  int xm = clamp(x - 1, 0, w - 1);
  int xp = clamp(x + 1, 0, w - 1);
  int ym = clamp(y - 1, 0, h - 1);
  int yp = clamp(y + 1, 0, h - 1);
  float a = in[ym * w + xm];
  float b = in[ym * w + x];
  float c = in[ym * w + xp];
  float d = in[y  * w + xm];
  float e = in[y  * w + xp];
  float f = in[yp * w + xm];
  float g = in[yp * w + x];
  float i = in[yp * w + xp];
  float sx = (c + 2.0 * e + i) - (a + 2.0 * d + f);
  float sy = (f + 2.0 * g + i) - (a + 2.0 * b + c);
  out[y * w + x] = sqrt(sx * sx + sy * sy) / 6.0;
}
)";
}

const char *apps::meanSource() {
  return R"(
kernel void mean(global const float* in, global float* out,
                 int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  float acc = 0.0;
  for (int ky = 0; ky < 3; ky++) {
    for (int kx = 0; kx < 3; kx++) {
      acc += in[clamp(y + ky - 1, 0, h - 1) * w
                + clamp(x + kx - 1, 0, w - 1)];
    }
  }
  out[y * w + x] = acc / 9.0;
}
)";
}

const char *apps::sharpenSource() {
  return R"(
kernel void sharpen(global const float* in, global float* out,
                    int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  int xm = clamp(x - 1, 0, w - 1);
  int xp = clamp(x + 1, 0, w - 1);
  int ym = clamp(y - 1, 0, h - 1);
  int yp = clamp(y + 1, 0, h - 1);
  float acc = 5.0 * in[y * w + x]
            - in[ym * w + x] - in[yp * w + x]
            - in[y * w + xm] - in[y * w + xp];
  out[y * w + x] = clamp(acc, 0.0, 1.0);
}
)";
}

const char *apps::convSepRowSource() {
  return R"(
kernel void convsep_row(global const float* in, global float* out,
                        int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  float acc = 0.0625 * in[y * w + clamp(x - 2, 0, w - 1)]
            + 0.25   * in[y * w + clamp(x - 1, 0, w - 1)]
            + 0.375  * in[y * w + x]
            + 0.25   * in[y * w + clamp(x + 1, 0, w - 1)]
            + 0.0625 * in[y * w + clamp(x + 2, 0, w - 1)];
  out[y * w + x] = acc;
}
)";
}

const char *apps::convSepColSource() {
  return R"(
kernel void convsep_col(global const float* in, global float* out,
                        int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  float acc = 0.0625 * in[clamp(y - 2, 0, h - 1) * w + x]
            + 0.25   * in[clamp(y - 1, 0, h - 1) * w + x]
            + 0.375  * in[y * w + x]
            + 0.25   * in[clamp(y + 1, 0, h - 1) * w + x]
            + 0.0625 * in[clamp(y + 2, 0, h - 1) * w + x];
  out[y * w + x] = acc;
}
)";
}

const char *apps::sobel5Source() {
  return R"(
kernel void sobel5(global const float* in, global float* out,
                   int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  float deriv[5];
  float smooth[5];
  deriv[0] = -1.0; deriv[1] = -2.0; deriv[2] = 0.0;
  deriv[3] = 2.0;  deriv[4] = 1.0;
  smooth[0] = 1.0; smooth[1] = 4.0; smooth[2] = 6.0;
  smooth[3] = 4.0; smooth[4] = 1.0;
  float sx = 0.0;
  float sy = 0.0;
  for (int ky = 0; ky < 5; ky++) {
    for (int kx = 0; kx < 5; kx++) {
      float v = in[clamp(y + ky - 2, 0, h - 1) * w
                   + clamp(x + kx - 2, 0, w - 1)];
      sx += v * deriv[kx] * smooth[ky];
      sy += v * smooth[kx] * deriv[ky];
    }
  }
  out[y * w + x] = sqrt(sx * sx + sy * sy) / 96.0;
}
)";
}

std::vector<apps::ImageKernel> apps::standardImageKernels() {
  return {{"gaussian", gaussianSource()},
          {"inversion", inversionSource()},
          {"median", medianSource()},
          {"sobel3", sobel3Source()},
          {"sobel5", sobel5Source()},
          {"mean", meanSource()},
          {"sharpen", sharpenSource()},
          {"convsep_row", convSepRowSource()},
          {"convsep_col", convSepColSource()}};
}
