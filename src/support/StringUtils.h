//===- support/StringUtils.h - String helpers -------------------*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string helpers shared by the frontend diagnostics, IR printer, and
/// benchmark table formatting.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_SUPPORT_STRINGUTILS_H
#define KPERF_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>
#include <vector>

namespace kperf {

/// FNV-1a 64-bit hash of \p Text. Stable across platforms and runs, so it
/// is safe to use in on-disk cache file names (unlike std::hash).
uint64_t fnv1a64(const std::string &Text);

/// printf-style formatting into a std::string.
std::string format(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Splits \p Text on \p Sep, keeping empty fields.
std::vector<std::string> split(const std::string &Text, char Sep);

/// Joins \p Parts with \p Sep.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Returns true if \p Text starts with \p Prefix.
bool startsWith(const std::string &Text, const std::string &Prefix);

/// Returns \p Text with leading and trailing whitespace removed.
std::string trim(const std::string &Text);

/// Left-pads \p Text with spaces to at least \p Width characters.
std::string padLeft(const std::string &Text, size_t Width);

/// Right-pads \p Text with spaces to at least \p Width characters.
std::string padRight(const std::string &Text, size_t Width);

/// Parses \p Text as a decimal count no larger than UINT_MAX: digits
/// only, so a sign, a space or trailing text fails. Returns false and
/// leaves \p Out alone on failure.
bool parseUnsigned(const std::string &Text, unsigned &Out);

/// Parses \p Text as a finite number >= 0 with nothing after it. Returns
/// false and leaves \p Out alone on failure.
bool parseNonNegative(const std::string &Text, double &Out);

} // namespace kperf

#endif // KPERF_SUPPORT_STRINGUTILS_H
