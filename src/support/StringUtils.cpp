//===- support/StringUtils.cpp --------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <cctype>
#include <climits>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

using namespace kperf;

uint64_t kperf::fnv1a64(const std::string &Text) {
  uint64_t Hash = 14695981039346656037ull;
  for (char C : Text) {
    Hash ^= static_cast<unsigned char>(C);
    Hash *= 1099511628211ull;
  }
  return Hash;
}

std::string kperf::format(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Copy;
  va_copy(Copy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  std::string Result(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, Args);
  va_end(Args);
  return Result;
}

std::vector<std::string> kperf::split(const std::string &Text, char Sep) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  for (size_t I = 0; I <= Text.size(); ++I) {
    if (I == Text.size() || Text[I] == Sep) {
      Parts.push_back(Text.substr(Start, I - Start));
      Start = I + 1;
    }
  }
  return Parts;
}

std::string kperf::join(const std::vector<std::string> &Parts,
                        const std::string &Sep) {
  std::string Result;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Result += Sep;
    Result += Parts[I];
  }
  return Result;
}

bool kperf::startsWith(const std::string &Text, const std::string &Prefix) {
  return Text.size() >= Prefix.size() &&
         Text.compare(0, Prefix.size(), Prefix) == 0;
}

std::string kperf::trim(const std::string &Text) {
  size_t Begin = 0;
  size_t End = Text.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(Text[Begin])))
    ++Begin;
  while (End > Begin &&
         std::isspace(static_cast<unsigned char>(Text[End - 1])))
    --End;
  return Text.substr(Begin, End - Begin);
}

std::string kperf::padLeft(const std::string &Text, size_t Width) {
  if (Text.size() >= Width)
    return Text;
  return std::string(Width - Text.size(), ' ') + Text;
}

std::string kperf::padRight(const std::string &Text, size_t Width) {
  if (Text.size() >= Width)
    return Text;
  return Text + std::string(Width - Text.size(), ' ');
}

bool kperf::parseUnsigned(const std::string &Text, unsigned &Out) {
  if (Text.empty())
    return false;
  uint64_t Value = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    Value = Value * 10 + static_cast<uint64_t>(C - '0');
    if (Value > UINT_MAX)
      return false;
  }
  Out = static_cast<unsigned>(Value);
  return true;
}

bool kperf::parseNonNegative(const std::string &Text, double &Out) {
  // strtod skips leading space and reads "inf"/"nan"; neither is a value.
  if (Text.empty() || std::isspace(static_cast<unsigned char>(Text[0])))
    return false;
  char *End = nullptr;
  double Value = std::strtod(Text.c_str(), &End);
  if (End != Text.c_str() + Text.size() || !std::isfinite(Value) ||
      Value < 0)
    return false;
  Out = Value;
  return true;
}
