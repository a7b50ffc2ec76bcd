// Required-field accessors over json_min values — the restore() side of
// the snapshot layer.
//
// Every snapshot consumer wants the same thing: "this object MUST carry
// this field with this type, or the snapshot is corrupt". The json_min
// accessors already throw on type mismatches; these helpers add the
// missing-field case and the two conversions every snapshot uses
// (counters as exact-in-a-double integers, sample vectors as number
// arrays), so restore() bodies read declaratively.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json_min.h"

namespace ivc::json {

inline const value& field(const value& v, const char* key) {
  const value* f = v.find(key);
  if (f == nullptr) {
    throw std::invalid_argument{std::string{"json: missing field '"} + key +
                                "'"};
  }
  return *f;
}

inline double num(const value& v, const char* key) {
  return field(v, key).number();
}

inline bool flag(const value& v, const char* key) {
  return field(v, key).boolean();
}

inline const std::string& str(const value& v, const char* key) {
  return field(v, key).string();
}

inline const array& arr(const value& v, const char* key) {
  return field(v, key).items();
}

// Counters ride in doubles; exact up to 2^53 — far beyond any counter
// this codebase can reach. A corrupt image can carry any double, and
// casting NaN, a negative or an out-of-range value is undefined, so
// anything that is not a non-negative integer below 2^64 is rejected.
inline std::uint64_t to_u64(const value& v) {
  const double d = v.number();
  if (!(d >= 0.0 && d < 18446744073709551616.0 && d == std::floor(d))) {
    throw std::invalid_argument{"json: not an unsigned integer"};
  }
  return static_cast<std::uint64_t>(d);
}

inline std::uint64_t u64(const value& v, const char* key) {
  return to_u64(field(v, key));
}

inline value from_samples(const std::vector<double>& samples) {
  array a;
  a.reserve(samples.size());
  for (const double s : samples) {
    a.emplace_back(s);
  }
  return value{std::move(a)};
}

inline std::vector<double> to_samples(const value& v) {
  const array& items = v.items();
  std::vector<double> out;
  out.reserve(items.size());
  for (const value& s : items) {
    out.push_back(s.number());
  }
  return out;
}

}  // namespace ivc::json
