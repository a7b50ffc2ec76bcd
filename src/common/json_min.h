// Minimal JSON reader/writer.
//
// Just enough of RFC 8259 for every JSON document this codebase writes
// and reads back — session snapshots, result tables, the bench
// json_report and the sim/runlog JSONL lines all go through write() —
// without an external dependency: null/bool/number/string/array/object,
// string escapes including \uXXXX, full-precision numbers via strtod.
// Object members keep insertion order (our writers are deterministic,
// so round-trip comparisons stay simple).
//
// write() is the inverse: numbers serialize at max_digits10 precision
// ("%.17g"), so every finite double — denormals, negative zero, the
// extremes of the exponent range — parses back bit-identical. That
// exactness is load-bearing: the serving layer's session snapshots
// carry detector stream positions and histogram sums through this
// round trip, and evict/rehydrate promises bit-identical verdict
// streams afterwards.
//
// to_binary()/from_binary() are a compact tag-length-value encoding of
// the same value tree for the in-memory evicted-session store: doubles
// are memcpy'd (trivially bit-exact), and all-number arrays pack as
// raw 8-byte doubles with a run-length-coded variant for the
// silence-dominated audio residue a snapshot tends to hold. The
// encoding is a same-process format — it makes no cross-endianness
// promise the way the JSON text form does.
#pragma once

#include <cmath>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace ivc::json {

class value;
using array = std::vector<value>;
using object = std::vector<std::pair<std::string, value>>;

class value {
 public:
  value() : data_{nullptr} {}
  explicit value(std::nullptr_t) : data_{nullptr} {}
  explicit value(bool b) : data_{b} {}
  explicit value(double n) : data_{n} {}
  explicit value(std::string s) : data_{std::move(s)} {}
  explicit value(array a) : data_{std::move(a)} {}
  explicit value(object o) : data_{std::move(o)} {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_number() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_array() const { return std::holds_alternative<array>(data_); }
  bool is_object() const { return std::holds_alternative<object>(data_); }

  // Typed accessors; throw std::invalid_argument on type mismatch.
  bool boolean() const;
  double number() const;
  const std::string& string() const;
  const array& items() const;
  const object& members() const;

  // Object member lookup (first match); nullptr when absent or when
  // this value is not an object.
  const value* find(const std::string& key) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, array, object> data_;
};

// Parses one JSON document (surrounding whitespace allowed); throws
// std::invalid_argument with a position on malformed input.
value parse(const std::string& text);

// Serializes a value as one compact JSON document (no added
// whitespace). Doubles print at max_digits10 ("%.17g"): parse(write(v))
// reproduces every finite double bit-exactly, including denormals and
// negative zero. Integral values inside the 2^53 window print without
// an exponent, so counters stay greppable. Non-finite numbers have no
// JSON form and throw std::invalid_argument.
std::string write(const value& v);

// Reports whose metrics may be NaN or infinite (a rate over zero
// trials, the level of silence in dB) carry a non-finite number as
// null; their readers take null back as NaN.
inline value number_or_null(double v) {
  return std::isfinite(v) ? value{v} : value{};
}

// Compact binary form of the same tree (see header comment). Bit-exact
// for every double including NaN/Inf payloads; same-process only.
std::string to_binary(const value& v);

// Decodes to_binary() output; throws std::invalid_argument on a
// malformed or truncated buffer.
value from_binary(const std::string& bytes);

}  // namespace ivc::json
