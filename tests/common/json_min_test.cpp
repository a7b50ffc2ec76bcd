#include "common/json_min.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace ivc::json {
namespace {

// Bit-level double equality: the snapshot round trip promises the BITS
// back, which EXPECT_DOUBLE_EQ (ULP-based, and -0.0 == 0.0) is too weak
// to pin.
bool same_bits(double a, double b) {
  std::uint64_t ba, bb;
  std::memcpy(&ba, &a, 8);
  std::memcpy(&bb, &b, 8);
  return ba == bb;
}

TEST(json_min, parses_scalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse("true").boolean());
  EXPECT_FALSE(parse("false").boolean());
  EXPECT_DOUBLE_EQ(parse("-12.5e2").number(), -1250.0);
  EXPECT_EQ(parse("\"hi\"").string(), "hi");
  // Full-precision doubles survive (what write() emits, "%.17g").
  EXPECT_DOUBLE_EQ(parse("0.30000000000000004").number(),
                   0.30000000000000004);
}

TEST(json_min, parses_string_escapes) {
  EXPECT_EQ(parse("\"a\\\"b\\\\c\\nd\\te\"").string(), "a\"b\\c\nd\te");
  EXPECT_EQ(parse("\"\\u0041\\u00e9\"").string(), "A\u00e9");
  EXPECT_EQ(parse("\"\\u0007\"").string(), "\a");
}

TEST(json_min, parses_nested_structures) {
  const value v = parse(
      R"({"name": "F-R9", "seed": 91, "rows": [[1, 2], []], "meta": {"ok": true}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("name")->string(), "F-R9");
  EXPECT_DOUBLE_EQ(v.find("seed")->number(), 91.0);
  const array& rows = v.find("rows")->items();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].items()[1].number(), 2.0);
  EXPECT_TRUE(rows[1].items().empty());
  EXPECT_TRUE(v.find("meta")->find("ok")->boolean());
  EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(json_min, object_members_keep_insertion_order) {
  const value v = parse(R"({"b": 1, "a": 2})");
  ASSERT_EQ(v.members().size(), 2u);
  EXPECT_EQ(v.members()[0].first, "b");
  EXPECT_EQ(v.members()[1].first, "a");
}

TEST(json_min, rejects_malformed_documents) {
  EXPECT_THROW(parse(""), std::invalid_argument);
  EXPECT_THROW(parse("{"), std::invalid_argument);
  EXPECT_THROW(parse("{\"a\" 1}"), std::invalid_argument);
  EXPECT_THROW(parse("[1, 2,]"), std::invalid_argument);
  EXPECT_THROW(parse("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(parse("troo"), std::invalid_argument);
  EXPECT_THROW(parse("{} trailing"), std::invalid_argument);
  EXPECT_THROW(parse("\"\\u00zz\""), std::invalid_argument);
}

TEST(json_min, rejects_unterminated_strings) {
  // Every way a string can run off the end of the document: plain text,
  // a dangling escape, and a \u escape cut mid-digits. None may read
  // past the buffer or return a partial value.
  EXPECT_THROW(parse("\"runs off the end"), std::invalid_argument);
  EXPECT_THROW(parse("\"ends in escape\\"), std::invalid_argument);
  EXPECT_THROW(parse("\"\\u00"), std::invalid_argument);
  EXPECT_THROW(parse("{\"key"), std::invalid_argument);
  EXPECT_THROW(parse("[\"a\", \"b"), std::invalid_argument);
}

TEST(json_min, rejects_pathologically_deep_nesting) {
  // The recursive-descent parser caps nesting so a hostile document
  // ("[[[[...") fails cleanly instead of overflowing the stack.
  const auto nested = [](std::size_t depth) {
    std::string doc(depth, '[');
    doc += "1";
    doc.append(depth, ']');
    return doc;
  };
  const value* inner = nullptr;
  const value shallow = parse(nested(32));  // well inside the cap
  for (inner = &shallow; inner->is_array(); inner = &inner->items()[0]) {
  }
  EXPECT_DOUBLE_EQ(inner->number(), 1.0);
  EXPECT_THROW(parse(nested(100'000)), std::invalid_argument);
  // Mixed object/array nesting hits the same guard.
  std::string mixed;
  for (int i = 0; i < 50'000; ++i) {
    mixed += "{\"k\":[";
  }
  EXPECT_THROW(parse(mixed), std::invalid_argument);
}

TEST(json_min, rejects_trailing_garbage) {
  // A valid prefix does not excuse junk after it — JSONL readers rely
  // on one-document-per-parse.
  EXPECT_THROW(parse("null null"), std::invalid_argument);
  EXPECT_THROW(parse("[1, 2] [3]"), std::invalid_argument);
  EXPECT_THROW(parse("{\"a\": 1}}"), std::invalid_argument);
  EXPECT_THROW(parse("12.5garbage"), std::invalid_argument);
  EXPECT_THROW(parse("\"done\"x"), std::invalid_argument);
  // Trailing whitespace alone stays legal.
  EXPECT_TRUE(parse("  true  \n").boolean());
}

TEST(json_min, accessors_reject_type_mismatches) {
  EXPECT_THROW(parse("1").string(), std::invalid_argument);
  EXPECT_THROW(parse("\"s\"").number(), std::invalid_argument);
  EXPECT_THROW(parse("[1]").members(), std::invalid_argument);
}

// The doubles that break sloppy serializers: denormals down to the very
// smallest, negative zero, both ends of the exponent range, and values
// famous for needing all 17 digits.
const double hard_doubles[] = {
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.1,
    0.30000000000000004,
    1.0 / 3.0,
    std::numeric_limits<double>::denorm_min(),
    -std::numeric_limits<double>::denorm_min(),
    4.9406564584124654e-324,  // min denormal, spelled as text
    2.2250738585072014e-308,  // min normal
    2.2250738585072011e-308,  // largest denormal
    std::numeric_limits<double>::max(),
    -std::numeric_limits<double>::max(),
    1.7976931348623157e308,
    1e-300,
    -1e300,
    9007199254740993.0,  // 2^53 + 1 (rounds to 2^53: still round-trips)
    6.283185307179586,
    2.5e-322,
};

TEST(json_min, write_round_trips_doubles_bit_exactly) {
  for (const double d : hard_doubles) {
    const std::string text = write(value{d});
    const value back = parse(text);
    ASSERT_TRUE(back.is_number()) << text;
    EXPECT_TRUE(same_bits(back.number(), d))
        << text << " parsed to " << back.number() << " wanted " << d;
  }
  // Negative zero keeps its sign through the text form.
  EXPECT_TRUE(std::signbit(parse(write(value{-0.0})).number()));
  EXPECT_FALSE(std::signbit(parse(write(value{0.0})).number()));
}

TEST(json_min, write_round_trips_structures) {
  array samples;
  for (const double d : hard_doubles) {
    samples.emplace_back(d);
  }
  object o;
  o.emplace_back("name", value{std::string{"snap \"v1\"\n\ttab"}});
  o.emplace_back("ok", value{true});
  o.emplace_back("none", value{nullptr});
  o.emplace_back("samples", value{std::move(samples)});
  o.emplace_back("nested", value{object{{"count", value{42.0}}}});
  const value v{std::move(o)};

  const value back = parse(write(v));
  EXPECT_EQ(back.find("name")->string(), "snap \"v1\"\n\ttab");
  EXPECT_TRUE(back.find("ok")->boolean());
  EXPECT_TRUE(back.find("none")->is_null());
  const array& got = back.find("samples")->items();
  ASSERT_EQ(got.size(), std::size(hard_doubles));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(same_bits(got[i].number(), hard_doubles[i])) << i;
  }
  EXPECT_DOUBLE_EQ(back.find("nested")->find("count")->number(), 42.0);
  // write() is deterministic: same tree, same bytes.
  EXPECT_EQ(write(v), write(back));
}

TEST(json_min, write_prints_integers_without_exponent) {
  EXPECT_EQ(write(value{0.0}), "0");
  EXPECT_EQ(write(value{-0.0}), "-0");
  EXPECT_EQ(write(value{1234567.0}), "1234567");
  EXPECT_EQ(write(value{-42.0}), "-42");
}

TEST(json_min, write_rejects_non_finite_numbers) {
  EXPECT_THROW(write(value{std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
  EXPECT_THROW(write(value{std::numeric_limits<double>::quiet_NaN()}),
               std::invalid_argument);
}

TEST(json_min, binary_round_trips_everything) {
  array samples;
  for (const double d : hard_doubles) {
    samples.emplace_back(d);
  }
  // A silence-heavy array takes the run-length path; make sure it comes
  // back element-exact (including the -0.0 run staying distinct from
  // the 0.0 run).
  array silence;
  for (int i = 0; i < 500; ++i) {
    silence.emplace_back(0.0);
  }
  for (int i = 0; i < 100; ++i) {
    silence.emplace_back(-0.0);
  }
  silence.emplace_back(0.25);
  object o;
  o.emplace_back("name", value{std::string{"binary \0 safe", 13}});
  o.emplace_back("flag", value{false});
  o.emplace_back("none", value{nullptr});
  o.emplace_back("hard", value{samples});
  o.emplace_back("silence", value{silence});
  o.emplace_back("mixed", value{array{value{1.0}, value{std::string{"x"}}}});
  o.emplace_back("nan", value{std::numeric_limits<double>::quiet_NaN()});
  const value v{std::move(o)};

  const std::string bytes = to_binary(v);
  const value back = from_binary(bytes);
  const array& got = back.find("hard")->items();
  ASSERT_EQ(got.size(), std::size(hard_doubles));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(same_bits(got[i].number(), hard_doubles[i])) << i;
  }
  const array& sil = back.find("silence")->items();
  ASSERT_EQ(sil.size(), 601u);
  EXPECT_FALSE(std::signbit(sil[0].number()));
  EXPECT_TRUE(std::signbit(sil[550].number()));
  EXPECT_TRUE(same_bits(sil[600].number(), 0.25));
  EXPECT_EQ(back.find("name")->string(), (std::string{"binary \0 safe", 13}));
  EXPECT_FALSE(back.find("flag")->boolean());
  EXPECT_TRUE(back.find("none")->is_null());
  EXPECT_TRUE(std::isnan(back.find("nan")->number()));
  // The run-length path earns its keep on the silence array.
  EXPECT_LT(to_binary(value{silence}).size(), 601u * 8u / 4u);
}

TEST(json_min, binary_rejects_truncated_and_malformed_buffers) {
  const std::string bytes =
      to_binary(parse(R"({"a": [1, 2, 3], "s": "text"})"));
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1}, bytes.size() / 2,
                                bytes.size() - 1}) {
    EXPECT_THROW(from_binary(bytes.substr(0, cut)), std::invalid_argument)
        << cut;
  }
  EXPECT_THROW(from_binary("Q"), std::invalid_argument);
  EXPECT_THROW(from_binary(bytes + "x"), std::invalid_argument);
}

}  // namespace
}  // namespace ivc::json
