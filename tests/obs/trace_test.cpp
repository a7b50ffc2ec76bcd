// Flight-recorder primitives: the bounded span ring, the span codec,
// the wall-clock-stripping determinism projection, and the JSONL
// quarantine sink.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/json_min.h"

namespace ivc::obs {
namespace {

span make_span(trace_stage stage, std::uint64_t index, double t_s,
               double value, double wall_s, std::string detail = {}) {
  span s;
  s.stage = stage;
  s.index = index;
  s.t_s = t_s;
  s.value = value;
  s.wall_s = wall_s;
  s.detail = std::move(detail);
  return s;
}

void expect_same_span(const span& a, const span& b, std::size_t i) {
  EXPECT_EQ(a.stage, b.stage) << "#" << i;
  EXPECT_EQ(a.index, b.index) << "#" << i;
  EXPECT_EQ(a.t_s, b.t_s) << "#" << i;
  EXPECT_EQ(a.value, b.value) << "#" << i;
  EXPECT_EQ(a.wall_s, b.wall_s) << "#" << i;
  EXPECT_EQ(a.detail, b.detail) << "#" << i;
}

TEST(trace_ring, retains_the_last_n_spans_in_order) {
  trace_ring ring{4};
  EXPECT_TRUE(ring.enabled());
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.record(make_span(trace_stage::detector, i, 0.05 * double(i + 1),
                          800.0, 1e-4));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total(), 10u);
  const std::vector<span> spans = ring.spans();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest -> newest: indices 6,7,8,9 survive.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].index, 6u + i);
  }
}

TEST(trace_ring, zero_capacity_disables_recording) {
  trace_ring ring;  // capacity 0
  EXPECT_FALSE(ring.enabled());
  ring.record(make_span(trace_stage::ingest, 0, 0.0, 0.0, 0.0));
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_TRUE(ring.spans().empty());
}

TEST(trace_codec, round_trips_spans_bit_exactly) {
  std::vector<span> spans;
  spans.push_back(make_span(trace_stage::ingest, 0, 0.05, 800.0, 1.5e-4));
  spans.push_back(make_span(trace_stage::asr, 1, 0.85, 0.3125, 0.0121,
                            "play_music"));
  spans.push_back(make_span(trace_stage::quarantine, 7, 1.2, 0.0, 0.0,
                            "recognizer threw: injected"));
  const json::value encoded = encode_spans(spans);
  // Text round trip too: the JSONL sink writes exactly this encoding.
  const std::vector<span> decoded =
      decode_spans(json::parse(json::write(encoded)));
  ASSERT_EQ(decoded.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    expect_same_span(spans[i], decoded[i], i);
  }
}

TEST(trace_codec, rejects_malformed_rows) {
  // A row must be [stage, index, t_s, value, wall_s, detail] with the
  // stage inside the enum range.
  EXPECT_THROW((void)decode_spans(json::parse("[[0,1,2]]")),
               std::invalid_argument);
  EXPECT_THROW((void)decode_spans(json::parse("[[9,0,0,0,0,\"\"]]")),
               std::invalid_argument);
}

TEST(trace_codec, rejects_non_integer_stage_index_and_capacity) {
  // Stage and index are integers on the wire; a fractional, negative,
  // NaN or huge value must not cast into a valid-looking span.
  const auto row = [](double stage, double index) {
    return json::value{json::array{json::value{json::array{
        json::value{stage}, json::value{index}, json::value{0.0},
        json::value{0.0}, json::value{0.0}, json::value{std::string{}}}}}};
  };
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                           0.5, 1e300, -0.5, 5.9}) {
    EXPECT_THROW((void)decode_spans(row(bad, 0.0)), std::invalid_argument)
        << "stage " << bad;
  }
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                           0.5, 1e300, -7.0}) {
    EXPECT_THROW((void)decode_spans(row(1.0, bad)), std::invalid_argument)
        << "index " << bad;
  }
  EXPECT_EQ(decode_spans(row(5.0, 7.0)).at(0).index, 7u);

  trace_ring ring{4};
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                           4.5, 1e300}) {
    json::object o = ring.snapshot().members();
    for (auto& [key, val] : o) {
      if (key == "cap") {
        val = json::value{bad};
      }
    }
    EXPECT_THROW(ring.restore(json::value{std::move(o)}),
                 std::invalid_argument)
        << "cap " << bad;
  }
}

TEST(trace_codec, strip_wall_clock_zeroes_only_wall) {
  std::vector<span> spans;
  spans.push_back(make_span(trace_stage::detector, 3, 0.2, 800.0, 0.125,
                            "x"));
  const std::vector<span> stripped = strip_wall_clock(spans);
  ASSERT_EQ(stripped.size(), 1u);
  EXPECT_EQ(stripped[0].wall_s, 0.0);
  EXPECT_EQ(stripped[0].stage, trace_stage::detector);
  EXPECT_EQ(stripped[0].index, 3u);
  EXPECT_EQ(stripped[0].t_s, 0.2);
  EXPECT_EQ(stripped[0].value, 800.0);
  EXPECT_EQ(stripped[0].detail, "x");
  // The input is untouched (taken by value).
  EXPECT_EQ(spans[0].wall_s, 0.125);
}

TEST(trace_ring, snapshot_restore_round_trips_after_wrap) {
  trace_ring ring{3};
  for (std::uint64_t i = 0; i < 8; ++i) {
    ring.record(make_span(trace_stage::outcome, i, 0.1 * double(i), 2.0,
                          1e-3, "blocked"));
  }
  const json::value snap = ring.snapshot();
  trace_ring rebuilt{3};
  rebuilt.restore(snap);
  EXPECT_EQ(rebuilt.total(), ring.total());
  const std::vector<span> a = ring.spans();
  const std::vector<span> b = rebuilt.spans();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_same_span(a[i], b[i], i);
  }
  // The rebuilt ring keeps recording with the same wrap behavior.
  rebuilt.record(make_span(trace_stage::outcome, 8, 0.8, 2.0, 0.0));
  EXPECT_EQ(rebuilt.total(), 9u);
  EXPECT_EQ(rebuilt.spans().back().index, 8u);
}

TEST(jsonl_trace_sink, appends_one_parseable_line_per_dump) {
  const std::string path = "trace_sink_test.jsonl";
  std::remove(path.c_str());
  {
    jsonl_trace_sink sink{path};
    EXPECT_EQ(sink.dumps(), 0u);
    std::vector<span> spans;
    spans.push_back(make_span(trace_stage::asr, 2, 0.9, 0.5, 0.004,
                              "open_door"));
    spans.push_back(make_span(trace_stage::asr, 2, 0.9, 1.0, 0.0,
                              "recognizer threw: injected"));
    sink.on_quarantine(17, "recognizer threw: injected", spans);
    sink.on_quarantine(3, "corrupt block", {});
    EXPECT_EQ(sink.dumps(), 2u);
  }
  std::ifstream in{path};
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const json::value first = json::parse(line);
  ASSERT_NE(first.find("session"), nullptr);
  EXPECT_EQ(first.find("session")->number(), 17.0);
  EXPECT_EQ(first.find("error")->string(), "recognizer threw: injected");
  const std::vector<span> decoded = decode_spans(*first.find("spans"));
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[1].detail, "recognizer threw: injected");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(json::parse(line).find("session")->number(), 3.0);
  ASSERT_FALSE(std::getline(in, line));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ivc::obs
