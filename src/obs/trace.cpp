#include "obs/trace.h"

#include <fstream>
#include <utility>

#include "common/error.h"
#include "common/json_field.h"

namespace ivc::obs {

json::value encode_spans(const std::vector<span>& spans) {
  json::array all;
  all.reserve(spans.size());
  for (const span& s : spans) {
    json::array row;
    row.reserve(6);
    row.emplace_back(static_cast<double>(s.stage));
    row.emplace_back(static_cast<double>(s.index));
    row.emplace_back(s.t_s);
    row.emplace_back(s.value);
    row.emplace_back(s.wall_s);
    row.emplace_back(s.detail);
    all.emplace_back(std::move(row));
  }
  return json::value{std::move(all)};
}

std::vector<span> decode_spans(const json::value& v) {
  std::vector<span> out;
  out.reserve(v.items().size());
  for (const json::value& rv : v.items()) {
    const json::array& row = rv.items();
    expects(row.size() == 6, "trace: span row size mismatch");
    span s;
    const std::uint64_t stage = json::to_u64(row[0]);
    expects(stage <= static_cast<std::uint64_t>(trace_stage::quarantine),
            "trace: span stage out of range");
    s.stage = static_cast<trace_stage>(stage);
    s.index = json::to_u64(row[1]);
    s.t_s = row[2].number();
    s.value = row[3].number();
    s.wall_s = row[4].number();
    s.detail = row[5].string();
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<span> strip_wall_clock(std::vector<span> spans) {
  for (span& s : spans) {
    s.wall_s = 0.0;
  }
  return spans;
}

void trace_ring::record(span s) {
  if (capacity_ == 0) {
    return;
  }
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(s));
    count_ = ring_.size();
    return;
  }
  ring_[next_] = std::move(s);
  next_ = (next_ + 1) % capacity_;
}

std::vector<span> trace_ring::spans() const {
  std::vector<span> out;
  out.reserve(count_);
  if (ring_.size() < capacity_ || capacity_ == 0) {
    out = ring_;  // not wrapped yet: storage order IS stream order
    return out;
  }
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % capacity_]);
  }
  return out;
}

json::value trace_ring::snapshot() const {
  json::object o;
  o.emplace_back("cap", json::value{static_cast<double>(capacity_)});
  o.emplace_back("tot", json::value{static_cast<double>(total_)});
  o.emplace_back("sp", encode_spans(spans()));
  return json::value{std::move(o)};
}

void trace_ring::restore(const json::value& snap) {
  expects(json::u64(snap, "cap") == capacity_,
          "trace_ring: snapshot capacity mismatch");
  std::vector<span> spans = decode_spans(json::field(snap, "sp"));
  ring_.clear();
  next_ = 0;
  count_ = 0;
  total_ = 0;
  for (span& s : spans) {
    record(std::move(s));
  }
  // record() counted only the retained spans; the overwritten history
  // is part of the recorder's identity, restore it exactly.
  total_ = json::u64(snap, "tot");
}

jsonl_trace_sink::jsonl_trace_sink(std::string path)
    : path_{std::move(path)} {}

void jsonl_trace_sink::on_quarantine(std::uint64_t session_id,
                                     const std::string& error,
                                     const std::vector<span>& spans) {
  json::object o;
  o.emplace_back("session", json::value{static_cast<double>(session_id)});
  o.emplace_back("error", json::value{error});
  o.emplace_back("spans", encode_spans(spans));
  const std::string line = json::write(json::value{std::move(o)});
  const ts_lock lock{mutex_};
  std::ofstream out{path_, std::ios::app};
  expects(out.good(), "jsonl_trace_sink: cannot open " + path_);
  out << line << '\n';
  ++dumps_;
}

std::size_t jsonl_trace_sink::dumps() const {
  const ts_lock lock{mutex_};
  return dumps_;
}

}  // namespace ivc::obs
