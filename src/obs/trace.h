// Per-block span tracing: the flight recorder of one detection session.
//
// A span is one stage of the serving pipeline acting on one
// deterministic stream coordinate — a block index for the ingest and
// detector stages, an utterance index for the ASR/intent/outcome
// stages. Everything in a span except `wall_s` is a pure function of
// the accepted-block order, so the retained span sequence is
// bit-identical at any worker count (the same
// contract as the verdict stream); `wall_s` carries the wall-clock
// duration alongside and is exempt from every determinism comparison.
//
// The trace_ring is a bounded ring buffer: a session retains its last N
// spans at O(1) record cost, so when the fault ladder parks the session
// the ring IS the flight recorder — the final span carries the faulting
// stage and the last_error() message, and the preceding spans are what
// the session was doing on the way down. The ring is dumped to the
// configured trace_sink on quarantine/force_quarantine and readable on
// demand via session_manager::trace(id); it serializes with the session
// snapshot, so eviction/rehydration preserves it bit-exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json_min.h"
#include "common/sync.h"
#include "common/thread_annotations.h"

namespace ivc::obs {

// Pipeline stages a span can attribute work (or a fault) to.
enum class trace_stage : std::uint8_t {
  ingest,      // block accepted off the ring (wall_s = queue wait)
  detector,    // block scored (wall_s = detector service time)
  asr,         // utterance ran the recognizer (wall_s = ASR time)
  intent,      // recognized command mapped through the intent engine
  outcome,     // utterance resolved (value = outcome kind code)
  quarantine,  // force_quarantine: parked without stage attribution
};

struct span {
  trace_stage stage = trace_stage::ingest;
  // Deterministic stream coordinate: block index (ingest/detector) or
  // utterance index (asr/intent/outcome).
  std::uint64_t index = 0;
  double t_s = 0.0;    // stream position, deterministic
  double value = 0.0;  // deterministic payload (samples, verdict count,
                       // ASR distance, outcome kind code)
  double wall_s = 0.0;  // wall-clock duration — EXEMPT from determinism
  std::string detail;   // command/intent/outcome label, fault message
};

// Span list <-> json rows [stage, index, t_s, value, wall_s, detail].
json::value encode_spans(const std::vector<span>& spans);
std::vector<span> decode_spans(const json::value& v);

// Copies `spans` with every wall-clock field zeroed — the deterministic
// projection the telemetry gate compares across worker counts.
std::vector<span> strip_wall_clock(std::vector<span> spans);

// Bounded span ring. NOT internally locked: the owning session guards
// it with its own mutex, exactly like the verdict stream.
class trace_ring {
 public:
  trace_ring() = default;
  explicit trace_ring(std::size_t capacity) : capacity_{capacity} {}

  bool enabled() const { return capacity_ > 0; }
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return count_; }
  // Spans ever recorded, including the ones the ring has overwritten.
  std::uint64_t total() const { return total_; }

  // Records one span (no-op when capacity is 0). The ring grows lazily
  // to its capacity — an idle session costs no span storage, which is
  // what lets a million open sessions each carry a recorder.
  void record(span s);

  // Retained spans, oldest -> newest.
  std::vector<span> spans() const;

  // Serializable state ({"cap","tot","sp"}): restore(snapshot()) on a
  // ring of the same capacity reproduces spans() and total() exactly —
  // the session snapshot layer carries the recorder through eviction.
  json::value snapshot() const;
  void restore(const json::value& snap);

 private:
  std::size_t capacity_ = 0;
  std::vector<span> ring_;  // grows to capacity_, then wraps
  std::size_t next_ = 0;    // write cursor once wrapped
  std::size_t count_ = 0;
  std::uint64_t total_ = 0;
};

// Receives flight-recorder dumps when sessions are parked quarantined.
// Implementations must be thread-safe: workers of every session (and
// every shard) quarantine concurrently.
class trace_sink {
 public:
  virtual ~trace_sink() = default;
  virtual void on_quarantine(std::uint64_t session_id,
                             const std::string& error,
                             const std::vector<span>& spans) = 0;
};

// Appends one JSON line per quarantine dump to `path`:
//   {"session":id,"error":"...","spans":[[stage,idx,t,val,wall,det]..]}
class jsonl_trace_sink : public trace_sink {
 public:
  explicit jsonl_trace_sink(std::string path);

  void on_quarantine(std::uint64_t session_id, const std::string& error,
                     const std::vector<span>& spans) override;

  // Dumps written so far.
  std::size_t dumps() const;

 private:
  const std::string path_;
  mutable ts_mutex mutex_;  // serializes file appends with the count
  std::size_t dumps_ IVC_GUARDED_BY(mutex_) = 0;
};

}  // namespace ivc::obs
