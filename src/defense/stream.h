// Streaming defense: sliding-window detection over a live capture feed,
// gated by voice activity — the deployable form of the defense (runs
// ahead of the wake-word engine and vetoes suspicious audio).
#pragma once

#include <vector>

#include "asr/vad.h"
#include "common/json_min.h"
#include "defense/detector.h"

namespace ivc::defense {

struct stream_config {
  double window_s = 1.0;
  double hop_s = 0.5;
  // Windows quieter than this peak are skipped (no decision).
  double min_peak = 1e-4;
  feature_config features;
};

struct stream_event {
  double time_s = 0.0;   // window start
  double score = 0.0;
  bool is_attack = false;

  // Every field is decision content: two runs agree on a verdict only
  // when all three match bit for bit.
  friend bool operator==(const stream_event&, const stream_event&) = default;
};

class stream_detector {
 public:
  stream_detector(classifier_detector detector, stream_config config = {});

  // Feeds a block of samples; returns any decisions completed by it.
  std::vector<stream_event> feed(const audio::buffer& block);

  // Flushes buffered samples shorter than a full window, then resets:
  // the stream is over, and a subsequent feed() starts a NEW stream at
  // t = 0 (equivalent to calling reset()) rather than silently splicing
  // onto the finished one.
  std::vector<stream_event> finish();

  // Starts a fresh stream and releases the window buffer.
  void reset();

  // Serializable stream state (pending samples, stream position, rate —
  // NOT the detector weights or config, which the owner reconstructs).
  // restore(snapshot()) on a detector of the same config resumes the
  // stream bit-exactly: the evicted/rehydrated session's remaining
  // verdicts are identical to never having been evicted.
  json::value snapshot() const;
  void restore(const json::value& snap);

 private:
  std::vector<stream_event> drain(bool flush);

  classifier_detector detector_;
  stream_config config_;
  std::vector<double> pending_;
  double rate_ = 0.0;
  double consumed_s_ = 0.0;
};

}  // namespace ivc::defense
