#include "asr/segmenter.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "audio/metrics.h"
#include "common/error.h"
#include "common/json_field.h"

namespace ivc::asr {
namespace {

std::size_t frames_of(double seconds, double frame_s) {
  return static_cast<std::size_t>(std::llround(seconds / frame_s));
}

}  // namespace

utterance_segmenter::utterance_segmenter(segmenter_config config)
    : config_{config} {
  expects(config_.frame_s > 0.0, "utterance_segmenter: frame_s must be > 0");
  expects(config_.activity_floor > 0.0,
          "utterance_segmenter: activity_floor must be > 0");
  expects(config_.hang_s >= config_.frame_s,
          "utterance_segmenter: hang_s must cover at least one frame");
  expects(config_.pad_s >= 0.0, "utterance_segmenter: pad_s must be >= 0");
  expects(config_.min_utterance_s >= 0.0 &&
              config_.min_utterance_s <= config_.max_utterance_s,
          "utterance_segmenter: need 0 <= min_utterance_s <= max_utterance_s");
}

std::vector<utterance> utterance_segmenter::feed(const audio::buffer& block) {
  audio::validate(block, "utterance_segmenter::feed");
  if (rate_ == 0.0) {
    rate_ = block.sample_rate_hz;
    frame_samples_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(config_.frame_s * rate_)));
  }
  expects(block.sample_rate_hz == rate_,
          "utterance_segmenter: sample rate changed mid-stream");
  pending_.insert(pending_.end(), block.samples.begin(), block.samples.end());

  std::vector<utterance> out;
  // Consume whole frames in place, then drop the consumed prefix once —
  // the sub-frame residue carries over to the next feed(), which is what
  // makes the frame grid (and everything downstream) chunking-invariant.
  std::size_t pos = 0;
  while (pending_.size() - pos >= frame_samples_) {
    const std::span<const double> frame{pending_.data() + pos, frame_samples_};
    const bool active = audio::rms(frame) > config_.activity_floor;
    const std::size_t pad_frames = frames_of(config_.pad_s, config_.frame_s);

    if (!in_utterance_) {
      if (active) {
        utterance_start_frame_ =
            frames_consumed_ - static_cast<std::uint64_t>(preroll_.size());
        utterance_.clear();
        for (const std::vector<double>& p : preroll_) {
          utterance_.insert(utterance_.end(), p.begin(), p.end());
        }
        preroll_.clear();
        utterance_.insert(utterance_.end(), frame.begin(), frame.end());
        silent_run_ = 0;
        in_utterance_ = true;
      } else {
        preroll_.emplace_back(frame.begin(), frame.end());
        while (preroll_.size() > pad_frames) {
          preroll_.erase(preroll_.begin());
        }
      }
    } else {
      utterance_.insert(utterance_.end(), frame.begin(), frame.end());
      if (active) {
        silent_run_ = 0;
      } else {
        ++silent_run_;
        if (silent_run_ >=
            std::max<std::size_t>(1,
                                  frames_of(config_.hang_s, config_.frame_s))) {
          close_utterance(out, silent_run_);
        }
      }
      // Timeout: an utterance that never goes quiet force-closes so the
      // recognizer sees bounded segments (and memory stays bounded).
      if (in_utterance_ &&
          utterance_.size() >=
              frames_of(config_.max_utterance_s, config_.frame_s) *
                  frame_samples_) {
        close_utterance(out, silent_run_);
      }
    }
    pos += frame_samples_;
    ++frames_consumed_;
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(pos));
  return out;
}

void utterance_segmenter::close_utterance(std::vector<utterance>& out,
                                          std::size_t trailing_silent) {
  const std::size_t pad_frames = frames_of(config_.pad_s, config_.frame_s);
  const std::size_t keep = std::min(pad_frames, trailing_silent);
  const std::size_t trim = trailing_silent - keep;
  const std::size_t kept_samples = utterance_.size() - trim * frame_samples_;

  const double start_s =
      static_cast<double>(utterance_start_frame_) *
      static_cast<double>(frame_samples_) / rate_;
  const double end_s = start_s + static_cast<double>(kept_samples) / rate_;
  if (static_cast<double>(kept_samples) / rate_ >=
      config_.min_utterance_s) {  // the duration gate
    utterance u;
    u.start_s = start_s;
    u.end_s = end_s;
    u.samples = audio::buffer{
        {utterance_.begin(),
         utterance_.begin() + static_cast<std::ptrdiff_t>(kept_samples)},
        rate_};
    out.push_back(std::move(u));
  }

  // The trimmed trailing silence doubles as the next utterance's
  // pre-roll: its most recent frames are exactly the audio preceding
  // whatever opens next.
  preroll_.clear();
  const std::size_t reroll = std::min(pad_frames, trim);
  for (std::size_t f = trim - reroll; f < trim; ++f) {
    const std::size_t offset = kept_samples + f * frame_samples_;
    preroll_.emplace_back(
        utterance_.begin() + static_cast<std::ptrdiff_t>(offset),
        utterance_.begin() +
            static_cast<std::ptrdiff_t>(offset + frame_samples_));
  }
  utterance_.clear();
  in_utterance_ = false;
  silent_run_ = 0;
}

double utterance_segmenter::earliest_start_s() const {
  if (rate_ == 0.0) {
    return 0.0;  // nothing fed yet
  }
  const std::uint64_t frame =
      in_utterance_
          ? utterance_start_frame_
          : frames_consumed_ - static_cast<std::uint64_t>(preroll_.size());
  return static_cast<double>(frame) * static_cast<double>(frame_samples_) /
         rate_;
}

std::vector<utterance> utterance_segmenter::finish() {
  std::vector<utterance> out;
  if (in_utterance_) {
    if (silent_run_ == 0 && !pending_.empty()) {
      // The stream ended mid-speech: the sub-frame residue belongs to
      // the open utterance.
      utterance_.insert(utterance_.end(), pending_.begin(), pending_.end());
    }
    close_utterance(out, silent_run_);
  }
  reset();
  return out;
}

json::value utterance_segmenter::snapshot() const {
  json::object o;
  o.emplace_back("rate", json::value{rate_});
  o.emplace_back("fs", json::value{static_cast<double>(frame_samples_)});
  o.emplace_back("fc", json::value{static_cast<double>(frames_consumed_)});
  o.emplace_back("in", json::value{in_utterance_});
  o.emplace_back("usf",
                 json::value{static_cast<double>(utterance_start_frame_)});
  o.emplace_back("sr", json::value{static_cast<double>(silent_run_)});
  o.emplace_back("pend", json::from_samples(pending_));
  o.emplace_back("utt", json::from_samples(utterance_));
  json::array preroll;
  preroll.reserve(preroll_.size());
  for (const std::vector<double>& frame : preroll_) {
    preroll.push_back(json::from_samples(frame));
  }
  o.emplace_back("pre", json::value{std::move(preroll)});
  return json::value{std::move(o)};
}

void utterance_segmenter::restore(const json::value& snap) {
  rate_ = json::num(snap, "rate");
  frame_samples_ = static_cast<std::size_t>(json::u64(snap, "fs"));
  frames_consumed_ = json::u64(snap, "fc");
  in_utterance_ = json::flag(snap, "in");
  utterance_start_frame_ = json::u64(snap, "usf");
  silent_run_ = static_cast<std::size_t>(json::u64(snap, "sr"));
  pending_ = json::to_samples(json::field(snap, "pend"));
  utterance_ = json::to_samples(json::field(snap, "utt"));
  preroll_.clear();
  for (const json::value& frame : json::arr(snap, "pre")) {
    preroll_.push_back(json::to_samples(frame));
  }
}

void utterance_segmenter::reset() {
  // Release the buffers, not just empty them: a finished session stays
  // resident, and clear() would keep up to an utterance of capacity
  // alive.
  rate_ = 0.0;
  frame_samples_ = 0;
  std::vector<double>{}.swap(pending_);
  frames_consumed_ = 0;
  std::vector<std::vector<double>>{}.swap(preroll_);
  in_utterance_ = false;
  utterance_start_frame_ = 0;
  std::vector<double>{}.swap(utterance_);
  silent_run_ = 0;
}

}  // namespace ivc::asr
