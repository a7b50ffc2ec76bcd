#include "serve/pipeline.h"

#include <algorithm>
#include <chrono>
#include <tuple>

#include "common/error.h"
#include "common/json_field.h"
#include "synth/commands.h"

namespace ivc::serve {
namespace {

using clock = std::chrono::steady_clock;

std::vector<intent_rule> default_rules() {
  std::vector<intent_rule> rules;
  for (const synth::command& c : synth::command_bank()) {
    rules.push_back(intent_rule{c.id, "intent/" + c.id});
  }
  return rules;
}

}  // namespace

bool same_decision(const command_outcome& a, const command_outcome& b) {
  return std::tie(a.start_s, a.end_s, a.kind, a.fault, a.command_id,
                  a.intent, a.asr_distance, a.asr_margin) ==
         std::tie(b.start_s, b.end_s, b.kind, b.fault, b.command_id,
                  b.intent, b.asr_distance, b.asr_margin);
}

intent_engine::intent_engine(intent_config config)
    : config_{std::move(config)} {
  expects(config_.timeout_s > 0.0, "intent_engine: timeout_s must be > 0");
  if (config_.rules.empty()) {
    config_.rules = default_rules();
  }
}

bool intent_engine::armed_at(double time_s) const {
  if (config_.wake_command_id.empty()) {
    return true;  // no wake stage configured: always armed
  }
  return armed_ && time_s <= armed_until_s_;
}

std::optional<std::string> intent_engine::on_command(
    const std::string& command_id, double time_s) {
  if (!config_.wake_command_id.empty() &&
      command_id == config_.wake_command_id) {
    armed_ = true;
    armed_until_s_ = time_s + config_.timeout_s;
    return std::nullopt;  // arming is not an intent
  }
  if (!armed_at(time_s)) {
    armed_ = false;  // timed out: back to idle until the next wake
    return std::nullopt;
  }
  for (const intent_rule& r : config_.rules) {
    if (r.command_id == command_id) {
      // An accepted command keeps the session hot (the sln_voice
      // engine re-arms its timeout on every recognized intent).
      if (!config_.wake_command_id.empty()) {
        armed_until_s_ = time_s + config_.timeout_s;
      }
      return r.intent;
    }
  }
  return std::nullopt;  // armed but unmapped
}

void intent_engine::reset() {
  armed_ = false;
  armed_until_s_ = 0.0;
}

json::value intent_engine::snapshot() const {
  json::object o;
  o.emplace_back("armed", json::value{armed_});
  o.emplace_back("until", json::value{armed_until_s_});
  return json::value{std::move(o)};
}

void intent_engine::restore(const json::value& snap) {
  armed_ = json::flag(snap, "armed");
  armed_until_s_ = json::num(snap, "until");
}

command_pipeline::command_pipeline(pipeline_config config)
    : config_{std::move(config)},
      segmenter_{config_.segmenter},
      intent_{config_.intent} {
  expects(config_.recognizer != nullptr,
          "command_pipeline: a shared recognizer template set is required");
  expects(config_.decision_window_s >= 0.0,
          "command_pipeline: decision_window_s must be >= 0");
  expects(config_.verdict_guard_s >= 0.0,
          "command_pipeline: verdict_guard_s must be >= 0");
}

void command_pipeline::absorb_verdicts(
    const std::vector<defense::stream_event>& verdicts) {
  for (const defense::stream_event& e : verdicts) {
    if (e.is_attack) {
      attack_windows_.emplace_back(e.time_s,
                                   e.time_s + config_.decision_window_s);
    }
  }
}

void command_pipeline::feed(const audio::buffer& block,
                            const std::vector<defense::stream_event>& verdicts,
                            std::vector<command_outcome>& out) {
  // Verdicts first: any utterance this block completes resolves against
  // every window decided up to and including this block.
  absorb_verdicts(verdicts);
  // Integer sample count, like the segmenter's frame grid: the stream
  // position the gate compares against must not depend on how the
  // stream was chunked into feed() blocks.
  if (rate_ == 0.0) {
    rate_ = block.sample_rate_hz;
  }
  consumed_samples_ += block.samples.size();
  consumed_s_ = static_cast<double>(consumed_samples_) / rate_;
  std::vector<asr::utterance> cut = segmenter_.feed(block);
  for (asr::utterance& u : cut) {
    pending_.push_back(std::move(u));
  }
  resolve_ready(/*flush=*/false, out);
}

void command_pipeline::finish(
    const std::vector<defense::stream_event>& tail_verdicts,
    std::vector<command_outcome>& out) {
  absorb_verdicts(tail_verdicts);
  std::vector<asr::utterance> cut = segmenter_.finish();
  for (asr::utterance& u : cut) {
    pending_.push_back(std::move(u));
  }
  resolve_ready(/*flush=*/true, out);
  attack_windows_.clear();
  intent_.reset();
  consumed_samples_ = 0;
  consumed_s_ = 0.0;
  rate_ = 0.0;
  degraded_until_s_ = 0.0;
}

std::vector<command_outcome> command_pipeline::fail_closed() {
  // The segmenter may hold an open utterance or pre-roll; adopt whatever
  // it can still cut so those utterances are accounted for — as blocked,
  // never executed. If the segmenter itself is the faulted state, its
  // samples are lost: losing genuine audio is the accepted cost,
  // leaking a command is not.
  try {
    std::vector<asr::utterance> cut = segmenter_.finish();
    for (asr::utterance& u : cut) {
      pending_.push_back(std::move(u));
    }
  } catch (...) {
    segmenter_.reset();
  }
  std::vector<command_outcome> out;
  out.reserve(pending_.size());
  for (const asr::utterance& u : pending_) {
    command_outcome o;
    o.start_s = u.start_s;
    o.end_s = u.end_s;
    o.kind = command_outcome::kind_t::blocked;
    o.fault = command_outcome::fault_t::stage_fault;
    out.push_back(std::move(o));
  }
  reset();
  return out;
}

void command_pipeline::resolve_ready(bool flush,
                                     std::vector<command_outcome>& out) {
  while (!pending_.empty()) {
    const asr::utterance& u = pending_.front();
    // resolve() accepts any window starting before end_s +
    // verdict_guard_s, and such a window is only decided once the
    // detector has consumed a full analysis window past its start. So
    // the utterance is decidable only once the stream has been consumed
    // past end_s + verdict_guard_s + decision_window_s — resolving
    // earlier could miss a veto and would break determinism.
    if (!flush && consumed_s_ < u.end_s + config_.verdict_guard_s +
                                    config_.decision_window_s) {
      break;
    }
    out.push_back(resolve(u));
    pending_.pop_front();
  }
  // Windows that can no longer overlap anything pending are done. The
  // segmenter may still hold an OPEN utterance (or pre-roll a future
  // one will adopt) reaching back before consumed_s_, so the prune
  // horizon is the earliest point any unresolved utterance can start —
  // not the consumption front.
  double horizon = segmenter_.earliest_start_s();
  if (!pending_.empty()) {
    horizon = std::min(horizon, pending_.front().start_s);
  }
  std::erase_if(attack_windows_, [&](const std::pair<double, double>& w) {
    return w.second + config_.verdict_guard_s < horizon;
  });
}

command_outcome command_pipeline::resolve(const asr::utterance& u) {
  // Fault-schedule coordinate for this utterance: advances in
  // accepted-block order and is never rewound (not even by reset()), so
  // a reopened session never replays already-fired coordinates.
  const std::uint64_t utterance_index = utterance_index_++;
  command_outcome o;
  o.start_s = u.start_s;
  o.end_s = u.end_s;

  // Defense veto: a flagged window that overlaps the utterance (grown
  // by the guard) blocks it before any recognition runs — the deployed
  // defense sits AHEAD of the assistant's ASR.
  for (const std::pair<double, double>& w : attack_windows_) {
    if (w.first < u.end_s + config_.verdict_guard_s &&
        w.second > u.start_s - config_.verdict_guard_s) {
      o.kind = command_outcome::kind_t::blocked;
      return o;
    }
  }

  // Degradation ladder, first rung: while the ASR stage is shed the
  // utterance resolves fail-closed without recognition. The comparison
  // uses the utterance's resolution-eligibility time — a pure function
  // of its bounds — not consumed_s_, which depends on block chunking.
  const double eligible_s =
      u.end_s + config_.verdict_guard_s + config_.decision_window_s;
  if (eligible_s < degraded_until_s_) {
    o.kind = command_outcome::kind_t::blocked;
    o.fault = command_outcome::fault_t::degraded_shed;
    return o;
  }

  // ASR deadline: the MODELED recognizer cost (deterministic, never wall
  // clock) against the budget. An injected overrun stalls the model past
  // any budget. Overruns resolve fail-closed and shed the ASR stage for
  // the degrade window.
  const bool injected_overrun =
      config_.faults != nullptr &&
      config_.faults->fires(fault_kind::recognizer_overrun,
                            config_.fault_session_id, utterance_index);
  if (injected_overrun ||
      (config_.asr_deadline_s > 0.0 &&
       u.samples.duration_s() * config_.asr_cost_rtf >
           config_.asr_deadline_s)) {
    o.kind = command_outcome::kind_t::blocked;
    o.fault = command_outcome::fault_t::deadline_overrun;
    degraded_until_s_ = eligible_s + config_.degrade_window_s;
    return o;
  }

  if (config_.faults != nullptr &&
      config_.faults->fires(fault_kind::recognizer_throw,
                            config_.fault_session_id, utterance_index)) {
    // Escapes to the session's containment: the session quarantines and
    // this utterance (still pending) is flushed fail-closed.
    throw std::runtime_error{"injected fault: recognizer throw"};
  }

  const clock::time_point t0 = clock::now();
  const asr::recognition_result r = config_.recognizer->recognize(u.samples);
  o.asr_s = std::chrono::duration<double>(clock::now() - t0).count();
  o.asr_distance = r.best_distance;
  o.asr_margin = r.margin;
  if (!r.accepted()) {
    o.kind = command_outcome::kind_t::rejected_by_asr;
    return o;
  }
  o.command_id = *r.command_id;
  const std::optional<std::string> intent =
      intent_.on_command(o.command_id, u.end_s);
  if (intent.has_value()) {
    o.kind = command_outcome::kind_t::executed;
    o.intent = *intent;
  } else {
    o.kind = command_outcome::kind_t::ignored;
  }
  return o;
}

json::value command_pipeline::snapshot() const {
  json::object o;
  o.emplace_back("seg", segmenter_.snapshot());
  o.emplace_back("int", intent_.snapshot());
  json::array windows;
  windows.reserve(attack_windows_.size() * 2);
  for (const std::pair<double, double>& w : attack_windows_) {
    windows.emplace_back(w.first);
    windows.emplace_back(w.second);
  }
  o.emplace_back("aw", json::value{std::move(windows)});
  json::array pending;
  pending.reserve(pending_.size());
  for (const asr::utterance& u : pending_) {
    json::object uo;
    uo.emplace_back("s", json::value{u.start_s});
    uo.emplace_back("e", json::value{u.end_s});
    uo.emplace_back("r", json::value{u.samples.sample_rate_hz});
    uo.emplace_back("x", json::from_samples(u.samples.samples));
    pending.emplace_back(std::move(uo));
  }
  o.emplace_back("pend", json::value{std::move(pending)});
  o.emplace_back("csamp", json::value{static_cast<double>(consumed_samples_)});
  o.emplace_back("rate", json::value{rate_});
  o.emplace_back("ui", json::value{static_cast<double>(utterance_index_)});
  o.emplace_back("dg", json::value{degraded_until_s_});
  return json::value{std::move(o)};
}

void command_pipeline::restore(const json::value& snap) {
  segmenter_.restore(json::field(snap, "seg"));
  intent_.restore(json::field(snap, "int"));
  attack_windows_.clear();
  const json::array& windows = json::arr(snap, "aw");
  for (std::size_t i = 0; i + 1 < windows.size(); i += 2) {
    attack_windows_.emplace_back(windows[i].number(), windows[i + 1].number());
  }
  pending_.clear();
  for (const json::value& uo : json::arr(snap, "pend")) {
    asr::utterance u;
    u.start_s = json::num(uo, "s");
    u.end_s = json::num(uo, "e");
    u.samples = audio::buffer{json::to_samples(json::field(uo, "x")),
                              json::num(uo, "r")};
    pending_.push_back(std::move(u));
  }
  consumed_samples_ = json::u64(snap, "csamp");
  rate_ = json::num(snap, "rate");
  // Derived exactly as feed() derives it, so the resolution gate
  // compares the same double it would have without the round trip.
  consumed_s_ =
      rate_ > 0.0 ? static_cast<double>(consumed_samples_) / rate_ : 0.0;
  utterance_index_ = json::u64(snap, "ui");
  degraded_until_s_ = json::num(snap, "dg");
}

void command_pipeline::reset() {
  segmenter_.reset();
  intent_.reset();
  attack_windows_.clear();
  pending_.clear();
  consumed_samples_ = 0;
  consumed_s_ = 0.0;
  rate_ = 0.0;
  degraded_until_s_ = 0.0;
  // utterance_index_ is deliberately NOT reset: it is a fault-schedule
  // coordinate, and rewinding it would replay fired faults after reopen.
}

}  // namespace ivc::serve
