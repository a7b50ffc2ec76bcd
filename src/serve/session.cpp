#include "serve/session.h"

#include <cmath>
#include <limits>
#include <utility>
#include <variant>

#include "common/error.h"
#include "common/json_field.h"

namespace ivc::serve {

namespace {
using clock = std::chrono::steady_clock;

// The exclusive claim is released by ivc::claim_guard (common/sync.h) on
// every exit path — including an exception escaping process() itself.
// Containment must never leave busy_ stuck true, or the session would be
// unclaimable forever.

bool all_finite(const audio::buffer& b) {
  for (const double s : b.samples) {
    if (!std::isfinite(s)) {
      return false;
    }
  }
  return true;
}

// ---- Snapshot codecs ---------------------------------------------------
// The counter block serializes as one flat number array in
// session_counters order.
json::value encode_counters(const session_stats& st) {
  json::array a;
  a.reserve(std::size(session_counters));
  for (const counter_def& c : session_counters) {
    a.emplace_back(counter_value(st, c));
  }
  return json::value{std::move(a)};
}

void decode_field(const json::value& x, std::uint64_t& slot) {
  slot = json::to_u64(x);
}
void decode_field(const json::value& x, double& slot) { slot = x.number(); }

void decode_counters(const json::value& v, session_stats& st) {
  const json::array& a = v.items();
  expects(a.size() == std::size(session_counters),
          "session snapshot: counter block size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::visit([&](auto f) { decode_field(a[i], st.*f); },
               session_counters[i].field);
  }
}

// Verdicts pack as flat (time, score, is_attack) triples — an all-number
// array, which the binary codec stores as packed 8-byte doubles.
json::value encode_verdicts(const std::vector<defense::stream_event>& ve) {
  json::array a;
  a.reserve(ve.size() * 3);
  for (const defense::stream_event& e : ve) {
    a.emplace_back(e.time_s);
    a.emplace_back(e.score);
    a.emplace_back(e.is_attack ? 1.0 : 0.0);
  }
  return json::value{std::move(a)};
}

std::vector<defense::stream_event> decode_verdicts(const json::value& v) {
  const json::array& a = v.items();
  expects(a.size() % 3 == 0, "session snapshot: verdict block not triples");
  std::vector<defense::stream_event> out;
  out.reserve(a.size() / 3);
  for (std::size_t i = 0; i < a.size(); i += 3) {
    defense::stream_event e;
    e.time_s = a[i].number();
    e.score = a[i + 1].number();
    e.is_attack = a[i + 2].number() != 0.0;
    out.push_back(e);
  }
  return out;
}

// One outcome per row: [start, end, kind, fault, command, intent,
// distance, margin, asr_s].
json::value encode_outcomes(const std::vector<command_outcome>& oc) {
  json::array all;
  all.reserve(oc.size());
  for (const command_outcome& o : oc) {
    json::array row;
    row.reserve(9);
    row.emplace_back(o.start_s);
    row.emplace_back(o.end_s);
    row.emplace_back(static_cast<double>(o.kind));
    row.emplace_back(static_cast<double>(o.fault));
    row.emplace_back(o.command_id);
    row.emplace_back(o.intent);
    row.emplace_back(o.asr_distance);
    row.emplace_back(o.asr_margin);
    row.emplace_back(o.asr_s);
    all.emplace_back(std::move(row));
  }
  return json::value{std::move(all)};
}

std::vector<command_outcome> decode_outcomes(const json::value& v) {
  std::vector<command_outcome> out;
  out.reserve(v.items().size());
  for (const json::value& rv : v.items()) {
    const json::array& row = rv.items();
    expects(row.size() == 9, "session snapshot: outcome row size mismatch");
    command_outcome o;
    o.start_s = row[0].number();
    o.end_s = row[1].number();
    const std::uint64_t kind = json::to_u64(row[2]);
    const std::uint64_t fault = json::to_u64(row[3]);
    expects(kind <= static_cast<std::uint64_t>(
                         command_outcome::kind_t::ignored) &&
                fault <= static_cast<std::uint64_t>(
                             command_outcome::fault_t::stage_fault),
            "session snapshot: outcome enum out of range");
    o.kind = static_cast<command_outcome::kind_t>(kind);
    o.fault = static_cast<command_outcome::fault_t>(fault);
    o.command_id = row[4].string();
    o.intent = row[5].string();
    o.asr_distance = row[6].number();
    o.asr_margin = row[7].number();
    o.asr_s = row[8].number();
    out.push_back(std::move(o));
  }
  return out;
}

// The pipeline stage a flight-recorder span attributes a fault counter
// to.
template <auto Counter>
constexpr obs::trace_stage fault_stage() {
  if constexpr (Counter == &session_stats::detector_faults) {
    return obs::trace_stage::detector;
  } else if constexpr (Counter == &session_stats::recognizer_faults) {
    return obs::trace_stage::asr;
  } else {
    static_assert(Counter == &session_stats::corrupt_blocks);
    return obs::trace_stage::ingest;
  }
}

// The message of the exception being handled, or `fallback` for one
// that is not a std::exception. Call only inside a catch block.
std::string current_error(const char* fallback) {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return fallback;
  }
}

// One registry cell per ledger row that names a series; the other
// handles stay no-ops, as do all of them without a registry.
counter_cells register_cells(obs::metrics_registry* reg) {
  counter_cells cells;
  if (reg == nullptr) {
    return cells;
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const counter_def& c = session_counters[i];
    if (c.series == nullptr) {
      continue;
    }
    obs::label_set labels;
    if (c.label_key != nullptr) {
      labels.emplace_back(c.label_key, c.label_value);
    }
    cells[i] = reg->get_counter(c.series, std::move(labels), c.deterministic);
  }
  return cells;
}

const char* outcome_kind_name(command_outcome::kind_t kind) {
  switch (kind) {
    case command_outcome::kind_t::blocked:
      return "blocked";
    case command_outcome::kind_t::executed:
      return "executed";
    case command_outcome::kind_t::rejected_by_asr:
      return "rejected_by_asr";
    case command_outcome::kind_t::ignored:
      return "ignored";
  }
  return "unknown";
}

}  // namespace

void session_stats::merge(const session_stats& other) {
  for (const counter_def& c : session_counters) {
    std::visit([&](auto f) { this->*f += other.*f; }, c.field);
  }
  queue_wait.merge(other.queue_wait);
}

detection_session::detection_session(std::uint64_t id,
                                     defense::classifier_detector detector,
                                     const serve_config& config)
    : id_{id},
      capacity_{config.queue_capacity},
      policy_{config.policy},
      fault_tolerance_{config.fault_tolerance},
      faults_{config.faults},
      trace_sink_{config.trace_sink},
      cells_{register_cells(config.metrics.get())},
      ring_(config.queue_capacity),
      trace_{config.trace_spans},
      detector_{std::move(detector), config.stream} {
  expects(capacity_ >= 1, "detection_session: queue capacity must be >= 1");
  if (config.pipeline.has_value()) {
    pipeline_config pc = *config.pipeline;
    if (pc.decision_window_s == 0.0) {
      // The pipeline defers utterance resolution by the detector's
      // actual analysis window; anything else would resolve before
      // every overlapping verdict is decided.
      pc.decision_window_s = config.stream.window_s;
    }
    // The recognizer-site fault coordinates are (kind, session id,
    // utterance index); the stage inherits the session's injector.
    if (pc.faults == nullptr) {
      pc.faults = faults_;
    }
    pc.fault_session_id = id_;
    pipeline_.emplace(std::move(pc));
  }
}

offer_status detection_session::offer(audio::buffer block) {
  audio::validate(block, "detection_session::offer");
  const clock::time_point now = clock::now();
  const ts_lock lock{mutex_};
  count<&session_stats::blocks_offered>();
  if (closed_) {
    // Distinct from `rejected`: a rejected offer succeeds once workers
    // make room, a closed session never accepts again — conflating the
    // two would livelock the producer's retry loop.
    count<&session_stats::blocks_rejected>();
    return offer_status::closed;
  }
  if (state_ == session_state::quarantined) {
    // Same shape as closed: no amount of draining helps, only reopen().
    count<&session_stats::blocks_rejected>();
    return offer_status::quarantined;
  }
  if (count_ == capacity_) {
    if (policy_ == overflow_policy::reject) {
      count<&session_stats::blocks_rejected>();
      return offer_status::rejected;
    }
    count<&session_stats::blocks_shed>();
    return offer_status::shed;
  }
  const std::size_t slot = (head_ + count_) % capacity_;
  ring_[slot] = queued_block{std::move(block), now};
  ++count_;
  count<&session_stats::blocks_accepted>();
  return offer_status::accepted;
}

void detection_session::close() {
  const ts_lock lock{mutex_};
  closed_ = true;
}

bool detection_session::closed() const {
  const ts_lock lock{mutex_};
  return closed_;
}

session_state detection_session::state() const {
  const ts_lock lock{mutex_};
  return state_;
}

std::string detection_session::last_error() const {
  const ts_lock lock{mutex_};
  return last_error_;
}

bool detection_session::has_work() const {
  const ts_lock lock{mutex_};
  if (state_ == session_state::quarantined) {
    return false;  // nothing can be scored until reopen()
  }
  return count_ > 0 || (closed_ && !finished_);
}

bool detection_session::pop(queued_block& out) {
  const ts_lock lock{mutex_};
  if (count_ == 0) {
    return false;
  }
  out = std::move(ring_[head_]);
  head_ = (head_ + 1) % capacity_;
  --count_;
  return true;
}

void detection_session::reset_stages() {
  detector_.reset();
  if (pipeline_.has_value()) {
    pipeline_->reset();
  }
}

// Crash recovery: resume the stages from the last good checkpoint when
// snapshot recovery is on and one exists; otherwise (or when the
// checkpoint fails to decode) cold-reset to a fresh stream. Caller holds
// busy_ and NOT mutex_.
void detection_session::recover_stages() {
  if (fault_tolerance_.snapshot_recovery && !last_good_.empty()) {
    try {
      const json::value chk = json::from_binary(last_good_);
      detector_.restore(json::field(chk, "det"));
      if (pipeline_.has_value()) {
        pipeline_->restore(json::field(chk, "pl"));
      }
      const ts_lock lock{mutex_};
      count<&session_stats::snapshot_restores>();
      return;
    } catch (...) {
      // A corrupt checkpoint must not wedge recovery — and the detector
      // may be half-restored by now, so fall through to the full reset.
      last_good_.clear();
    }
  }
  reset_stages();
}

// Crash-recovery checkpoint, taken by the worker that just scored block
// `block_index` (holding busy_, not mutex_). Only at SAFE points: the
// block count lines up AND the pipeline owes no outcome — restoring a
// stage that still held a pending utterance would emit it twice (once
// fail-closed at the fault, once again after the restore).
void detection_session::maybe_checkpoint(std::uint64_t block_index) {
  if (!fault_tolerance_.snapshot_recovery ||
      fault_tolerance_.snapshot_every_blocks == 0 ||
      (block_index + 1) % fault_tolerance_.snapshot_every_blocks != 0) {
    return;
  }
  if (pipeline_.has_value() && !pipeline_->snapshot_safe()) {
    return;
  }
  json::object chk;
  chk.emplace_back("det", detector_.snapshot());
  chk.emplace_back("pl", pipeline_.has_value() ? pipeline_->snapshot()
                                               : json::value{});
  last_good_ = json::to_binary(json::value{std::move(chk)});
  const ts_lock lock{mutex_};
  count<&session_stats::stage_snapshots>();
}

bool detection_session::reopen() {
  if (!busy_.try_claim()) {
    return false;  // a worker owns the session (mid-containment)
  }
  const claim_guard guard{busy_};
  {
    const ts_lock lock{mutex_};
    if (state_ != session_state::quarantined) {
      return false;
    }
    state_ = session_state::recovering;
    last_error_.clear();
    count<&session_stats::reopens>();
  }
  // A manual reopen grants a fresh retry budget and restarts the backoff
  // ladder at its first rung.
  reopen_count_ = 0;
  backoff_remaining_ = fault_tolerance_.backoff_blocks;
  recover_stages();
  return true;
}

void detection_session::force_quarantine(const std::string& what) {
  std::vector<obs::span> dump;
  bool dumped = false;
  {
    const ts_lock lock{mutex_};
    if (state_ == session_state::quarantined) {
      return;
    }
    state_ = session_state::quarantined;
    last_error_ = what;
    count<&session_stats::quarantines>();
    // Final flight-recorder span: no stage attribution (the exception
    // escaped process() itself), but the error message rides along.
    // consumed_blocks_ is atomic exactly for this read: the backstop
    // does NOT hold busy_ (the claim may be wedged in the dying worker).
    const std::uint64_t consumed = consumed_blocks_.load();
    trace_.record({obs::trace_stage::quarantine,
                   consumed > 0 ? consumed - 1 : 0, stats_.audio_s_processed,
                   0.0, 0.0, what});
    if (trace_sink_ != nullptr) {
      dump = trace_.spans();
      dumped = true;
    }
  }
  if (dumped) {
    // Outside mutex_: the sink serializes on its own lock and may do IO.
    trace_sink_->on_quarantine(id_, what, dump);
  }
}

// Containment: the calling worker holds busy_; an exception just escaped
// a scoring stage. Quarantine THIS session fail-closed and either
// auto-reopen (bounded retry + block-counted backoff) or park it.
template <auto Counter>
void detection_session::contain_fault(const std::string& what) {
  // Flush the pipeline fail-closed FIRST: every utterance it still holds
  // resolves as blocked — a faulted stage must never leave an utterance
  // in a state where a later code path could execute it.
  std::vector<command_outcome> flushed;
  if (pipeline_.has_value()) {
    flushed = pipeline_->fail_closed();
  }
  const bool retry = fault_tolerance_.auto_reopen &&
                     reopen_count_ < fault_tolerance_.max_reopens;
  std::vector<obs::span> dump;
  bool dumped = false;
  {
    const ts_lock lock{mutex_};
    count<Counter>();
    count<&session_stats::quarantines>();
    record_outcomes(flushed);
    last_error_ = what;
    // Flight recorder: the fault span carries the FAULTING stage plus
    // the error message. When the retry budget is spent this is the
    // ring's final span — the quarantine dump ends with what killed the
    // session, attributed to the stage that threw.
    const std::uint64_t consumed = consumed_blocks_.load();
    trace_.record({fault_stage<Counter>(), consumed > 0 ? consumed - 1 : 0,
                   stats_.audio_s_processed, retry ? 1.0 : 0.0, 0.0, what});
    if (retry) {
      state_ = session_state::recovering;
      count<&session_stats::reopens>();
    } else {
      state_ = session_state::quarantined;
    }
    // A flight recorder dumps on EVERY quarantine entry, recovered or
    // parked — the crash the ladder papers over is exactly the one the
    // black box exists to explain. The fault span's value field (1 =
    // retried, 0 = parked) tells the two apart in the dump.
    if (trace_sink_ != nullptr) {
      dump = trace_.spans();
      dumped = true;
    }
  }
  if (dumped) {
    trace_sink_->on_quarantine(id_, what, dump);
  }
  if (retry) {
    // Exponential block-counted backoff: 8, 16, 32, ... accepted blocks
    // consumed unscored before the stream restarts. Counted in blocks —
    // never wall clock — so recovery lands at the same stream position
    // at any worker count.
    backoff_remaining_ = static_cast<std::uint64_t>(
                             fault_tolerance_.backoff_blocks)
                         << reopen_count_;
    ++reopen_count_;
    recover_stages();
  }
}

std::size_t detection_session::process() {
  if (!busy_.try_claim()) {
    return 0;  // another worker owns this session right now
  }
  const claim_guard guard{busy_};
  {
    const ts_lock lock{mutex_};
    if (state_ == session_state::quarantined) {
      return 0;  // parked: only reopen() restores service
    }
  }
  std::size_t processed = 0;
  queued_block item;
  while (true) {
    {
      // Re-check per block: contain_fault() may have parked the session
      // mid-drain. Parked = stop scoring; queued blocks survive for a
      // potential reopen().
      const ts_lock lock{mutex_};
      if (state_ == session_state::quarantined) {
        return processed;
      }
    }
    if (!pop(item)) {
      break;
    }
    ++processed;
    // Fault-schedule coordinate of this block (accepted order).
    const std::uint64_t block_index = consumed_blocks_++;
    if (backoff_remaining_ > 0) {
      // Recovering: consume-and-drop until the backoff window passes,
      // then resume scoring with the fresh stages.
      --backoff_remaining_;
      const ts_lock lock{mutex_};
      count<&session_stats::blocks_dropped_backoff>();
      if (backoff_remaining_ == 0 && state_ == session_state::recovering) {
        state_ = session_state::serving;
      }
      continue;
    }
    if (faults_ != nullptr &&
        faults_->fires(fault_kind::corrupt_block, id_, block_index)) {
      // Poison the queued audio the way a DMA/driver bug would; the
      // scoring boundary below must catch it.
      for (double& s : item.block.samples) {
        s = std::numeric_limits<double>::quiet_NaN();
      }
    }
    // Feed outside the queue lock: scoring is the expensive part and
    // producers must be able to keep enqueueing meanwhile. Only the
    // detector itself lives outside the lock — verdict/stat appends go
    // back under it so concurrent readers (streaming mode) are safe.
    const clock::time_point claimed = clock::now();
    const double rate = item.block.sample_rate_hz;
    const std::size_t samples = item.block.size();
    // Ingest validation: a non-finite block would turn every feature
    // downstream into NaN and the verdict stream into silent garbage —
    // worse than a crash. Treat it as a contained fault instead.
    if (!all_finite(item.block)) {
      contain_fault<&session_stats::corrupt_blocks>(
          "corrupt audio block: non-finite sample at block " +
          std::to_string(block_index));
      continue;  // recovering (backoff) or parked; loop re-checks
    }
    std::vector<defense::stream_event> events;
    try {
      if (faults_ != nullptr &&
          faults_->fires(fault_kind::detector_throw, id_, block_index)) {
        throw std::runtime_error{"injected fault: detector throw"};
      }
      events = detector_.feed(item.block);
    } catch (...) {
      contain_fault<&session_stats::detector_faults>(
          current_error("detector fault: unknown exception"));
      continue;
    }
    const clock::time_point scored = clock::now();
    // The command stage runs after the detector on the same block, so
    // its outcomes inherit the accepted-block-order determinism.
    std::vector<command_outcome> outcomes;
    if (pipeline_.has_value()) {
      try {
        pipeline_->feed(item.block, events, outcomes);
      } catch (...) {
        // The detector's verdicts for this block and the outcomes
        // resolved before the throw are still valid — keep them — but
        // the command stage is now suspect: contain it. Its pending
        // utterances flush fail-closed inside contain_fault.
        const std::string what =
            current_error("recognizer fault: unknown exception");
        {
          const ts_lock lock{mutex_};
          record_verdicts(events);
          record_outcomes(outcomes);
        }
        contain_fault<&session_stats::recognizer_faults>(what);
        continue;
      }
    }
    const double queue_wait_s =
        std::chrono::duration<double>(claimed - item.enqueued).count();
    const double service_s =
        std::chrono::duration<double>(scored - claimed).count();
    {
      const ts_lock lock{mutex_};
      record_verdicts(events);
      count<&session_stats::blocks_processed>();
      count<&session_stats::samples_processed>(samples);
      count<&session_stats::audio_s_processed>(static_cast<double>(samples) /
                                               rate);
      stats_.queue_wait.record(queue_wait_s);
      if (trace_.enabled()) {
        // Ingest + detector spans of this block, keyed by its accepted-
        // order index; t_s is the stream position AFTER the block. Only
        // wall_s (queue wait / detector service time) is non-
        // deterministic — everything else is a pure function of the
        // accepted-block order.
        trace_.record({obs::trace_stage::ingest, block_index,
                       stats_.audio_s_processed,
                       static_cast<double>(samples), queue_wait_s, {}});
        trace_.record({obs::trace_stage::detector, block_index,
                       stats_.audio_s_processed,
                       static_cast<double>(events.size()), service_s, {}});
      }
      record_outcomes(outcomes);
      // Surface the pipeline's degradation ladder as session health.
      if (state_ == session_state::serving && pipeline_.has_value() &&
          pipeline_->degraded()) {
        state_ = session_state::degraded;
      } else if (state_ == session_state::degraded &&
                 (!pipeline_.has_value() || !pipeline_->degraded())) {
        state_ = session_state::serving;
      }
    }
    // Crash-recovery checkpoint AFTER the block's effects are recorded:
    // a restore resumes from a stream position whose verdicts/outcomes
    // are already in the streams, never before it.
    maybe_checkpoint(block_index);
  }
  // End-of-stream flush: once the producer closed the session and the
  // queue is empty, flush the partial window exactly once.
  {
    const ts_lock lock{mutex_};
    if (closed_ && !finished_ && count_ == 0 &&
        state_ != session_state::quarantined) {
      finished_ = true;
    } else {
      return processed;
    }
  }
  // The flush is owed exactly once (finished_ is already set); a fault
  // here quarantines like any other — the tail resolves fail-closed.
  // Two separate catch scopes so the fault is attributed to the stage
  // that actually threw (the command stage's final resolutions run the
  // recognizer, not the detector).
  std::vector<defense::stream_event> tail;
  try {
    tail = detector_.finish();
  } catch (...) {
    contain_fault<&session_stats::detector_faults>(
        current_error("detector fault: unknown exception in finish"));
    return processed;
  }
  std::vector<command_outcome> tail_outcomes;
  std::optional<std::string> pipeline_error;
  if (pipeline_.has_value()) {
    try {
      // The flush tail can still veto (or contain) the final utterances.
      pipeline_->finish(tail, tail_outcomes);
    } catch (...) {
      pipeline_error =
          current_error("recognizer fault: unknown exception in finish");
    }
  }
  {
    const ts_lock lock{mutex_};
    record_verdicts(tail);
    record_outcomes(tail_outcomes);
  }
  if (pipeline_error.has_value()) {
    contain_fault<&session_stats::recognizer_faults>(*pipeline_error);
  }
  return processed;
}

// Appends detector verdicts and counts them. Caller holds mutex_.
void detection_session::record_verdicts(
    const std::vector<defense::stream_event>& events) {
  verdicts_.insert(verdicts_.end(), events.begin(), events.end());
  std::uint64_t attacks = 0;
  for (const defense::stream_event& e : events) {
    attacks += e.is_attack ? 1 : 0;
  }
  count<&session_stats::events>(events.size());
  count<&session_stats::attack_events>(attacks);
}

// Appends pipeline outcomes and counts each by kind and fault: the only
// place an outcome is counted. Caller holds mutex_.
void detection_session::record_outcomes(
    const std::vector<command_outcome>& outcomes) {
  for (const command_outcome& o : outcomes) {
    // Utterance coordinate of the spans below: the position of this
    // outcome in the session's resolved-utterance order (deterministic,
    // like everything in the outcome stream).
    const std::uint64_t uidx = stats_.utterances;
    count<&session_stats::utterances>();
    switch (o.kind) {
      case command_outcome::kind_t::blocked:
        count<&session_stats::commands_blocked>();
        break;
      case command_outcome::kind_t::executed:
        count<&session_stats::commands_executed>();
        break;
      case command_outcome::kind_t::rejected_by_asr:
        count<&session_stats::commands_rejected>();
        break;
      case command_outcome::kind_t::ignored:
        count<&session_stats::commands_ignored>();
        break;
    }
    switch (o.fault) {
      case command_outcome::fault_t::none:
        break;
      case command_outcome::fault_t::deadline_overrun:
        count<&session_stats::asr_deadline_overruns>();
        break;
      case command_outcome::fault_t::degraded_shed:
        count<&session_stats::utterances_shed_degraded>();
        break;
      case command_outcome::fault_t::stage_fault:
        count<&session_stats::utterances_stage_fault>();
        break;
    }
    if (o.fault != command_outcome::fault_t::none) {
      count<&session_stats::utterances_failed_closed>();
    }
    if (trace_.enabled()) {
      // ASR span only when the recognizer actually ran (blocked
      // utterances never reach it); intent span only when an intent was
      // mapped; outcome span always. All keyed by the utterance index —
      // wall_s (the recognizer time) is the only non-deterministic
      // field.
      if (o.kind != command_outcome::kind_t::blocked) {
        trace_.record({obs::trace_stage::asr, uidx, o.end_s, o.asr_distance,
                       o.asr_s, o.command_id});
      }
      if (o.kind == command_outcome::kind_t::executed) {
        trace_.record(
            {obs::trace_stage::intent, uidx, o.end_s, 1.0, 0.0, o.intent});
      }
      trace_.record({obs::trace_stage::outcome, uidx, o.end_s,
                     static_cast<double>(o.kind), 0.0,
                     outcome_kind_name(o.kind)});
    }
  }
  outcomes_.insert(outcomes_.end(), outcomes.begin(), outcomes.end());
}

std::vector<defense::stream_event> detection_session::verdicts() const {
  const ts_lock lock{mutex_};
  return verdicts_;
}

std::vector<command_outcome> detection_session::outcomes() const {
  const ts_lock lock{mutex_};
  return outcomes_;
}

std::vector<obs::span> detection_session::trace() const {
  const ts_lock lock{mutex_};
  return trace_.spans();
}

session_stats detection_session::stats() const {
  const ts_lock lock{mutex_};
  return stats_;
}

// Serializes the complete session. Caller holds busy_ AND mutex_ — the
// image must be a consistent cut of both the worker-owned stage state
// and the lock-guarded streams/counters.
json::value detection_session::build_snapshot() const {
  json::object o;
  o.emplace_back("v", json::value{2.0});
  o.emplace_back("cl", json::value{closed_});
  o.emplace_back("fi", json::value{finished_});
  o.emplace_back("st", json::value{static_cast<double>(state_)});
  o.emplace_back("err", json::value{last_error_});
  o.emplace_back("cb",
                 json::value{static_cast<double>(consumed_blocks_.load())});
  o.emplace_back("rc", json::value{static_cast<double>(reopen_count_)});
  o.emplace_back("bo", json::value{static_cast<double>(backoff_remaining_)});
  o.emplace_back("ctr", encode_counters(stats_));
  o.emplace_back("qh", stats_.queue_wait.snapshot());
  o.emplace_back("ve", encode_verdicts(verdicts_));
  o.emplace_back("oc", encode_outcomes(outcomes_));
  o.emplace_back("det", detector_.snapshot());
  o.emplace_back("pl", pipeline_.has_value() ? pipeline_->snapshot()
                                             : json::value{});
  o.emplace_back("lg",
                 last_good_.empty() ? json::value{} : json::value{last_good_});
  o.emplace_back("tr", trace_.snapshot());
  return json::value{std::move(o)};
}

bool detection_session::try_snapshot(json::value& out) {
  if (!busy_.try_claim()) {
    return false;  // a worker owns the session
  }
  const claim_guard guard{busy_};
  const ts_lock lock{mutex_};
  if (count_ > 0 || (closed_ && !finished_)) {
    // Queued audio is NOT serialized, and a pending close() flush still
    // mutates the streams — only an idle session snapshots.
    return false;
  }
  out = build_snapshot();
  return true;
}

void detection_session::restore(const json::value& snap) {
  // Structured as a branch (not expects()) so the analysis sees the
  // try-acquire succeed on the fall-through path.
  if (!busy_.try_claim()) {
    throw std::invalid_argument{
        "detection_session::restore: session is already shared"};
  }
  const claim_guard guard{busy_};
  const ts_lock lock{mutex_};
  expects(count_ == 0 && stats_.blocks_offered == 0,
          "detection_session::restore: session must be freshly constructed");
  expects(json::u64(snap, "v") == 2,
          "session snapshot: unknown schema version");
  const json::value& pl = json::field(snap, "pl");
  expects(pl.is_null() != pipeline_.has_value(),
          "session snapshot: pipeline presence mismatch");
  closed_ = json::flag(snap, "cl");
  finished_ = json::flag(snap, "fi");
  state_ = snapshot_state(snap);
  last_error_ = json::str(snap, "err");
  consumed_blocks_ = json::u64(snap, "cb");
  reopen_count_ = static_cast<std::size_t>(json::u64(snap, "rc"));
  backoff_remaining_ = json::u64(snap, "bo");
  decode_counters(json::field(snap, "ctr"), stats_);
  stats_.queue_wait.restore(json::field(snap, "qh"));
  verdicts_ = decode_verdicts(json::field(snap, "ve"));
  outcomes_ = decode_outcomes(json::field(snap, "oc"));
  detector_.restore(json::field(snap, "det"));
  if (pipeline_.has_value()) {
    pipeline_->restore(pl);
  }
  const json::value& lg = json::field(snap, "lg");
  last_good_ = lg.is_null() ? std::string{} : lg.string();
  trace_.restore(json::field(snap, "tr"));
}

// ---- Frozen-snapshot readers ------------------------------------------

session_stats snapshot_stats(const json::value& snap) {
  session_stats st;
  decode_counters(json::field(snap, "ctr"), st);
  st.queue_wait.restore(json::field(snap, "qh"));
  return st;
}

session_state snapshot_state(const json::value& snap) {
  const std::uint64_t st = json::u64(snap, "st");
  expects(st <= 3, "session snapshot: state out of range");
  return static_cast<session_state>(st);
}

bool snapshot_closed(const json::value& snap) {
  return json::flag(snap, "cl");
}

std::string snapshot_last_error(const json::value& snap) {
  return json::str(snap, "err");
}

std::vector<defense::stream_event> snapshot_verdicts(const json::value& snap) {
  return decode_verdicts(json::field(snap, "ve"));
}

std::vector<command_outcome> snapshot_outcomes(const json::value& snap) {
  return decode_outcomes(json::field(snap, "oc"));
}

std::vector<obs::span> snapshot_trace(const json::value& snap) {
  return obs::decode_spans(json::field(json::field(snap, "tr"), "sp"));
}

}  // namespace ivc::serve
