#include "serve/session.h"

#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

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
// The counter block serializes as one flat number array; encode and
// decode share this single member walk so the order can never drift.
// Appending a counter to session_stats means appending it HERE (at the
// end — the array length is part of the v1 schema).
template <typename Stats, typename F>
void for_each_counter(Stats& st, F&& f) {
  f(st.blocks_offered);
  f(st.blocks_accepted);
  f(st.blocks_processed);
  f(st.blocks_shed);
  f(st.blocks_rejected);
  f(st.samples_processed);
  f(st.audio_s_processed);
  f(st.events);
  f(st.attack_events);
  f(st.utterances);
  f(st.commands_blocked);
  f(st.commands_executed);
  f(st.commands_rejected);
  f(st.commands_ignored);
  f(st.detector_faults);
  f(st.recognizer_faults);
  f(st.corrupt_blocks);
  f(st.asr_deadline_overruns);
  f(st.utterances_shed_degraded);
  f(st.utterances_failed_closed);
  f(st.quarantines);
  f(st.reopens);
  f(st.blocks_dropped_backoff);
  f(st.stage_snapshots);
  f(st.snapshot_restores);
}
constexpr std::size_t counter_fields = 25;

json::value encode_counters(const session_stats& st) {
  json::array a;
  a.reserve(counter_fields);
  for_each_counter(st,
                   [&a](auto v) { a.emplace_back(static_cast<double>(v)); });
  return json::value{std::move(a)};
}

void decode_counters(const json::value& v, session_stats& st) {
  const json::array& a = v.items();
  expects(a.size() == counter_fields,
          "session snapshot: counter block size mismatch");
  std::size_t i = 0;
  for_each_counter(st, [&](auto& slot) {
    const json::value& x = a[i++];
    if constexpr (std::is_integral_v<std::decay_t<decltype(slot)>>) {
      slot = json::to_u64(x);
    } else {
      slot = x.number();
    }
  });
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
    expects(kind <= 3 && fault <= 4,
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

// Maps a fault counter to the pipeline stage a flight-recorder span
// attributes the fault to.
obs::trace_stage fault_stage(std::uint64_t session_stats::* counter) {
  if (counter == &session_stats::detector_faults) {
    return obs::trace_stage::detector;
  }
  if (counter == &session_stats::recognizer_faults) {
    return obs::trace_stage::asr;
  }
  return obs::trace_stage::ingest;  // corrupt_blocks
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
  // Zip the two structs through the shared counter walk: read `other`'s
  // counters into a flat buffer, then add them slot-by-slot.
  std::vector<double> vals;
  vals.reserve(counter_fields);
  for_each_counter(other,
                   [&vals](auto v) { vals.push_back(static_cast<double>(v)); });
  std::size_t i = 0;
  for_each_counter(*this, [&](auto& slot) {
    slot += static_cast<std::decay_t<decltype(slot)>>(vals[i++]);
  });
  latency.merge(other.latency);
  queue_wait.merge(other.queue_wait);
  service.merge(other.service);
  asr_service.merge(other.asr_service);
}

// Registers the fleet-shared cells once per session; every handle
// degrades to a no-op when the registry is null (telemetry off).
detection_session::metric_handles::metric_handles(obs::metrics_registry* reg) {
  if (reg == nullptr) {
    return;
  }
  blocks_processed = reg->get_counter("serve_blocks_processed_total");
  // Shed/reject counts depend on drain timing (workers drain while
  // producers offer), so they are excluded from the deterministic
  // fingerprint.
  blocks_shed = reg->get_counter("serve_blocks_shed_total", {}, false);
  blocks_rejected = reg->get_counter("serve_blocks_rejected_total", {}, false);
  events = reg->get_counter("serve_verdicts_total");
  attack_events = reg->get_counter("serve_attack_verdicts_total");
  faults_ingest =
      reg->get_counter("serve_stage_faults_total", {{"stage", "ingest"}});
  faults_detector =
      reg->get_counter("serve_stage_faults_total", {{"stage", "detector"}});
  faults_asr = reg->get_counter("serve_stage_faults_total", {{"stage", "asr"}});
  quarantines = reg->get_counter("serve_quarantines_total");
  reopens = reg->get_counter("serve_reopens_total");
  backoff_drops = reg->get_counter("serve_backoff_dropped_blocks_total");
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
      metrics_{config.metrics.get()},
      ring_(config.queue_capacity),
      stats_{config.latency_bins},
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
    // utterance index); the stage inherits the session's injector —
    // and the fleet metrics registry for its utterance counters.
    if (pc.faults == nullptr) {
      pc.faults = faults_;
    }
    if (pc.metrics == nullptr) {
      pc.metrics = config.metrics;
    }
    pc.fault_session_id = id_;
    pipeline_.emplace(std::move(pc));
  }
}

offer_status detection_session::offer(audio::buffer block) {
  audio::validate(block, "detection_session::offer");
  const clock::time_point now = clock::now();
  const ts_lock lock{mutex_};
  ++stats_.blocks_offered;
  if (closed_) {
    // Distinct from `rejected`: a rejected offer succeeds once workers
    // make room, a closed session never accepts again — conflating the
    // two would livelock the producer's retry loop.
    ++stats_.blocks_rejected;
    return offer_status::closed;
  }
  if (state_ == session_state::quarantined) {
    // Same shape as closed: no amount of draining helps, only reopen().
    ++stats_.blocks_rejected;
    return offer_status::quarantined;
  }
  if (count_ == capacity_) {
    switch (policy_) {
      case overflow_policy::shed_newest:
        ++stats_.blocks_shed;
        metrics_.blocks_shed.inc();
        return offer_status::shed;
      case overflow_policy::reject:
        ++stats_.blocks_rejected;
        metrics_.blocks_rejected.inc();
        return offer_status::rejected;
      case overflow_policy::shed_oldest:
        // Evict the head slot and fall through to enqueue. NOTE: evicting
        // mid-stream drops audio the detector never sees, so later
        // windows slide over a splice — that is the cost of shedding, and
        // exactly what the shed counters exist to expose.
        head_ = (head_ + 1) % capacity_;
        --count_;
        ++stats_.blocks_shed;
        metrics_.blocks_shed.inc();
        break;
    }
  }
  const std::size_t slot = (head_ + count_) % capacity_;
  ring_[slot] = queued_block{std::move(block), now};
  ++count_;
  ++stats_.blocks_accepted;
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
      ++stats_.snapshot_restores;
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
  ++stats_.stage_snapshots;
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
    ++stats_.reopens;
    metrics_.reopens.inc();
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
    ++stats_.quarantines;
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
  metrics_.quarantines.inc();
  if (dumped) {
    // Outside mutex_: the sink serializes on its own lock and may do IO.
    trace_sink_->on_quarantine(id_, what, dump);
  }
}

// Containment: the calling worker holds busy_; an exception just escaped
// a scoring stage. Quarantine THIS session fail-closed and either
// auto-reopen (bounded retry + block-counted backoff) or park it.
void detection_session::contain_fault(std::uint64_t session_stats::* counter,
                                      const std::string& what) {
  // Flush the pipeline fail-closed FIRST: every utterance it still holds
  // resolves as blocked — a faulted stage must never leave an utterance
  // in a state where a later code path could execute it.
  std::vector<command_outcome> flushed;
  if (pipeline_.has_value()) {
    flushed = pipeline_->fail_closed();
  }
  const bool retry = fault_tolerance_.auto_reopen &&
                     reopen_count_ < fault_tolerance_.max_reopens;
  const obs::trace_stage stage = fault_stage(counter);
  std::vector<obs::span> dump;
  bool dumped = false;
  {
    const ts_lock lock{mutex_};
    stats_.*counter += 1;
    ++stats_.quarantines;
    record_outcomes(flushed);
    last_error_ = what;
    // Flight recorder: the fault span carries the FAULTING stage plus
    // the error message. When the retry budget is spent this is the
    // ring's final span — the quarantine dump ends with what killed the
    // session, attributed to the stage that threw.
    const std::uint64_t consumed = consumed_blocks_.load();
    trace_.record({stage, consumed > 0 ? consumed - 1 : 0,
                   stats_.audio_s_processed, retry ? 1.0 : 0.0, 0.0, what});
    if (retry) {
      state_ = session_state::recovering;
      ++stats_.reopens;
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
  switch (stage) {
    case obs::trace_stage::detector:
      metrics_.faults_detector.inc();
      break;
    case obs::trace_stage::asr:
      metrics_.faults_asr.inc();
      break;
    default:
      metrics_.faults_ingest.inc();
      break;
  }
  metrics_.quarantines.inc();
  if (retry) {
    metrics_.reopens.inc();
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

std::size_t detection_session::process(std::size_t max_blocks) {
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
  while (max_blocks == 0 || processed < max_blocks) {
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
      metrics_.backoff_drops.inc();
      const ts_lock lock{mutex_};
      ++stats_.blocks_dropped_backoff;
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
      contain_fault(&session_stats::corrupt_blocks,
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
    } catch (const std::exception& e) {
      contain_fault(&session_stats::detector_faults, e.what());
      continue;
    } catch (...) {
      contain_fault(&session_stats::detector_faults,
                    "detector fault: unknown exception");
      continue;
    }
    const clock::time_point scored = clock::now();
    // The command stage runs after the detector on the same block, so
    // its outcomes inherit the accepted-block-order determinism. Its
    // time is the pipeline's own bill, not the detector's: `service`
    // stays detector-only and the per-utterance recognizer time lands
    // in `asr_service`; the end-to-end `latency` covers both.
    std::vector<command_outcome> outcomes;
    if (pipeline_.has_value()) {
      try {
        outcomes = pipeline_->feed(item.block, events);
      } catch (const std::exception& e) {
        // The detector's verdicts for this block are still valid — keep
        // them — but the command stage is now suspect: contain it. Its
        // pending utterances flush fail-closed inside contain_fault.
        {
          const ts_lock lock{mutex_};
          record_verdicts(events);
        }
        contain_fault(&session_stats::recognizer_faults, e.what());
        continue;
      } catch (...) {
        contain_fault(&session_stats::recognizer_faults,
                      "recognizer fault: unknown exception");
        continue;
      }
    }
    const clock::time_point piped = clock::now();
    const double queue_wait_s =
        std::chrono::duration<double>(claimed - item.enqueued).count();
    const double service_s =
        std::chrono::duration<double>(scored - claimed).count();
    const double latency_s =
        std::chrono::duration<double>(piped - item.enqueued).count();
    {
      const ts_lock lock{mutex_};
      record_verdicts(events);
      ++stats_.blocks_processed;
      stats_.samples_processed += samples;
      stats_.audio_s_processed += static_cast<double>(samples) / rate;
      metrics_.blocks_processed.inc();
      stats_.latency.record(latency_s);
      stats_.queue_wait.record(queue_wait_s);
      stats_.service.record(service_s);
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
  } catch (const std::exception& e) {
    contain_fault(&session_stats::detector_faults, e.what());
    return processed;
  } catch (...) {
    contain_fault(&session_stats::detector_faults,
                  "detector fault: unknown exception in finish");
    return processed;
  }
  std::vector<command_outcome> tail_outcomes;
  bool pipeline_ok = true;
  std::string pipeline_error;
  if (pipeline_.has_value()) {
    try {
      // The flush tail can still veto (or contain) the final utterances.
      tail_outcomes = pipeline_->finish(tail);
    } catch (const std::exception& e) {
      pipeline_ok = false;
      pipeline_error = e.what();
    } catch (...) {
      pipeline_ok = false;
      pipeline_error = "recognizer fault: unknown exception in finish";
    }
  }
  {
    const ts_lock lock{mutex_};
    record_verdicts(tail);
    record_outcomes(tail_outcomes);
  }
  if (!pipeline_ok) {
    contain_fault(&session_stats::recognizer_faults, pipeline_error);
  }
  return processed;
}

// Appends detector verdicts and counts them, in the session stats and
// the fleet registry alike. Caller holds mutex_.
void detection_session::record_verdicts(
    const std::vector<defense::stream_event>& events) {
  verdicts_.insert(verdicts_.end(), events.begin(), events.end());
  std::uint64_t attacks = 0;
  for (const defense::stream_event& e : events) {
    attacks += e.is_attack ? 1 : 0;
  }
  stats_.events += events.size();
  stats_.attack_events += attacks;
  metrics_.events.inc(events.size());
  metrics_.attack_events.inc(attacks);
}

// Appends pipeline outcomes and folds them into the counters and the
// ASR latency histogram. Caller holds mutex_.
void detection_session::record_outcomes(
    const std::vector<command_outcome>& outcomes) {
  for (const command_outcome& o : outcomes) {
    // Utterance coordinate of the spans below: the position of this
    // outcome in the session's resolved-utterance order (deterministic,
    // like everything in the outcome stream).
    const std::uint64_t uidx = stats_.utterances;
    ++stats_.utterances;
    switch (o.kind) {
      case command_outcome::kind_t::blocked:
        ++stats_.commands_blocked;
        break;
      case command_outcome::kind_t::executed:
        ++stats_.commands_executed;
        break;
      case command_outcome::kind_t::rejected_by_asr:
        ++stats_.commands_rejected;
        break;
      case command_outcome::kind_t::ignored:
        ++stats_.commands_ignored;
        break;
    }
    switch (o.fault) {
      case command_outcome::fault_t::none:
        break;
      case command_outcome::fault_t::deadline_overrun:
        ++stats_.asr_deadline_overruns;
        ++stats_.utterances_failed_closed;
        break;
      case command_outcome::fault_t::degraded_shed:
        ++stats_.utterances_shed_degraded;
        ++stats_.utterances_failed_closed;
        break;
      case command_outcome::fault_t::recognizer_throw:
      case command_outcome::fault_t::stage_fault:
        ++stats_.utterances_failed_closed;
        break;
    }
    if (o.kind != command_outcome::kind_t::blocked) {
      stats_.asr_service.record(o.asr_s);
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
  o.emplace_back("v", json::value{1.0});
  o.emplace_back("cl", json::value{closed_});
  o.emplace_back("fi", json::value{finished_});
  o.emplace_back("st", json::value{static_cast<double>(state_)});
  o.emplace_back("err", json::value{last_error_});
  o.emplace_back("cb",
                 json::value{static_cast<double>(consumed_blocks_.load())});
  o.emplace_back("rc", json::value{static_cast<double>(reopen_count_)});
  o.emplace_back("bo", json::value{static_cast<double>(backoff_remaining_)});
  o.emplace_back("ctr", encode_counters(stats_));
  o.emplace_back("lh", stats_.latency.snapshot());
  o.emplace_back("qh", stats_.queue_wait.snapshot());
  o.emplace_back("sh", stats_.service.snapshot());
  o.emplace_back("ah", stats_.asr_service.snapshot());
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
  expects(json::u64(snap, "v") == 1,
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
  stats_.latency.restore(json::field(snap, "lh"));
  stats_.queue_wait.restore(json::field(snap, "qh"));
  stats_.service.restore(json::field(snap, "sh"));
  stats_.asr_service.restore(json::field(snap, "ah"));
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

session_stats snapshot_stats(const json::value& snap,
                             const histogram_config& bins) {
  session_stats st{bins};
  decode_counters(json::field(snap, "ctr"), st);
  st.latency.restore(json::field(snap, "lh"));
  st.queue_wait.restore(json::field(snap, "qh"));
  st.service.restore(json::field(snap, "sh"));
  st.asr_service.restore(json::field(snap, "ah"));
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
