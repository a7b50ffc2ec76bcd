// One concurrent detection session of the serving layer.
//
// A detection_session wraps a defense::stream_detector behind a bounded
// ring-buffered ingest queue so that producers (capture threads, the
// load generator) and consumers (the session_manager's workers) are
// decoupled. The contract that makes the whole layer testable:
//
//   * the verdict stream is a pure function of the sequence of ACCEPTED
//     blocks — workers drain a session exclusively and in FIFO order, so
//     verdicts are bit-identical at any worker count and any
//     start()/stop() schedule; scheduling only moves the latency
//     numbers;
//   * overflow is explicit: when the ring is full the configured policy
//     either sheds the offered block (counted per session) or rejects
//     the offer so the producer can apply backpressure and retry.
//
// All shared state — the ring, the counters, AND the verdict stream —
// is guarded by the session mutex; verdicts() hands out a snapshot copy
// so the streaming mode can read a live session's verdicts while a
// worker appends to them.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "audio/buffer.h"
#include "common/histogram.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "common/json_min.h"
#include "defense/detector.h"
#include "defense/stream.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/fault.h"
#include "serve/pipeline.h"

namespace ivc::serve {

// What happens when a block is offered to a full ingest queue.
enum class overflow_policy {
  shed_newest,  // drop the offered block (default: protect the backlog)
  reject,       // accept nothing; the producer retries once workers
                // have made room
};

// Health of one session. Fault containment quarantines a session whose
// scoring stage crashed instead of letting the exception kill the
// worker fleet; recovery (automatic or via reopen()) resets the
// detector/segmenter/pipeline and works off a block-counted backoff
// before scoring resumes. The ladder is strictly fail-closed: a session
// not in `serving`/`degraded` emits no `executed` outcomes, ever.
enum class session_state : std::uint8_t {
  serving,      // healthy, full pipeline
  degraded,     // ASR stage shed (detector-only fail-closed mode)
  recovering,   // reopened after a fault: dropping backoff blocks
  quarantined,  // stage crashed; parked until reopen() (or forever once
                // the bounded retry budget is spent)
};

// Containment + recovery policy of the serving layer.
struct fault_tolerance_config {
  // Reopen a faulted session automatically (bounded by max_reopens).
  // When false the session stays quarantined until a manual reopen().
  bool auto_reopen = true;
  // Retry budget: after this many automatic reopens the next fault
  // parks the session permanently (still fail-closed, still counted).
  std::size_t max_reopens = 3;
  // Block-counted backoff: after the n-th reopen the session consumes
  // and drops `backoff_blocks << n` accepted blocks before scoring
  // resumes. Counted in accepted blocks — never wall clock — so the
  // recovery point is identical at any worker count.
  std::size_t backoff_blocks = 8;
  // Snapshot-based crash recovery: when enabled the session checkpoints
  // its detector + pipeline stream state every `snapshot_every_blocks`
  // scored blocks — only at SAFE points, where the pipeline owes no
  // outcome (pending empty, segmenter idle), so a restore can never
  // re-emit an utterance the fail-closed flush already resolved. A
  // contained fault (and a manual reopen()) then restores the stages
  // from the last good checkpoint instead of cold-resetting: the stream
  // resumes at the checkpoint's position — verdict timestamps continue
  // instead of restarting at t = 0 — losing only the audio between the
  // checkpoint and the fault plus the backoff blocks. Checkpoints are
  // block-counted, so recovery is bit-identical at any worker count.
  bool snapshot_recovery = false;
  std::size_t snapshot_every_blocks = 64;
};

struct serve_config {
  defense::stream_config stream;  // per-session sliding-window detector
  // End-to-end command stage behind the verdict stream (segmenter →
  // recognizer → intent). Disengaged when unset: the session serves
  // detector verdicts only, exactly as before. When the pipeline's
  // decision_window_s is 0 it adopts stream.window_s, so the verdict
  // overlap test always matches the detector's actual analysis window.
  std::optional<pipeline_config> pipeline;
  std::size_t queue_capacity = 64;       // blocks per session ring
  overflow_policy policy = overflow_policy::shed_newest;
  // Workers per shard that session_manager::start(0) spawns, and so
  // the workers that finish() uses on a stopped manager
  // (0 = default_thread_count()). An explicit start(n) overrides it.
  // Only the owning manager's config counts; a per-session config's
  // value is ignored.
  std::size_t worker_threads = 0;
  // Residency bound of each shard of the owning session_manager. When
  // more than this many of a shard's sessions are LIVE, the shard
  // evicts idle least-recently-offered sessions to compact snapshots
  // and rebuilds them on their next offer, bit-identically.
  // 0 = unbounded (no eviction). Ignored by the session itself.
  std::size_t max_resident_sessions = 0;
  // Containment + recovery policy (always on; the knobs bound it).
  fault_tolerance_config fault_tolerance;
  // Deterministic fault injection (chaos harness / tests). Shared and
  // const-thread-safe; null = no injection. The per-session pipeline
  // inherits it for the recognizer sites.
  std::shared_ptr<const fault_injector> faults;
  // ---- Observability -------------------------------------------------
  // Fleet-wide metrics registry, shared by every session and shard of
  // the manager; null = no metrics (handles degrade to no-ops). Each
  // session registers one cell per session_counters row that names a
  // series.
  std::shared_ptr<obs::metrics_registry> metrics;
  // Flight recorder: how many stage spans (ingest -> detector -> ASR ->
  // intent -> outcome) each session retains in its bounded trace ring.
  // 0 disables span tracing entirely.
  std::size_t trace_spans = 64;
  // Notified with the flight-recorder dump on every quarantine entry —
  // retried containment, terminal containment, and force_quarantine
  // alike (the fault span's value field marks retried=1 vs parked=0).
  // Shared and thread-safe; null = dumps only on demand via trace().
  std::shared_ptr<obs::trace_sink> trace_sink;
};

enum class offer_status {
  accepted,     // enqueued
  shed,         // dropped under shed_newest; counted in blocks_shed
  rejected,     // queue full under reject policy: retry once workers
                // have made room
  closed,       // session is closed: no retry will ever succeed
  quarantined,  // session is parked after a fault: only reopen() helps —
                // retrying without one would livelock the backpressure
                // loop, exactly like offering to a closed session
};

struct session_stats {
  // Every counter below has one row in session_counters (after this
  // struct), which is where the snapshot codec, merge(), the registry
  // cells and telemetry_sample() find it.
  std::uint64_t blocks_offered = 0;
  std::uint64_t blocks_accepted = 0;
  std::uint64_t blocks_processed = 0;
  std::uint64_t blocks_shed = 0;      // dropped or evicted at the queue
  std::uint64_t blocks_rejected = 0;  // bounced back to the producer
                                      // (reject policy, closed or
                                      // quarantined session)
  std::uint64_t samples_processed = 0;
  double audio_s_processed = 0.0;
  std::uint64_t events = 0;         // verdicts emitted
  std::uint64_t attack_events = 0;  // verdicts with is_attack
  // Command-pipeline outcome counters (all zero without a pipeline).
  std::uint64_t utterances = 0;          // outcomes emitted
  std::uint64_t commands_blocked = 0;    // vetoed by the defense verdict
  std::uint64_t commands_executed = 0;   // recognized + intent mapped
  std::uint64_t commands_rejected = 0;   // recognizer rejected
  std::uint64_t commands_ignored = 0;    // recognized, intent engine idle
  // ---- Health / fault counters (all zero on a healthy session) -------
  std::uint64_t detector_faults = 0;    // contained detector-stage crashes
  std::uint64_t recognizer_faults = 0;  // contained ASR-stage crashes
  std::uint64_t corrupt_blocks = 0;     // non-finite ingest blocks caught
                                        // at the scoring boundary
  std::uint64_t asr_deadline_overruns = 0;  // modeled-cost budget blown
  std::uint64_t utterances_shed_degraded = 0;  // blocked in detector-only
                                               // mode (ASR stage shed)
  std::uint64_t utterances_stage_fault = 0;    // flushed blocked by a
                                               // contained stage crash
  std::uint64_t utterances_failed_closed = 0;  // blocked by ANY fault
                                               // path (never executed)
  std::uint64_t quarantines = 0;        // containment events
  std::uint64_t reopens = 0;            // recoveries (auto + manual)
  std::uint64_t blocks_dropped_backoff = 0;  // consumed unscored while
                                             // recovering
  // ---- Snapshot layer (all zero unless snapshot_recovery/eviction) ---
  std::uint64_t stage_snapshots = 0;    // crash-recovery checkpoints taken
  std::uint64_t snapshot_restores = 0;  // recoveries from a checkpoint
                                        // (instead of a cold stage reset)
  // Seconds from offer() to the block's claim by a worker, one sample
  // per processed block: the serving stack's congestion signal. Every
  // latency histogram of the layer uses the default binning, so any two
  // merge.
  log_histogram queue_wait;

  // Folds another stats block into this one: counters sum, the
  // histogram merges (the binning configs must match). The fleet/shard
  // aggregation primitive.
  void merge(const session_stats& other);
};

// ---- The counter ledger -------------------------------------------------
// One row per session_stats counter, declared once. The snapshot codec,
// merge(), the fleet registry cells and telemetry_sample() all loop over
// this table, and detection_session bumps a field and its registry cell
// in one call, so the registry mirrors session_stats by construction.
// Adding a counter is a field above, a row here, and its bump site.
struct counter_def {
  const char* key;  // the field's name, also its telemetry_sample() key
  std::variant<std::uint64_t session_stats::*, double session_stats::*>
      field;
  // True when the count is a pure function of the accepted-block order
  // (bit-identical at any worker count). Offer-side counts depend on
  // drain timing, and their registry cells stay out of the
  // deterministic fingerprint.
  bool deterministic = true;
  // Fleet registry series mirroring the field, with at most one label;
  // nullptr = no registry cell.
  const char* series = nullptr;
  const char* label_key = nullptr;
  const char* label_value = nullptr;
};

inline constexpr counter_def session_counters[] = {
    {"blocks_offered", &session_stats::blocks_offered, false},
    {"blocks_accepted", &session_stats::blocks_accepted, false},
    {"blocks_processed", &session_stats::blocks_processed, true,
     "serve_blocks_processed_total"},
    {"blocks_shed", &session_stats::blocks_shed, false,
     "serve_blocks_shed_total"},
    {"blocks_rejected", &session_stats::blocks_rejected, false,
     "serve_blocks_rejected_total"},
    {"samples_processed", &session_stats::samples_processed},
    {"audio_s_processed", &session_stats::audio_s_processed},
    {"events", &session_stats::events, true, "serve_verdicts_total"},
    {"attack_events", &session_stats::attack_events, true,
     "serve_attack_verdicts_total"},
    {"utterances", &session_stats::utterances},
    {"commands_blocked", &session_stats::commands_blocked, true,
     "serve_pipeline_outcomes_total", "kind", "blocked"},
    {"commands_executed", &session_stats::commands_executed, true,
     "serve_pipeline_outcomes_total", "kind", "executed"},
    {"commands_rejected", &session_stats::commands_rejected, true,
     "serve_pipeline_outcomes_total", "kind", "rejected_by_asr"},
    {"commands_ignored", &session_stats::commands_ignored, true,
     "serve_pipeline_outcomes_total", "kind", "ignored"},
    {"detector_faults", &session_stats::detector_faults, true,
     "serve_stage_faults_total", "stage", "detector"},
    {"recognizer_faults", &session_stats::recognizer_faults, true,
     "serve_stage_faults_total", "stage", "asr"},
    {"corrupt_blocks", &session_stats::corrupt_blocks, true,
     "serve_stage_faults_total", "stage", "ingest"},
    {"asr_deadline_overruns", &session_stats::asr_deadline_overruns, true,
     "serve_pipeline_fault_blocks_total", "fault", "deadline_overrun"},
    {"utterances_shed_degraded", &session_stats::utterances_shed_degraded,
     true, "serve_pipeline_fault_blocks_total", "fault", "degraded_shed"},
    {"utterances_stage_fault", &session_stats::utterances_stage_fault, true,
     "serve_pipeline_fault_blocks_total", "fault", "stage_fault"},
    {"utterances_failed_closed", &session_stats::utterances_failed_closed},
    {"quarantines", &session_stats::quarantines, true,
     "serve_quarantines_total"},
    {"reopens", &session_stats::reopens, true, "serve_reopens_total"},
    {"blocks_dropped_backoff", &session_stats::blocks_dropped_backoff, true,
     "serve_backoff_dropped_blocks_total"},
    {"stage_snapshots", &session_stats::stage_snapshots},
    {"snapshot_restores", &session_stats::snapshot_restores},
};

// One fleet registry handle per ledger row, in session_counters order.
using counter_cells = std::array<obs::counter, std::size(session_counters)>;

// The value of one ledger row in `st`.
inline double counter_value(const session_stats& st, const counter_def& c) {
  return std::visit([&st](auto f) { return static_cast<double>(st.*f); },
                    c.field);
}

// The ledger row that declares `field`. The bump sites evaluate it at
// compile time, so a field without a row does not compile.
template <typename T>
constexpr std::size_t counter_index(T session_stats::* field) {
  std::size_t i = 0;
  for (const counter_def& c : session_counters) {
    // holds_alternative + get, not get_if: GCC's UBSan build rejects the
    // null check inside get_if as a constant expression.
    if (std::holds_alternative<T session_stats::*>(c.field) &&
        std::get<T session_stats::*>(c.field) == field) {
      return i;
    }
    ++i;
  }
  throw std::logic_error{"counter_index: field has no ledger row"};
}

class detection_session {
 public:
  detection_session(std::uint64_t id, defense::classifier_detector detector,
                    const serve_config& config);

  std::uint64_t id() const { return id_; }

  // Producer side (thread-safe): offers one ingest block. Blocks are
  // accepted in call order; concurrent producers to the SAME session
  // serialize on the queue lock with no order guarantee between them.
  offer_status offer(audio::buffer block);

  // Marks end-of-stream: later offers return offer_status::closed, and
  // the worker that next claims the session flushes the detector's
  // partial window (stream_detector::finish).
  //
  // Lifecycle edges (pinned by tests, not left implicit):
  //   * close() is idempotent — a second close() is a no-op;
  //   * offer() after close() returns offer_status::closed and counts
  //     the bounce in blocks_rejected; queued blocks are still scored;
  //   * closing a session that never accepted a block is fine: the next
  //     worker to claim it runs the (empty) finish flush exactly once.
  void close();
  bool closed() const;

  // Health of the session (see session_state). Thread-safe snapshot.
  session_state state() const;

  // Message of the last contained fault (empty while healthy).
  std::string last_error() const;

  // Recovery from quarantine: restores the detector/segmenter/pipeline
  // from the last good crash-recovery checkpoint when
  // fault_tolerance.snapshot_recovery is on and one exists, otherwise
  // resets them to fresh-stream state; grants a fresh retry budget and
  // re-enters service through a block-counted backoff (the next
  // fault_tolerance.backoff_blocks accepted blocks are consumed
  // unscored). Returns false when the session is not quarantined or a
  // worker still owns it. Queued blocks survive and are scored — as a
  // resumed stream from the checkpoint, or a NEW stream at t = 0 —
  // once the backoff drains.
  bool reopen();

  // Last-resort containment used by the manager's worker wrappers when
  // an exception escapes process() itself: parks the session
  // immediately (no reset, no backoff) so the fleet keeps serving.
  void force_quarantine(const std::string& what);

  // True while queued blocks remain or a close() flush is still owed.
  bool has_work() const;

  // Consumer side: processes every currently queued block through the
  // detector, appending verdicts. Only one worker runs a session at a
  // time — concurrent callers return 0 immediately instead of blocking.
  // Returns blocks processed.
  std::size_t process();

  // Snapshot of the verdict stream so far. Safe to call at any time,
  // including while a worker is appending (streaming mode).
  std::vector<defense::stream_event> verdicts() const;

  // Snapshot of the command-outcome stream (empty when the session has
  // no pipeline configured). Same safety contract as verdicts().
  std::vector<command_outcome> outcomes() const;

  // Flight recorder: the retained stage spans, oldest -> newest (empty
  // when serve_config::trace_spans is 0). Same safety contract as
  // verdicts(); every field except span::wall_s is deterministic.
  std::vector<obs::span> trace() const;

  session_stats stats() const;

  // ---- Eviction snapshots ---------------------------------------------
  // Serializes the COMPLETE session — counters, histogram, verdict and
  // outcome streams, fault-ladder position, detector/pipeline stream
  // state, and any crash-recovery checkpoint — so the manager can evict
  // the session and rebuild it later with restore(), bit-identically:
  // the rehydrated session's remaining verdicts/outcomes are the ones
  // this session would have produced. Claims the session exclusively;
  // returns false (and writes nothing) when a worker owns it, blocks
  // are still queued, or a close() flush is owed — only an IDLE session
  // snapshots, because queued audio is not serialized.
  bool try_snapshot(json::value& out);

  // Rebuilds from a try_snapshot() image. Must be called on a freshly
  // constructed session of the SAME config before it is shared with
  // producers or workers; throws on a snapshot/config mismatch (e.g. a
  // pipeline snapshot restored into a pipeline-less session).
  void restore(const json::value& snap);

 private:
  struct queued_block {
    audio::buffer block;
    std::chrono::steady_clock::time_point enqueued;
  };

  // Pops the oldest queued block; false when the queue is empty.
  bool pop(queued_block& out) IVC_EXCLUDES(mutex_);
  // Adds `n` to one ledger field and to its registry cell in one step.
  template <auto Field, typename T = std::uint64_t>
  void count(T n = 1) IVC_REQUIRES(mutex_) {
    constexpr std::size_t row = counter_index(Field);
    stats_.*Field += n;
    if constexpr (std::is_integral_v<T>) {
      cells_[row].inc(n);
    }
  }
  // Folds detector verdicts into verdicts_ and the ledger.
  void record_verdicts(const std::vector<defense::stream_event>& events)
      IVC_REQUIRES(mutex_);
  // Folds pipeline outcomes into outcomes_ and the ledger: the only
  // place an outcome is counted.
  void record_outcomes(const std::vector<command_outcome>& outcomes)
      IVC_REQUIRES(mutex_);
  // Containment: called by process() (holding busy_) when an exception
  // escapes a scoring stage. Flushes the pipeline fail-closed, counts
  // the fault against the ledger field `Counter`, then either
  // auto-reopens (bounded retry, block-counted backoff) or parks the
  // session quarantined.
  template <auto Counter>
  void contain_fault(const std::string& what) IVC_REQUIRES(busy_)
      IVC_EXCLUDES(mutex_);
  // Resets detector/pipeline to fresh-stream state.
  void reset_stages() IVC_REQUIRES(busy_);
  // Crash recovery: restores the stages from the last good checkpoint;
  // falls back to reset_stages() when there is none (or it is corrupt).
  // Counts the restore when it happens.
  void recover_stages() IVC_REQUIRES(busy_) IVC_EXCLUDES(mutex_);
  // Takes a crash-recovery checkpoint when the block count and safety
  // conditions line up.
  void maybe_checkpoint(std::uint64_t block_index) IVC_REQUIRES(busy_)
      IVC_EXCLUDES(mutex_);
  // Serializes everything; the image must be a consistent cut of both
  // the worker-owned stage state and the lock-guarded streams.
  json::value build_snapshot() const IVC_REQUIRES(busy_, mutex_);

  const std::uint64_t id_;
  const std::size_t capacity_;
  const overflow_policy policy_;
  const fault_tolerance_config fault_tolerance_;
  const std::shared_ptr<const fault_injector> faults_;
  const std::shared_ptr<obs::trace_sink> trace_sink_;
  // Rows without a series, and every row without a registry, hold a
  // no-op handle.
  const counter_cells cells_;

  // Every piece of stream-visible state is a declared capability target:
  // clang -Wthread-safety proves each access below happens under mutex_.
  mutable ts_mutex mutex_;
  std::vector<queued_block> ring_ IVC_GUARDED_BY(mutex_);
  std::size_t head_ IVC_GUARDED_BY(mutex_) = 0;   // oldest queued block
  std::size_t count_ IVC_GUARDED_BY(mutex_) = 0;  // queued blocks
  session_stats stats_ IVC_GUARDED_BY(mutex_);
  bool closed_ IVC_GUARDED_BY(mutex_) = false;
  bool finished_ IVC_GUARDED_BY(mutex_) = false;  // close() flush done
  session_state state_ IVC_GUARDED_BY(mutex_) = session_state::serving;
  std::string last_error_ IVC_GUARDED_BY(mutex_);
  std::vector<defense::stream_event> verdicts_ IVC_GUARDED_BY(mutex_);
  std::vector<command_outcome> outcomes_ IVC_GUARDED_BY(mutex_);
  // Bounded flight recorder (see obs/trace.h). Guarded by mutex_ like
  // the streams; serialized with the snapshot so eviction preserves it.
  obs::trace_ring trace_ IVC_GUARDED_BY(mutex_);

  // One worker at a time: the exclusive-claim discipline is itself a
  // capability (common/sync.h), so "touched only by the worker holding
  // busy_" is compiler-checked, not a comment.
  claim_flag busy_;

  defense::stream_detector detector_ IVC_GUARDED_BY(busy_);
  std::optional<command_pipeline> pipeline_ IVC_GUARDED_BY(busy_);
  // Fault-schedule coordinate: every block consumed off the ring (scored
  // or dropped), in accepted order. Monotonic forever — reopen() must
  // not rewind it, or a pinned fault would re-fire after every reset.
  // Atomic, NOT busy_-guarded: the busy_ holder is the only writer, but
  // force_quarantine() reads it from the manager's backstop path without
  // claiming the session (the claim may be wedged — that is why the
  // backstop exists), which the thread-safety pass flagged as a race.
  std::atomic<std::uint64_t> consumed_blocks_{0};
  // Automatic-reopen retry budget spent so far.
  std::size_t reopen_count_ IVC_GUARDED_BY(busy_) = 0;
  // Accepted blocks still to drop before scoring resumes (recovering).
  std::uint64_t backoff_remaining_ IVC_GUARDED_BY(busy_) = 0;
  // Last good crash-recovery checkpoint (binary-encoded detector +
  // pipeline stream state; empty = none yet). Binary keeps a resident
  // checkpoint cheap — the pending audio inside it is mostly silence,
  // which the codec run-length-codes away.
  std::string last_good_ IVC_GUARDED_BY(busy_);
};

// ---- Frozen-snapshot readers ------------------------------------------
// Decode one field family out of a try_snapshot() image WITHOUT
// rebuilding the session — how the manager serves stats/verdict/outcome
// reads for EVICTED sessions (reads must not change residency).
session_stats snapshot_stats(const json::value& snap);
session_state snapshot_state(const json::value& snap);
bool snapshot_closed(const json::value& snap);
std::string snapshot_last_error(const json::value& snap);
std::vector<defense::stream_event> snapshot_verdicts(const json::value& snap);
std::vector<command_outcome> snapshot_outcomes(const json::value& snap);
std::vector<obs::span> snapshot_trace(const json::value& snap);

}  // namespace ivc::serve
