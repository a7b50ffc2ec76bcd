// Multi-stream defense serving layer: the one front of the serving
// stack. Open a session, offer it audio, read its decisions.
//
// ---- Shards ---------------------------------------------------------------
// A manager holds M private shards (session_manager{detector, config, M};
// M = 1 by default). Each shard is a complete serving core: its own
// session table, eviction heap, ready-queue and worker threads, under its
// own two locks. Placement is arithmetic alone: open_session() picks the
// next shard from one atomic cursor, and that shard mints the global id
// slot·M + shard, so id g lives on shard g % M, in slot g / M, and every
// id-keyed call goes straight to its shard. With one opener the ids are
// dense (the n-th call returns n). The shards share only the detector
// weights and the fleet config. The residency bound, the worker count
// of start(n) and the shard_kill coordinates are all PER SHARD.
//
// ---- Scheduling -----------------------------------------------------------
// start(n) spawns n workers per shard that block on that shard's
// condition-variable ready-queue. A session enqueues itself when an
// offer()/close() gives it work; a worker claims it exclusively, scores
// its queued blocks back-to-back (the scoring batch — the per-thread
// caches under feature extraction are hit instead of rebuilt per
// window), then re-queues it if more work arrived meanwhile. stop()
// finishes everything on the ready-queues and joins the workers. No
// barriers: latency is per-session, not per-slowest-session, which is
// what arrival-time-paced workloads need. A batch caller that wants a
// barrier (every queued block scored before it goes on) calls start(n)
// then stop().
//
// Because a session lives on one shard, sessions never interact, and a
// session is always drained exclusively and in FIFO order, per-session
// verdict/outcome streams and traces are bit-identical at any shard
// count, worker count, start/stop schedule and eviction schedule; only
// latency and throughput move. A session's id is the same everywhere:
// flight-recorder dumps and the fault injector's (kind, session, index)
// coordinates use the id open_session() returned, so a session fault
// schedule does not depend on placement either.
//
// Backpressure is explicit and lives at the session queues: a full ring
// sheds the offered block or rejects it per serve_config::policy, and
// every shed/reject is counted. The aggregate() view sums per-session
// counters and merges their queue_wait histograms into one fleet-wide.
//
// ---- Session eviction -----------------------------------------------------
// A voice fleet has far more OPEN sessions than ACTIVE ones: a session
// is a device, and a device speaks for a few seconds an hour. Keeping a
// full detection_session resident per open session (detector window
// state, segmenter buffers, histogram bins) caps the fleet at
// memory/session — the million-session benchmark needs the resident set
// bounded by ACTIVITY instead. When serve_config::max_resident_sessions
// is set, each shard evicts idle least-recently-offered sessions to a
// compact binary snapshot (detection_session::try_snapshot) and rebuilds
// them transparently on their next offer. Because the snapshot is
// bit-exact, eviction is invisible in the verdict/outcome streams — the
// bit-identity contract above extends across any eviction schedule.
// Reads (verdicts/outcomes/stats/state/aggregate) decode the snapshot or
// its freeze-time hints in place and never rehydrate: observing a
// session must not change the resident set. Only IDLE sessions evict —
// queued audio is never serialized — so eviction can transiently
// overshoot the bound while every candidate is busy; the bound is
// enforced again at the next offer.
//
// shard_kill fault: when the fleet config's fault injector fires
// shard_kill at (shard index, per-shard offer index), the shard "crashes"
// right after delivering that offer: every idle session of the shard is
// force-evicted to its snapshot and service continues from cold. With a
// single producer the kill schedule is reproducible; because snapshots
// are bit-exact, a kill is invisible in the streams.
//
// Lock order (global, per shard): sessions mutex -> sched mutex ->
// session mutex_. offer() holds the shard's sessions mutex across the
// whole call — rehydrate + enqueue + residency enforcement + the
// shard_kill draw — so an offer can never race an eviction of the same
// session and lose its block. No call holds two shards' locks at once.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve/session.h"

namespace ivc::serve {

// Fleet-wide totals: summed session counters plus the merged queue_wait
// histogram.
struct serve_totals {
  session_stats stats;            // counters summed over sessions
  std::size_t num_sessions = 0;
  std::size_t sessions_with_attack_events = 0;
  // Fleet health roll-up: sessions currently NOT serving at full
  // capability, by state at snapshot time.
  std::size_t sessions_degraded = 0;     // ASR stage shed
  std::size_t sessions_recovering = 0;   // working off reopen backoff
  std::size_t sessions_quarantined = 0;  // parked after a fault
  // (session id, last_error()) of every quarantined session — resident
  // or frozen — so an operator sees WHY each parked session parked
  // without touching the resident set.
  std::vector<std::pair<std::uint64_t, std::string>> quarantine_errors;
};

// Eviction-layer counters, summed over shards.
struct eviction_stats {
  std::uint64_t evictions = 0;     // sessions frozen to a snapshot
  std::uint64_t rehydrations = 0;  // sessions rebuilt from one
  // Bytes currently held by frozen images (the evicted working set).
  std::uint64_t frozen_bytes = 0;
  std::size_t resident = 0;  // live sessions at snapshot time
  // Wall time of each rehydration (decode + rebuild + restore), seconds.
  log_histogram rehydrate_latency;
};

// Per-shard load/eviction view, plus the fleet spread the bench reports.
struct shard_load {
  std::size_t sessions = 0;   // open on this shard (live + frozen)
  std::size_t resident = 0;   // live right now
  std::uint64_t offers = 0;   // blocks offered through this shard
  std::uint64_t evictions = 0;
  std::uint64_t rehydrations = 0;
  std::uint64_t shard_kills = 0;   // shard_kill faults fired here
  std::size_t quarantined = 0;     // sessions parked on this shard
};

struct shard_balance {
  std::vector<shard_load> shards;
  std::size_t min_sessions = 0;
  std::size_t max_sessions = 0;
  double mean_sessions = 0.0;
};

class session_manager {
 public:
  // `config` is the fleet config every shard serves with. `num_shards`
  // >= 1.
  explicit session_manager(defense::classifier_detector detector,
                           serve_config config = {},
                           std::size_t num_shards = 1);
  ~session_manager();  // stops streaming workers if still running
  session_manager(const session_manager&) = delete;
  session_manager& operator=(const session_manager&) = delete;

  std::size_t num_shards() const { return cores_.size(); }

  // Opens a new session on the next shard and returns the id that shard
  // minted (see Shards above). Thread-safe; sessions may be opened
  // mid-stream while streaming workers run (the new session joins its
  // shard's ready-queue on its first offer).
  std::uint64_t open_session();

  // Opens a session with its OWN config — detector stream windowing,
  // command pipeline (recognizer/segmenter/intent), queue bound and
  // overflow policy may all differ per session.
  std::uint64_t open_session(const serve_config& config);

  // Same, sharing one config object across sessions — what a
  // million-session fleet uses so the per-session cost is the session,
  // not a config copy. The pointee must outlive the manager unchanged.
  std::uint64_t open_session(std::shared_ptr<const serve_config> config);

  std::size_t num_sessions() const;

  // Which shard serves session `id`: id % num_shards(). Throws
  // std::invalid_argument for an id no shard has minted, like every
  // id-keyed call below.
  std::size_t shard_of(std::uint64_t id) const;

  // Producer side: offers one block to session `id`. Thread-safe.
  // Rehydrates the session first if it was evicted, enforces the
  // residency bound afterwards, then draws the shard_kill fault. While
  // streaming, an accepted offer enqueues the session on the ready-queue
  // if it is not already queued/claimed.
  offer_status offer(std::uint64_t id, audio::buffer block);

  // Marks a session (or all of them) end-of-stream; the flush happens as
  // soon as a worker claims the session (while streaming), or at the next
  // start(). close() on an evicted session rehydrates it so the
  // flush can run (no-op when the snapshot is already closed+flushed);
  // close_all() skips rehydrating those.
  void close(std::uint64_t id);
  void close_all();

  // Spawns `n_workers` long-lived worker threads PER SHARD (0 = the
  // fleet config's worker_threads, or default_thread_count() when that
  // is 0 too) blocking on the shard's ready-queue, and enqueues every
  // session that already has work. Idempotent: calling start() while
  // streaming is a no-op (the worker count does not change).
  void start(std::size_t n_workers = 0);

  // Finishes everything on the ready-queues (including work sessions
  // re-queue for themselves while stopping), then joins the workers.
  // Offers that race with stop(), or arrive after it, stay queued in
  // their sessions; the next start() picks them up.
  // Idempotent: stop() without start() is a no-op.
  void stop();

  // True between start() and stop().
  bool streaming() const;

  // Recovery: reopens a quarantined session (detection_session::reopen)
  // and — while streaming — puts it back on the ready-queue if it has
  // queued blocks waiting. Pinned semantics: an unknown id throws
  // std::invalid_argument (it is a caller bug, same as offer), a known
  // session that is NOT quarantined returns false and changes nothing,
  // and an evicted quarantined session is rehydrated first.
  bool reopen(std::uint64_t id);

  // close_all(), start(), stop(): scores every queued block and runs
  // every owed close() flush, then leaves the manager stopped. Works the
  // same whether or not workers were running.
  void finish();

  // True while session `id` is live (not evicted).
  bool resident(std::uint64_t id) const;

  // Evicts session `id` to its snapshot if it is idle; false when it is
  // busy, has queued work, owes a close() flush, or is already evicted.
  bool evict(std::uint64_t id);

  eviction_stats eviction() const;

  // Health of session `id` and the message of its last contained fault
  // (empty while healthy). By value, so nothing the caller holds dies
  // with a later eviction; a frozen session answers from its
  // freeze-time hints without decoding its image.
  session_state state(std::uint64_t id) const;
  std::string last_error(std::uint64_t id) const;

  // Snapshot of one session's verdict stream. Safe at any time, even
  // while streaming workers append; reads an evicted session's stream
  // out of its frozen snapshot without rehydrating.
  std::vector<defense::stream_event> verdicts(std::uint64_t id) const;

  // Snapshot of one session's command-outcome stream (empty unless the
  // session's config carries a pipeline). Same safety contract.
  std::vector<command_outcome> outcomes(std::uint64_t id) const;

  session_stats stats(std::uint64_t id) const;

  // Flight-recorder dump of one session's span trace (oldest → newest).
  // Same safety contract.
  std::vector<obs::span> trace(std::uint64_t id) const;

  // Fleet totals over every shard and session. Health facts of frozen
  // sessions come from their freeze-time hints.
  serve_totals aggregate() const;

  // Per-shard load plus the session spread.
  shard_balance balance() const;

 private:
  struct core;  // one shard: session table, eviction heap, ready-queue

  core& core_of(std::uint64_t id) const;  // shard id % M
  // Runs `live` on session `id` while it is resident, `frozen` on its
  // slot while it is evicted, under its shard's sessions mutex.
  template <class Live, class Frozen>
  auto read(std::uint64_t id, Live live, Frozen frozen) const;

  defense::classifier_detector detector_;
  serve_config config_;
  // Immutable after construction; each core locks for itself.
  std::vector<std::unique_ptr<core>> cores_;
  // Round-robin cursor of open_session().
  std::atomic<std::uint64_t> next_{0};
};

}  // namespace ivc::serve
