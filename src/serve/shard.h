// Sharded serving front: sessions placed across M independent
// session_manager shards by arithmetic alone.
//
// One session_manager scales to a worker pool, but its scheduler state
// (ready-queue, session table, eviction heap) is one lock domain — at
// fleet scale the front needs to PARTITION, not just parallelize. The
// shard_manager keeps the session_manager untouched and puts a thin
// front before it: global session id g lives on shard g % M, in slot
// g / M. Each shard is a complete session_manager with its own workers,
// ready-queue, residency bound and histograms, and it mints the global
// ids itself, so the front keeps no route table and takes no lock:
// open_session() picks the next shard from one atomic counter, and
// every id-keyed call goes straight to shards_[id % M]. The offer and
// shard_kill counters are per-shard atomics. Shards share only the
// detector weights and (optionally) one serve_config object.
//
// Because a session's id is the same on every layer, the flight-recorder
// dumps and the fault injector's (kind, session, index) coordinates both
// use the id open_session() returned. A session fault schedule is
// therefore independent of placement, like everything else.
//
// The determinism contract survives sharding by construction: a
// session lives entirely on one shard, sessions never interact, and
// each shard preserves the exclusive-claim FIFO drain — so per-session
// verdict/outcome streams and traces are bit-identical at ANY shard
// count, worker count, and eviction schedule, session faults included.
// The shard test pins exactly that.
//
// shard_kill fault: when the shared fault_config's shard_kill_rate is
// set (or a pinned schedule entry names a shard), the front
// deterministically "crashes" a shard — every idle session of that
// shard is force-evicted to its snapshot (evict_idle) and service
// continues from cold. The draw coordinates are (shard index,
// per-shard offer counter), so with a single producer the kill
// schedule is reproducible; because snapshots are bit-exact, a kill
// must be invisible in the streams — which is what the chaos gate
// checks.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "serve/session_manager.h"

namespace ivc::serve {

// Per-shard load/eviction view, plus the fleet spread the bench reports.
struct shard_load {
  std::size_t sessions = 0;   // open on this shard (live + frozen)
  std::size_t resident = 0;   // live right now
  std::uint64_t offers = 0;   // blocks routed through this shard
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
  // (global session id, last_error()) of every quarantined session in
  // the fleet, shard by shard. The shards mint global ids, so these are
  // the ids open_session() returned.
  std::vector<std::pair<std::uint64_t, std::string>> quarantine_errors;
};

class shard_manager {
 public:
  // `config` applies to every shard (residency bound and fault injector
  // are PER SHARD). `num_shards` >= 1.
  shard_manager(defense::classifier_detector detector, serve_config config,
                std::size_t num_shards);

  std::size_t num_shards() const { return shards_.size(); }

  // Opens a session on the next shard in round-robin order and returns
  // the global id that shard minted. With one opener the ids are dense:
  // the n-th call returns n. Same overloads as session_manager — the
  // shared-config form is what a million-session fleet uses.
  std::uint64_t open_session();
  std::uint64_t open_session(const serve_config& config);
  std::uint64_t open_session(std::shared_ptr<const serve_config> config);

  std::size_t num_sessions() const;

  // Which shard serves global session `id`: id % num_shards(). Throws
  // std::invalid_argument for an id no shard has minted.
  std::size_t shard_of(std::uint64_t id) const;

  // The shard fronts themselves, for drills that poke one shard (the
  // chaos bench kills shard i directly via shard(i).evict_idle()).
  session_manager& shard(std::size_t i);
  const session_manager& shard(std::size_t i) const;

  // Producer side: hands the block to the session's shard. Thread-safe
  // and lock-free outside that shard. The shard_kill draw below uses
  // this shard's offer counter, so a DETERMINISTIC kill schedule needs a
  // single producer (the paced bench's timeline loop), like every other
  // stream-order contract.
  offer_status offer(std::uint64_t id, audio::buffer block);

  void close(std::uint64_t id);
  void close_all();

  // Starts `workers_per_shard` long-lived workers on EVERY shard (0 =
  // the fleet config's worker_threads, or default_thread_count() when
  // that is 0 too) — total workers = M x per-shard. stop() drains
  // and joins every shard; the shards drain concurrently because all of
  // them were started first.
  void start(std::size_t workers_per_shard = 0);
  void stop();
  bool streaming() const;

  // close_all(), start(), stop() across every shard: every queued block
  // scored and every owed close() flush run, whether or not the shards
  // were streaming.
  void finish();

  bool reopen(std::uint64_t id);
  bool resident(std::uint64_t id) const;

  std::vector<defense::stream_event> verdicts(std::uint64_t id) const;
  std::vector<command_outcome> outcomes(std::uint64_t id) const;
  session_stats stats(std::uint64_t id) const;

  // Flight-recorder dump of one session's span trace, read from its
  // shard (reads frozen sessions in place, like the other accessors).
  std::vector<obs::span> trace(std::uint64_t id) const;

  // Cross-shard fleet totals: per-shard aggregates summed, histograms
  // merged (same binning everywhere by construction).
  serve_totals aggregate() const;

  // Eviction counters summed across shards.
  eviction_stats eviction() const;

  // Per-shard load plus the session spread.
  shard_balance balance() const;

 private:
  // The whole placement rule: opens go round-robin, and id g lives on
  // shard g % M (which minted it).
  session_manager& next_shard() { return *shards_[next_++ % shards_.size()]; }
  session_manager& owner(std::uint64_t id) const {
    return *shards_[id % shards_.size()];
  }

  // Immutable after construction; the shards lock for themselves.
  std::vector<std::unique_ptr<session_manager>> shards_;
  std::shared_ptr<const fault_injector> faults_;
  // Round-robin cursor of open_session().
  std::atomic<std::uint64_t> next_{0};
  // Per-shard offer counters (the shard_kill draw index) and kill counts.
  std::vector<std::atomic<std::uint64_t>> offers_;
  std::vector<std::atomic<std::uint64_t>> kills_;
};

}  // namespace ivc::serve
