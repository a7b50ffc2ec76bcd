#include "serve/session_manager.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <queue>
#include <thread>
#include <utility>

#include "common/error.h"
#include "common/parallel.h"
#include "common/sync.h"
#include "common/thread_annotations.h"

namespace ivc::serve {

// One shard: the session table, eviction heap, ready-queue and workers.
// Its helpers take global ids or slot indices as named and run under the
// locks their annotations name.
struct session_manager::core {
  // One session slot: live object while resident, frozen snapshot while
  // evicted (exactly one of the two is set once the session exists).
  struct slot {
    std::shared_ptr<detection_session> live;
    std::string frozen;  // binary try_snapshot() image when evicted
    // Per-session config override; null = the fleet config.
    std::shared_ptr<const serve_config> cfg;
    std::uint64_t touch = 0;  // last-offer stamp (LRU recency)
    // Snapshot was closed+flushed: close_all() need not rehydrate it.
    bool closed_hint = false;
    // State and last_error() at freeze time, cached so the fleet health
    // roll-up (aggregate()) never decodes a frozen image just to ask
    // "is it quarantined, and why".
    session_state state_hint = session_state::serving;
    std::string err_hint;

    session_state state() const {
      return live != nullptr ? live->state() : state_hint;
    }
  };

  // Scheduling state of one session on the streaming ready-queue. A
  // session is enqueued at most once (queued), and claimed by at most
  // one worker (claimed) — the exclusive-claim invariant that keeps
  // verdict streams bit-identical.
  enum class sched_state : std::uint8_t { idle, queued, claimed };

  // Eviction-layer registry handles (no-ops when the fleet registry is
  // null). Every shard holds handles to the same fleet-wide cells, so
  // the gauges move by deltas. Eviction/rehydration counts are
  // SCHEDULING events — registered deterministic=false — and the
  // resident/frozen gauges are point-in-time by nature.
  struct metric_handles {
    explicit metric_handles(obs::metrics_registry* reg);
    obs::counter evictions;
    obs::counter rehydrations;
    obs::gauge resident;
    obs::gauge frozen_bytes;
    obs::histogram rehydrate_latency;
  };

  core(const defense::classifier_detector& weights, const serve_config& fleet,
       std::uint64_t shard, std::uint64_t shards)
      : detector{weights},
        config{fleet},
        index{shard},
        count{shards},
        metrics{fleet.metrics.get()} {}

  std::uint64_t id_of(std::uint64_t i) const { return i * count + index; }
  // The one id -> slot conversion: throws std::invalid_argument unless
  // this shard minted `id`.
  std::uint64_t slot_of(std::uint64_t id) const IVC_REQUIRES(sessions_mutex);

  // Opens a session with its own config, or the fleet config when `cfg`
  // is null.
  std::uint64_t open(std::shared_ptr<const serve_config> cfg)
      IVC_EXCLUDES(sessions_mutex, sched_mutex);
  const std::shared_ptr<detection_session>& ensure_resident(std::uint64_t i)
      IVC_REQUIRES(sessions_mutex);
  bool evict_locked(std::uint64_t i) IVC_REQUIRES(sessions_mutex);
  void enforce_residency() IVC_REQUIRES(sessions_mutex);
  // Enqueues slot `i` if streaming and the session is idle. Takes
  // sched_mutex itself (always called under sessions_mutex — the
  // global lock order).
  void notify_ready(std::uint64_t i,
                    const std::shared_ptr<detection_session>& s)
      IVC_EXCLUDES(sched_mutex);
  void start(std::size_t n_workers) IVC_EXCLUDES(sessions_mutex, sched_mutex);
  void stop() IVC_EXCLUDES(sched_mutex);
  void worker_loop() IVC_EXCLUDES(sessions_mutex, sched_mutex);

  const defense::classifier_detector& detector;
  const serve_config& config;  // the fleet config
  const std::uint64_t index;   // this shard's place among `count`
  const std::uint64_t count;
  const metric_handles metrics;
  // Guards the slots + eviction state + offer/kill counts; always
  // acquired BEFORE sched_mutex (offer -> notify_ready). A session mutex
  // may be taken under either — never the other way around.
  mutable ts_mutex sessions_mutex IVC_ACQUIRED_BEFORE(sched_mutex);
  std::vector<slot> slots IVC_GUARDED_BY(sessions_mutex);
  std::uint64_t touch_counter IVC_GUARDED_BY(sessions_mutex) = 0;
  std::uint64_t offers IVC_GUARDED_BY(sessions_mutex) = 0;  // kill draw index
  std::uint64_t kills IVC_GUARDED_BY(sessions_mutex) = 0;
  // Lazy LRU min-heap of (touch-at-push, slot). Entries go stale when a
  // session is touched again; enforce_residency() skips or refreshes
  // them on pop, so the heap stays O(resident) instead of O(offers).
  std::priority_queue<std::pair<std::uint64_t, std::uint64_t>,
                      std::vector<std::pair<std::uint64_t, std::uint64_t>>,
                      std::greater<>>
      lru IVC_GUARDED_BY(sessions_mutex);
  // evic.resident is the live count, kept current.
  eviction_stats evic IVC_GUARDED_BY(sessions_mutex);

  // Streaming state, guarded by sched_mutex (see lock order above).
  mutable ts_mutex sched_mutex;
  std::condition_variable sched_cv;
  // (slot, session) pairs in claim order.
  std::deque<std::pair<std::uint64_t, std::shared_ptr<detection_session>>>
      ready IVC_GUARDED_BY(sched_mutex);
  std::vector<sched_state> sched IVC_GUARDED_BY(sched_mutex);
  bool stopping IVC_GUARDED_BY(sched_mutex) = false;
  std::vector<std::thread> workers IVC_GUARDED_BY(sched_mutex);
};

session_manager::core::metric_handles::metric_handles(
    obs::metrics_registry* reg)
    : evictions{reg == nullptr
                    ? obs::counter{}
                    : reg->get_counter("serve_evictions_total", {},
                                       /*deterministic=*/false)},
      rehydrations{reg == nullptr
                       ? obs::counter{}
                       : reg->get_counter("serve_rehydrations_total", {},
                                          /*deterministic=*/false)},
      resident{reg == nullptr ? obs::gauge{}
                              : reg->get_gauge("serve_resident_sessions")},
      frozen_bytes{reg == nullptr ? obs::gauge{}
                                  : reg->get_gauge("serve_frozen_bytes")},
      rehydrate_latency{
          reg == nullptr
              ? obs::histogram{}
              : reg->get_histogram("serve_rehydrate_latency_seconds")} {}

std::uint64_t session_manager::core::open(
    std::shared_ptr<const serve_config> cfg) {
  const ts_lock lock{sessions_mutex};
  const auto i = static_cast<std::uint64_t>(slots.size());
  slot sl;
  sl.live = std::make_shared<detection_session>(
      id_of(i), detector, cfg != nullptr ? *cfg : config);
  sl.cfg = std::move(cfg);
  sl.touch = ++touch_counter;
  slots.push_back(std::move(sl));
  ++evic.resident;
  metrics.resident.add(1.0);
  if (config.max_resident_sessions > 0) {
    lru.emplace(slots.back().touch, i);
  }
  {
    const ts_lock sched_lock{sched_mutex};
    sched.push_back(sched_state::idle);
  }
  enforce_residency();
  return id_of(i);
}

std::uint64_t session_manager::core::slot_of(std::uint64_t id) const {
  expects(id % count == index && id / count < slots.size(),
          "session_manager: unknown session id");
  return id / count;
}

// Rebuilds an evicted session from its frozen snapshot. Caller holds
// sessions_mutex — rehydration and eviction are fully serialized.
const std::shared_ptr<detection_session>&
session_manager::core::ensure_resident(std::uint64_t i) {
  slot& sl = slots[i];
  if (sl.live != nullptr) {
    return sl.live;
  }
  ensures(!sl.frozen.empty(),
          "session_manager: slot has neither a live session nor a snapshot");
  const auto t0 = std::chrono::steady_clock::now();
  const serve_config& cfg = sl.cfg != nullptr ? *sl.cfg : config;
  auto s = std::make_shared<detection_session>(id_of(i), detector, cfg);
  s->restore(json::from_binary(sl.frozen));
  const auto freed = static_cast<double>(sl.frozen.size());
  evic.frozen_bytes -= sl.frozen.size();
  sl.frozen.clear();
  sl.frozen.shrink_to_fit();
  sl.live = std::move(s);
  sl.touch = ++touch_counter;
  ++evic.resident;
  ++evic.rehydrations;
  if (config.max_resident_sessions > 0) {
    lru.emplace(sl.touch, i);
  }
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  evic.rehydrate_latency.record(dt);
  metrics.rehydrations.inc();
  metrics.rehydrate_latency.record(dt);
  metrics.resident.add(1.0);
  metrics.frozen_bytes.add(-freed);
  return sl.live;
}

// Freezes slot `i` if its session is idle. Caller holds sessions_mutex.
bool session_manager::core::evict_locked(std::uint64_t i) {
  slot& sl = slots[i];
  if (sl.live == nullptr) {
    return false;  // already evicted
  }
  json::value snap;
  if (!sl.live->try_snapshot(snap)) {
    return false;  // busy, queued work, or a close() flush owed
  }
  sl.closed_hint = snapshot_closed(snap);
  // Cache the health facts aggregate() needs, so the fleet roll-up
  // never decodes frozen images just to count quarantined sessions.
  sl.state_hint = snapshot_state(snap);
  sl.err_hint = snapshot_last_error(snap);
  sl.frozen = json::to_binary(snap);
  evic.frozen_bytes += sl.frozen.size();
  sl.live.reset();
  --evic.resident;
  ++evic.evictions;
  metrics.evictions.inc();
  metrics.resident.add(-1.0);
  metrics.frozen_bytes.add(static_cast<double>(sl.frozen.size()));
  return true;
}

// Evicts least-recently-offered idle sessions until the resident count
// is back under the bound (or no candidate can be frozen — busy/queued
// sessions stay, and the bound is enforced again on the next offer).
// Caller holds sessions_mutex.
void session_manager::core::enforce_residency() {
  const std::size_t bound = config.max_resident_sessions;
  if (bound == 0) {
    return;
  }
  // Candidates that refused to freeze go back on the heap AFTER the
  // loop, or the loop would pop them forever.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> busy;
  while (evic.resident > bound && !lru.empty()) {
    const auto [touch, i] = lru.top();
    lru.pop();
    const slot& sl = slots[i];
    if (sl.live == nullptr) {
      continue;  // dead entry: session was evicted through another path
    }
    if (sl.touch != touch) {
      // Stale: the session was offered again since this entry was
      // pushed. Re-file it under its real recency and keep looking.
      lru.emplace(sl.touch, i);
      continue;
    }
    if (!evict_locked(i)) {
      busy.emplace_back(touch, i);
    }
  }
  for (const auto& e : busy) {
    lru.push(e);
  }
}

void session_manager::core::notify_ready(
    std::uint64_t i, const std::shared_ptr<detection_session>& s) {
  bool enqueued = false;
  {
    const ts_lock lock{sched_mutex};
    if (workers.empty()) {
      return;  // not streaming: the next start() finds the work by scanning
    }
    if (sched[i] == sched_state::idle) {
      sched[i] = sched_state::queued;
      ready.emplace_back(i, s);
      enqueued = true;
    }
  }
  if (enqueued) {
    sched_cv.notify_one();
  }
}

void session_manager::core::start(std::size_t n_workers) {
  {
    // Hold BOTH locks (sessions, then sched — the global order) across
    // seeding and worker spawn: an open_session + offer racing start()
    // then either lands before (and the seed scan below sees its work)
    // or after (and notify_ready sees live workers and enqueues it) —
    // never in a gap where both miss it.
    const ts_lock sessions_lock{sessions_mutex};
    const ts_lock lock{sched_mutex};
    if (!workers.empty()) {
      return;  // idempotent: already streaming
    }
    stopping = false;
    // Seed the ready-queue with everything offered before start(): those
    // offers saw no live workers and did not enqueue.
    for (std::uint64_t i = 0; i < slots.size(); ++i) {
      const slot& sl = slots[i];
      if (sl.live != nullptr && sched[i] == sched_state::idle &&
          sl.live->has_work()) {
        sched[i] = sched_state::queued;
        ready.emplace_back(i, sl.live);
      }
    }
    workers.reserve(n_workers);
    for (std::size_t w = 0; w < n_workers; ++w) {
      workers.emplace_back([this] { worker_loop(); });
    }
  }
  sched_cv.notify_all();
}

void session_manager::core::stop() {
  std::vector<std::thread> joining;
  {
    const ts_lock lock{sched_mutex};
    if (workers.empty()) {
      return;  // idempotent: not streaming
    }
    stopping = true;
    joining.swap(workers);
  }
  sched_cv.notify_all();
  for (std::thread& t : joining) {
    t.join();
  }
  const ts_lock lock{sched_mutex};
  // Offers racing with stop() can strand entries after the last worker
  // exits; reset the schedule — the blocks themselves are still queued
  // in their sessions and the next start() picks them up.
  ready.clear();
  for (sched_state& st : sched) {
    st = sched_state::idle;
  }
}

void session_manager::core::worker_loop() {
  for (;;) {
    ts_unique_lock lock{sched_mutex};
    // Explicit wait loop (not the predicate overload): the predicate
    // would be a lambda reading stopping/ready, which the analysis
    // treats as a separate function with no lock held. The semantics
    // are identical — wait() re-acquires before the predicate re-check.
    while (!stopping && ready.empty()) {
      sched_cv.wait(lock.native());
    }
    if (ready.empty()) {
      return;  // stopping and nothing left to do
    }
    const auto [i, s] = ready.front();
    ready.pop_front();
    sched[i] = sched_state::claimed;
    lock.unlock();

    // Containment of last resort: process() contains stage faults itself,
    // but a worker thread that lets an exception escape dies in
    // std::terminate and takes the process with it. Park the session
    // instead; the worker survives to serve the rest of the fleet.
    try {
      s->process();
    } catch (const std::exception& e) {
      s->force_quarantine(e.what());
    } catch (...) {
      s->force_quarantine("unknown exception escaped process()");
    }

    lock.lock();
    // Re-check under the scheduler lock: an offer that arrived while we
    // were processing saw state `claimed` and did not enqueue — it is
    // our job to re-queue. Conversely an offer that lands after this
    // check sees `idle` and enqueues itself. Either way no block is
    // stranded.
    bool renotify = false;
    if (s->has_work()) {
      sched[i] = sched_state::queued;
      ready.emplace_back(i, s);
      renotify = true;
    } else {
      sched[i] = sched_state::idle;
    }
    lock.unlock();
    if (renotify) {
      sched_cv.notify_one();
    }
  }
}

// ---- the front ------------------------------------------------------------

session_manager::session_manager(defense::classifier_detector detector,
                                 serve_config config, std::size_t num_shards)
    : detector_{std::move(detector)}, config_{std::move(config)} {
  expects(num_shards >= 1, "session_manager: need at least one shard");
  cores_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    cores_.push_back(
        std::make_unique<core>(detector_, config_, i, num_shards));
  }
}

session_manager::~session_manager() { stop(); }

session_manager::core& session_manager::core_of(std::uint64_t id) const {
  return *cores_[id % cores_.size()];
}

template <class Live, class Frozen>
auto session_manager::read(std::uint64_t id, Live live, Frozen frozen) const {
  const core& c = core_of(id);
  const ts_lock lock{c.sessions_mutex};
  const core::slot& sl = c.slots[c.slot_of(id)];
  return sl.live != nullptr ? live(*sl.live) : frozen(sl);
}

std::uint64_t session_manager::open_session() {
  return cores_[next_++ % cores_.size()]->open(nullptr);
}

std::uint64_t session_manager::open_session(const serve_config& config) {
  return cores_[next_++ % cores_.size()]->open(
      std::make_shared<const serve_config>(config));
}

std::uint64_t session_manager::open_session(
    std::shared_ptr<const serve_config> config) {
  expects(config != nullptr, "session_manager: null shared config");
  return cores_[next_++ % cores_.size()]->open(std::move(config));
}

std::size_t session_manager::num_sessions() const {
  std::size_t n = 0;
  for (const std::unique_ptr<core>& c : cores_) {
    const ts_lock lock{c->sessions_mutex};
    n += c->slots.size();
  }
  return n;
}

std::size_t session_manager::shard_of(std::uint64_t id) const {
  const core& c = core_of(id);
  const ts_lock lock{c.sessions_mutex};
  c.slot_of(id);  // throws for an id no shard minted
  return c.index;
}

bool session_manager::resident(std::uint64_t id) const {
  return read(id, [](const detection_session&) { return true; },
              [](const core::slot&) { return false; });
}

session_state session_manager::state(std::uint64_t id) const {
  return read(id, [](const detection_session& s) { return s.state(); },
              [](const core::slot& sl) { return sl.state_hint; });
}

std::string session_manager::last_error(std::uint64_t id) const {
  return read(id, [](const detection_session& s) { return s.last_error(); },
              [](const core::slot& sl) { return sl.err_hint; });
}

bool session_manager::evict(std::uint64_t id) {
  core& c = core_of(id);
  const ts_lock lock{c.sessions_mutex};
  return c.evict_locked(c.slot_of(id));
}

eviction_stats session_manager::eviction() const {
  eviction_stats out;
  for (const std::unique_ptr<core>& c : cores_) {
    const ts_lock lock{c->sessions_mutex};
    out.evictions += c->evic.evictions;
    out.rehydrations += c->evic.rehydrations;
    out.frozen_bytes += c->evic.frozen_bytes;
    out.resident += c->evic.resident;
    out.rehydrate_latency.merge(c->evic.rehydrate_latency);
  }
  return out;
}

offer_status session_manager::offer(std::uint64_t id, audio::buffer block) {
  // One critical section for rehydrate + offer + LRU touch + residency
  // enforcement + the shard_kill draw: an eviction can never interleave
  // with an offer to the same session and drop its block.
  core& c = core_of(id);
  const ts_lock lock{c.sessions_mutex};
  const std::uint64_t i = c.slot_of(id);
  const std::shared_ptr<detection_session> s = c.ensure_resident(i);
  const offer_status status = s->offer(std::move(block));
  c.slots[i].touch = ++c.touch_counter;
  if (status == offer_status::accepted) {
    c.notify_ready(i, s);
  }
  c.enforce_residency();
  // Counted only once the shard took the call (an unknown id throws
  // above), and drawn AFTER delivery: the offered session has queued
  // work now, so it survives the kill resident — the rest of the
  // shard's idle sessions drop to their snapshots.
  const std::uint64_t index = c.offers++;
  if (config_.faults != nullptr &&
      config_.faults->fires(fault_kind::shard_kill, c.index, index)) {
    for (std::uint64_t j = 0; j < c.slots.size(); ++j) {
      c.evict_locked(j);
    }
    ++c.kills;
  }
  return status;
}

void session_manager::close(std::uint64_t id) {
  core& c = core_of(id);
  const ts_lock lock{c.sessions_mutex};
  const std::uint64_t i = c.slot_of(id);
  if (c.slots[i].live == nullptr && c.slots[i].closed_hint) {
    return;  // frozen image is already closed + flushed: nothing owed
  }
  const std::shared_ptr<detection_session> s = c.ensure_resident(i);
  s->close();
  c.notify_ready(i, s);  // the close() flush is work
}

void session_manager::close_all() {
  for (const std::unique_ptr<core>& c : cores_) {
    const ts_lock lock{c->sessions_mutex};
    for (std::uint64_t i = 0; i < c->slots.size(); ++i) {
      if (c->slots[i].live == nullptr && c->slots[i].closed_hint) {
        continue;  // already closed + flushed when it was frozen
      }
      // Rehydrating to flush can overshoot the residency bound; the
      // freshly closed sessions become evictable again once drained.
      const std::shared_ptr<detection_session> s = c->ensure_resident(i);
      s->close();
      c->notify_ready(i, s);
    }
  }
}

void session_manager::start(std::size_t n_workers) {
  std::size_t count = n_workers != 0 ? n_workers : config_.worker_threads;
  if (count == 0) {
    count = default_thread_count();
  }
  for (const std::unique_ptr<core>& c : cores_) {
    c->start(count);
  }
}

void session_manager::stop() {
  // Every shard was started first, so the shards drain concurrently
  // while this joins them one by one.
  for (const std::unique_ptr<core>& c : cores_) {
    c->stop();
  }
}

bool session_manager::streaming() const {
  for (const std::unique_ptr<core>& c : cores_) {
    const ts_lock lock{c->sched_mutex};
    if (!c->workers.empty()) {
      return true;
    }
  }
  return false;
}

bool session_manager::reopen(std::uint64_t id) {
  core& c = core_of(id);
  const ts_lock lock{c.sessions_mutex};
  const std::uint64_t i = c.slot_of(id);
  // Reopening is only meaningful for a quarantined session, and a plain
  // `false` must not change the resident set: ask the freeze-time hint,
  // never the frozen image.
  if (c.slots[i].live == nullptr &&
      c.slots[i].state_hint != session_state::quarantined) {
    return false;
  }
  const std::shared_ptr<detection_session> s = c.ensure_resident(i);
  if (!s->reopen()) {
    return false;
  }
  // While quarantined the session refused the ready-queue via
  // has_work() == false; blocks that were already queued (or a pending
  // close() flush) are work again now.
  if (s->has_work()) {
    c.notify_ready(i, s);
  }
  return true;
}

void session_manager::finish() {
  close_all();
  // start() is a no-op while streaming; otherwise its seed scan queues
  // every session with blocks or an owed flush, including work offered
  // after an earlier stop(). stop() then drains the queue to empty.
  start();
  stop();
}

std::vector<defense::stream_event> session_manager::verdicts(
    std::uint64_t id) const {
  return read(id, [](const detection_session& s) { return s.verdicts(); },
              [](const core::slot& sl) {
                return snapshot_verdicts(json::from_binary(sl.frozen));
              });
}

std::vector<command_outcome> session_manager::outcomes(
    std::uint64_t id) const {
  return read(id, [](const detection_session& s) { return s.outcomes(); },
              [](const core::slot& sl) {
                return snapshot_outcomes(json::from_binary(sl.frozen));
              });
}

session_stats session_manager::stats(std::uint64_t id) const {
  return read(id, [](const detection_session& s) { return s.stats(); },
              [](const core::slot& sl) {
                return snapshot_stats(json::from_binary(sl.frozen));
              });
}

std::vector<obs::span> session_manager::trace(std::uint64_t id) const {
  return read(id, [](const detection_session& s) { return s.trace(); },
              [](const core::slot& sl) {
                return snapshot_trace(json::from_binary(sl.frozen));
              });
}

serve_totals session_manager::aggregate() const {
  serve_totals totals;
  for (const std::unique_ptr<core>& c : cores_) {
    const ts_lock lock{c->sessions_mutex};
    totals.num_sessions += c->slots.size();
    for (std::uint64_t i = 0; i < c->slots.size(); ++i) {
      const core::slot& sl = c->slots[i];
      // Frozen sessions aggregate from their snapshot in place —
      // observing the fleet must not change the resident set. The
      // health facts come from the freeze-time hints, not a decode.
      const session_stats st =
          sl.live != nullptr ? sl.live->stats()
                             : snapshot_stats(json::from_binary(sl.frozen));
      totals.stats.merge(st);
      totals.sessions_with_attack_events += st.attack_events > 0 ? 1 : 0;
      switch (sl.state()) {
        case session_state::serving:
          break;
        case session_state::degraded:
          ++totals.sessions_degraded;
          break;
        case session_state::recovering:
          ++totals.sessions_recovering;
          break;
        case session_state::quarantined:
          ++totals.sessions_quarantined;
          totals.quarantine_errors.emplace_back(
              c->id_of(i), sl.live != nullptr ? sl.live->last_error()
                                              : sl.err_hint);
          break;
      }
    }
  }
  return totals;
}

shard_balance session_manager::balance() const {
  shard_balance out;
  out.shards.reserve(cores_.size());
  std::size_t total = 0;
  for (const std::unique_ptr<core>& c : cores_) {
    shard_load load;
    {
      const ts_lock lock{c->sessions_mutex};
      load.sessions = c->slots.size();
      load.resident = c->evic.resident;
      load.offers = c->offers;
      load.evictions = c->evic.evictions;
      load.rehydrations = c->evic.rehydrations;
      load.shard_kills = c->kills;
      for (const core::slot& sl : c->slots) {
        load.quarantined += sl.state() == session_state::quarantined ? 1 : 0;
      }
    }
    if (out.shards.empty() || load.sessions < out.min_sessions) {
      out.min_sessions = load.sessions;
    }
    out.max_sessions = std::max(out.max_sessions, load.sessions);
    total += load.sessions;
    out.shards.push_back(load);
  }
  out.mean_sessions =
      static_cast<double>(total) / static_cast<double>(cores_.size());
  return out;
}

}  // namespace ivc::serve
