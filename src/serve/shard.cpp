#include "serve/shard.h"

#include <iterator>
#include <utility>

#include "common/error.h"

namespace ivc::serve {

shard_manager::shard_manager(defense::classifier_detector detector,
                             serve_config config, std::size_t num_shards)
    : faults_{config.faults}, offers_(num_shards), kills_(num_shards) {
  expects(num_shards >= 1, "shard_manager: need at least one shard");
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<session_manager>(
        detector, config, shard_placement{i, num_shards}));
  }
}

std::uint64_t shard_manager::open_session() {
  return next_shard().open_session();
}

std::uint64_t shard_manager::open_session(const serve_config& config) {
  return next_shard().open_session(config);
}

std::uint64_t shard_manager::open_session(
    std::shared_ptr<const serve_config> config) {
  return next_shard().open_session(std::move(config));
}

std::size_t shard_manager::num_sessions() const {
  std::size_t n = 0;
  for (const std::unique_ptr<session_manager>& sh : shards_) {
    n += sh->num_sessions();
  }
  return n;
}

std::size_t shard_manager::shard_of(std::uint64_t id) const {
  expects(id / shards_.size() < owner(id).num_sessions(),
          "shard_manager: unknown session id");
  return id % shards_.size();
}

session_manager& shard_manager::shard(std::size_t i) {
  expects(i < shards_.size(), "shard_manager: shard index out of range");
  return *shards_[i];
}

const session_manager& shard_manager::shard(std::size_t i) const {
  expects(i < shards_.size(), "shard_manager: shard index out of range");
  return *shards_[i];
}

offer_status shard_manager::offer(std::uint64_t id, audio::buffer block) {
  const std::size_t sh = id % shards_.size();
  const offer_status status = shards_[sh]->offer(id, std::move(block));
  // Counted only once the shard took the call (an unknown id throws
  // above), and the shard_kill draw comes AFTER delivery: the offered
  // session has queued work now, so it survives the kill resident — the
  // rest of the shard's idle sessions drop to their snapshots.
  const std::uint64_t index = offers_[sh]++;
  if (faults_ != nullptr &&
      faults_->fires(fault_kind::shard_kill, sh, index)) {
    shards_[sh]->evict_idle();
    ++kills_[sh];
  }
  return status;
}

void shard_manager::close(std::uint64_t id) { owner(id).close(id); }

void shard_manager::close_all() {
  for (const std::unique_ptr<session_manager>& sh : shards_) {
    sh->close_all();
  }
}

void shard_manager::start(std::size_t workers_per_shard) {
  for (const std::unique_ptr<session_manager>& sh : shards_) {
    sh->start(workers_per_shard);
  }
}

void shard_manager::stop() {
  for (const std::unique_ptr<session_manager>& sh : shards_) {
    sh->stop();
  }
}

bool shard_manager::streaming() const {
  for (const std::unique_ptr<session_manager>& sh : shards_) {
    if (sh->streaming()) {
      return true;
    }
  }
  return false;
}

void shard_manager::finish() {
  close_all();
  start();
  stop();
}

bool shard_manager::reopen(std::uint64_t id) { return owner(id).reopen(id); }

bool shard_manager::resident(std::uint64_t id) const {
  return owner(id).resident(id);
}

std::vector<defense::stream_event> shard_manager::verdicts(
    std::uint64_t id) const {
  return owner(id).verdicts(id);
}

std::vector<command_outcome> shard_manager::outcomes(std::uint64_t id) const {
  return owner(id).outcomes(id);
}

session_stats shard_manager::stats(std::uint64_t id) const {
  return owner(id).stats(id);
}

std::vector<obs::span> shard_manager::trace(std::uint64_t id) const {
  return owner(id).trace(id);
}

serve_totals shard_manager::aggregate() const {
  serve_totals totals;
  totals.stats = session_stats{shards_.front()->config().latency_bins};
  for (const std::unique_ptr<session_manager>& sh : shards_) {
    serve_totals t = sh->aggregate();
    totals.stats.merge(t.stats);
    totals.num_sessions += t.num_sessions;
    totals.sessions_with_attack_events += t.sessions_with_attack_events;
    totals.sessions_degraded += t.sessions_degraded;
    totals.sessions_recovering += t.sessions_recovering;
    totals.sessions_quarantined += t.sessions_quarantined;
    totals.quarantine_errors.insert(
        totals.quarantine_errors.end(),
        std::make_move_iterator(t.quarantine_errors.begin()),
        std::make_move_iterator(t.quarantine_errors.end()));
  }
  return totals;
}

eviction_stats shard_manager::eviction() const {
  eviction_stats totals{shards_.front()->config().latency_bins};
  for (const std::unique_ptr<session_manager>& sh : shards_) {
    const eviction_stats e = sh->eviction();
    totals.evictions += e.evictions;
    totals.rehydrations += e.rehydrations;
    totals.frozen_bytes += e.frozen_bytes;
    totals.resident += e.resident;
    totals.rehydrate_latency.merge(e.rehydrate_latency);
  }
  return totals;
}

shard_balance shard_manager::balance() const {
  shard_balance out;
  out.shards.reserve(shards_.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shard_load load;
    load.sessions = shards_[i]->num_sessions();
    const eviction_stats e = shards_[i]->eviction();
    load.resident = e.resident;
    load.evictions = e.evictions;
    load.rehydrations = e.rehydrations;
    load.offers = offers_[i].load();
    load.shard_kills = kills_[i].load();
    std::vector<std::pair<std::uint64_t, std::string>> parked =
        shards_[i]->quarantine_errors();
    load.quarantined = parked.size();
    out.quarantine_errors.insert(out.quarantine_errors.end(),
                                 std::make_move_iterator(parked.begin()),
                                 std::make_move_iterator(parked.end()));
    if (i == 0 || load.sessions < out.min_sessions) {
      out.min_sessions = load.sessions;
    }
    if (load.sessions > out.max_sessions) {
      out.max_sessions = load.sessions;
    }
    total += load.sessions;
    out.shards.push_back(load);
  }
  out.mean_sessions = static_cast<double>(total) /
                      static_cast<double>(shards_.size());
  return out;
}

}  // namespace ivc::serve
