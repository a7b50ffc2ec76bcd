#include "serve/telemetry.h"

namespace ivc::serve {
namespace {

void put(json::object& o, const char* key, double v) {
  o.emplace_back(key, json::value{v});
}

void put_u64(json::object& o, const char* key, std::uint64_t v) {
  o.emplace_back(key, json::value{static_cast<double>(v)});
}

}  // namespace

json::value telemetry_sample(const session_manager& manager) {
  json::object o;
  const serve_totals totals = manager.aggregate();
  const eviction_stats evic = manager.eviction();
  put_u64(o, "sessions", totals.num_sessions);
  put_u64(o, "resident", evic.resident);
  put_u64(o, "evictions", evic.evictions);
  put_u64(o, "rehydrations", evic.rehydrations);
  put_u64(o, "frozen_bytes", evic.frozen_bytes);
  put_u64(o, "degraded", totals.sessions_degraded);
  put_u64(o, "recovering", totals.sessions_recovering);
  put_u64(o, "quarantined", totals.sessions_quarantined);
  for (const counter_def& c : session_counters) {
    put(o, c.key, counter_value(totals.stats, c));
  }
  const shard_balance bal = manager.balance();
  put_u64(o, "shards", bal.shards.size());
  put_u64(o, "shard_min_sessions", bal.min_sessions);
  put_u64(o, "shard_max_sessions", bal.max_sessions);
  put(o, "shard_mean_sessions", bal.mean_sessions);
  std::uint64_t kills = 0;
  for (const shard_load& s : bal.shards) {
    kills += s.shard_kills;
  }
  put_u64(o, "shard_kills", kills);
  return json::value{std::move(o)};
}

}  // namespace ivc::serve
