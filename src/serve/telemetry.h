// Sampler probes over the serving fleet: one flat JSON object of
// numeric fields per call, the shape obs::fleet_sampler appends as a
// JSONL time-series line.
//
// These live in serve/ (not obs/) because the dependency points this
// way: the obs layer knows nothing about sessions or shards, it just
// runs any probe on its timer thread. Both probes only call the
// thread-safe fleet views (aggregate() / eviction() / balance() /
// quarantine_errors()), so they are safe to sample while streaming
// workers and producers run.
#pragma once

#include "common/json_min.h"
#include "serve/session_manager.h"
#include "serve/shard.h"

namespace ivc::serve {

// One fleet sample: sessions / resident / eviction counters / health
// roll-up / every session_counters row summed over the fleet, keyed by
// its field name.
json::value telemetry_sample(const session_manager& manager);

// Same fields fleet-wide, plus the shard spread (num shards, session
// min/max/mean, total shard kills).
json::value telemetry_sample(const shard_manager& front);

}  // namespace ivc::serve
