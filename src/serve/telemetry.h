// Sampler probe over the serving fleet: one flat JSON object of numeric
// fields per call, the shape obs::fleet_sampler appends as a JSONL
// time-series line.
//
// This lives in serve/ (not obs/) because the dependency points this
// way: the obs layer knows nothing about sessions or shards, it just
// runs any probe on its timer thread. The probe only calls the
// thread-safe fleet views (aggregate() / eviction() / balance()), so it
// is safe to sample while streaming workers and producers run.
#pragma once

#include "common/json_min.h"
#include "serve/session_manager.h"

namespace ivc::serve {

// One fleet sample: sessions / resident / eviction counters / health
// roll-up / every session_counters row summed over the fleet, keyed by
// its field name, then the shard spread (num shards, session
// min/max/mean, total shard kills; `shards` is 1 for an unsharded
// manager).
json::value telemetry_sample(const session_manager& manager);

}  // namespace ivc::serve
