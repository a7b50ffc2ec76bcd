// Sharded serving: global session id g lives on shard g % M of a
// session_manager with M independent shards.
//
// The load-bearing claim: sharding is INVISIBLE in the streams. A
// session's verdict/outcome streams and trace are a pure function of its
// accepted sample sequence and its global id, so they are bit-identical
// at any shard count, any per-shard worker count, with eviction on or
// off, under session faults — and under shard_kill faults, because a
// killed shard drops to bit-exact snapshots. Only placement, latency,
// and throughput move.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "audio/buffer.h"
#include "audio/ops.h"
#include "fleet.h"
#include "obs/registry.h"
#include "serve/session_manager.h"

namespace ivc::serve {
namespace {

// Every fourth round the producer waits for the workers (stop, then
// start again), so each session goes idle mid-stream: eviction and
// shard_kill then have idle sessions to freeze, while the offers in
// between race live workers. The runs are compared across fronts, so
// each must see the same accepted blocks: no offer may bounce.
fleet_run run_shards(const std::vector<audio::buffer>& streams,
                     std::size_t block, fleet_params p) {
  p.barrier_every = 4;
  fleet_run r = run_fleet(streams, block, p);
  EXPECT_EQ(r.totals.stats.blocks_rejected, 0u);
  return r;
}

// `shards` shards of `workers` workers, each shard evicting down to
// `max_resident` sessions (0 = unbounded).
fleet_params sharded(std::size_t shards, std::size_t workers = 2,
                     std::size_t max_resident = 0) {
  fleet_params p;
  p.shards = shards;
  p.workers = workers;
  p.config.max_resident_sessions = max_resident;
  return p;
}

// ---- the tentpole identity matrix ------------------------------------

TEST(shard, streams_are_bit_identical_across_the_serving_matrix) {
  const std::vector<audio::buffer> streams = fleet_streams(8, 500);
  const std::size_t block = 2'048;

  // Reference: one shard, one worker, no eviction.
  const fleet_run ref = run_shards(streams, block, sharded(1, 1));
  ASSERT_GT(ref.totals.stats.events, 0u);
  EXPECT_GT(ref.totals.stats.commands_executed, 0u);  // non-vacuous

  struct case_t {
    const char* name;
    fleet_params p;
  };
  for (const case_t& c :
       {case_t{"2 shards", sharded(2)},
        case_t{"4 shards, 4 workers", sharded(4, 4)},
        case_t{"2 shards, eviction bound 2", sharded(2, 2, 2)},
        case_t{"4 shards, eviction bound 1", sharded(4, 2, 1)}}) {
    const fleet_run got = run_shards(streams, block, c.p);
    expect_same_streams(ref, got, c.name);
    // Aggregate content counters match too (latency/timing excluded).
    EXPECT_EQ(ref.totals.stats.events, got.totals.stats.events) << c.name;
    EXPECT_EQ(ref.totals.stats.commands_executed,
              got.totals.stats.commands_executed)
        << c.name;
    EXPECT_EQ(ref.totals.stats.commands_blocked,
              got.totals.stats.commands_blocked)
        << c.name;
    if (c.p.config.max_resident_sessions > 0) {
      EXPECT_GT(got.eviction.evictions, 0u) << c.name;  // bound bit
    }
  }
}

// ---- placement -------------------------------------------------------

TEST(shard, placement_is_round_robin_and_balanced) {
  serve_config cfg;  // no pipeline: placement only, keep it cheap
  session_manager front{tiny_detector(), cfg, 4};
  constexpr std::uint64_t kSessions = 258;
  for (std::uint64_t n = 0; n < kSessions; ++n) {
    // One opener: ids are dense, and id g lives on shard g % 4.
    ASSERT_EQ(front.open_session(), n);
    EXPECT_EQ(front.shard_of(n), n % 4);
  }
  ASSERT_EQ(front.num_sessions(), kSessions);

  // Round robin is exact: the spread is at most one session.
  const shard_balance b = front.balance();
  ASSERT_EQ(b.shards.size(), 4u);
  std::size_t total = 0;
  for (const shard_load& l : b.shards) {
    total += l.sessions;
  }
  EXPECT_EQ(total, kSessions);
  EXPECT_DOUBLE_EQ(b.mean_sessions, 64.5);
  EXPECT_LE(b.max_sessions - b.min_sessions, 1u);
}

// Openers race each other and a streaming producer. Each shard mints
// slot·M + index and the shards are picked from one counter, so once
// every open has returned the ids are exactly {0..N-1}, whatever the
// interleaving.
TEST(shard, concurrent_opens_mint_exactly_the_dense_ids) {
  serve_config cfg;  // detector only
  cfg.queue_capacity = 256;
  session_manager front{tiny_detector(), cfg, 3};
  std::vector<std::uint64_t> ids;
  for (int s = 0; s < 3; ++s) {
    ids.push_back(front.open_session());
  }
  front.start(1);
  constexpr std::size_t kOpeners = 4;
  constexpr std::size_t kPerOpener = 50;
  std::vector<std::vector<std::uint64_t>> opened(kOpeners);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kOpeners; ++t) {
    threads.emplace_back([&front, &opened, t] {
      for (std::size_t n = 0; n < kPerOpener; ++n) {
        opened[t].push_back(front.open_session());
      }
    });
  }
  constexpr std::size_t kBlocks = 20;
  const audio::buffer stream = command_stream(650);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    for (std::uint64_t id = 0; id < 3; ++id) {
      EXPECT_EQ(
          front.offer(id, audio::cut(stream, b * 1'024, (b + 1) * 1'024)),
          offer_status::accepted);
    }
  }
  for (std::thread& t : threads) {
    t.join();
  }
  front.finish();

  for (const std::vector<std::uint64_t>& o : opened) {
    ids.insert(ids.end(), o.begin(), o.end());
  }
  std::sort(ids.begin(), ids.end());
  const std::size_t n = 3 + kOpeners * kPerOpener;
  ASSERT_EQ(ids.size(), n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(ids[i], i);
    EXPECT_EQ(front.shard_of(i), i % 3);
    EXPECT_TRUE(front.resident(i));
  }
  EXPECT_EQ(front.num_sessions(), n);
  for (std::uint64_t id = 0; id < 3; ++id) {
    EXPECT_EQ(front.stats(id).blocks_processed, kBlocks);
  }
}

// ---- shard_kill faults -----------------------------------------------

// A lone manager is one shard, so it must kill too.
TEST(shard, shard_kill_is_invisible_in_the_streams) {
  const std::vector<audio::buffer> streams = fleet_streams(6, 500);
  const std::size_t block = 2'048;

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    const std::string where = std::to_string(shards) + " shard(s)";
    const fleet_run want = run_shards(streams, block, sharded(shards));

    fault_config fc;
    fc.seed = 7;
    fc.shard_kill_rate = 0.05;  // every ~20th offer of a shard
    fleet_params chaos = sharded(shards);
    chaos.config.faults = std::make_shared<fault_injector>(fc);
    const fleet_run got = run_shards(streams, block, chaos);

    // Kills actually happened and evicted sessions...
    std::uint64_t kills = 0;
    for (const shard_load& l : got.balance.shards) {
      kills += l.shard_kills;
    }
    ASSERT_GT(kills, 0u) << where;
    EXPECT_GT(got.eviction.evictions, 0u) << where;

    // ...yet every stream is bit-identical to the fault-free run, and
    // the attacker gained nothing: executed counts match exactly.
    expect_same_streams(want, got, where);
    EXPECT_EQ(want.totals.stats.commands_executed,
              got.totals.stats.commands_executed)
        << where;
    EXPECT_EQ(want.totals.stats.commands_blocked,
              got.totals.stats.commands_blocked)
        << where;
  }
}

// ---- session faults and the flight recorder --------------------------

// A session's fault coordinates are (kind, global id, index), so the
// fault schedule does not depend on placement: under detector, ingest
// and recognizer faults the streams and traces still match the 1-shard
// run at every shard count.
TEST(shard, streams_match_across_shard_counts_under_session_faults) {
  const std::vector<audio::buffer> streams = fleet_streams(8, 500);
  const std::size_t block = 2'048;
  fault_config fc;
  fc.seed = 99;
  fc.detector_throw_rate = 0.03;
  fc.corrupt_block_rate = 0.03;
  fc.recognizer_throw_rate = 0.2;
  const auto faulted = [&fc](fleet_params p) {
    p.config.faults = std::make_shared<fault_injector>(fc);
    // A retry budget no stream exhausts: every session recovers, so no
    // offer is ever refused and each run sees the same accepted blocks.
    p.config.fault_tolerance.max_reopens = 1'000;
    p.config.fault_tolerance.backoff_blocks = 1;
    return p;
  };
  const fleet_run ref = run_shards(streams, block, faulted(sharded(1, 1)));
  ASSERT_GT(ref.totals.stats.detector_faults, 0u);
  ASSERT_GT(ref.totals.stats.corrupt_blocks, 0u);
  ASSERT_GT(ref.totals.stats.recognizer_faults, 0u);

  struct case_t {
    const char* name;
    std::size_t shards;
    std::size_t max_resident;
  };
  for (const case_t& c : {case_t{"2 shards", 2, 0},
                          case_t{"4 shards", 4, 0},
                          case_t{"4 shards, eviction bound 1", 4, 1}}) {
    const fleet_run got = run_shards(
        streams, block, faulted(sharded(c.shards, 2, c.max_resident)));
    expect_same_streams(ref, got, c.name);
    EXPECT_EQ(ref.traces, got.traces) << c.name;
    EXPECT_EQ(ref.totals.stats.quarantines, got.totals.stats.quarantines)
        << c.name;
  }
}

// reopen() goes to the session's shard and touches nothing else.
TEST(shard, reopen_restores_one_session_on_its_shard) {
  serve_config cfg;  // detector only
  cfg.fault_tolerance.auto_reopen = false;
  cfg.fault_tolerance.backoff_blocks = 2;
  constexpr std::uint64_t kFaulted = 5;  // 5 % 3: lives on shard 2
  fault_config fc;
  fc.schedule.push_back({fault_kind::detector_throw, kFaulted, /*index=*/1});
  cfg.faults = std::make_shared<fault_injector>(fc);
  session_manager front{tiny_detector(), cfg, 3};
  for (int s = 0; s < 6; ++s) {
    front.open_session();
  }
  ASSERT_EQ(front.shard_of(kFaulted), 2u);
  const audio::buffer stream = command_stream(660);
  const auto offer_blocks = [&](std::uint64_t id, std::size_t from,
                                std::size_t to) {
    for (std::size_t b = from; b < to; ++b) {
      front.offer(id, audio::cut(stream, b * 2'048, (b + 1) * 2'048));
    }
  };
  for (std::uint64_t id = 0; id < 6; ++id) {
    offer_blocks(id, 0, 3);
  }
  front.start(2);
  front.stop();

  // Only the pinned session parked, on its own shard.
  const serve_totals quarantined = front.aggregate();
  ASSERT_EQ(quarantined.quarantine_errors.size(), 1u);
  EXPECT_EQ(quarantined.quarantine_errors[0].first, kFaulted);
  const shard_balance parked = front.balance();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(parked.shards[i].quarantined, i == 2 ? 1u : 0u);
  }
  const std::uint64_t scored_before = front.stats(kFaulted).blocks_processed;
  EXPECT_EQ(scored_before, 1u);  // block 0 scored, block 1 threw

  EXPECT_TRUE(front.reopen(kFaulted));
  EXPECT_FALSE(front.reopen(kFaulted));  // no longer quarantined
  for (std::uint64_t id = 0; id < 6; ++id) {
    if (id != kFaulted) {
      EXPECT_FALSE(front.reopen(id));  // healthy: nothing to reopen
    }
  }

  // Later blocks are scored once the backoff has been worked off.
  offer_blocks(kFaulted, 3, 8);
  front.finish();
  const session_stats st = front.stats(kFaulted);
  EXPECT_EQ(st.quarantines, 1u);
  EXPECT_EQ(st.reopens, 1u);
  EXPECT_EQ(st.blocks_dropped_backoff, 2u);
  EXPECT_GT(st.blocks_processed, scored_before);
  const serve_totals totals = front.aggregate();
  EXPECT_EQ(totals.sessions_quarantined, 0u);
  EXPECT_EQ(totals.stats.quarantines, 1u);
}

// ---- balance + eviction counters under streaming drain ---------------

// balance() is the fleet operator's load view; this pins its counters
// while the hard mode runs — live workers with a per-shard residency
// bound forcing the evict/rehydrate cycle.
TEST(shard, balance_counts_evictions_under_streaming_drain) {
  const std::vector<audio::buffer> streams = fleet_streams(8, 500);
  // Bound 1 per shard: every round trips the eviction heap.
  const fleet_run r = run_shards(streams, 2'048, sharded(2, 2, 1));

  // The bound actually engaged, and rehydration brought sessions back.
  EXPECT_GT(r.eviction.evictions, 0u);
  EXPECT_GT(r.eviction.rehydrations, 0u);
  EXPECT_EQ(r.eviction.rehydrate_latency.count(), r.eviction.rehydrations);

  // Per-shard rows sum to the fleet eviction totals...
  ASSERT_EQ(r.balance.shards.size(), 2u);
  std::uint64_t evictions = 0;
  std::uint64_t rehydrations = 0;
  std::uint64_t offers = 0;
  std::size_t sessions = 0;
  std::size_t resident = 0;
  for (const shard_load& l : r.balance.shards) {
    evictions += l.evictions;
    rehydrations += l.rehydrations;
    offers += l.offers;
    sessions += l.sessions;
    resident += l.resident;
    EXPECT_EQ(l.quarantined, 0u);  // healthy run
  }
  EXPECT_EQ(evictions, r.eviction.evictions);
  EXPECT_EQ(rehydrations, r.eviction.rehydrations);
  EXPECT_EQ(sessions, streams.size());
  EXPECT_EQ(resident, r.eviction.resident);
  // ...and every offer the round-robin producer made was routed.
  std::size_t expected_offers = 0;
  for (const audio::buffer& st : streams) {
    expected_offers += (st.size() + 2'048 - 1) / 2'048;
  }
  EXPECT_EQ(offers, expected_offers);
  // min/max/mean stay consistent with the per-shard rows.
  EXPECT_EQ(r.balance.min_sessions,
            std::min(r.balance.shards[0].sessions,
                     r.balance.shards[1].sessions));
  EXPECT_EQ(r.balance.max_sessions,
            std::max(r.balance.shards[0].sessions,
                     r.balance.shards[1].sessions));
  EXPECT_DOUBLE_EQ(r.balance.mean_sessions,
                   static_cast<double>(streams.size()) / 2.0);

  // Same evicting streaming run, different shard count: the streams are
  // bit-identical (the tentpole contract), only the load view moves.
  const fleet_run single = run_shards(streams, 2'048, sharded(1, 2, 1));
  EXPECT_GT(single.eviction.evictions, 0u);
  expect_same_streams(single, r, "1 vs 2 shards");
}

// Every shard writes the same fleet registry cells, so the resident and
// frozen-bytes gauges must read the fleet totals, not whichever shard
// wrote last.
TEST(shard, fleet_gauges_read_the_fleet_totals) {
  const audio::buffer stream = command_stream(670);
  for (const std::size_t bound : {std::size_t{0}, std::size_t{1}}) {
    serve_config cfg;  // detector only
    cfg.max_resident_sessions = bound;  // per shard; 0 = unbounded
    cfg.metrics = std::make_shared<obs::metrics_registry>();
    const obs::gauge resident =
        cfg.metrics->get_gauge("serve_resident_sessions");
    const obs::gauge frozen = cfg.metrics->get_gauge("serve_frozen_bytes");
    session_manager front{tiny_detector(), cfg, 3};
    const auto expect_fleet_gauges = [&](const char* when) {
      const eviction_stats e = front.eviction();
      EXPECT_EQ(resident.value(), static_cast<double>(e.resident))
          << "bound " << bound << ", " << when;
      EXPECT_EQ(frozen.value(), static_cast<double>(e.frozen_bytes))
          << "bound " << bound << ", " << when;
    };
    constexpr std::uint64_t kSessions = 6;
    for (std::uint64_t s = 0; s < kSessions; ++s) {
      front.open_session();
    }
    expect_fleet_gauges("after opening");
    if (bound > 0) {
      EXPECT_GT(frozen.value(), 0.0);  // the bound engaged
    }
    for (std::uint64_t b = 0; b < 3; ++b) {
      for (std::uint64_t id = 0; id < kSessions; ++id) {
        front.offer(id, audio::cut(stream, b * 2'048, (b + 1) * 2'048));
      }
      front.start(1);
      front.stop();
      expect_fleet_gauges("after a burst");
    }
    front.finish();
    expect_fleet_gauges("after finish");
    if (bound == 0) {
      EXPECT_EQ(resident.value(), static_cast<double>(kSessions));
    }
  }
}

// ---- finish() flush contract -----------------------------------------

// finish() is close_all + start + stop on every shard. It must score
// every accepted block and run every close() flush exactly once, both on
// a front that was never started and on one whose blocks arrived after
// stop(). 0.7 s of audio is under one full window but over the flush
// threshold, so each session's one verdict can only come from its
// close() flush.
TEST(shard, finish_scores_every_block_and_flushes_once) {
  const serve_config cfg;  // detector only: the flush is under test
  for (const bool started : {false, true}) {
    session_manager front{tiny_detector(), cfg, 2};
    for (std::size_t s = 0; s < 4; ++s) {
      front.open_session();
    }
    if (started) {
      front.start(2);
      front.stop();
    }
    for (std::uint64_t id = 0; id < 4; ++id) {
      const auto end = static_cast<std::size_t>(0.7 * kRate);
      ASSERT_EQ(front.offer(id, audio::cut(command_stream(600 + id), 0, end)),
                offer_status::accepted);
    }
    for (int pass = 0; pass < 2; ++pass) {  // a repeat finish() is a no-op
      front.finish();
      EXPECT_FALSE(front.streaming());
      for (std::uint64_t id = 0; id < 4; ++id) {
        EXPECT_EQ(front.stats(id).blocks_processed, 1u)
            << "started " << started << ", session " << id;
        EXPECT_EQ(front.verdicts(id).size(), 1u)
            << "started " << started << ", session " << id;
      }
    }
  }
}

TEST(shard, front_validates_inputs) {
  serve_config cfg;
  EXPECT_THROW(session_manager(tiny_detector(), cfg, 0),
               std::invalid_argument);
  session_manager front{tiny_detector(), cfg, 2};
  EXPECT_THROW(front.offer(0, audio::silence(0.1, kRate)),
               std::invalid_argument);
  EXPECT_THROW(front.shard_of(0), std::invalid_argument);
  const std::uint64_t id = front.open_session();
  EXPECT_EQ(id, 0u);
  EXPECT_TRUE(front.resident(id));
  EXPECT_EQ(front.verdicts(id).size(), 0u);
}

}  // namespace
}  // namespace ivc::serve
