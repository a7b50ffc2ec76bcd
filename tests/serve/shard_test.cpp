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
#include "common/rng.h"
#include "defense/classifier.h"
#include "obs/registry.h"
#include "serve/session_manager.h"
#include "sim/scenario.h"
#include "synth/commands.h"

namespace ivc::serve {
namespace {

constexpr double kRate = 16'000.0;

defense::logistic_classifier tiny_classifier() {
  ivc::rng rng{90};
  defense::labelled_features data;
  for (int i = 0; i < 120; ++i) {
    defense::trace_features f;
    const bool attack = i % 2 == 0;
    const double c = attack ? 1.0 : -1.0;
    f.low_band_envelope_corr = c + rng.normal(0.0, 0.3);
    f.low_band_ratio_db = 4.0 * c + rng.normal(0.0, 1.0);
    f.amplitude_skew = 0.4 * c + rng.normal(0.0, 0.2);
    f.low_band_waveform_corr = c + rng.normal(0.0, 0.3);
    data.add(f, attack ? 1 : 0);
  }
  defense::logistic_classifier clf;
  clf.train(data);
  return clf;
}

defense::classifier_detector tiny_detector() {
  return defense::classifier_detector{tiny_classifier()};
}

audio::buffer command_stream(std::uint64_t seed) {
  ivc::rng rng{seed};
  std::vector<audio::buffer> parts;
  parts.push_back(audio::silence(0.3, kRate));
  parts.push_back(synth::render_command(synth::command_by_id("open_door"),
                                        synth::male_voice(), rng, kRate));
  parts.push_back(audio::silence(0.4, kRate));
  parts.push_back(synth::render_command(synth::command_by_id("play_music"),
                                        synth::male_voice(), rng, kRate));
  parts.push_back(audio::silence(0.4, kRate));
  return audio::remove_dc(audio::concat(parts));
}

audio::buffer cut(const audio::buffer& b, std::size_t start,
                    std::size_t end) {
  return audio::buffer{
      {b.samples.begin() + static_cast<std::ptrdiff_t>(start),
       b.samples.begin() + static_cast<std::ptrdiff_t>(end)},
      b.sample_rate_hz};
}

serve_config fleet_config() {
  serve_config cfg;
  cfg.queue_capacity = 64;
  cfg.policy = overflow_policy::reject;
  pipeline_config pc;
  pc.recognizer = sim::shared_enrolled_recognizer(kRate, 1);
  cfg.pipeline = pc;
  return cfg;
}

void expect_same_verdicts(const std::vector<defense::stream_event>& a,
                          const std::vector<defense::stream_event>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time_s, b[i].time_s) << what << " #" << i;
    EXPECT_EQ(a[i].score, b[i].score) << what << " #" << i;
    EXPECT_EQ(a[i].is_attack, b[i].is_attack) << what << " #" << i;
  }
}

void expect_same_outcomes(const std::vector<command_outcome>& a,
                          const std::vector<command_outcome>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start_s, b[i].start_s) << what << " #" << i;
    EXPECT_EQ(a[i].end_s, b[i].end_s) << what << " #" << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << what << " #" << i;
    EXPECT_EQ(a[i].fault, b[i].fault) << what << " #" << i;
    EXPECT_EQ(a[i].command_id, b[i].command_id) << what << " #" << i;
    EXPECT_EQ(a[i].intent, b[i].intent) << what << " #" << i;
  }
}

struct fleet_result {
  std::vector<std::vector<defense::stream_event>> verdicts;
  std::vector<std::vector<command_outcome>> outcomes;
  std::vector<std::string> traces;  // wall clock stripped, encoded
  serve_totals totals;
  eviction_stats eviction;
  shard_balance balance;
};

struct fleet_params {
  std::size_t shards = 1;
  std::size_t workers = 2;           // per shard
  std::size_t max_resident = 0;      // per shard; 0 = unbounded
  std::shared_ptr<const fault_injector> faults;
  fault_tolerance_config tolerance;
};

// Offers every stream round-robin to a streaming front. Every fourth
// round the producer waits for the workers (stop, then start again), so
// each session goes idle mid-stream: eviction and shard_kill then have
// idle sessions to freeze, while the offers in between race live
// workers.
fleet_result run_fleet(const std::vector<audio::buffer>& streams,
                       std::size_t block, const fleet_params& p) {
  serve_config cfg = fleet_config();
  cfg.max_resident_sessions = p.max_resident;
  cfg.faults = p.faults;
  cfg.fault_tolerance = p.tolerance;
  session_manager front{tiny_detector(), cfg, p.shards};
  for (std::size_t s = 0; s < streams.size(); ++s) {
    front.open_session();
  }
  front.start(p.workers);
  std::size_t max_rounds = 0;
  for (const audio::buffer& st : streams) {
    max_rounds = std::max(max_rounds, (st.size() + block - 1) / block);
  }
  for (std::size_t round = 0; round < max_rounds; ++round) {
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const std::size_t start = round * block;
      if (start >= streams[s].size()) {
        continue;
      }
      const std::size_t end = std::min(start + block, streams[s].size());
      EXPECT_EQ(front.offer(s, cut(streams[s], start, end)),
                offer_status::accepted);
    }
    if (round % 4 == 3) {
      front.stop();
      front.start(p.workers);
    }
  }
  front.finish();
  fleet_result out;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    out.verdicts.push_back(front.verdicts(s));
    out.outcomes.push_back(front.outcomes(s));
    out.traces.push_back(json::write(
        obs::encode_spans(obs::strip_wall_clock(front.trace(s)))));
  }
  out.totals = front.aggregate();
  out.eviction = front.eviction();
  out.balance = front.balance();
  return out;
}

std::vector<audio::buffer> fleet_streams(std::size_t n) {
  std::vector<audio::buffer> streams;
  streams.reserve(n);
  for (std::uint64_t s = 0; s < n; ++s) {
    streams.push_back(command_stream(500 + s));
  }
  return streams;
}

// ---- the tentpole identity matrix ------------------------------------

TEST(shard, streams_are_bit_identical_across_the_serving_matrix) {
  const std::vector<audio::buffer> streams = fleet_streams(8);
  const std::size_t block = 2'048;

  // Reference: one shard, one worker, no eviction.
  fleet_params ref_p;
  ref_p.shards = 1;
  ref_p.workers = 1;
  const fleet_result ref = run_fleet(streams, block, ref_p);
  std::size_t total_verdicts = 0;
  for (const auto& v : ref.verdicts) {
    total_verdicts += v.size();
  }
  ASSERT_GT(total_verdicts, 0u);
  EXPECT_GT(ref.totals.stats.commands_executed, 0u);  // non-vacuous

  struct case_t {
    const char* name;
    fleet_params p;
  };
  std::vector<case_t> cases;
  cases.push_back({"2 shards", {}});
  cases.back().p.shards = 2;
  cases.push_back({"4 shards, 4 workers", {}});
  cases.back().p.shards = 4;
  cases.back().p.workers = 4;
  cases.push_back({"2 shards, eviction bound 2", {}});
  cases.back().p.shards = 2;
  cases.back().p.max_resident = 2;
  cases.push_back({"4 shards, eviction bound 1", {}});
  cases.back().p.shards = 4;
  cases.back().p.max_resident = 1;

  for (const case_t& c : cases) {
    const fleet_result got = run_fleet(streams, block, c.p);
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const std::string what =
          std::string{c.name} + ", session " + std::to_string(s);
      expect_same_verdicts(ref.verdicts[s], got.verdicts[s], what);
      expect_same_outcomes(ref.outcomes[s], got.outcomes[s], what);
    }
    // Aggregate content counters match too (latency/timing excluded).
    EXPECT_EQ(ref.totals.stats.events, got.totals.stats.events) << c.name;
    EXPECT_EQ(ref.totals.stats.commands_executed,
              got.totals.stats.commands_executed)
        << c.name;
    EXPECT_EQ(ref.totals.stats.commands_blocked,
              got.totals.stats.commands_blocked)
        << c.name;
    if (c.p.max_resident > 0) {
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
      EXPECT_EQ(front.offer(id, cut(stream, b * 1'024, (b + 1) * 1'024)),
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
  const std::vector<audio::buffer> streams = fleet_streams(6);
  const std::size_t block = 2'048;

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    const std::string where = std::to_string(shards) + " shard(s)";
    fleet_params clean;
    clean.shards = shards;
    const fleet_result want = run_fleet(streams, block, clean);

    fault_config fc;
    fc.seed = 7;
    fc.shard_kill_rate = 0.05;  // every ~20th offer of a shard
    fleet_params chaos = clean;
    chaos.faults = std::make_shared<fault_injector>(fc);
    const fleet_result got = run_fleet(streams, block, chaos);

    // Kills actually happened and evicted sessions...
    std::uint64_t kills = 0;
    for (const shard_load& l : got.balance.shards) {
      kills += l.shard_kills;
    }
    ASSERT_GT(kills, 0u) << where;
    EXPECT_GT(got.eviction.evictions, 0u) << where;

    // ...yet every stream is bit-identical to the fault-free run, and
    // the attacker gained nothing: executed counts match exactly.
    for (std::size_t s = 0; s < streams.size(); ++s) {
      expect_same_verdicts(want.verdicts[s], got.verdicts[s],
                           where + ", session " + std::to_string(s));
      expect_same_outcomes(want.outcomes[s], got.outcomes[s],
                           where + ", session " + std::to_string(s));
    }
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
  const std::vector<audio::buffer> streams = fleet_streams(8);
  const std::size_t block = 2'048;
  fault_config fc;
  fc.seed = 99;
  fc.detector_throw_rate = 0.03;
  fc.corrupt_block_rate = 0.03;
  fc.recognizer_throw_rate = 0.2;
  fleet_params ref_p;
  ref_p.shards = 1;
  ref_p.workers = 1;
  ref_p.faults = std::make_shared<fault_injector>(fc);
  // A retry budget no stream exhausts: every session recovers, so no
  // offer is ever refused and each run sees the same accepted blocks.
  ref_p.tolerance.max_reopens = 1'000;
  ref_p.tolerance.backoff_blocks = 1;
  const fleet_result ref = run_fleet(streams, block, ref_p);
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
    fleet_params p = ref_p;
    p.shards = c.shards;
    p.workers = 2;
    p.max_resident = c.max_resident;
    const fleet_result got = run_fleet(streams, block, p);
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const std::string what =
          std::string{c.name} + ", session " + std::to_string(s);
      expect_same_verdicts(ref.verdicts[s], got.verdicts[s], what);
      expect_same_outcomes(ref.outcomes[s], got.outcomes[s], what);
      EXPECT_EQ(ref.traces[s], got.traces[s]) << what;
    }
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
      front.offer(id, cut(stream, b * 2'048, (b + 1) * 2'048));
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
  const std::vector<audio::buffer> streams = fleet_streams(8);
  fleet_params p;
  p.shards = 2;
  p.workers = 2;
  p.max_resident = 1;  // per shard: every round trips the eviction heap
  const fleet_result r = run_fleet(streams, 2'048, p);

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
  fleet_params q = p;
  q.shards = 1;
  const fleet_result single = run_fleet(streams, 2'048, q);
  EXPECT_GT(single.eviction.evictions, 0u);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    expect_same_verdicts(single.verdicts[s], r.verdicts[s],
                         "session " + std::to_string(s));
    expect_same_outcomes(single.outcomes[s], r.outcomes[s],
                         "session " + std::to_string(s));
  }
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
        front.offer(id, cut(stream, b * 2'048, (b + 1) * 2'048));
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
      ASSERT_EQ(front.offer(id, cut(command_stream(600 + id), 0,
                                    static_cast<std::size_t>(0.7 * kRate))),
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
