#include "serve/session_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "audio/buffer.h"
#include "audio/ops.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "fleet.h"
#include "synth/commands.h"

namespace ivc::serve {
namespace {

// A per-session stream: rendered speech with a quadratic trace whose
// strength varies by seed, padded so several windows complete.
audio::buffer session_stream(std::uint64_t seed) {
  ivc::rng rng{seed};
  audio::buffer v = synth::render_command(synth::command_by_id("open_door"),
                                          synth::male_voice(), rng, 16'000.0);
  const double beta = 0.1 + 0.05 * static_cast<double>(seed % 5);
  for (double& s : v.samples) {
    s = s + beta * s * s;
  }
  return audio::remove_dc(v);
}

// The layer's invariant: long-lived workers and the ready-queue only
// change latency, never decisions — every worker count reproduces the
// 1-worker verdict streams bit-exactly.
TEST(serve, verdict_streams_identical_at_any_worker_count) {
  std::vector<audio::buffer> streams;
  for (std::uint64_t s = 0; s < 8; ++s) {
    streams.push_back(session_stream(100 + s));
  }
  serve_config cfg;
  cfg.queue_capacity = 16;
  cfg.policy = overflow_policy::reject;

  fleet_params p;
  p.config = cfg;
  p.workers = 1;
  const fleet_run serial = run_fleet(streams, 1'024, p);
  ASSERT_GT(serial.totals.stats.events, 0u);

  for (const std::size_t workers : {2u, 3u, 8u}) {
    p.workers = workers;
    expect_same_streams(serial, run_fleet(streams, 1'024, p),
                        std::to_string(workers) + " workers");
  }
}

TEST(serve, reject_policy_bounces_until_drained) {
  serve_config cfg;
  cfg.queue_capacity = 2;
  cfg.policy = overflow_policy::reject;
  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  const audio::buffer block = audio::silence(0.05, 16'000.0);

  EXPECT_EQ(manager.offer(sid, block), offer_status::accepted);
  EXPECT_EQ(manager.offer(sid, block), offer_status::accepted);
  EXPECT_EQ(manager.offer(sid, block), offer_status::rejected);
  EXPECT_EQ(manager.offer(sid, block), offer_status::rejected);

  session_stats st = manager.stats(sid);
  EXPECT_EQ(st.blocks_accepted, 2u);
  EXPECT_EQ(st.blocks_rejected, 2u);
  EXPECT_EQ(st.blocks_shed, 0u);

  // A start/stop pass empties the queue; the producer can continue.
  manager.start(1);
  manager.stop();
  EXPECT_EQ(manager.offer(sid, block), offer_status::accepted);
  manager.finish();
  st = manager.stats(sid);
  EXPECT_EQ(st.blocks_processed, 3u);
}

TEST(serve, shed_newest_drops_the_offered_block) {
  serve_config cfg;
  cfg.queue_capacity = 2;
  cfg.policy = overflow_policy::shed_newest;
  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  const audio::buffer block = audio::silence(0.05, 16'000.0);
  for (int i = 0; i < 5; ++i) {
    manager.offer(sid, block);
  }
  const session_stats st = manager.stats(sid);
  EXPECT_EQ(st.blocks_offered, 5u);
  EXPECT_EQ(st.blocks_accepted, 2u);
  EXPECT_EQ(st.blocks_shed, 3u);
  manager.finish();
  EXPECT_EQ(manager.stats(sid).blocks_processed, 2u);
}

TEST(serve, close_rejects_offers_and_flushes_partial_window) {
  session_manager manager{tiny_detector()};
  const std::uint64_t sid = manager.open_session();
  // 0.7 s of speech: less than one full 1 s window, more than the 0.5 s
  // flush threshold — only the close() flush can produce the verdict.
  audio::buffer stream = session_stream(7);
  stream.samples.resize(static_cast<std::size_t>(0.7 * 16'000.0));
  manager.offer(sid, stream);
  manager.start(2);
  manager.stop();
  EXPECT_TRUE(manager.verdicts(sid).empty());

  manager.close(sid);
  EXPECT_EQ(manager.offer(sid, stream), offer_status::closed);
  manager.start(2);
  manager.stop();
  EXPECT_EQ(manager.verdicts(sid).size(), 1u);
  // The flush happens exactly once.
  manager.start(2);
  manager.stop();
  EXPECT_EQ(manager.verdicts(sid).size(), 1u);
}

TEST(serve, streaming_start_stop_idempotent_with_mid_stream_opens) {
  serve_config cfg;
  cfg.queue_capacity = 8;
  cfg.policy = overflow_policy::reject;
  session_manager manager{tiny_detector(), cfg};
  const audio::buffer stream = session_stream(31);

  // Work offered BEFORE start() must be picked up by the backlog scan.
  const std::uint64_t first = manager.open_session();
  manager.offer(first, stream);

  manager.start(2);
  EXPECT_TRUE(manager.streaming());
  manager.start(8);  // idempotent no-op while streaming
  EXPECT_TRUE(manager.streaming());

  // Sessions opened mid-stream join the ready-queue on their first offer.
  const std::uint64_t second = manager.open_session();
  while (manager.offer(second, stream) == offer_status::rejected) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  manager.close_all();
  manager.stop();
  EXPECT_FALSE(manager.streaming());
  manager.stop();  // idempotent no-op when not streaming

  for (const std::uint64_t id : {first, second}) {
    const session_stats st = manager.stats(id);
    EXPECT_EQ(st.blocks_processed, st.blocks_accepted) << "session " << id;
    EXPECT_GT(manager.verdicts(id).size(), 0u) << "session " << id;
  }

  // Work offered AFTER stop() waits in its session until finish() scores
  // it and runs its close() flush — exactly once. 0.7 s of speech is
  // under one full window but over the flush threshold, so the one
  // verdict can only come from that flush.
  const std::uint64_t third = manager.open_session();
  audio::buffer partial = session_stream(7);
  partial.samples.resize(static_cast<std::size_t>(0.7 * 16'000.0));
  ASSERT_EQ(manager.offer(third, partial), offer_status::accepted);
  manager.finish();
  EXPECT_FALSE(manager.streaming());
  EXPECT_EQ(manager.stats(third).blocks_processed, 1u);
  EXPECT_EQ(manager.verdicts(third).size(), 1u);
  manager.finish();
  EXPECT_EQ(manager.verdicts(third).size(), 1u);

  // A fresh start() after stop() works (and drains nothing new).
  manager.start(1);
  manager.stop();
}

// start(0) — and so finish() on a stopped manager — spawns the manager
// config's worker_threads; an explicit start(n) overrides it. Counted
// as the threads the process gains (Linux /proc).
TEST(serve, start_zero_spawns_config_worker_threads) {
  const std::filesystem::path tasks{"/proc/self/task"};
  if (!std::filesystem::exists(tasks)) {
    GTEST_SKIP() << "no per-thread listing on this platform";
  }
  const auto threads = [&] {
    return std::distance(std::filesystem::directory_iterator{tasks},
                         std::filesystem::directory_iterator{});
  };
  // A joined thread can stay listed for a moment after join() returns.
  const auto settled = [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return threads();
  };
  serve_config cfg;
  cfg.worker_threads = default_thread_count() + 1;  // not the default
  session_manager manager{tiny_detector(), cfg};
  auto before = settled();
  manager.start();
  EXPECT_EQ(threads() - before,
            static_cast<std::ptrdiff_t>(cfg.worker_threads));
  manager.stop();
  before = settled();
  manager.start(2);
  EXPECT_EQ(threads() - before, 2);
  manager.stop();
}

// Shed accounting must be a pure function of the offer schedule, not of
// worker timing: with no workers running, a paced burst over a tiny ring
// sheds exactly (offers - capacity) blocks; the streaming workers then
// score exactly the `capacity` survivors.
TEST(serve, streaming_shed_counters_deterministic_under_paced_overload) {
  serve_config cfg;
  cfg.queue_capacity = 4;
  cfg.policy = overflow_policy::shed_newest;
  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  const audio::buffer block = audio::silence(0.05, 16'000.0);
  for (int i = 0; i < 20; ++i) {
    manager.offer(sid, block);  // paced arrivals, consumer not yet started
  }
  session_stats st = manager.stats(sid);
  EXPECT_EQ(st.blocks_offered, 20u);
  EXPECT_EQ(st.blocks_accepted, 4u);
  EXPECT_EQ(st.blocks_shed, 16u);

  manager.start(2);
  manager.close_all();
  manager.stop();
  st = manager.stats(sid);
  EXPECT_EQ(st.blocks_processed, 4u);
  EXPECT_EQ(st.blocks_shed, 16u);
}

// Regression for the verdicts_ data race: snapshots must be safe while
// streaming workers are appending. The reader thread hammers verdicts()
// and stats() concurrently with live scoring; sizes may only grow.
TEST(serve, verdict_snapshots_are_safe_while_streaming) {
  serve_config cfg;
  cfg.queue_capacity = 32;
  cfg.policy = overflow_policy::reject;
  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  const audio::buffer stream = session_stream(47);

  manager.start(2);
  std::atomic<bool> done{false};
  std::size_t last_seen = 0;
  bool monotonic = true;
  std::thread reader{[&] {
    while (!done.load()) {
      const std::size_t n = manager.verdicts(sid).size();
      monotonic = monotonic && n >= last_seen;
      last_seen = n;
      (void)manager.stats(sid).events;
    }
  }};
  const std::size_t block = 512;
  for (std::size_t start = 0; start < stream.size(); start += block) {
    const audio::buffer piece =
        audio::cut(stream, start, std::min(start + block, stream.size()));
    while (manager.offer(sid, piece) == offer_status::rejected) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  manager.close_all();
  manager.stop();
  done.store(true);
  reader.join();
  EXPECT_TRUE(monotonic);
  const session_stats st = manager.stats(sid);
  EXPECT_EQ(st.blocks_processed, st.blocks_accepted);
  EXPECT_EQ(manager.verdicts(sid).size(), st.events);
}

// Every processed block records one queue-wait sample.
TEST(serve, queue_wait_accounts_every_block) {
  session_manager manager{tiny_detector()};
  const std::uint64_t sid = manager.open_session();
  manager.offer(sid, session_stream(12));
  manager.finish();
  const session_stats st = manager.stats(sid);
  ASSERT_GT(st.blocks_processed, 0u);
  EXPECT_EQ(st.queue_wait.count(), st.blocks_processed);
}

TEST(serve, aggregate_sums_sessions_and_queue_wait) {
  session_manager manager{tiny_detector()};
  const audio::buffer stream = session_stream(11);
  for (int s = 0; s < 3; ++s) {
    manager.open_session();
    manager.offer(static_cast<std::uint64_t>(s), stream);
  }
  manager.finish();
  const serve_totals totals = manager.aggregate();
  EXPECT_EQ(totals.num_sessions, 3u);
  EXPECT_EQ(totals.stats.blocks_processed, 3u);
  EXPECT_EQ(totals.stats.queue_wait.count(), 3u);
  std::uint64_t events = 0;
  for (int s = 0; s < 3; ++s) {
    events += manager.stats(static_cast<std::uint64_t>(s)).events;
  }
  EXPECT_EQ(totals.stats.events, events);
  EXPECT_GE(totals.stats.queue_wait.quantile(0.99),
            totals.stats.queue_wait.quantile(0.50));
}

// ---- lifecycle edges (pinned, not left implicit) ---------------------

TEST(serve, close_is_idempotent) {
  session_manager manager{tiny_detector()};
  const std::uint64_t sid = manager.open_session();
  manager.offer(sid, session_stream(21));
  manager.close(sid);
  manager.close(sid);  // second close: no-op, no double flush
  manager.start(1);
  manager.stop();
  const std::size_t verdicts = manager.verdicts(sid).size();
  EXPECT_GT(verdicts, 0u);
  manager.close(sid);  // close after the flush: still a no-op
  manager.start(1);
  manager.stop();
  EXPECT_EQ(manager.verdicts(sid).size(), verdicts);
}

TEST(serve, offer_after_close_bounces_and_counts) {
  session_manager manager{tiny_detector()};
  const std::uint64_t sid = manager.open_session();
  const audio::buffer block = audio::silence(0.1, 16'000.0);
  EXPECT_EQ(manager.offer(sid, block), offer_status::accepted);
  manager.close(sid);
  // Offers after close() return `closed` — a terminal status, distinct
  // from `rejected` (which invites a retry) — and each bounce is
  // counted against blocks_rejected.
  EXPECT_EQ(manager.offer(sid, block), offer_status::closed);
  EXPECT_EQ(manager.offer(sid, block), offer_status::closed);
  session_stats st = manager.stats(sid);
  EXPECT_EQ(st.blocks_offered, 3u);
  EXPECT_EQ(st.blocks_accepted, 1u);
  EXPECT_EQ(st.blocks_rejected, 2u);
  // The block accepted BEFORE the close is still scored.
  manager.start(1);
  manager.stop();
  st = manager.stats(sid);
  EXPECT_EQ(st.blocks_processed, 1u);
}

TEST(serve, finish_on_never_offered_session_flushes_once) {
  // A manager that is never started: finish() alone must score every
  // accepted block and run every close() flush.
  session_manager manager{tiny_detector()};
  const std::uint64_t sid = manager.open_session();
  // A second session holds 0.7 s of speech: the one verdict it owes can
  // only come from its close() flush.
  const std::uint64_t partial_sid = manager.open_session();
  audio::buffer partial = session_stream(7);
  partial.samples.resize(static_cast<std::size_t>(0.7 * 16'000.0));
  ASSERT_EQ(manager.offer(partial_sid, partial), offer_status::accepted);
  // Close a session that never accepted a block: the (empty) end-of-
  // stream flush runs exactly once and produces nothing.
  manager.finish();
  EXPECT_FALSE(manager.streaming());
  session_stats st = manager.stats(sid);
  EXPECT_EQ(st.blocks_processed, 0u);
  EXPECT_EQ(st.events, 0u);
  EXPECT_TRUE(manager.verdicts(sid).empty());
  EXPECT_EQ(manager.stats(partial_sid).blocks_processed, 1u);
  EXPECT_EQ(manager.verdicts(partial_sid).size(), 1u);
  // A repeat finish() does not re-run either flush.
  manager.finish();
  EXPECT_TRUE(manager.verdicts(sid).empty());
  EXPECT_EQ(manager.verdicts(partial_sid).size(), 1u);
  EXPECT_EQ(manager.state(sid), session_state::serving);
}

}  // namespace
}  // namespace ivc::serve
