// SERVE: scenario-driven load harness for the multi-stream serving layer.
//
// Renders a fleet of mixed genuine/attack device streams with
// sim::traffic (deterministic per-session seeds), then sweeps
// session count × ingest block size × worker threads through
// serve::session_manager, interleaving offers round-robin across
// sessions and letting the workers catch up (start, then stop) every
// few rounds — the arrival pattern of a fleet of concurrent capture
// streams. Reports per-combo audio, shed-block and verdict counts into
// BENCH_serve.json (+ the run log). serve_load checks correctness only;
// timing (latency, throughput, per-layer cost) is perfbench's job
// (perfbench/README.md).
//
// Two invariants are CHECKED, not just reported:
//   * determinism: per-session verdict streams must be bit-identical at
//     1 worker vs N workers (exit 1 on any mismatch);
//   * backpressure: a dedicated overload pass with a tiny queue bound
//     and shed_newest policy must shed exactly the block count its
//     schedule implies (exit 1 otherwise).
//
// `--paced` switches to the streaming replay protocol (`serve-paced-v1`
// run-log signature): sim::traffic stamps each fleet stream with a
// deterministic arrival timeline (Poisson session starts + per-block
// capture times), and the harness offers every block AT its arrival
// time against a live streaming manager (session_manager::start/stop —
// long-lived workers, no barriers). The timeline plays back 4x faster
// than real time with Poisson session starts at 32/s, and the
// per-session verdict streams of every paced run must be bit-identical
// to an unpaced 1-worker replay of the same blocks (exit 1 on mismatch).
//
// `--e2e` switches to the end-to-end command-pipeline protocol
// (`serve-e2e-v1` run-log signature, default JSON BENCH_serve_e2e.json):
// every session is opened with a per-session config override that adds
// the serve::command_pipeline stage (utterance segmenter → shared
// asr::recognizer templates → intent engine) behind its verdict stream.
// The harness scores STREAM-level end-to-end outcomes against the
// traffic ground truth — attacker success means the intended command
// EXECUTED (recognized, not blocked, mapped to an intent), genuine task
// completion means a genuine user's command executed. The per-session
// outcome streams of the run at every worker count must be
// bit-identical to the 1-worker reference (exit 1 on mismatch); only
// the asr_s wall-time field is exempt.
//
// `--shard` switches to the sharded-front protocol (`serve-shard-v1`
// run-log signature, default JSON BENCH_serve_shard.json), in two
// phases. Phase A is the identity matrix: a small e2e fleet runs
// through a sharded serve::session_manager at 1/2/4 shards × worker
// counts × eviction on/off × shard_kill fault load, and
// every variant's per-session verdict+outcome streams must be
// bit-identical to the 1-shard/1-worker/no-eviction reference (exit 1
// on mismatch; eviction/kill variants must actually evict). Phase B is
// the scale run: ~1M open sessions (smoke: 10k) share a small script
// pool and are offered their blocks in two fleet-wide bursts against a
// live streaming front whose per-shard residency bound keeps the
// resident working set a small fraction of the open set — sessions
// evict to compact snapshots between their bursts and rehydrate
// transparently on the next offer. The harness reports shard balance,
// eviction/rehydration counts, peak resident sessions (CHECKED against
// the bound), and an eviction-on-vs-off verdict-stream hash on a
// sub-fleet (CHECKED equal).
//
// `--chaos` switches to the fault-injection sweep (`serve-chaos-v1`
// run-log signature, default JSON BENCH_serve_chaos.json): the e2e fleet
// runs under a deterministic serve::fault_injector schedule at several
// fault scales, and three properties are checked, not just reported —
// verdict+outcome streams stay bit-identical across 1/2/8 workers
// under the SAME fault schedule; injected faults
// never increase attacker success (fail-closed); and the fleet completes
// every run without process death. Smoke mode additionally requires the
// top scale to put faults into >= 25% of sessions with attacker success
// pinned at 0%.
//
// Every run except phase B's throttled scale loop goes through one
// replay loop (replay() below): an ordered offer list — round-robin
// rounds or the arrival timeline — offered either to live workers
// (a rejected offer retries after 200 µs) or between start/stop
// barriers (a rejected offer waits for one). Every identity check uses
// one rule, same_streams(): verdicts compare with stream_event's ==,
// outcomes with serve::same_decision.
//
// Flags (on top of the common bench flags in bench_util.h):
//   --smoke          CI-sized run: 64 sessions, one block size, 1-vs-N
//   --sessions <n>   override the session-count sweep with a single value
//   --paced          streaming arrival-time replay protocol (see above)
//   --e2e            end-to-end command-pipeline protocol (see above)
//   --chaos          deterministic fault-injection sweep (see above)
//   --shard          sharded front + snapshot/eviction protocol (above)
//   --telemetry <dir>  emit fleet telemetry into <dir> and CHECK it:
//                    under --e2e the run matrix is pinned to 1/2/8
//                    workers, each run gets a fresh
//                    obs::metrics_registry + per-session flight
//                    recorders, and the deterministic counter
//                    fingerprint AND the wall-clock-stripped span
//                    traces must be bit-identical across every run
//                    (exit 1 on mismatch; metrics.json / metrics.prom /
//                    trace fingerprints land in <dir>, and a
//                    `serve-telemetry-v1` record is appended to the run
//                    log). Under --paced / --shard a background
//                    obs::fleet_sampler appends a JSONL time-series of
//                    serve::telemetry_sample() snapshots; under --chaos
//                    every quarantine dumps its flight recorder to
//                    <dir>/quarantine_traces.jsonl (checked non-empty
//                    when faults actually quarantined).
//
// The JSON is written to BENCH_serve.json unless --json overrides it.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "defense/classifier.h"
#include "defense/detector.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "serve/session_manager.h"
#include "serve/telemetry.h"
#include "sim/corpus.h"
#include "sim/scenario.h"
#include "sim/traffic.h"

namespace ivc {
namespace {

// Classifier trained on a small real corpus (same physics as the
// traffic), so serving-level verdict rates mean something. Small caps
// keep the bench about the serving layer, not corpus rendering.
defense::classifier_detector trained_detector(std::size_t threads) {
  sim::corpus_config cfg;
  cfg.rig = attack::monolithic_rig();
  cfg.max_attack_commands = 4;
  cfg.max_genuine_phrases = 6;
  cfg.num_threads = threads;
  const sim::defense_corpus corpus = sim::build_defense_corpus(cfg, 70);
  defense::logistic_classifier clf;
  clf.train(corpus.train);
  return defense::classifier_detector{clf};
}

// The detector is expensive to train; cache it across runs.
const defense::classifier_detector& trained_detector_cache() {
  static const defense::classifier_detector detector = trained_detector(0);
  return detector;
}

// ---- Traffic ----------------------------------------------------------

// A rendered fleet and the totals the protocols report about it.
struct fleet_traffic {
  std::vector<sim::session_script> scripts;
  double audio_s = 0.0;     // summed capture duration
  double timeline_s = 0.0;  // arrival of the fleet's last block
  std::size_t attack_streams = 0;
};

fleet_traffic render_traffic(std::size_t sessions, std::size_t utterances,
                             std::size_t threads, std::uint64_t seed = 7,
                             double session_rate_hz = 0.0) {
  sim::traffic_config tc;
  tc.num_sessions = sessions;
  tc.utterances_per_session = utterances;
  tc.session_rate_hz = session_rate_hz;
  tc.num_threads = threads;
  fleet_traffic t;
  t.scripts = sim::traffic_generator{tc, seed}.render_all();
  for (const sim::session_script& s : t.scripts) {
    t.audio_s += s.capture.duration_s();
    t.timeline_s = std::max(t.timeline_s, s.end_s());
    t.attack_streams += s.is_attack ? 1 : 0;
  }
  return t;
}

// ---- The replay loop --------------------------------------------------

// One session of a replay: `capture` cut into `block_samples`-sample
// blocks (the last may be short), of which the first `blocks` are
// offered.
struct stream_plan {
  const audio::buffer* capture = nullptr;
  std::size_t block_samples = 0;
  std::size_t blocks = 0;

  audio::buffer block(std::size_t b) const {
    const std::size_t start = b * block_samples;
    return audio::cut(*capture, start,
                      std::min(start + block_samples, capture->size()));
  }
};

stream_plan cut_stream(
    const audio::buffer& capture, std::size_t block_samples,
    std::size_t max_blocks = std::numeric_limits<std::size_t>::max()) {
  return {&capture, block_samples,
          std::min(max_blocks,
                   (capture.size() + block_samples - 1) / block_samples)};
}

// Every script cut into its own ingest blocks.
std::vector<stream_plan> script_streams(
    const std::vector<sim::session_script>& scripts) {
  std::vector<stream_plan> fleet;
  fleet.reserve(scripts.size());
  for (const sim::session_script& s : scripts) {
    fleet.push_back(cut_stream(s.capture, s.block_samples));
  }
  return fleet;
}

// One offer of a replay: block `block` of session `session`.
struct offer_event {
  double due_s = 0.0;     // arrival on the fleet timeline (paced replays)
  std::size_t round = 0;  // round of a round-robin list (barrier replays)
  std::size_t session = 0;
  std::size_t block = 0;
};

// Block r of every session that has one, round by round: the
// concurrent-arrival shape.
std::vector<offer_event> round_robin(const std::vector<stream_plan>& fleet) {
  std::size_t rounds = 0;
  for (const stream_plan& p : fleet) {
    rounds = std::max(rounds, p.blocks);
  }
  std::vector<offer_event> offers;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t s = 0; s < fleet.size(); ++s) {
      if (r < fleet[s].blocks) {
        offers.push_back({0.0, r, s, r});
      }
    }
  }
  return offers;
}

// Every block of every script in arrival order (ties break by session
// then block index, so the offer order is deterministic even when the
// timeline has no spread). Each offer is a round of its own.
std::vector<offer_event> arrival_timeline(
    const std::vector<sim::session_script>& scripts) {
  std::vector<offer_event> offers;
  for (std::size_t s = 0; s < scripts.size(); ++s) {
    for (std::size_t b = 0; b < scripts[s].num_blocks(); ++b) {
      offers.push_back({scripts[s].block_arrival_s(b), 0, s, b});
    }
  }
  std::sort(offers.begin(), offers.end(),
            [](const offer_event& a, const offer_event& b) {
              return std::tie(a.due_s, a.session, a.block) <
                     std::tie(b.due_s, b.session, b.block);
            });
  for (std::size_t i = 0; i < offers.size(); ++i) {
    offers[i].round = i;
  }
  return offers;
}

// The fleet config of every run but the overload pass: a full session
// queue pushes back on the producer (reject) instead of shedding.
serve::serve_config rejecting_fleet() {
  serve::serve_config cfg;
  cfg.queue_capacity = 64;
  cfg.policy = serve::overflow_policy::reject;
  return cfg;
}

struct replay_config {
  serve::serve_config fleet = rejecting_fleet();  // the manager's config
  // Every session opens with its own command pipeline (segmenter →
  // shared recognizer → intent) through the per-session config path.
  bool pipeline = false;
  std::size_t shards = 1;
  std::size_t workers = 1;  // per shard
  // 0: the workers stream from before the first offer, and a rejected
  // offer retries after 200 µs while they make room. n > 0: no worker
  // runs except inside a barrier (start, then stop), which comes after
  // every n-th round and before each retry of a rejected offer.
  std::size_t barrier_every = 0;
  // Timeline speed-up over real time: each offer waits for
  // due_s / pace on the wall clock (an offer behind schedule goes out at
  // once). Infinite = no waiting.
  double pace = std::numeric_limits<double>::infinity();
  std::string timeseries;  // fleet-sampler JSONL path; empty = none
};

struct fleet_run {
  serve::serve_totals totals;
  serve::eviction_stats eviction;
  serve::shard_balance balance;
  std::vector<std::vector<defense::stream_event>> verdicts;
  std::vector<std::vector<serve::command_outcome>> outcomes;
  std::vector<serve::session_stats> stats;
  // With a registry in the fleet config: the deterministic counter
  // subset, and every session's flight recorder with wall-clock fields
  // zeroed — the two strings the telemetry gate compares.
  std::string metrics_fingerprint;
  std::string trace_fingerprint;
  std::size_t telemetry_samples = 0;  // JSONL lines the sampler appended
};

// Canonical text form of a fleet's span traces with the wall-clock
// fields stripped: [[session 0 spans], [session 1 spans], ...].
std::string fleet_trace_fingerprint(const serve::session_manager& m,
                                    std::size_t num_sessions) {
  json::array all;
  all.reserve(num_sessions);
  for (std::size_t s = 0; s < num_sessions; ++s) {
    all.emplace_back(obs::encode_spans(obs::strip_wall_clock(m.trace(s))));
  }
  return json::write(json::value{std::move(all)});
}

// Opens one session per stream, offers `offers` in order under `rc`
// (closing each session right after its last block, so end-of-stream
// flushes interleave with later offers), then finish()es the front with
// rc.workers workers per shard and reads every session back.
fleet_run replay(const std::vector<stream_plan>& fleet,
                 const std::vector<offer_event>& offers,
                 const replay_config& rc) {
  namespace chrono = std::chrono;
  serve::session_manager manager{trained_detector_cache(), rc.fleet,
                                 rc.shards};
  for (const stream_plan& p : fleet) {
    if (rc.pipeline) {
      serve::serve_config per_session = rc.fleet;
      serve::pipeline_config pipeline;
      pipeline.recognizer = sim::shared_enrolled_recognizer(
          p.capture->sample_rate_hz, /*enrollment_seed=*/1);
      per_session.pipeline = pipeline;  // decision window adopts window_s
      manager.open_session(per_session);
    } else {
      manager.open_session();
    }
  }
  const bool live = rc.barrier_every == 0;
  const auto barrier = [&] {
    manager.start(rc.workers);
    manager.stop();
  };
  if (live) {
    manager.start(rc.workers);
  }
  std::unique_ptr<obs::fleet_sampler> sampler;
  if (!rc.timeseries.empty()) {
    obs::sampler_config sc;
    sc.path = rc.timeseries;
    sc.interval_s = 0.05;
    sampler = std::make_unique<obs::fleet_sampler>(
        sc, [&manager] { return serve::telemetry_sample(manager); });
    sampler->start();
  }
  const auto t0 = chrono::steady_clock::now();
  for (std::size_t i = 0; i < offers.size(); ++i) {
    const offer_event& e = offers[i];
    if (std::isfinite(rc.pace)) {
      std::this_thread::sleep_until(
          t0 + chrono::duration_cast<chrono::steady_clock::duration>(
                   chrono::duration<double>(e.due_s / rc.pace)));
    }
    const stream_plan& p = fleet[e.session];
    const audio::buffer block = p.block(e.block);
    while (manager.offer(e.session, block) == serve::offer_status::rejected) {
      if (live) {
        std::this_thread::sleep_for(chrono::microseconds(200));
      } else {
        barrier();
      }
    }
    if (e.block + 1 == p.blocks) {
      manager.close(e.session);
    }
    const bool round_ends =
        i + 1 == offers.size() || offers[i + 1].round != e.round;
    if (!live && round_ends && (e.round + 1) % rc.barrier_every == 0) {
      barrier();
    }
  }
  manager.start(rc.workers);  // a no-op while streaming
  manager.finish();
  fleet_run r;
  if (sampler != nullptr) {
    sampler->stop();  // takes the final end-of-run sample
    r.telemetry_samples = sampler->samples();
  }
  r.totals = manager.aggregate();
  r.eviction = manager.eviction();
  r.balance = manager.balance();
  for (std::size_t s = 0; s < fleet.size(); ++s) {
    r.verdicts.push_back(manager.verdicts(s));
    r.outcomes.push_back(manager.outcomes(s));
    r.stats.push_back(manager.stats(s));
  }
  if (rc.fleet.metrics != nullptr) {
    r.metrics_fingerprint = rc.fleet.metrics->deterministic_fingerprint();
    r.trace_fingerprint = fleet_trace_fingerprint(manager, fleet.size());
  }
  return r;
}

// True when every session's verdict and outcome streams equal the
// reference's; each session that differs is reported on stderr.
bool same_streams(const fleet_run& reference, const fleet_run& run,
                  const std::string& where) {
  bool same = true;
  for (std::size_t s = 0; s < reference.verdicts.size(); ++s) {
    const bool verdicts = reference.verdicts[s] == run.verdicts[s];
    if (verdicts && std::ranges::equal(reference.outcomes[s], run.outcomes[s],
                                       serve::same_decision)) {
      continue;
    }
    same = false;
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: session %zu %s stream differs from "
                 "the reference (%s)\n",
                 s, verdicts ? "outcome" : "verdict", where.c_str());
  }
  return same;
}

// FNV-1a over a fleet's verdict streams — the cheap bit-identity
// fingerprint the scale phase compares across eviction on/off (keeping
// two full verdict dumps of a 10k-session fleet in memory would dwarf
// the resident-set budget the phase is demonstrating).
std::uint64_t fleet_verdict_hash(
    const std::vector<std::vector<defense::stream_event>>& verdicts) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  for (const auto& stream : verdicts) {
    const std::size_t n = stream.size();
    mix(&n, sizeof n);
    for (const defense::stream_event& e : stream) {
      // The binding names every field operator== compares: a field
      // added to stream_event breaks the build here rather than going
      // unhashed.
      const auto& [time_s, score, is_attack] = e;
      mix(&time_s, sizeof time_s);
      mix(&score, sizeof score);
      const unsigned char atk = is_attack ? 1 : 0;
      mix(&atk, 1);
    }
  }
  return h;
}

// ---- Scoring ----------------------------------------------------------

// Stream-level scoring of one run against the traffic ground truth
// (session_script::is_attack and intended_command_id).
struct scorecard {
  std::size_t attack_streams = 0;
  std::size_t attack_flagged = 0;   // at least one attack verdict
  std::size_t attack_executed = 0;  // attacker success: intended ran
  std::size_t attack_blocked = 0;   // at least one utterance vetoed
  std::size_t genuine_flagged = 0;  // non-attack streams flagged
  std::size_t genuine_command_streams = 0;
  std::size_t genuine_completed = 0;  // intended command executed
  std::size_t benign_streams = 0;
  std::size_t benign_executed = 0;  // false execute: nothing was intended
};

scorecard score(const std::vector<sim::session_script>& scripts,
                const fleet_run& r) {
  using kind_t = serve::command_outcome::kind_t;
  scorecard card;
  for (std::size_t s = 0; s < r.verdicts.size(); ++s) {
    const bool flagged =
        std::ranges::any_of(r.verdicts[s], &defense::stream_event::is_attack);
    bool intended_executed = false;
    bool any_executed = false;
    bool any_blocked = false;
    for (const serve::command_outcome& o : r.outcomes[s]) {
      any_blocked = any_blocked || o.kind == kind_t::blocked;
      if (o.kind == kind_t::executed) {
        any_executed = true;
        intended_executed = intended_executed ||
                            o.command_id == scripts[s].intended_command_id;
      }
    }
    if (scripts[s].is_attack) {
      ++card.attack_streams;
      card.attack_flagged += flagged ? 1 : 0;
      card.attack_executed += intended_executed ? 1 : 0;
      card.attack_blocked += any_blocked ? 1 : 0;
      continue;
    }
    card.genuine_flagged += flagged ? 1 : 0;
    if (!scripts[s].intended_command_id.empty()) {
      ++card.genuine_command_streams;
      card.genuine_completed += intended_executed ? 1 : 0;
    } else {
      ++card.benign_streams;
      card.benign_executed += any_executed ? 1 : 0;
    }
  }
  return card;
}

double rate(std::size_t num, std::size_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

// ---- Protocol plumbing ------------------------------------------------

// Fixed worker counts, not hardware-derived, in smoke mode: the 1-vs-N
// determinism check must exercise real concurrency even on a 1-core box
// (oversubscribed workers still interleave), and sweeping the same
// counts everywhere keeps run-log records comparable across machines.
std::vector<std::size_t> worker_counts(bool smoke) {
  std::vector<std::size_t> workers =
      smoke ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{1, 2, 4, default_thread_count()};
  std::sort(workers.begin(), workers.end());
  workers.erase(std::unique(workers.begin(), workers.end()), workers.end());
  return workers;
}

// Prints the protocol banner and opens its report (seed 7; smoke runs
// carry a "-smoke" suffix on the figure id).
bench::json_report open_report(const std::string& id,
                               const std::string& title, bool smoke,
                               const char* signature) {
  bench::banner(id.c_str(),
                smoke ? (title + " (smoke)").c_str() : title.c_str());
  bench::json_report report{smoke ? id + "-smoke" : id, title};
  report.set_signature(signature);
  report.set_seed(7);
  return report;
}

// The fleet summary the sweep and e2e protocols print and report.
void report_fleet(bench::json_report& report, const fleet_traffic& t) {
  bench::note("fleet: %zu streams (%zu attack), %.1f s of audio",
              t.scripts.size(), t.attack_streams, t.audio_s);
  report.add_metric("fleet_streams", static_cast<double>(t.scripts.size()));
  report.add_metric("fleet_attack_streams",
                    static_cast<double>(t.attack_streams));
  report.add_metric("fleet_audio_s", t.audio_s);
  bench::rule();
}

// ---- Sweep + overload (serve-load-v1) ---------------------------------

int run_sweep_protocol(const bench::options& opts, bool smoke,
                       std::size_t sessions_override) {
  std::vector<std::size_t> session_counts =
      smoke ? std::vector<std::size_t>{64}
            : std::vector<std::size_t>{16, 64, 256};
  if (sessions_override > 0) {
    session_counts = {sessions_override};
  }
  const std::vector<double> block_ms =
      smoke ? std::vector<double>{50.0} : std::vector<double>{20.0, 50.0, 100.0};
  const std::vector<std::size_t> workers = worker_counts(smoke);

  bench::json_report report =
      open_report("SERVE", "multi-stream serving load", smoke,
                  "serve-load-v1");
  // ---- Traffic: rendered once at the largest session count. ----------
  const fleet_traffic traffic = render_traffic(
      *std::max_element(session_counts.begin(), session_counts.end()),
      smoke ? 1 : 2, opts.threads);
  const std::vector<sim::session_script>& scripts = traffic.scripts;
  report_fleet(report, traffic);

  // The first S sessions cut into `ms`-millisecond blocks, each at its
  // device's own capture rate: 50 ms of audio on every profile.
  const auto cut_fleet = [&scripts](std::size_t S, double ms) {
    std::vector<stream_plan> fleet;
    for (std::size_t s = 0; s < S; ++s) {
      const audio::buffer& capture = scripts[s].capture;
      fleet.push_back(cut_stream(
          capture, std::max<std::size_t>(
                       1, static_cast<std::size_t>(
                              ms * 1e-3 * capture.sample_rate_hz))));
    }
    return fleet;
  };

  // ---- Sweep: sessions × block size × workers. -----------------------
  // No worker runs between barriers, every 4 rounds.
  sim::result_table sweep{
      {"sessions", "block_ms", "workers"},
      {"audio_s", "shed_blocks", "events"}};
  bool determinism_ok = true;
  double serving_detection_rate = 0.0;
  double serving_fpr = 0.0;
  for (const std::size_t S : session_counts) {
    for (const double B : block_ms) {
      const std::vector<stream_plan> fleet = cut_fleet(S, B);
      const std::vector<offer_event> offers = round_robin(fleet);
      replay_config rc;
      rc.barrier_every = 4;
      fleet_run reference;  // the 1-worker run of this (S, B)
      for (const std::size_t W : workers) {
        rc.workers = W;
        fleet_run r = replay(fleet, offers, rc);
        const serve::session_stats& t = r.totals.stats;
        sweep.add_row({{std::to_string(S), std::to_string(B),
                        std::to_string(W)},
                       {static_cast<double>(S), B, static_cast<double>(W)},
                       {t.audio_s_processed, static_cast<double>(t.blocks_shed),
                        static_cast<double>(t.events)}});
        if (W != workers.front()) {
          determinism_ok =
              same_streams(reference, r, std::to_string(W) + " workers") &&
              determinism_ok;
          continue;
        }
        // Serving-level ground truth at the full fleet size: a stream
        // counts as flagged when any of its verdicts says attack.
        if (S == session_counts.back() && B == block_ms.front()) {
          const scorecard card = score(scripts, r);
          serving_detection_rate =
              rate(card.attack_flagged, card.attack_streams);
          serving_fpr = rate(card.genuine_flagged, S - card.attack_streams);
        }
        reference = std::move(r);
      }
    }
  }
  sweep.print();
  report.add_table("sweep", sweep);
  report.add_metric("determinism_ok", determinism_ok ? 1.0 : 0.0);
  report.add_metric("max_sessions",
                    static_cast<double>(session_counts.back()));
  report.add_metric("serving_detection_rate", serving_detection_rate);
  report.add_metric("serving_fpr", serving_fpr);
  bench::note("serving-level rates at %zu streams: detection %.0f%%, "
              "false positives %.0f%%",
              session_counts.back(), 100.0 * serving_detection_rate,
              100.0 * serving_fpr);
  bench::rule();

  // ---- Overload: tiny queue bound, shed_newest, sparse barriers. -----
  // Barriers are the only drains and the producer is single-threaded,
  // so the shed count follows from the schedule alone: in each window
  // of `barrier_every` rounds a session keeps `queue_capacity` of the
  // blocks offered to it and sheds the rest.
  {
    const std::vector<stream_plan> fleet =
        cut_fleet(session_counts.back(), block_ms.front());
    replay_config rc;
    rc.fleet.queue_capacity = 4;
    rc.fleet.policy = serve::overflow_policy::shed_newest;
    rc.workers = workers.back();
    rc.barrier_every = 16;
    std::uint64_t expected_shed = 0;
    for (const stream_plan& p : fleet) {
      for (std::size_t first = 0; first < p.blocks;
           first += rc.barrier_every) {
        const std::size_t offered =
            std::min(rc.barrier_every, p.blocks - first);
        expected_shed += offered - std::min(offered, rc.fleet.queue_capacity);
      }
    }
    const serve::session_stats t = replay(fleet, round_robin(fleet), rc)
                                       .totals.stats;
    bench::note("overload (queue=4, drain every 16): %llu of %llu blocks "
                "shed (%.0f%%)",
                static_cast<unsigned long long>(t.blocks_shed),
                static_cast<unsigned long long>(t.blocks_offered),
                100.0 * rate(t.blocks_shed, t.blocks_offered));
    report.add_metric("overload_shed_blocks",
                      static_cast<double>(t.blocks_shed));
    report.add_metric("overload_shed_fraction",
                      rate(t.blocks_shed, t.blocks_offered));
    if (t.blocks_shed != expected_shed) {
      std::fprintf(stderr,
                   "OVERLOAD VIOLATION: %llu blocks shed, the schedule "
                   "sheds exactly %llu\n",
                   static_cast<unsigned long long>(t.blocks_shed),
                   static_cast<unsigned long long>(expected_shed));
      return 1;
    }
  }

  bench::rule();
  bench::note("verdict streams bit-identical at 1 vs N workers: %s",
              determinism_ok ? "yes" : "NO");
  bench::note("wrote %s", opts.json_path.c_str());
  report.write(opts);
  return determinism_ok ? 0 : 1;
}

// ---- Paced streaming replay (serve-paced-v1) -------------------------

// Timeline-stamped traffic, an unpaced 1-worker reference, then a paced
// replay per worker count against live workers — each checked
// bit-identical to the reference.
int run_paced_protocol(const bench::options& opts, bool smoke,
                       std::size_t sessions_override,
                       const std::string& telemetry_dir) {
  const double pace = 4.0;              // timeline speed-up over real time
  const double session_rate_hz = 32.0;  // Poisson session starts per second
  const std::size_t num_sessions =
      sessions_override > 0 ? sessions_override
                            : (smoke ? std::size_t{64} : std::size_t{256});
  const std::vector<std::size_t> workers = worker_counts(smoke);

  bench::json_report report =
      open_report("SERVE-paced", "streaming arrival-paced load", smoke,
                  "serve-paced-v1");
  // ---- Traffic with a deterministic arrival timeline. ----------------
  const fleet_traffic traffic = render_traffic(
      num_sessions, smoke ? 1 : 2, opts.threads, 7, session_rate_hz);
  bench::note("fleet: %zu streams, %.1f s of audio over a %.1f s timeline "
              "(Poisson starts at %.0f/s), replayed at %.0fx",
              traffic.scripts.size(), traffic.audio_s, traffic.timeline_s,
              session_rate_hz, pace);
  report.add_metric("fleet_streams",
                    static_cast<double>(traffic.scripts.size()));
  report.add_metric("fleet_audio_s", traffic.audio_s);
  report.add_metric("timeline_s", traffic.timeline_s);
  report.add_metric("pace", pace);
  report.add_metric("session_rate_hz", session_rate_hz);
  bench::rule();
  const std::vector<stream_plan> fleet = script_streams(traffic.scripts);
  const std::vector<offer_event> timeline = arrival_timeline(traffic.scripts);

  // ---- Unpaced 1-worker reference: the determinism anchor. -----------
  replay_config rc;
  const fleet_run reference = replay(fleet, timeline, rc);
  bench::note("unpaced 1-worker reference: %llu verdicts over %zu sessions",
              static_cast<unsigned long long>(reference.totals.stats.events),
              reference.verdicts.size());

  // ---- Streaming replays: one per worker count. ----------------------
  // Under the reject policy nothing can shed — the backpressure signal
  // of a paced run is the rejected-offer count (producer stall events).
  sim::result_table sweep{{"workers"}, {"rejected_blocks", "events"}};
  bool determinism_ok = true;
  std::size_t telemetry_samples = 0;
  rc.pace = pace;
  for (const std::size_t W : workers) {
    rc.workers = W;
    // The last (widest) worker count is the deployment shape; that run
    // carries the background fleet sampler when --telemetry is on.
    rc.timeseries = !telemetry_dir.empty() && W == workers.back()
                        ? telemetry_dir + "/paced_timeseries.jsonl"
                        : std::string{};
    const fleet_run r = replay(fleet, timeline, rc);
    if (!rc.timeseries.empty()) {
      telemetry_samples = r.telemetry_samples;
      bench::note("fleet sampler: %zu time-series samples -> %s",
                  r.telemetry_samples, rc.timeseries.c_str());
    }
    determinism_ok = same_streams(reference, r,
                                  "paced, " + std::to_string(W) +
                                      " workers") &&
                     determinism_ok;
    const serve::session_stats& t = r.totals.stats;
    sweep.add_row({{std::to_string(W)},
                   {static_cast<double>(W)},
                   {static_cast<double>(t.blocks_rejected),
                    static_cast<double>(t.events)}});
    if (W == workers.back()) {
      report.add_metric("rejected_blocks",
                        static_cast<double>(t.blocks_rejected));
      report.add_metric("events", static_cast<double>(t.events));
    }
  }
  sweep.print();
  report.add_table("paced_sweep", sweep);
  report.add_metric("determinism_ok", determinism_ok ? 1.0 : 0.0);
  report.add_metric("sessions", static_cast<double>(num_sessions));
  if (!telemetry_dir.empty()) {
    report.add_metric("telemetry_samples",
                      static_cast<double>(telemetry_samples));
  }

  bench::rule();
  bench::note("paced verdict streams bit-identical to the unpaced "
              "reference: %s",
              determinism_ok ? "yes" : "NO");
  bench::note("wrote %s", opts.json_path.c_str());
  report.write(opts);
  return determinism_ok ? 0 : 1;
}

// ---- End-to-end command pipeline (serve-e2e-v1) ----------------------

// The command-pipeline replay the e2e, chaos and shard protocols share:
// every session carries its own pipeline, offers go round-robin to live
// workers, and each session closes after its last block.
replay_config pipeline_replay() {
  replay_config rc;
  rc.pipeline = true;
  return rc;
}

// Fleet traffic with ground-truth command labels, a 1-worker reference,
// then one run per wider worker count — every one checked outcome- and
// verdict-bit-identical to the reference — reporting attacker success /
// blocked / genuine completion rates.
int run_e2e_protocol(const bench::options& opts, bool smoke,
                     std::size_t sessions_override,
                     const std::string& telemetry_dir) {
  const bool telemetry = !telemetry_dir.empty();
  const std::size_t num_sessions =
      sessions_override > 0 ? sessions_override
                            : (smoke ? std::size_t{64} : std::size_t{128});
  // With telemetry the worker matrix is pinned to 1/2/8 — the gate
  // compares counter/span fingerprints across exactly these runs, so the
  // records stay comparable across machines.
  const std::vector<std::size_t> workers =
      telemetry ? std::vector<std::size_t>{1, 2, 8} : worker_counts(smoke);

  bench::json_report report =
      open_report("SERVE-e2e", "end-to-end command pipeline", smoke,
                  "serve-e2e-v1");
  const fleet_traffic traffic =
      render_traffic(num_sessions, smoke ? 1 : 2, opts.threads);
  report_fleet(report, traffic);
  const std::vector<stream_plan> fleet = script_streams(traffic.scripts);
  const std::vector<offer_event> offers = round_robin(fleet);

  // Every telemetry run gets its OWN registry (end-of-run counter values
  // are what the gate compares — a shared registry would accumulate).
  const auto run = [&](std::size_t W,
                       std::shared_ptr<obs::metrics_registry> registry) {
    replay_config rc = pipeline_replay();
    rc.workers = W;
    rc.fleet.metrics = std::move(registry);
    return replay(fleet, offers, rc);
  };
  const auto fresh_registry = [telemetry] {
    return telemetry ? std::make_shared<obs::metrics_registry>() : nullptr;
  };

  // ---- Reference: 1 worker. ------------------------------------------
  const std::shared_ptr<obs::metrics_registry> reference_registry =
      fresh_registry();
  const fleet_run reference = run(1, reference_registry);
  const scorecard card = score(traffic.scripts, reference);

  // ---- Replays: one per worker count, all bit-identical to the -------
  // reference in outcomes AND verdicts.
  bool determinism_ok = true;
  bool telemetry_ok = true;
  sim::result_table sweep{{"workers"}, {"utterances", "executed", "blocked"}};
  for (const std::size_t W : workers) {
    const fleet_run r = W != 1 ? run(W, fresh_registry()) : reference;
    if (telemetry && W != 1) {
      // The telemetry gate proper: the deterministic counter subset and
      // the wall-stripped span traces must reproduce the reference
      // byte-for-byte, like the streams themselves.
      if (r.metrics_fingerprint != reference.metrics_fingerprint) {
        telemetry_ok = false;
        std::fprintf(stderr,
                     "TELEMETRY VIOLATION: deterministic counter "
                     "fingerprint differs from the reference (%zu "
                     "workers)\n",
                     W);
      }
      if (r.trace_fingerprint != reference.trace_fingerprint) {
        telemetry_ok = false;
        std::fprintf(stderr,
                     "TELEMETRY VIOLATION: span traces (wall clock "
                     "stripped) differ from the reference (%zu "
                     "workers)\n",
                     W);
      }
    }
    determinism_ok =
        same_streams(reference, r, "e2e, " + std::to_string(W) + " workers") &&
        determinism_ok;
    const serve::session_stats& t = r.totals.stats;
    sweep.add_row({{std::to_string(W)},
                   {static_cast<double>(W)},
                   {static_cast<double>(t.utterances),
                    static_cast<double>(t.commands_executed),
                    static_cast<double>(t.commands_blocked)}});
    if (W == workers.back()) {
      report.add_metric("utterances", static_cast<double>(t.utterances));
      report.add_metric("commands_blocked",
                        static_cast<double>(t.commands_blocked));
      report.add_metric("commands_executed",
                        static_cast<double>(t.commands_executed));
      report.add_metric("commands_rejected",
                        static_cast<double>(t.commands_rejected));
      report.add_metric("commands_ignored",
                        static_cast<double>(t.commands_ignored));
    }
  }
  sweep.print();
  report.add_table("e2e_sweep", sweep);
  bench::rule();

  // ---- Stream-level scoring against the traffic ground truth. --------
  const double attacker_success =
      rate(card.attack_executed, card.attack_streams);
  const double attack_blocked = rate(card.attack_blocked, card.attack_streams);
  const double genuine_completion =
      rate(card.genuine_completed, card.genuine_command_streams);
  const double benign_false_execute =
      rate(card.benign_executed, card.benign_streams);
  bench::note("attack streams: %zu — %.0f%% blocked by the defense, "
              "%.0f%% still executed their command (attacker success)",
              card.attack_streams, 100.0 * attack_blocked,
              100.0 * attacker_success);
  bench::note("genuine command streams: %zu — %.0f%% completed their task",
              card.genuine_command_streams, 100.0 * genuine_completion);
  bench::note("benign chatter streams: %zu — %.0f%% falsely executed "
              "a command",
              card.benign_streams, 100.0 * benign_false_execute);
  report.add_metric("attack_streams",
                    static_cast<double>(card.attack_streams));
  report.add_metric("genuine_command_streams",
                    static_cast<double>(card.genuine_command_streams));
  report.add_metric("benign_streams",
                    static_cast<double>(card.benign_streams));
  report.add_metric("attacker_success_rate", attacker_success);
  report.add_metric("attack_blocked_rate", attack_blocked);
  report.add_metric("genuine_completion_rate", genuine_completion);
  report.add_metric("benign_false_execute_rate", benign_false_execute);
  report.add_metric("determinism_ok", determinism_ok ? 1.0 : 0.0);
  report.add_metric("sessions", static_cast<double>(num_sessions));

  // ---- Telemetry artifacts + the serve-telemetry-v1 run record. ------
  if (telemetry) {
    const auto write_text = [](const std::string& path,
                               const std::string& text) {
      std::ofstream out{path};
      out << text;
      return out.good();
    };
    write_text(telemetry_dir + "/metrics.json", reference_registry->to_json());
    write_text(telemetry_dir + "/metrics.prom",
               reference_registry->to_prometheus());
    write_text(telemetry_dir + "/counter_fingerprint.json",
               reference.metrics_fingerprint + "\n");
    write_text(telemetry_dir + "/trace_fingerprint.json",
               reference.trace_fingerprint + "\n");
    bench::json_report tel{smoke ? "SERVE-telemetry-smoke" : "SERVE-telemetry",
                           "fleet telemetry determinism gate"};
    tel.set_signature("serve-telemetry-v1");
    tel.set_seed(7);
    tel.add_metric("telemetry_deterministic_ok", telemetry_ok ? 1.0 : 0.0);
    tel.add_metric("runs_compared",
                   static_cast<double>(workers.size() - 1));
    tel.add_metric("sessions", static_cast<double>(num_sessions));
    tel.add_metric("fingerprint_bytes",
                   static_cast<double>(reference.metrics_fingerprint.size()));
    tel.add_metric("trace_bytes",
                   static_cast<double>(reference.trace_fingerprint.size()));
    bench::options tel_opts = opts;
    tel_opts.json_path = telemetry_dir + "/BENCH_serve_telemetry.json";
    tel.write(tel_opts);
    bench::note("telemetry fingerprints bit-identical across 1/2/8 workers: "
                "%s",
                telemetry_ok ? "yes" : "NO");
    bench::note("telemetry artifacts in %s", telemetry_dir.c_str());
  }

  bench::rule();
  bench::note("outcome + verdict streams bit-identical across worker "
              "counts: %s",
              determinism_ok ? "yes" : "NO");
  bench::note("wrote %s", opts.json_path.c_str());
  report.write(opts);
  return determinism_ok && telemetry_ok ? 0 : 1;
}

// ---- Chaos: deterministic fault sweep (serve-chaos-v1) ---------------

// Per-session fault exposure of one run: how many sessions saw at least
// one injected/contained fault of any kind.
std::size_t sessions_with_faults(const fleet_run& r) {
  std::size_t n = 0;
  for (const serve::session_stats& st : r.stats) {
    const std::uint64_t faults = st.detector_faults + st.recognizer_faults +
                                 st.corrupt_blocks + st.asr_deadline_overruns;
    n += faults > 0 ? 1 : 0;
  }
  return n;
}

// The chaos protocol: the e2e fleet under a deterministic fault-injection
// sweep (fault scale × workers). Three properties are CHECKED, not just
// reported (exit 1 on any violation):
//   * determinism under fault load — with a fixed fault seed the verdict
//     AND outcome streams are bit-identical across 1/2/8 workers;
//   * fail-closed — injected faults never INCREASE attacker success (or
//     benign false executes) over the fault-free baseline;
//   * containment — the fleet completes every run without process death
//     (pre-containment, the first injected throw killed the harness in
//     std::terminate), and in smoke mode the top fault scale must
//     actually exercise the machinery: ≥25% of sessions carry faults and
//     attacker success stays 0%.
int run_chaos_protocol(const bench::options& opts, bool smoke,
                       std::size_t sessions_override,
                       const std::string& telemetry_dir) {
  const std::size_t num_sessions =
      sessions_override > 0 ? sessions_override
                            : (smoke ? std::size_t{64} : std::size_t{128});
  // 1/2/8 fixed: the determinism gate needs real concurrency even on a
  // small box, and fixed counts keep run-log records comparable.
  const std::vector<std::size_t> workers{1, 2, 8};
  const std::vector<double> fault_scales =
      smoke ? std::vector<double>{0.0, 1.0}
            : std::vector<double>{0.0, 0.25, 1.0, 2.0};

  bench::json_report report = open_report(
      "SERVE-chaos", "fault-injection sweep", smoke, "serve-chaos-v1");
  const fleet_traffic traffic =
      render_traffic(num_sessions, smoke ? 1 : 2, opts.threads);
  bench::note("fleet: %zu streams (%zu attack), fault scales ×%zu, "
              "workers 1/2/8",
              traffic.scripts.size(), traffic.attack_streams,
              fault_scales.size());
  report.add_metric("fleet_streams",
                    static_cast<double>(traffic.scripts.size()));
  report.add_metric("fleet_attack_streams",
                    static_cast<double>(traffic.attack_streams));
  bench::rule();
  const std::vector<stream_plan> fleet = script_streams(traffic.scripts);
  const std::vector<offer_event> offers = round_robin(fleet);

  replay_config base = pipeline_replay();
  // With --telemetry every quarantine across every run dumps its flight
  // recorder to one JSONL file — the chaos run's black-box artifact.
  std::shared_ptr<obs::jsonl_trace_sink> trace_sink;
  if (!telemetry_dir.empty()) {
    const std::string dump_path = telemetry_dir + "/quarantine_traces.jsonl";
    std::filesystem::remove(dump_path);  // append-only sink: start fresh
    trace_sink = std::make_shared<obs::jsonl_trace_sink>(dump_path);
    base.fleet.trace_sink = trace_sink;
  }

  bool determinism_ok = true;
  bool fail_closed_ok = true;
  std::uint64_t total_quarantines = 0;
  double clean_attacker_success = 0.0;
  double clean_benign_false = 0.0;
  double top_scale_fault_fraction = 0.0;
  double top_scale_attacker_success = 0.0;
  sim::result_table sweep{
      {"fault_scale", "workers"},
      {"faulty_sessions", "quarantines", "reopens", "detector_faults",
       "recognizer_faults", "corrupt_blocks", "overruns", "shed_degraded",
       "failed_closed", "executed", "attacker_success"}};
  for (const double scale : fault_scales) {
    replay_config rc = base;
    if (scale > 0.0) {
      serve::fault_config fc;
      fc.seed = 7;
      // Base rates at scale 1 — block-level faults are rare per block
      // (sessions see many blocks), utterance-level faults are common
      // per utterance (sessions see few).
      fc.detector_throw_rate = std::min(1.0, 0.01 * scale);
      fc.corrupt_block_rate = std::min(1.0, 0.01 * scale);
      // Per utterance that actually REACHES recognition (verdict-vetoed,
      // shed, and overrun utterances never draw), so the rate is high
      // enough that the site reliably fires in a 64-session smoke.
      fc.recognizer_throw_rate = std::min(1.0, 0.35 * scale);
      fc.recognizer_overrun_rate = std::min(1.0, 0.25 * scale);
      rc.fleet.faults = std::make_shared<serve::fault_injector>(fc);
    }

    // Reference: 1 worker under this exact fault schedule.
    const fleet_run reference = replay(fleet, offers, rc);
    const scorecard card = score(traffic.scripts, reference);
    const double attacker_success =
        rate(card.attack_executed, card.attack_streams);
    const double benign_false = rate(card.benign_executed, card.benign_streams);
    if (scale == 0.0) {
      clean_attacker_success = attacker_success;
      clean_benign_false = benign_false;
    } else if (attacker_success > clean_attacker_success ||
               benign_false > clean_benign_false) {
      // Fail-closed: faults may only ever SHRINK the executed set.
      fail_closed_ok = false;
      std::fprintf(stderr,
                   "FAIL-CLOSED VIOLATION: fault scale %.2f raised "
                   "attacker success %.3f→%.3f / benign false execute "
                   "%.3f→%.3f\n",
                   scale, clean_attacker_success, attacker_success,
                   clean_benign_false, benign_false);
    }
    const double fault_fraction =
        static_cast<double>(sessions_with_faults(reference)) /
        static_cast<double>(num_sessions);
    if (scale == fault_scales.back()) {
      top_scale_fault_fraction = fault_fraction;
      top_scale_attacker_success = attacker_success;
    }

    for (const std::size_t W : workers) {
      rc.workers = W;
      const fleet_run r = W != 1 ? replay(fleet, offers, rc) : reference;
      determinism_ok = same_streams(reference, r,
                                    "chaos scale " + std::to_string(scale) +
                                        ", " + std::to_string(W) +
                                        " workers") &&
                       determinism_ok;
      const serve::session_stats& t = r.totals.stats;
      total_quarantines += t.quarantines;
      sweep.add_row({{std::to_string(scale), std::to_string(W)},
                     {scale, static_cast<double>(W)},
                     {static_cast<double>(sessions_with_faults(r)),
                      static_cast<double>(t.quarantines),
                      static_cast<double>(t.reopens),
                      static_cast<double>(t.detector_faults),
                      static_cast<double>(t.recognizer_faults),
                      static_cast<double>(t.corrupt_blocks),
                      static_cast<double>(t.asr_deadline_overruns),
                      static_cast<double>(t.utterances_shed_degraded),
                      static_cast<double>(t.utterances_failed_closed),
                      static_cast<double>(t.commands_executed),
                      attacker_success}});
    }
  }
  sweep.print();
  report.add_table("chaos_sweep", sweep);
  bench::rule();

  // Smoke-mode coverage gates: the chaos pass is only meaningful when
  // the fault machinery actually engaged.
  bool coverage_ok = true;
  if (smoke) {
    if (top_scale_fault_fraction < 0.25) {
      coverage_ok = false;
      std::fprintf(stderr,
                   "CHAOS COVERAGE: only %.0f%% of sessions carried faults "
                   "at the top scale (need >= 25%%)\n",
                   100.0 * top_scale_fault_fraction);
    }
    if (top_scale_attacker_success > 0.0) {
      coverage_ok = false;
      std::fprintf(stderr,
                   "CHAOS GATE: attacker success %.3f under faults "
                   "(must stay 0)\n",
                   top_scale_attacker_success);
    }
  }
  // Quarantine flight-recorder artifact: when the sweep actually parked
  // sessions, the sink must hold their dumps (a quarantine with no
  // black-box record is a telemetry bug).
  bool dumps_ok = true;
  if (trace_sink != nullptr) {
    dumps_ok = total_quarantines == 0 || trace_sink->dumps() > 0;
    bench::note("quarantine flight-recorder dumps: %zu (from %llu "
                "quarantines) -> %s/quarantine_traces.jsonl — %s",
                trace_sink->dumps(),
                static_cast<unsigned long long>(total_quarantines),
                telemetry_dir.c_str(), dumps_ok ? "ok" : "MISSING");
    report.add_metric("trace_dumps",
                      static_cast<double>(trace_sink->dumps()));
    report.add_metric("trace_dumps_ok", dumps_ok ? 1.0 : 0.0);
  }
  report.add_metric("determinism_ok", determinism_ok ? 1.0 : 0.0);
  report.add_metric("fail_closed_ok", fail_closed_ok ? 1.0 : 0.0);
  report.add_metric("clean_attacker_success", clean_attacker_success);
  report.add_metric("top_scale_attacker_success", top_scale_attacker_success);
  report.add_metric("top_scale_faulty_session_fraction",
                    top_scale_fault_fraction);
  report.add_metric("sessions", static_cast<double>(num_sessions));

  bench::rule();
  bench::note("streams bit-identical across worker counts under fault "
              "load: %s",
              determinism_ok ? "yes" : "NO");
  bench::note("injected faults never increased attacker success: %s",
              fail_closed_ok ? "yes" : "NO");
  bench::note("%.0f%% of sessions carried faults at the top scale; attacker "
              "success there %.1f%%",
              100.0 * top_scale_fault_fraction,
              100.0 * top_scale_attacker_success);
  bench::note("wrote %s", opts.json_path.c_str());
  report.write(opts);
  return determinism_ok && fail_closed_ok && coverage_ok && dumps_ok ? 0 : 1;
}

// ---- Sharded front + snapshot/eviction (serve-shard-v1) --------------

// The shard protocol. Phase A: identity matrix on a small e2e fleet.
// Phase B: the million-session (smoke: 10k) bursty scale run with a
// bounded resident set, plus an eviction-on/off hash check on a
// sub-fleet.
int run_shard_protocol(const bench::options& opts, bool smoke,
                       std::size_t sessions_override,
                       const std::string& telemetry_dir) {
  const std::size_t hw = default_thread_count();
  bench::json_report report =
      open_report("SERVE-shard", "sharded front + snapshot eviction", smoke,
                  "serve-shard-v1");

  // ---- Phase A: the identity matrix. ---------------------------------
  // Every knob of the matrix is a replay parameter: shard count,
  // per-shard workers, per-shard residency bound, shard_kill faults.
  const std::size_t matrix_sessions = smoke ? 32 : 48;
  const fleet_traffic traffic =
      render_traffic(matrix_sessions, 1, opts.threads);
  const std::vector<stream_plan> fleet = script_streams(traffic.scripts);
  const std::vector<offer_event> offers = round_robin(fleet);
  const fleet_run reference = replay(fleet, offers, pipeline_replay());
  bench::note("identity reference (1 shard, 1 worker, no eviction): "
              "%llu verdicts, %llu outcomes over %zu sessions",
              static_cast<unsigned long long>(reference.totals.stats.events),
              static_cast<unsigned long long>(
                  reference.totals.stats.utterances),
              matrix_sessions);

  struct variant {
    const char* name;
    std::size_t shards;
    std::size_t workers;
    std::size_t max_resident;  // per shard; 0 = off
    double shard_kill_rate;
  };
  const std::vector<variant> variants = {
      {"2 shards", 2, 2, 0, 0.0},
      {"4 shards 4 workers", 4, 4, 0, 0.0},
      {"2 shards evict<=4", 2, 2, 4, 0.0},
      {"4 shards evict<=2", 4, 2, 2, 0.0},
      {"2 shards evict<=4 +kill", 2, 2, 4, 0.05},
  };
  bool identity_ok = true;
  bool eviction_engaged_ok = true;
  sim::result_table matrix{{"variant"},
                           {"shards", "workers", "bound", "evictions",
                            "rehydrations", "shard_kills", "identical"}};
  for (const variant& v : variants) {
    replay_config rc = pipeline_replay();
    rc.shards = v.shards;
    rc.workers = v.workers;
    rc.fleet.max_resident_sessions = v.max_resident;
    if (v.shard_kill_rate > 0.0) {
      serve::fault_config fc;
      fc.seed = 7;
      fc.shard_kill_rate = v.shard_kill_rate;
      rc.fleet.faults = std::make_shared<serve::fault_injector>(fc);
    }
    const fleet_run r = replay(fleet, offers, rc);
    const bool same = same_streams(reference, r, v.name);
    identity_ok = identity_ok && same;
    std::uint64_t kills = 0;
    for (const serve::shard_load& l : r.balance.shards) {
      kills += l.shard_kills;
    }
    if (v.max_resident > 0 && r.eviction.evictions == 0) {
      eviction_engaged_ok = false;
      std::fprintf(stderr,
                   "VACUOUS VARIANT: %s evicted nothing — the bound never "
                   "engaged\n",
                   v.name);
    }
    if (v.shard_kill_rate > 0.0 && kills == 0) {
      eviction_engaged_ok = false;
      std::fprintf(stderr, "VACUOUS VARIANT: %s killed no shard\n", v.name);
    }
    matrix.add_row({{v.name},
                    {static_cast<double>(matrix.rows().size())},
                    {static_cast<double>(v.shards),
                     static_cast<double>(v.workers),
                     static_cast<double>(v.max_resident),
                     static_cast<double>(r.eviction.evictions),
                     static_cast<double>(r.eviction.rehydrations),
                     static_cast<double>(kills), same ? 1.0 : 0.0}});
  }
  matrix.print();
  report.add_table("identity_matrix", matrix);
  report.add_metric("identity_ok", identity_ok ? 1.0 : 0.0);
  bench::rule();

  // ---- Phase B: the bursty scale run. --------------------------------
  // N open sessions share a small script pool (the serving layer never
  // sees the sharing — every session scores its own stream state); each
  // session speaks in two short bursts, the mostly-idle shape that
  // makes a bounded resident set work. The sweep offers one session's
  // whole burst back-to-back before moving on, so on the fleet timeline
  // each session goes idle for an entire sweep of the other N-1
  // sessions before its second burst arrives — by then it has long been
  // evicted, and the second burst rehydrates it.
  const std::size_t scale_sessions =
      sessions_override > 0 ? sessions_override
                            : (smoke ? std::size_t{10'000}
                                     : std::size_t{1'000'000});
  const std::size_t scale_shards = 4;
  const std::size_t workers_per_shard =
      std::max<std::size_t>(1, std::min<std::size_t>(4, hw / scale_shards));
  const std::size_t bound_per_shard = smoke ? 256 : 1024;
  // Busy sessions (queued work) cannot evict, so the resident count can
  // run past the LRU bound by however far the producer gets ahead of
  // the workers. The watermark trips the producer throttle early; the
  // gate allows for the throttle's ramp-up (a handful of 32-session
  // sampling intervals of growth) by sitting at 1.5x the aggregate
  // bound — a margin that scales with the bound, not the fleet, which
  // is the whole claim.
  const std::size_t bound_total = scale_shards * bound_per_shard;
  const std::size_t resident_watermark = bound_total + 64;
  const std::size_t resident_cap = bound_total + bound_total / 2;

  const fleet_traffic pool = render_traffic(32, 1, opts.threads, 11);
  const std::size_t blocks_per_burst = 3;
  const std::size_t num_bursts = 2;
  // Session s plays pool stream s % 32, cut into 2048-sample blocks, of
  // which it offers at most the first two bursts' worth.
  std::vector<stream_plan> pool_streams;
  for (const sim::session_script& s : pool.scripts) {
    pool_streams.push_back(
        cut_stream(s.capture, 2'048, num_bursts * blocks_per_burst));
  }
  const auto pool_stream =
      [&pool_streams](std::size_t s) -> const stream_plan& {
    return pool_streams[s % pool_streams.size()];
  };

  serve::serve_config scale_cfg = rejecting_fleet();
  scale_cfg.max_resident_sessions = bound_per_shard;
  serve::session_manager front{trained_detector_cache(), scale_cfg,
                               scale_shards};

  for (std::size_t s = 0; s < scale_sessions; ++s) {
    front.open_session();
  }
  bench::note("opened %zu sessions across %zu shards; residency bound "
              "%zu/shard, peak gate %zu (%.2f%% of open)",
              scale_sessions, scale_shards, bound_per_shard, resident_cap,
              100.0 * static_cast<double>(resident_cap) /
                  static_cast<double>(scale_sessions));

  front.start(workers_per_shard);
  // Fleet sampler over the sharded front: the burst/evict/rehydrate
  // cycle is exactly the breathing a time-series makes visible.
  std::unique_ptr<obs::fleet_sampler> sampler;
  if (!telemetry_dir.empty()) {
    obs::sampler_config sc;
    sc.path = telemetry_dir + "/shard_timeseries.jsonl";
    sc.interval_s = 0.1;
    sampler = std::make_unique<obs::fleet_sampler>(
        sc, [&front] { return serve::telemetry_sample(front); });
    sampler->start();
  }
  std::size_t peak_resident = 0;
  std::uint64_t offers_made = 0;
  std::uint64_t rejected_retries = 0;
  std::uint64_t throttle_us = 0;
  std::uint64_t throttle_sleeps = 0;
  for (std::size_t burst = 0; burst < num_bursts; ++burst) {
    for (std::size_t s = 0; s < scale_sessions; ++s) {
      const stream_plan& p = pool_stream(s);
      for (std::size_t b = burst * blocks_per_burst;
           b < std::min(p.blocks, (burst + 1) * blocks_per_burst); ++b) {
        const audio::buffer block = p.block(b);
        while (front.offer(s, block) == serve::offer_status::rejected) {
          ++rejected_retries;
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        ++offers_made;
      }
      // The client hangs up at the end of its last burst: the flush
      // lands while the session is still resident, so once the workers
      // drain it the LRU sweep can freeze it closed — and finish() then
      // skips it instead of rehydrating the whole fleet to close it.
      if (burst + 1 == num_bursts) {
        front.close(s);
      }
      // Producer pacing. The resident count only moves at offer-time
      // enforcement, so a poll-wait loop here could never converge —
      // instead the throttle is a sticky per-burst sleep whose length
      // doubles while samples stay above the watermark (letting workers
      // drain queues so the NEXT offers' enforcement can evict) and
      // resets to zero the moment the fleet is back under it.
      if (throttle_us > 0) {
        ++throttle_sleeps;
        std::this_thread::sleep_for(std::chrono::microseconds(throttle_us));
      }
      if (s % 32 == 0) {
        const std::size_t resident = front.eviction().resident;
        peak_resident = std::max(peak_resident, resident);
        if (resident > resident_watermark) {
          throttle_us = throttle_us == 0
                            ? 1'000
                            : std::min<std::uint64_t>(throttle_us * 2,
                                                      40'000);
        } else {
          throttle_us = 0;
        }
      }
    }
  }
  front.finish();
  std::size_t telemetry_samples = 0;
  if (sampler != nullptr) {
    sampler->stop();
    telemetry_samples = sampler->samples();
    bench::note("telemetry: %zu fleet samples -> %s/shard_timeseries.jsonl",
                telemetry_samples, telemetry_dir.c_str());
  }
  const serve::eviction_stats ev = front.eviction();
  peak_resident = std::max(peak_resident, ev.resident);
  const serve::shard_balance balance = front.balance();
  const bool bounded_ok = peak_resident <= resident_cap;

  const double eviction_rate = rate(ev.evictions, offers_made);
  bench::note("replayed %llu offers, %llu rejected-retry stalls, %llu "
              "throttle sleeps",
              static_cast<unsigned long long>(offers_made),
              static_cast<unsigned long long>(rejected_retries),
              static_cast<unsigned long long>(throttle_sleeps));
  bench::note("evictions %llu (%.2f per offer), rehydrations %llu, "
              "frozen set %.1f MiB",
              static_cast<unsigned long long>(ev.evictions), eviction_rate,
              static_cast<unsigned long long>(ev.rehydrations),
              static_cast<double>(ev.frozen_bytes) / (1024.0 * 1024.0));
  bench::note("peak resident %zu of %zu open (gate %zu): %s", peak_resident,
              scale_sessions, resident_cap,
              bounded_ok ? "bounded" : "EXCEEDED");
  sim::result_table shard_table{{"shard"},
                                {"sessions", "offers", "evictions",
                                 "rehydrations"}};
  for (std::size_t i = 0; i < balance.shards.size(); ++i) {
    const serve::shard_load& l = balance.shards[i];
    shard_table.add_row({{std::to_string(i)},
                         {static_cast<double>(i)},
                         {static_cast<double>(l.sessions),
                          static_cast<double>(l.offers),
                          static_cast<double>(l.evictions),
                          static_cast<double>(l.rehydrations)}});
  }
  shard_table.print();
  report.add_table("shard_balance", shard_table);
  bench::note("shard spread: %zu..%zu sessions around a %.0f mean",
              balance.min_sessions, balance.max_sessions,
              balance.mean_sessions);

  // ---- Eviction-on/off hash check on a sub-fleet. --------------------
  // A full double scale run would double the protocol's wall time; the
  // sub-fleet replays the pool's blocks round by round, with a barrier
  // after each round, at both settings, and the verdict-stream hashes
  // must agree bit-for-bit (phase A already pins eviction invisibility
  // with full stream compares — this extends the check to the scale
  // front's shape and its script pool).
  const std::size_t hash_sessions =
      std::min<std::size_t>(512, std::max<std::size_t>(64,
                                                       scale_sessions / 16));
  std::vector<stream_plan> sub_fleet;
  for (std::size_t s = 0; s < hash_sessions; ++s) {
    sub_fleet.push_back(pool_stream(s));
  }
  const std::vector<offer_event> sub_offers = round_robin(sub_fleet);
  const auto hash_run = [&](std::size_t bound) {
    replay_config rc;
    rc.fleet = scale_cfg;
    rc.fleet.max_resident_sessions = bound;
    rc.shards = scale_shards;
    rc.workers = 2;
    rc.barrier_every = 1;
    const fleet_run r = replay(sub_fleet, sub_offers, rc);
    return std::make_pair(fleet_verdict_hash(r.verdicts),
                          r.eviction.evictions);
  };
  const auto [hash_evict, evictions_on] = hash_run(/*bound=*/16);
  const auto [hash_free, evictions_off] = hash_run(/*bound=*/0);
  const bool hash_ok = hash_evict == hash_free && evictions_on > 0 &&
                       evictions_off == 0;
  bench::note("sub-fleet (%zu sessions) verdict hash, evicting vs "
              "unbounded: %016llx vs %016llx (%llu evictions) — %s",
              hash_sessions, static_cast<unsigned long long>(hash_evict),
              static_cast<unsigned long long>(hash_free),
              static_cast<unsigned long long>(evictions_on),
              hash_ok ? "identical" : "MISMATCH");

  report.add_metric("sessions", static_cast<double>(scale_sessions));
  report.add_metric("shards", static_cast<double>(scale_shards));
  report.add_metric("workers_per_shard",
                    static_cast<double>(workers_per_shard));
  report.add_metric("resident_bound_per_shard",
                    static_cast<double>(bound_per_shard));
  report.add_metric("resident_cap", static_cast<double>(resident_cap));
  report.add_metric("peak_resident", static_cast<double>(peak_resident));
  report.add_metric("bounded_ok", bounded_ok ? 1.0 : 0.0);
  report.add_metric("offers", static_cast<double>(offers_made));
  report.add_metric("evictions", static_cast<double>(ev.evictions));
  report.add_metric("rehydrations", static_cast<double>(ev.rehydrations));
  report.add_metric("eviction_rate", eviction_rate);
  report.add_metric("frozen_mib",
                    static_cast<double>(ev.frozen_bytes) /
                        (1024.0 * 1024.0));
  report.add_metric("balance_min_sessions",
                    static_cast<double>(balance.min_sessions));
  report.add_metric("balance_max_sessions",
                    static_cast<double>(balance.max_sessions));
  report.add_metric("balance_mean_sessions", balance.mean_sessions);
  report.add_metric("hash_ok", hash_ok ? 1.0 : 0.0);
  report.add_metric("eviction_engaged_ok",
                    eviction_engaged_ok ? 1.0 : 0.0);
  if (!telemetry_dir.empty()) {
    report.add_metric("telemetry_samples",
                      static_cast<double>(telemetry_samples));
  }

  bench::rule();
  bench::note("identity matrix bit-identical across shards/workers/"
              "eviction/kills: %s",
              identity_ok ? "yes" : "NO");
  bench::note("resident working set stayed bounded at scale: %s",
              bounded_ok ? "yes" : "NO");
  bench::note("wrote %s", opts.json_path.c_str());
  report.write(opts);
  return identity_ok && eviction_engaged_ok && bounded_ok && hash_ok ? 0 : 1;
}

}  // namespace
}  // namespace ivc

int main(int argc, char** argv) {
  using namespace ivc;
  bench::options opts = bench::parse_options(argc, argv);
  bool smoke = false;
  bool paced = false;
  bool e2e = false;
  bool chaos = false;
  bool shard = false;
  std::size_t sessions_override = 0;
  std::string telemetry_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--paced") {
      paced = true;
    } else if (arg == "--e2e") {
      e2e = true;
    } else if (arg == "--chaos") {
      chaos = true;
    } else if (arg == "--shard") {
      shard = true;
    } else if (arg == "--sessions" && i + 1 < argc) {
      const long long v = std::atoll(argv[++i]);
      sessions_override = v > 0 ? static_cast<std::size_t>(v) : 0;
    } else if (arg == "--telemetry" && i + 1 < argc) {
      telemetry_dir = argv[++i];
    }
  }
  if (!telemetry_dir.empty()) {
    std::filesystem::create_directories(telemetry_dir);
  }
  if (opts.json_path.empty()) {
    opts.json_path = shard ? "BENCH_serve_shard.json"
                           : (chaos ? "BENCH_serve_chaos.json"
                                    : (e2e ? "BENCH_serve_e2e.json"
                                           : "BENCH_serve.json"));
  }
  if (shard) {
    return run_shard_protocol(opts, smoke, sessions_override, telemetry_dir);
  }
  if (chaos) {
    return run_chaos_protocol(opts, smoke, sessions_override, telemetry_dir);
  }
  if (e2e) {
    return run_e2e_protocol(opts, smoke, sessions_override, telemetry_dir);
  }
  if (paced) {
    return run_paced_protocol(opts, smoke, sessions_override, telemetry_dir);
  }
  return run_sweep_protocol(opts, smoke, sessions_override);
}
