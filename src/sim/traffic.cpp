#include "sim/traffic.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/parallel.h"
#include "mic/frontend.h"
#include "synth/commands.h"
#include "synth/synthesizer.h"

namespace ivc::sim {
namespace {

double draw(ivc::rng& rng, const std::pair<double, double>& range) {
  return rng.uniform(range.first, range.second);
}

}  // namespace

std::size_t session_script::num_blocks() const {
  expects(block_samples > 0, "session_script: block_samples must be > 0");
  return (capture.size() + block_samples - 1) / block_samples;
}

audio::buffer session_script::block(std::size_t b) const {
  expects(b < num_blocks(), "session_script: block index out of range");
  const std::size_t start = b * block_samples;
  return audio::cut(capture, start,
                    std::min(start + block_samples, capture.size()));
}

double session_script::block_arrival_s(std::size_t b) const {
  expects(b < num_blocks(), "session_script: block index out of range");
  const std::size_t end = std::min((b + 1) * block_samples, capture.size());
  return start_s + static_cast<double>(end) / capture.sample_rate_hz;
}

double session_script::end_s() const {
  return block_arrival_s(num_blocks() - 1);
}

traffic_generator::traffic_generator(traffic_config config, std::uint64_t seed)
    : config_{std::move(config)}, base_rng_{seed} {
  expects(config_.num_sessions > 0, "traffic_generator: need >= 1 session");
  expects(config_.attack_fraction >= 0.0 && config_.attack_fraction <= 1.0,
          "traffic_generator: attack_fraction must be in [0,1]");
  expects(config_.block_s > 0.0, "traffic_generator: block_s must be > 0");
  expects(config_.utterances_per_session >= 1,
          "traffic_generator: need >= 1 utterance per session");
  expects(config_.start_spread_s >= 0.0,
          "traffic_generator: start_spread_s must be >= 0");
  expects(config_.session_rate_hz >= 0.0,
          "traffic_generator: session_rate_hz must be >= 0");
  if (config_.devices.empty()) {
    config_.devices = mic::all_profiles();
  }
  // Start offsets come from one dedicated stream past every per-session
  // id (sessions own ids 4i .. 4i+3), drawn in index order — adding or
  // changing the pacing never changes any session's audio.
  start_s_.assign(config_.num_sessions, 0.0);
  ivc::rng arrival_rng = base_rng_.split(4 * config_.num_sessions);
  if (config_.session_rate_hz > 0.0) {
    double t = 0.0;
    for (double& start : start_s_) {
      // Exponential inter-arrival gap: -ln(1 - U) / rate, U in [0, 1).
      t += -std::log(1.0 - arrival_rng.uniform()) / config_.session_rate_hz;
      start = t;
    }
  } else if (config_.start_spread_s > 0.0) {
    for (double& start : start_s_) {
      start = arrival_rng.uniform(0.0, config_.start_spread_s);
    }
  }
}

double traffic_generator::session_start_s(std::size_t index) const {
  expects(index < config_.num_sessions,
          "traffic_generator: session index out of range");
  return start_s_[index];
}

session_script traffic_generator::script(std::size_t index) const {
  expects(index < config_.num_sessions,
          "traffic_generator: session index out of range");
  // All draws for session `index` come from streams split off the run
  // seed by the index — nothing depends on which sessions rendered
  // before this one. Each session owns a contiguous block of four
  // stream ids (params, noise, per-side session seed), so no two
  // sessions' streams can collide at any fleet size.
  ivc::rng params_rng = base_rng_.split(4 * index);
  ivc::rng noise_rng = base_rng_.split(4 * index + 1);

  session_script s;
  s.index = index;
  s.start_s = start_s_[index];
  s.is_attack = params_rng.bernoulli(config_.attack_fraction);
  // Devices cycle round-robin (not a random draw): every profile is
  // guaranteed to appear once the fleet is at least as large as the
  // device list, which a device-matrix reading of the results needs.
  const mic::device_profile& device =
      config_.devices[index % config_.devices.size()];
  s.device_name = device.name;
  s.ambient_spl_db = draw(params_rng, config_.ambient_spl_db);
  const double rate = device.mic.capture_rate_hz;
  s.block_samples = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(config_.block_s * rate)));

  // Per-utterance captures. Trial indices decorrelate the ambient and
  // microphone noise of repeated utterances of one session.
  std::vector<audio::buffer> parts;
  parts.push_back(audio::silence(draw(params_rng, config_.gap_s), rate));
  if (s.is_attack) {
    const std::vector<synth::command>& bank = synth::command_bank();
    attack_scenario sc;
    sc.rig = config_.rig;
    sc.device = device;
    sc.distance_m = draw(params_rng, config_.attack_distance_m);
    sc.environment.ambient_spl_db = s.ambient_spl_db;
    sc.command_id = bank[static_cast<std::size_t>(params_rng.uniform_int(
                             0, static_cast<std::int64_t>(bank.size()) - 1))]
                        .id;
    // One victim across the whole fleet: every session shares the cached
    // enrollment instead of enrolling per stream.
    sc.enrollment_seed = 1;
    s.phrase_id = sc.command_id;
    s.intended_command_id = sc.command_id;
    s.distance_m = sc.distance_m;
    const attack_session session{sc, base_rng_.split(4 * index + 2).seed()};
    const mic::microphone microphone{device.mic};
    for (std::size_t u = 0; u < config_.utterances_per_session; ++u) {
      // render_field folds ambient noise in per trial; the microphone
      // noise stream is traffic-owned (the script defines its own
      // determinism, it does not replicate attack_session::run_trial).
      ivc::rng mic_rng = noise_rng.split(2 * u);
      parts.push_back(microphone.record(session.render_field(u), mic_rng));
      parts.push_back(audio::silence(draw(params_rng, config_.gap_s), rate));
    }
  } else {
    // Genuine talkers speak benign chatter AND real commands — the
    // serving layer must pass both.
    const std::vector<synth::command>& benign = synth::benign_bank();
    const std::vector<synth::command>& commands = synth::command_bank();
    const std::size_t total = benign.size() + commands.size();
    const auto pick = static_cast<std::size_t>(
        params_rng.uniform_int(0, static_cast<std::int64_t>(total) - 1));
    const synth::command& phrase =
        pick < benign.size() ? benign[pick] : commands[pick - benign.size()];
    genuine_scenario g;
    g.phrase_id = phrase.id;
    // A genuine user issuing a real command expects it to execute; benign
    // chatter carries no intent (and executing anything on it is a bug).
    if (pick >= benign.size()) {
      s.intended_command_id = phrase.id;
    }
    const synth::voice_params base_voice = params_rng.bernoulli(0.5)
                                               ? synth::female_voice()
                                               : synth::male_voice();
    g.voice = synth::perturbed_voice(base_voice, params_rng);
    g.distance_m = draw(params_rng, config_.genuine_distance_m);
    g.level_db_spl_at_1m = draw(params_rng, config_.genuine_level_db);
    g.environment.ambient_spl_db = s.ambient_spl_db;
    g.device = device;
    s.phrase_id = g.phrase_id;
    s.distance_m = g.distance_m;
    const genuine_session session{g, base_rng_.split(4 * index + 3).seed()};
    for (std::size_t u = 0; u < config_.utterances_per_session; ++u) {
      parts.push_back(session.run_trial(u));
      parts.push_back(audio::silence(draw(params_rng, config_.gap_s), rate));
    }
  }
  s.capture = audio::concat(parts);
  return s;
}

std::vector<session_script> traffic_generator::render_all() const {
  std::vector<session_script> scripts(config_.num_sessions);
  thread_pool pool{config_.num_threads};
  pool.parallel_for(config_.num_sessions,
                    [&](std::size_t i) { scripts[i] = script(i); });
  return scripts;
}

}  // namespace ivc::sim
