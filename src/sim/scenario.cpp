#include "sim/scenario.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <future>
#include <map>
#include <utility>

#include "audio/metrics.h"
#include "audio/ops.h"
#include "common/error.h"
#include "common/sync.h"
#include "common/units.h"
#include "dsp/resample.h"
#include "mic/frontend.h"

namespace ivc::sim {
namespace {

// The victim sits on the rig's boresight (+y) at the scenario distance.
acoustics::vec3 device_position(double distance_m) {
  return acoustics::vec3{0.0, distance_m, 0.0};
}

// Genuine speech carries no ultrasound, so the analog path runs at
// 48 kHz instead of the wideband rate.
constexpr double genuine_analog_rate_hz = 48'000.0;

// The talker's voice at the device port: free-field propagation at the
// scenario distance, or the image-source room render when a room
// placement is set. `voice` must already be scaled to the talker level.
audio::buffer genuine_field(const genuine_scenario& scenario,
                            const audio::buffer& voice) {
  if (scenario.room.has_value()) {
    return acoustics::render_in_room(voice, scenario.room->talker,
                                     scenario.room->device,
                                     scenario.room->room,
                                     scenario.environment.air);
  }
  acoustics::propagation_config prop;
  prop.distance_m = scenario.distance_m;
  prop.air = scenario.environment.air;
  return audio::buffer{
      acoustics::propagate(voice.samples, voice.sample_rate_hz, prop),
      voice.sample_rate_hz};
}

}  // namespace

asr::recognizer make_enrolled_recognizer(double capture_rate_hz,
                                         std::uint64_t seed) {
  asr::recognizer rec;
  ivc::rng rng{seed};
  for (const synth::command& cmd : synth::command_bank()) {
    rec.add_template(cmd.id, synth::render_command(cmd, synth::male_voice(),
                                                   rng, capture_rate_hz));
    rec.add_template(cmd.id, synth::render_command(cmd, synth::female_voice(),
                                                   rng, capture_rate_hz));
  }
  return rec;
}

namespace {

using enrollment_key = std::pair<std::uint64_t, std::uint64_t>;
using enrollment_future =
    std::shared_future<std::shared_ptr<const asr::recognizer>>;

ts_mutex& enrollment_cache_mutex() {
  static ts_mutex mutex;
  return mutex;
}

std::map<enrollment_key, enrollment_future>& enrollment_cache() {
  static std::map<enrollment_key, enrollment_future> cache;
  return cache;
}

}  // namespace

std::shared_ptr<const asr::recognizer> shared_enrolled_recognizer(
    double capture_rate_hz, std::uint64_t seed) {
  const enrollment_key key{std::bit_cast<std::uint64_t>(capture_rate_hz),
                           seed};
  // The slot holds a future, claimed under the lock but fulfilled
  // outside it: concurrent builds of one key wait on the first builder
  // (one enrollment per key), while distinct keys — a device-matrix
  // grid spanning capture rates — still enroll in parallel.
  std::promise<std::shared_ptr<const asr::recognizer>> builder;
  enrollment_future shared;
  bool is_builder = false;
  {
    const ts_lock lock{enrollment_cache_mutex()};
    auto [it, inserted] = enrollment_cache().try_emplace(key);
    if (inserted) {
      it->second = builder.get_future().share();
      is_builder = true;
    }
    shared = it->second;
  }
  if (is_builder) {
    try {
      builder.set_value(std::make_shared<const asr::recognizer>(
          make_enrolled_recognizer(capture_rate_hz, seed)));
    } catch (...) {
      builder.set_exception(std::current_exception());
      const ts_lock lock{enrollment_cache_mutex()};
      enrollment_cache().erase(key);
    }
  }
  return shared.get();
}

void clear_enrolled_recognizer_cache() {
  const ts_lock lock{enrollment_cache_mutex()};
  enrollment_cache().clear();
}

attack_session::attack_session(attack_scenario scenario, std::uint64_t seed)
    : scenario_{std::move(scenario)}, base_rng_{seed} {
  expects(scenario_.distance_m > 0.0,
          "attack_session: distance must be > 0");

  // Render the command the attacker will inject (the attacker's "TTS").
  ivc::rng synth_rng = base_rng_.split(1);
  const synth::command& cmd = synth::command_by_id(scenario_.command_id);
  const double capture_rate = scenario_.device.mic.capture_rate_hz;
  clean_ = synth::render_command(cmd, scenario_.voice, synth_rng, capture_rate);

  // Build the rig from the command at the device capture rate, keeping
  // the conditioned baseband so cancellation swaps skip conditioning.
  conditioned_ = attack::condition_for_rig(clean_, scenario_.rig);
  rig_ = attack::assemble_attack_rig(conditioned_, scenario_.rig);

  const std::uint64_t enroll_seed = scenario_.enrollment_seed != 0
                                        ? scenario_.enrollment_seed
                                        : (seed ^ 0x5eedu);
  recognizer_ = shared_enrolled_recognizer(capture_rate, enroll_seed);
}

void attack_session::set_distance(double distance_m) {
  expects(distance_m > 0.0, "attack_session: distance must be > 0");
  if (distance_m != scenario_.distance_m) {
    field_valid_ = false;
  }
  scenario_.distance_m = distance_m;
}

void attack_session::set_total_power(double watts) {
  expects(watts > 0.0, "attack_session: power must be > 0");
  if (watts != rig_.array.total_power_w()) {
    field_valid_ = false;
  }
  rig_.array.scale_power(watts / rig_.array.total_power_w());
}

void attack_session::set_device(const mic::device_profile& device) {
  expects(device.mic.capture_rate_hz ==
              scenario_.device.mic.capture_rate_hz,
          "attack_session: devices must share a capture rate");
  scenario_.device = device;
}

void attack_session::set_cancellation(
    const std::optional<attack::cancellation_config>& c) {
  scenario_.rig.cancellation = c;
  // Re-assemble from the cached conditioned baseband; the rig comes
  // back at the config power, so restore any set_total_power override.
  const double power = rig_.array.total_power_w();
  rig_ = attack::assemble_attack_rig(conditioned_, scenario_.rig);
  if (power != rig_.array.total_power_w()) {
    rig_.array.scale_power(power / rig_.array.total_power_w());
  }
  field_valid_ = false;
}

audio::buffer attack_session::render_field(std::uint64_t trial_index) const {
  // Stream ids spaced far apart so ambient and microphone noise never
  // collide, whatever trial indices callers use.
  ivc::rng noise_rng = base_rng_.split(0x10'0000ULL + trial_index);
  if (!field_valid_) {
    cached_field_ = rig_.array.render_at(
        device_position(scenario_.distance_m), scenario_.environment.air);
    field_valid_ = true;
  }
  audio::buffer field = cached_field_;

  // Ambient noise at the device port.
  const audio::buffer ambient = acoustics::ambient_noise(
      field.duration_s(), field.sample_rate_hz,
      scenario_.environment.ambient_spl_db, scenario_.environment.ambient_kind,
      noise_rng);
  audio::mix_into(field, ambient);
  return field;
}

trial_result attack_session::run_trial(std::uint64_t trial_index) const {
  trial_result result;
  const audio::buffer field = render_field(trial_index);

  ivc::rng mic_rng = base_rng_.split(0x20'0000ULL + trial_index);
  const mic::microphone microphone{scenario_.device.mic};
  result.capture = microphone.record(field, mic_rng);

  result.recognition = recognizer_->recognize(result.capture);
  result.success = result.recognition.accepted() &&
                   *result.recognition.command_id == scenario_.command_id;
  result.intelligibility = asr::intelligibility_score(clean_, result.capture);
  return result;
}

audio::buffer run_genuine_capture(const genuine_scenario& scenario,
                                  ivc::rng& rng) {
  // distance_m is ignored when a room placement positions the talker.
  expects(scenario.room.has_value() || scenario.distance_m > 0.0,
          "run_genuine_capture: distance must be > 0");

  const synth::command& cmd = synth::command_by_id(scenario.phrase_id);
  audio::buffer voice =
      synth::render_command(cmd, scenario.voice, rng, genuine_analog_rate_hz);

  // Scale to the talker's level at 1 m, in pascal, then take it through
  // the air (or the room) to the device.
  const double target_rms = ivc::spl_db_to_pa(scenario.level_db_spl_at_1m);
  voice = audio::normalize_rms(voice, target_rms);
  audio::buffer field = genuine_field(scenario, voice);

  // Ambient noise.
  const audio::buffer ambient = acoustics::ambient_noise(
      field.duration_s(), field.sample_rate_hz,
      scenario.environment.ambient_spl_db, scenario.environment.ambient_kind,
      rng);
  audio::mix_into(field, ambient);

  const mic::microphone microphone{scenario.device.mic};
  return microphone.record(field, rng);
}

genuine_session::genuine_session(genuine_scenario scenario, std::uint64_t seed)
    : scenario_{std::move(scenario)}, base_rng_{seed} {
  expects(scenario_.room.has_value() || scenario_.distance_m > 0.0,
          "genuine_session: distance must be > 0");
  // Render the rendition once from the same stream id attack_session
  // uses for its command; level scaling happens at field build so
  // set_level stays cheap and history-free.
  ivc::rng synth_rng = base_rng_.split(1);
  const synth::command& cmd = synth::command_by_id(scenario_.phrase_id);
  voice_ = synth::render_command(cmd, scenario_.voice, synth_rng,
                                 genuine_analog_rate_hz);
}

void genuine_session::set_ambient(double spl_db) {
  // Ambient is synthesized per trial; the cached field stays valid.
  scenario_.environment.ambient_spl_db = spl_db;
}

void genuine_session::set_distance(double distance_m) {
  expects(distance_m > 0.0, "genuine_session: distance must be > 0");
  if (distance_m != scenario_.distance_m) {
    field_valid_ = false;
  }
  scenario_.distance_m = distance_m;
}

void genuine_session::set_level(double db_spl_at_1m) {
  if (db_spl_at_1m != scenario_.level_db_spl_at_1m) {
    field_valid_ = false;
  }
  scenario_.level_db_spl_at_1m = db_spl_at_1m;
}

const audio::buffer& genuine_session::field() const {
  if (!field_valid_) {
    const audio::buffer scaled = audio::normalize_rms(
        voice_, ivc::spl_db_to_pa(scenario_.level_db_spl_at_1m));
    cached_field_ = genuine_field(scenario_, scaled);
    field_valid_ = true;
  }
  return cached_field_;
}

audio::buffer genuine_session::run_trial(std::uint64_t trial_index) const {
  // Same stream spacing as attack_session: ambient and microphone noise
  // never collide, whatever trial indices callers use.
  audio::buffer at_port = field();
  ivc::rng noise_rng = base_rng_.split(0x10'0000ULL + trial_index);
  const audio::buffer ambient = acoustics::ambient_noise(
      at_port.duration_s(), at_port.sample_rate_hz,
      scenario_.environment.ambient_spl_db, scenario_.environment.ambient_kind,
      noise_rng);
  audio::mix_into(at_port, ambient);

  ivc::rng mic_rng = base_rng_.split(0x20'0000ULL + trial_index);
  const mic::microphone microphone{scenario_.device.mic};
  return microphone.record(at_port, mic_rng);
}

}  // namespace ivc::sim
