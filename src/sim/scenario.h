// End-to-end scenarios: attack rig → air → victim device → recognizer,
// and genuine-talker → air → device. Every experiment in bench/ runs
// through these two paths, so attacked and genuine captures share the
// same channel and microphone physics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include <optional>

#include "acoustics/noise.h"
#include "acoustics/room.h"
#include "asr/intelligibility.h"
#include "asr/recognizer.h"
#include "attack/planner.h"
#include "audio/buffer.h"
#include "common/rng.h"
#include "mic/device_profiles.h"
#include "synth/commands.h"

namespace ivc::sim {

struct environment_config {
  acoustics::air_model air;
  double ambient_spl_db = 38.0;
  acoustics::noise_kind ambient_kind = acoustics::noise_kind::speech_shaped;
};

struct attack_scenario {
  attack::rig_config rig;
  mic::device_profile device = mic::phone_profile();
  double distance_m = 2.0;
  environment_config environment;
  std::string command_id = "take_picture";
  synth::voice_params voice = synth::male_voice();
  // Seed for the victim recognizer's enrolled template bank. 0 (the
  // default) derives it from the session seed, matching the legacy
  // per-session enrollment bit for bit. Experiments that model ONE
  // victim across many sessions (the engine's scenario-path grids) set
  // it explicitly so every session shares one cached enrollment.
  std::uint64_t enrollment_seed = 0;
};

struct trial_result {
  bool success = false;  // recognizer accepted the intended command
  asr::recognition_result recognition;
  // Band-envelope correlation between the capture and the clean command.
  double intelligibility = 0.0;
  audio::buffer capture;  // what the device recorded (device rate)
};

// One prepared attack: the rig is built once (conditioning + splitting are
// the expensive steps); distance/power/device mutate cheaply between
// trials, which is what the sweep drivers rely on.
class attack_session {
 public:
  // `seed` fixes the command rendition and all per-trial noise streams.
  attack_session(attack_scenario scenario, std::uint64_t seed);

  void set_distance(double distance_m);
  void set_total_power(double watts);
  void set_device(const mic::device_profile& device);
  // Swaps the trace-cancellation setting (the F-R10 adaptive-attacker
  // axis): re-assembles the rig from the cached conditioned baseband,
  // so synthesis, conditioning, and enrollment all happen once per
  // session however many settings a sweep visits. Preserves the current
  // array power.
  void set_cancellation(const std::optional<attack::cancellation_config>& c);

  double distance_m() const { return scenario_.distance_m; }
  double total_power_w() const { return rig_.array.total_power_w(); }
  std::size_t num_speakers() const { return rig_.num_speakers; }
  const attack::attack_rig& rig() const { return rig_; }
  const audio::buffer& clean_command() const { return clean_; }
  const asr::recognizer& command_recognizer() const { return *recognizer_; }

  // Runs one attack trial; `trial_index` decorrelates noise streams and
  // makes each trial individually reproducible.
  trial_result run_trial(std::uint64_t trial_index) const;

  // The pressure field at the device port for a trial (exposed so the
  // defense corpus builder can record through custom microphones).
  audio::buffer render_field(std::uint64_t trial_index) const;

 private:
  attack_scenario scenario_;
  attack::attack_rig rig_;
  audio::buffer clean_;  // clean command at device capture rate
  // Conditioned baseband before cancellation: set_cancellation
  // re-assembles the rig from here instead of re-conditioning.
  audio::buffer conditioned_;
  // Shared with the process-wide template cache: copying a session (the
  // engine's per-point/per-chunk pattern) no longer copies the enrolled
  // template bank.
  std::shared_ptr<const asr::recognizer> recognizer_;
  ivc::rng base_rng_;
  // The rig's field at the device is deterministic given distance/power,
  // so it is rendered once and reused across trials (only ambient and
  // microphone noise vary per trial).
  mutable audio::buffer cached_field_;
  mutable bool field_valid_ = false;
};

// Builds a recognizer enrolled with clean templates of every command in
// the bank, rendered with the standard voices. Always enrolls from
// scratch; sessions go through shared_enrolled_recognizer instead.
asr::recognizer make_enrolled_recognizer(double capture_rate_hz,
                                         std::uint64_t seed);

// Process-wide enrolled-template cache, keyed by (capture rate,
// enrollment seed) — enrollment is deterministic in those two, so a hit
// is bit-identical to a fresh enrollment. Thread-safe; each distinct
// key enrolls exactly once per process.
std::shared_ptr<const asr::recognizer> shared_enrolled_recognizer(
    double capture_rate_hz, std::uint64_t seed);

// Drops every cached enrollment (tests and the perf harness use this to
// measure the cold path; sessions holding a recognizer keep it alive).
void clear_enrolled_recognizer_cache();

// Talker and device placed inside the shoebox meeting room
// (image-source model). When set on a genuine_scenario, the voice
// renders through the room's reflections instead of free-field
// propagation and `distance_m` is ignored.
struct room_placement {
  acoustics::room_model room;
  acoustics::vec3 talker{1.5, 1.0, 1.2};
  acoustics::vec3 device{5.0, 3.0, 1.0};
};

struct genuine_scenario {
  std::string phrase_id = "hello_how";  // from command or benign bank
  synth::voice_params voice = synth::male_voice();
  double distance_m = 1.5;
  double level_db_spl_at_1m = 65.0;
  environment_config environment;
  mic::device_profile device = mic::phone_profile();
  std::optional<room_placement> room;
};

// Renders a genuine utterance through air + microphone; returns the
// device capture. The analog path runs at 48 kHz (speech carries no
// ultrasound, so the wideband rate is unnecessary). One rng stream
// threads through voice, ambient, and microphone noise — the corpus
// builder depends on that stream layout staying put. Grid experiments
// use genuine_session instead, whose per-trial streams decorrelate the
// way attack_session's do.
audio::buffer run_genuine_capture(const genuine_scenario& scenario,
                                  ivc::rng& rng);

// One prepared genuine talker: the voice rendition renders once (the
// expensive step); ambient level, distance and talker level mutate
// cheaply between trials. The propagated field is cached per
// placement, so an ambient sweep pays only noise synthesis and the
// microphone per trial. Mirrors attack_session: `seed` fixes the
// rendition, and every trial's ambient/microphone noise streams are
// pure functions of (seed, trial_index) — never of mutation history or
// thread schedule.
class genuine_session {
 public:
  genuine_session(genuine_scenario scenario, std::uint64_t seed);

  void set_ambient(double spl_db);
  void set_distance(double distance_m);
  void set_level(double db_spl_at_1m);

  const genuine_scenario& scenario() const { return scenario_; }
  const audio::buffer& voice() const { return voice_; }

  // One genuine capture at the device; `trial_index` decorrelates the
  // ambient and microphone noise streams and makes each trial
  // individually reproducible.
  audio::buffer run_trial(std::uint64_t trial_index) const;

  // Renders and caches the propagated field now. The engine warms the
  // prototype before fanning out task-private copies, so an ambient
  // sweep inherits the field instead of re-propagating per task.
  void prepare() const { field(); }

 private:
  const audio::buffer& field() const;  // voice at the device, pre-noise

  genuine_scenario scenario_;
  audio::buffer voice_;  // rendition at the analog rate, unscaled
  ivc::rng base_rng_;
  mutable audio::buffer cached_field_;
  mutable bool field_valid_ = false;
};

}  // namespace ivc::sim
