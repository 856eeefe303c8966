#include "stream/streaming_reader.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "dsp/serialize.hpp"
#include "phy/protocol.hpp"

namespace ecocap::reader {

namespace {

constexpr std::string_view kCheckpointHeader =
    "ecocap-streaming-reader-checkpoint v2";

fleet::TelemetryStore::Config telemetry_config(
    const StreamingReaderConfig& config) {
  auto c = config.telemetry;
  if (c.nodes == 0) c.nodes = 1;  // the single streamed node
  return c;
}

}  // namespace

StreamingReader::StreamingReader(StreamingReaderConfig config)
    : config_(std::move(config)),
      pipeline_(config_.stream),
      // The same firmware seed derivation the batch EcoCapsule gets, so a
      // streamed node draws the same RN16 sequence as its batch twin.
      firmware_(config_.stream.system.capsule.firmware,
                config_.stream.system.seed ^ 0x9e3779b9),
      supervisor_(config_.supervisor),
      telemetry_(telemetry_config(config_)) {
  if (config_.shared_store &&
      config_.store_node >= config_.shared_store->nodes()) {
    throw std::invalid_argument(
        "StreamingReader: store_node out of range of shared_store");
  }
}

void StreamingReader::apply_due_faults() {
  const dsp::Real now =
      static_cast<dsp::Real>(pipeline_.position()) / pipeline_.fs();
  while (next_fault_ < config_.fault_events.size() &&
         config_.fault_events[next_fault_].at_s <= now) {
    pipeline_.set_fault_plan(config_.fault_events[next_fault_].plan);
    ++next_fault_;
    ++stats_.fault_events_applied;
  }
}

void StreamingReader::absorb_node_events() {
  for (const auto& ev : pipeline_.drain_node_events()) {
    if (!ev.emitted) ++stats_.frames_dropped_unpowered;
    if (ev.browned_out) {
      // Mid-frame brownout: the MCU loses its protocol state and reboots
      // into standby on the next downlink — same as the batch path.
      ++stats_.brownouts;
      firmware_.power_off();
    }
  }
}

std::optional<phy::Bits> StreamingReader::exchange(const phy::Command& cmd,
                                                   dsp::Real* snr_db) {
  auto reply = firmware_.handle_command(cmd, environment_);
  if (!reply) return std::nullopt;
  node::UplinkFrame frame = std::move(*reply);
  const std::uint16_t node_id = config_.stream.system.capsule.firmware.node_id;

  // The supervisor's current rung overrides the negotiated line parameters
  // (the firmware honours the reader's SetBlf-style control).
  if (config_.supervisor.enabled) {
    const LadderStep& rung = supervisor_.step_for(node_id);
    frame.bitrate = rung.bitrate;
    frame.blf = rung.blf;
  }
  const dsp::Real nominal_bitrate = frame.bitrate;
  const dsp::Real nominal_blf = frame.blf;

  // Node-layer faults perturb the emission only: flipped bits in node
  // memory, a drifted RC timebase. The reader still decodes against the
  // nominal parameters it negotiated.
  dsp::Real tx_bitrate = frame.bitrate;
  dsp::Real tx_blf = frame.blf;
  auto& node_injector = pipeline_.node_injector();
  if (node_injector.active()) {
    node_injector.corrupt_frame_bits(frame.payload);
    const dsp::Real drift = node_injector.clock_drift_factor();
    tx_bitrate *= drift;
    tx_blf *= drift;
  }

  phy::Fm0Params line = config_.stream.system.capsule.firmware.uplink;
  line.bitrate = tx_bitrate;
  dsp::Signal switching;
  phy::fm0_encode_frame(frame.payload, line, pipeline_.fs(), switching);

  // The capture spans the emission plus the batch path's 4-bit tail.
  const std::uint64_t start = pipeline_.position();
  const dsp::Real frame_time =
      phy::fm0_frame_seconds(frame.payload.size(), line, tx_bitrate);
  const auto win_len =
      static_cast<std::uint64_t>(frame_time * pipeline_.fs());
  stream::CaptureWindow window;
  window.node_id = node_id;
  window.start = start;
  window.end = start + win_len;
  window.payload_bits = frame.payload.size();
  window.bitrate = nominal_bitrate;
  window.blf = nominal_blf;

  stream::ScheduledEmission emission;
  emission.node_id = node_id;
  emission.start = start;
  emission.switching = std::move(switching);
  emission.blf = tx_blf;

  pipeline_.schedule_emission(std::move(emission));
  pipeline_.schedule_capture(window);
  ++stats_.frames_scheduled;

  std::vector<stream::DecodedUplink> decodes;
  pipeline_.advance_to(window.end, &decodes);
  absorb_node_events();
  for (auto& d : decodes) {
    if (d.window_start == start && d.decode.valid) {
      if (snr_db) *snr_db = d.decode.snr_db;
      return std::move(d.decode.payload);
    }
  }
  return std::nullopt;
}

void StreamingReader::ensure_started() {
  // The supervisor only participates when enabled, mirroring the batch
  // InventorySession (its quarantine machinery must not skip polls of an
  // unsupervised daemon). track() is idempotent, and after a resume the
  // loaded state wins.
  if (config_.supervisor.enabled) {
    supervisor_.track(config_.stream.system.capsule.firmware.node_id);
  }
  if (config_.deadline_factor > 0.0) {
    pipeline_.clock().arm_deadline(config_.deadline_factor,
                                   config_.deadline_grace_s);
  }
  if (warmed_up_) return;
  const auto warmup =
      static_cast<std::uint64_t>(config_.warmup_s * pipeline_.fs());
  pipeline_.advance_to(pipeline_.position() + warmup);
  absorb_node_events();
  warmed_up_ = true;
  // The RTF headline measures the steady interrogation loop, not the
  // one-off cold start.
  pipeline_.restart_clock();
}

void StreamingReader::poll_once(std::uint64_t poll_end) {
  const dsp::Real fs = pipeline_.fs();
  const std::uint16_t node_id = config_.stream.system.capsule.firmware.node_id;
  const bool supervised = config_.supervisor.enabled;

  ++stats_.polls;
  const std::uint64_t poll_no = poll_index_++;
  apply_due_faults();

  bool delivered = false;
  if (supervised && !supervisor_.admit(node_id)) {
    ++stats_.skipped;
  } else {
    // Sync the firmware's power domain with the harvester before the
    // exchange, as the batch capsule does on every receive.
    if (pipeline_.node_powered()) {
      firmware_.power_on();
    } else {
      firmware_.power_off();
    }

    dsp::Real snr_db = std::numeric_limits<dsp::Real>::quiet_NaN();
    const auto rn16_bits =
        exchange(phy::Command{phy::QueryCommand{0}}, &snr_db);
    if (rn16_bits && rn16_bits->size() == phy::rn16_response_bits()) {
      if (const auto rn16 = phy::parse_rn16_response(*rn16_bits)) {
        const auto id_bits =
            exchange(phy::Command{phy::AckCommand{rn16->rn16}}, &snr_db);
        if (id_bits && phy::parse_id_response(*id_bits)) {
          const auto data_bits = exchange(
              phy::Command{phy::ReadCommand{
                  rn16->rn16, static_cast<std::uint8_t>(config_.sensor)}},
              &snr_db);
          if (data_bits) {
            if (const auto data = phy::parse_data_response(*data_bits)) {
              delivered = true;
              const auto t_sec = static_cast<std::uint32_t>(
                  static_cast<dsp::Real>(pipeline_.position()) / fs);
              telemetry().append(
                  store_node(), t_sec,
                  static_cast<float>(phy::from_milli(data->milli_value)));
            }
          }
        }
      }
    }
    if (supervised) supervisor_.observe(node_id, delivered, snr_db);
    if (delivered) {
      ++stats_.delivered;
    } else {
      ++stats_.missed;
    }
  }
  if (pipeline_.position() < poll_end) {
    pipeline_.advance_to(poll_end);
    absorb_node_events();
  }
  pipeline_.clock().check_deadline();
  if (hook_) hook_(poll_no, delivered);
}

StreamingReaderStats StreamingReader::run(dsp::Real sim_seconds) {
  ensure_started();
  const dsp::Real fs = pipeline_.fs();
  const auto poll_samples = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(config_.poll_interval_s * fs));
  const std::uint64_t end =
      pipeline_.position() + static_cast<std::uint64_t>(sim_seconds * fs);
  while (pipeline_.position() < end) {
    poll_once(std::min<std::uint64_t>(end, pipeline_.position() + poll_samples));
  }
  flush_telemetry();
  return stats();
}

StreamingReaderStats StreamingReader::run_polls(std::uint64_t polls) {
  ensure_started();
  const auto poll_samples = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(config_.poll_interval_s * pipeline_.fs()));
  for (std::uint64_t i = 0; i < polls; ++i) {
    poll_once(pipeline_.position() + poll_samples);
  }
  return stats();
}

void StreamingReader::flush_telemetry() { telemetry().flush(store_node()); }

StreamingReaderStats StreamingReader::stats() const {
  StreamingReaderStats s = stats_;
  s.supervisor = supervisor_.totals();
  s.sim_seconds = pipeline_.clock().sim_seconds();
  s.wall_seconds = pipeline_.clock().wall_seconds();
  s.real_time_factor = pipeline_.clock().real_time_factor();
  s.deadline_misses = pipeline_.clock().deadline_misses();
  return s;
}

dsp::ser::Checkpoint StreamingReader::envelope() const {
  // Config fingerprint: a checkpoint only resumes into a reader built from
  // the same deterministic universe.
  return {std::string(kCheckpointHeader), [this](dsp::ser::Writer& w) {
            const auto& system = config_.stream.system;
            w.field("sr.seed", system.seed);
            w.field("sr.node_id", system.capsule.firmware.node_id);
            w.field("sr.fs", system.channel.fs);
            w.field("sr.poll_interval", config_.poll_interval_s);
          }};
}

template <class Self, class Ar>
void StreamingReader::fields(Self& self, Ar& a) {
  // Daemon cursors + cumulative counters.
  a.field("sr.next_fault", self.next_fault_);
  a.field("sr.poll_index", self.poll_index_);
  a.field("sr.warmed_up", self.warmed_up_);
  auto& s = self.stats_;
  a.field("sr.polls", s.polls);
  a.field("sr.delivered", s.delivered);
  a.field("sr.missed", s.missed);
  a.field("sr.skipped", s.skipped);
  a.field("sr.frames_scheduled", s.frames_scheduled);
  a.field("sr.frames_dropped_unpowered", s.frames_dropped_unpowered);
  a.field("sr.brownouts", s.brownouts);
  a.field("sr.fault_events_applied", s.fault_events_applied);
  a.field("sr.events_dropped", s.events_dropped);
  a.object(self.pipeline_);
  a.object(self.firmware_);
  a.object(self.supervisor_);
}

std::string StreamingReader::checkpoint() const {
  return envelope().encode([this](dsp::ser::Writer& w) {
    fields(*this, w);
    telemetry().save_node(store_node(), w);
  });
}

void StreamingReader::resume(const std::string& payload) {
  stats_ = StreamingReaderStats{};
  envelope().decode(payload, [this](dsp::ser::Reader& r) {
    fields(*this, r);
    telemetry().load_node(store_node(), r);
  });
}

}  // namespace ecocap::reader
