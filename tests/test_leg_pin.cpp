// Byte pin for the transceiver's physical legs. Fixed-seed runs of the
// batch channel legs (ConcreteChannel::downlink / uplink), of the node's
// harvest grid (EcoCapsule::receive cap voltage) and of one waveform-level
// MultiNodeLink inventory are reduced to the bit patterns of their outputs
// and checked against tests/golden/leg_digests.txt: per line the series
// length and its FNV-1a-64 digest. Any change to a leg's arithmetic, draw
// order or buffer length fails here, so the legs can be restructured with
// the guarantee that no output byte moves.
//
// Regenerating after an intentional change to a leg's bytes:
//   ./test_leg_pin --regen    # rewrites tests/golden/leg_digests.txt

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "channel/concrete_channel.hpp"
#include "core/link_simulator.hpp"
#include "core/multinode_link.hpp"
#include "dsp/rng.hpp"
#include "node/capsule.hpp"

#include "golden_util.hpp"

#ifndef ECOCAP_GOLDEN_DIR
#error "ECOCAP_GOLDEN_DIR must point at tests/golden"
#endif

namespace ecocap {
namespace {

using dsp::Real;
using dsp::Signal;
using Series = std::vector<double>;

Signal test_waveform(std::size_t n, std::uint64_t seed) {
  dsp::Rng rng(seed);
  Signal x(n);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

struct LegConfig {
  std::string name;
  channel::Structure structure;
  channel::ChannelConfig channel;
};

/// The five channel configurations the legs branch on. Multipath runs on
/// the common wall, where the ray tracer finds reverberant taps; the
/// absolute-delay case uses a 30 degree prism so both mode taps shift.
std::vector<LegConfig> leg_configs() {
  const core::SystemConfig base = core::default_system();
  std::vector<LegConfig> out;
  out.push_back({"default", base.structure, base.channel});
  LegConfig multipath{"multipath", channel::structures::s3_common_wall(),
                      base.channel};
  multipath.channel.use_multipath = true;
  multipath.channel.distance = 0.5;
  out.push_back(multipath);
  LegConfig scattered{"scatterers", base.structure, base.channel};
  channel::Scatterer rebar;
  rebar.position = {0.1, base.structure.thickness / 2.0 + 0.004};
  rebar.radius = 0.012;
  scattered.channel.scatterers = {
      rebar, channel::Scatterer{{0.05, 0.03}, 0.008, 0.4}};
  out.push_back(scattered);
  LegConfig absolute{"absolute_delay", base.structure, base.channel};
  absolute.channel.preserve_absolute_delay = true;
  absolute.channel.prism_angle_deg = 30.0;
  out.push_back(absolute);
  LegConfig direct{"prism0", base.structure, base.channel};
  direct.channel.prism_angle_deg = 0.0;
  out.push_back(direct);
  return out;
}

/// Downlink then uplink on one shared noise stream per configuration, the
/// way LinkSimulator draws across legs; odd lengths on both legs.
void channel_series(std::vector<std::pair<std::string, Series>>& out) {
  std::uint64_t seed = 100;
  for (const LegConfig& c : leg_configs()) {
    const channel::ConcreteChannel ch(c.structure, c.channel);
    dsp::Rng rng(seed++);
    Signal down;
    ch.downlink(test_waveform(4999, seed * 7), rng, down);
    Signal up;
    ch.uplink(test_waveform(3001, seed * 11), 230.0e3, rng, up);
    out.emplace_back("downlink_" + c.name, Series(down.begin(), down.end()));
    out.emplace_back("uplink_" + c.name, Series(up.begin(), up.end()));
  }
}

/// Cap voltage and power state after each receive() call. Call lengths are
/// not multiples of the 2000-sample (1 ms) harvest chunk, so every call ends
/// on a partial chunk; the drive amplitude charges, holds and starves the
/// cap, and a parasitic load exercises the unpowered drain.
Series capsule_series() {
  const core::SystemConfig base = core::default_system();
  const Real fs = base.channel.fs;
  node::EcoCapsule capsule(base.capsule, fs, 0xcafe);
  const node::ConcreteEnvironment env;
  struct Call {
    std::size_t n;
    Real amplitude;
    Real extra_load;
  };
  const std::vector<Call> calls{
      {2999, 0.9, 0.0},  {4001, 1.4, 0.0},   {1, 1.4, 0.0},
      {6500, 1.2, 0.0},  {12345, 0.3, 0.0},  {777, 0.0, 2e-4},
      {20001, 0.0, 2e-4}, {9999, 1.6, 1e-5}, {3333, 0.8, 0.0},
  };
  Series out;
  Signal x;
  std::size_t t = 0;
  for (const Call& c : calls) {
    x.resize(c.n);
    for (std::size_t i = 0; i < c.n; ++i, ++t) {
      x[i] = c.amplitude *
             std::sin(2.0 * dsp::kPi * 230.0e3 * static_cast<Real>(t) / fs);
    }
    capsule.set_extra_load_amps(c.extra_load);
    const auto r = capsule.receive(x, env);
    out.push_back(r.cap_voltage);
    out.push_back(r.powered ? 1.0 : 0.0);
    out.push_back(static_cast<double>(r.frames.size()));
  }
  return out;
}

Series inventory_series() {
  core::MultiNodeLink::Config cfg;
  cfg.structure = channel::structures::s3_common_wall();
  cfg.channel.fs = 2.0e6;
  cfg.transmitter.carrier.fs = cfg.channel.fs;
  cfg.transmitter.tx_voltage = 200.0;
  cfg.receiver.fs = cfg.channel.fs;
  cfg.receiver.uplink.bitrate = 1000.0;
  cfg.capsule.firmware.uplink.bitrate = 1000.0;
  cfg.capsule.firmware.blf = 4000.0;
  cfg.q = 1;
  cfg.seed = 17;
  core::MultiNodeLink link(cfg);
  for (int i = 0; i < 3; ++i) {
    core::MultiNodeLink::NodePlacement p;
    p.node_id = static_cast<std::uint16_t>(0x0500 + i);
    p.distance = 0.3 + 0.25 * i;
    link.deploy(p);
  }
  const auto r = link.run_inventory();
  Series out{static_cast<double>(r.slots), static_cast<double>(r.collisions),
             static_cast<double>(r.empty_slots),
             static_cast<double>(r.decode_failures),
             static_cast<double>(r.collision_false_decodes)};
  for (const auto id : r.inventoried_ids) out.push_back(id);
  return out;
}

std::string digest_path() {
  return std::string(ECOCAP_GOLDEN_DIR) + "/leg_digests.txt";
}

/// name -> "<length> <digest>".
std::map<std::string, std::string> load_digests() {
  std::map<std::string, std::string> pins;
  std::ifstream f(digest_path());
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string name, length, digest;
    in >> name >> length >> digest;
    pins[name] = length + " " + digest;
  }
  return pins;
}

std::string summary(const Series& series) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%zu %016" PRIx64, series.size(),
                golden::hash_series(series));
  return buf;
}

TEST(LegPin, OutputBytesUnchanged) {
  std::vector<std::pair<std::string, Series>> series;
  channel_series(series);
  series.emplace_back("capsule_receive", capsule_series());
  series.emplace_back("multinode_inventory", inventory_series());
  for (const auto& [name, s] : series) EXPECT_FALSE(s.empty()) << name;

  if (golden::g_regen) {
    std::ofstream f(digest_path());
    ASSERT_TRUE(f) << "cannot write " << digest_path();
    f << "# Transceiver leg outputs pinned by tests/test_leg_pin.cpp;\n"
         "# regenerate with `test_leg_pin --regen`. Per line: name, series\n"
         "# length, FNV-1a-64 digest of the length and the values' bits.\n";
    for (const auto& [name, s] : series) f << name << " " << summary(s) << "\n";
    SUCCEED() << "regenerated " << digest_path();
    return;
  }

  const auto pins = load_digests();
  ASSERT_EQ(pins.size(), series.size()) << "missing or stale "
                                        << digest_path();
  for (const auto& [name, s] : series) {
    const auto it = pins.find(name);
    ASSERT_NE(it, pins.end()) << "no pin for " << name;
    EXPECT_EQ(it->second, summary(s))
        << name << ": leg output drifted from the pinned bytes";
  }
}

}  // namespace
}  // namespace ecocap

int main(int argc, char** argv) {
  return ecocap::golden::golden_test_main(argc, argv);
}
