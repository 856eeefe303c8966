#include "stream/stream_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "dsp/rng.hpp"

namespace ecocap::stream {

namespace {

// Seed salts for the per-stage draw streams, derived from the system seed
// with the same splitmix64 mix the trial engine uses. The fault injectors
// additionally fold in a per-swap epoch so a new plan starts a fresh stream.
constexpr std::uint64_t kDownlinkNoise = 0x7a11;
constexpr std::uint64_t kUplinkNoise = 0x7a12;
constexpr std::uint64_t kInjectorBase = 0x7a20;

NodeStage::Config node_config(const core::SystemConfig& system) {
  NodeStage::Config c;
  c.harvester = system.capsule.harvester;
  c.power = system.capsule.power;
  c.backscatter = system.capsule.backscatter;
  c.hra_gain = system.capsule.hra_gain;
  c.fs = system.channel.fs;
  return c;
}

}  // namespace

Real StreamPipeline::derive_si_amplitude(
    const channel::ConcreteChannel& channel, const core::SystemConfig& system,
    Real volts_scale) {
  // Engineering estimate of the propagated backscatter RMS during a frame:
  // a unit carrier (RMS 1/sqrt(2)) calibrated to node volts, reflected at
  // the mid backscatter gain, attenuated once more on the way back. The
  // batch path measures this RMS from the finished emission; a live reader
  // fixes it up front from its known drive level.
  const auto& bp = system.capsule.backscatter;
  const Real mid = 0.5 * (bp.reflective_gain + bp.absorptive_gain);
  const Real rms = volts_scale * channel.path_gain() * mid *
                   channel.path_gain() / std::sqrt(2.0);
  return channel.uplink_si_amplitude(rms);
}

StreamPipeline::StreamPipeline(StreamConfig config)
    : config_(std::move(config)),
      snapshot_(std::make_shared<const core::SystemConfig>(config_.system)),
      channel_(std::shared_ptr<const channel::Structure>(
                   snapshot_, &snapshot_->structure),
               std::shared_ptr<const channel::ChannelConfig>(
                   snapshot_, &snapshot_->channel)),
      volts_scale_(channel::volts_scale(snapshot_->structure,
                                        snapshot_->transmitter.tx_voltage)),
      si_amplitude_(derive_si_amplitude(channel_, *snapshot_, volts_scale_)),
      clock_(snapshot_->channel.fs, config_.block_size),
      tx_(snapshot_->transmitter),
      dl_(channel_, volts_scale_,
          dsp::trial_seed(snapshot_->seed, kDownlinkNoise)),
      node_(node_config(*snapshot_)),
      ul_(channel_, snapshot_->transmitter.carrier.f_resonant, si_amplitude_,
          dsp::trial_seed(snapshot_->seed, kUplinkNoise)),
      rx_(snapshot_->receiver) {
  if (config_.block_size == 0 || config_.ring_blocks == 0) {
    throw std::invalid_argument(
        "StreamPipeline: block_size and ring_blocks must be > 0");
  }
  set_fault_plan(snapshot_->fault);
}

void StreamPipeline::set_fault_plan(const fault::FaultPlan& plan) {
  const std::uint64_t seed = snapshot_->seed;
  const std::uint64_t epoch = fault_epoch_++;
  dl_.set_injector(
      fault::Injector(plan, seed, kInjectorBase + 4 * epoch + 0));
  node_.set_injector(
      fault::Injector(plan, seed, kInjectorBase + 4 * epoch + 1));
  ul_.set_injector(
      fault::Injector(plan, seed, kInjectorBase + 4 * epoch + 2));
  node_.set_extra_load_amps(node_.injector().cap_leak_amps());
  active_plan_ = plan;
}

void StreamPipeline::schedule_emission(ScheduledEmission e) {
  node_.schedule(std::move(e));
}

void StreamPipeline::schedule_capture(CaptureWindow w) { rx_.schedule(w); }

void StreamPipeline::advance_to(std::uint64_t until,
                                std::vector<DecodedUplink>* decodes) {
  if (until > pos_) {
    if (config_.threaded) {
      run_threaded(until);
    } else {
      run_inline(until);
    }
  }
  if (decodes) {
    auto drained = rx_.drain_decodes();
    decodes->insert(decodes->end(), std::make_move_iterator(drained.begin()),
                    std::make_move_iterator(drained.end()));
  }
}

void StreamPipeline::run_inline(std::uint64_t until) {
  while (pos_ < until) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(config_.block_size, until - pos_));
    tx_.fill_block(n, block_);
    dl_.push_block(block_);
    node_.push_block(block_);
    ul_.push_block(block_);
    rx_.push_block(block_);
    pos_ += n;
    clock_.advance(n);
  }
}

void StreamPipeline::run_threaded(std::uint64_t until) {
  // One segment: a fixed number of blocks flows through four SPSC rings
  // coupling five concurrent stages (tx runs on the caller). Each stage's
  // carried state is touched only by its own thread, block order is
  // preserved by the rings, and every stage is a deterministic function of
  // its input stream — so the output is bit-identical to the inline mode
  // regardless of thread scheduling. A recycle ring returns spent blocks
  // to the producer, so a segment's steady state moves buffers without
  // allocating.
  //
  // Teardown contract: a stage that throws poisons every ring (close()),
  // which breaks all five spin loops — no thread is left spinning on a
  // ring whose peer died. The first exception is rethrown on the caller
  // after all threads joined; the pipeline's carried state is then
  // inconsistent mid-segment, so the owner must discard or resume it from
  // a checkpoint, never keep advancing.
  const std::uint64_t total = until - pos_;
  const std::uint64_t nblocks =
      (total + config_.block_size - 1) / config_.block_size;

  core::SpscRing<Block> to_dl(config_.ring_blocks);
  core::SpscRing<Block> to_node(config_.ring_blocks);
  core::SpscRing<Block> to_ul(config_.ring_blocks);
  core::SpscRing<Block> to_rx(config_.ring_blocks);
  core::SpscRing<Block> recycle(config_.ring_blocks);
  while (recycle.try_push(Block{})) {
  }

  std::mutex error_mu;
  std::exception_ptr error;
  auto abort_all = [&](std::exception_ptr e) {
    {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = e;
    }
    to_dl.close();
    to_node.close();
    to_ul.close();
    to_rx.close();
    recycle.close();
  };

  auto pump = [nblocks, &abort_all](core::SpscRing<Block>& in,
                                    core::SpscRing<Block>& out, auto&& fn) {
    try {
      for (std::uint64_t b = 0; b < nblocks; ++b) {
        Block blk;
        while (!in.try_pop(blk)) {
          if (in.closed() && in.empty()) return;  // peer died; drain and exit
          std::this_thread::yield();
        }
        fn(blk);
        while (!out.try_push(std::move(blk))) {
          if (out.closed()) return;
          std::this_thread::yield();
        }
      }
    } catch (...) {
      abort_all(std::current_exception());
    }
  };

  std::thread t_dl([&] {
    pump(to_dl, to_node, [this](Block& b) { dl_.push_block(b.samples); });
  });
  std::thread t_node([&] {
    pump(to_node, to_ul, [this](Block& b) { node_.push_block(b.samples); });
  });
  std::thread t_ul([&] {
    pump(to_ul, to_rx, [this](Block& b) { ul_.push_block(b.samples); });
  });
  std::thread t_rx([&] {
    pump(to_rx, recycle, [this](Block& b) { rx_.push_block(b.samples); });
  });

  try {
    for (std::uint64_t b = 0; b < nblocks; ++b) {
      Block blk;
      bool aborted = false;
      while (!recycle.try_pop(blk)) {
        if (recycle.closed() && recycle.empty()) {
          aborted = true;
          break;
        }
        std::this_thread::yield();
      }
      if (aborted) break;
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(config_.block_size, until - pos_));
      tx_.fill_block(n, blk.samples);
      blk.seq = b;
      bool pushed = false;
      while (!(pushed = to_dl.try_push(std::move(blk)))) {
        if (to_dl.closed()) break;
        std::this_thread::yield();
      }
      if (!pushed) break;
      pos_ += n;
      clock_.advance(n);
    }
  } catch (...) {
    abort_all(std::current_exception());
  }

  t_dl.join();
  t_node.join();
  t_ul.join();
  t_rx.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace ecocap::stream
