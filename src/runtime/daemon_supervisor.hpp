#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/spsc_ring.hpp"
#include "fleet/telemetry_store.hpp"
#include "stream/streaming_reader.hpp"

namespace ecocap::runtime {

/// One poll outcome flowing daemon -> collector over the per-daemon event
/// ring. Small and trivially movable: an evicted event under kDropOldest
/// costs one move, never an allocation.
struct PollEvent {
  std::uint32_t daemon = 0;
  std::uint64_t poll = 0;
  bool delivered = false;
  std::uint32_t t_sec = 0;
  float value = 0.0f;
};

/// A scripted runtime fault — the runtime's only form of chaos. `at_poll` is
/// the daemon's cumulative poll index at which the event fires, so a
/// scripted crash hits the same simulated instant no matter how wall time
/// unfolds; each event fires exactly once (a restarted daemon does not
/// replay it).
struct ChaosEvent {
  enum class Kind {
    kCrash,     ///< daemon thread throws; watchdog must restart it
    kStall,     ///< daemon hangs for `arg` heartbeat-timeout units
    kThrottle,  ///< collector pauses for `arg` milliseconds (slow consumer)
  };
  std::size_t daemon = 0;
  std::uint64_t at_poll = 0;
  Kind kind = Kind::kCrash;
  std::uint64_t arg = 1;
};

struct RuntimeConfig {
  /// One reader config per daemon (seeds/node ids prepared by the caller).
  /// The supervisor overrides `shared_store`/`store_node`: daemon i writes
  /// node i of the supervisor's store.
  std::vector<reader::StreamingReaderConfig> daemons;
  /// Shared fleet store; `nodes` is forced to daemons.size() when smaller.
  fleet::TelemetryStore::Config telemetry;
  /// Campaign length: every daemon must complete this many polls.
  std::uint64_t polls_per_daemon = 0;
  /// Checkpoint cadence in polls (0 = only the implicit restart-from-
  /// scratch recovery). Checkpoints are kept in memory and — when
  /// `checkpoint_dir` is set — mirrored to `<dir>/daemon_<i>.ckpt` via the
  /// crash-safe checkpoint file write; a failed mirror write is counted in
  /// DaemonRuntimeStats::checkpoint_write_failures.
  std::uint64_t checkpoint_every_polls = 8;
  std::string checkpoint_dir;
  /// Daemon -> collector event rings: capacity and overflow policy.
  std::size_t event_ring_capacity = 64;
  core::Overflow event_policy = core::Overflow::kDropOldest;
  /// Watchdog cadence and the heartbeat age that declares a daemon hung.
  double watchdog_interval_ms = 2.0;
  double heartbeat_timeout_ms = 250.0;
  /// Scripted chaos (precise, exactly-once; see ChaosEvent).
  std::vector<ChaosEvent> script;
  /// Collector-side observer, invoked on the collector thread for every
  /// drained event (demo/monitoring hook; keep it cheap).
  std::function<void(const PollEvent&)> on_event;
};

/// Per-daemon runtime outcome (reader stats + supervision counters).
struct DaemonRuntimeStats {
  reader::StreamingReaderStats reader;
  std::uint64_t polls_done = 0;
  std::uint64_t restarts = 0;          ///< successful recoveries
  std::uint64_t crashes = 0;           ///< exceptions that killed the thread
  std::uint64_t stalls = 0;            ///< injected pipeline stalls
  std::uint64_t watchdog_kicks = 0;    ///< hung detections (stale heartbeat)
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_write_failures = 0;  ///< failed file mirrors
  std::uint64_t resumed_from_checkpoint = 0;
  std::uint64_t restarted_from_scratch = 0;
  std::uint64_t events_pushed = 0;     ///< ring pushes attempted
  std::uint64_t events_dropped = 0;    ///< lost to ring overflow (exact)
  double recovery_latency_ms_total = 0.0;
  double recovery_latency_ms_max = 0.0;
};

struct RuntimeStats {
  std::vector<DaemonRuntimeStats> daemons;
  std::uint64_t events_collected = 0;  ///< drained by the collector
  std::uint64_t throttles = 0;         ///< collector slow-consumer episodes
  double wall_seconds = 0.0;

  std::uint64_t total_restarts() const {
    std::uint64_t n = 0;
    for (const auto& d : daemons) n += d.restarts;
    return n;
  }
  std::uint64_t total_events_pushed() const {
    std::uint64_t n = 0;
    for (const auto& d : daemons) n += d.events_pushed;
    return n;
  }
  std::uint64_t total_events_dropped() const {
    std::uint64_t n = 0;
    for (const auto& d : daemons) n += d.events_dropped;
    return n;
  }
};

/// Self-healing fleet runtime: owns N StreamingReader daemons (one thread
/// and one clock domain each, writing disjoint nodes of one shared
/// TelemetryStore), a watchdog, and a telemetry collector, and keeps the
/// fleet alive through injected failure.
///
///  * **Health**: every daemon heartbeats after each poll; the watchdog
///    declares a daemon hung when its heartbeat goes stale (a stalled
///    pipeline also racks up StreamClock deadline misses, surfaced in the
///    reader stats) and aborts it for restart. Daemon threads are
///    exception-isolated: a throw marks the daemon crashed, never takes the
///    process down.
///  * **Recovery**: daemons checkpoint on poll boundaries (bit-exact
///    StreamingReader::checkpoint). The watchdog restarts a dead daemon
///    from its latest checkpoint — rewinding its store node to the
///    checkpointed contents — or from scratch (reset_node) when none
///    exists; either way the replayed polls are bit-identical, so the final
///    store is byte-identical to a crash-free run. Writer handoff rides
///    TelemetryStore::claim_writer, guaranteeing the replacement is the
///    node's only writer.
///  * **Backpressure**: poll events flow over bounded SpscRings under an
///    explicit Overflow policy; drops are counted exactly (push() returns
///    the eviction count) and fed back into the checkpointed reader stats.
///  * **Chaos**: scripted ChaosEvents fire at exact poll indices; a
///    randomized schedule is a seeded draw into `RuntimeConfig::script`.
///
/// Thread-safety: construct, call run() once, read the returned stats.
/// inject_crash/inject_stall may be called from any thread while run() is
/// live (the demo's kill switch).
class DaemonSupervisor {
 public:
  explicit DaemonSupervisor(RuntimeConfig config);
  ~DaemonSupervisor();

  DaemonSupervisor(const DaemonSupervisor&) = delete;
  DaemonSupervisor& operator=(const DaemonSupervisor&) = delete;

  /// Run the campaign to completion: spawn daemons + watchdog + collector,
  /// supervise until every daemon finished its polls, flush telemetry,
  /// join everything. Callable once.
  RuntimeStats run();

  /// The shared store (node i = daemon i). Valid for the supervisor's
  /// lifetime; readable concurrently with run().
  fleet::TelemetryStore& telemetry() { return store_; }

  /// Ask daemon `daemon` to crash at its next poll boundary (thread-safe;
  /// the watchdog then recovers it — the example's kill switch).
  void inject_crash(std::size_t daemon);
  /// Ask daemon `daemon` to stall for `units` heartbeat timeouts.
  void inject_stall(std::size_t daemon, std::uint64_t units);

 private:
  using Clock = std::chrono::steady_clock;

  enum class State : int { kIdle, kRunning, kCrashed, kDone };

  struct Daemon {
    Daemon(std::size_t ring_capacity) : events(ring_capacity) {}

    reader::StreamingReaderConfig config;
    std::unique_ptr<reader::StreamingReader> reader;
    std::thread thread;
    core::SpscRing<PollEvent> events;

    // Watchdog-visible health (written by the daemon thread).
    std::atomic<std::uint64_t> heartbeat_ns{0};
    std::atomic<State> state{State::kIdle};
    std::atomic<bool> abort{false};           // watchdog -> daemon
    std::atomic<bool> crash_request{false};   // inject_crash
    std::atomic<std::uint64_t> stall_request{0};

    // Latest checkpoint payload (daemon writes, watchdog reads after the
    // thread is joined; the mutex also orders mid-run readers out).
    std::mutex checkpoint_mu;
    std::string checkpoint;

    // Daemon-thread-private (handed to the restart thread via join()).
    std::vector<ChaosEvent> script;  // this daemon's events, by at_poll
    std::size_t next_script = 0;
    bool last_delivered = false;     // set by the reader's poll hook
    DaemonRuntimeStats stats;

    // Watchdog-thread-private hung-detection backoff: on an oversubscribed
    // host a single healthy poll can outlast heartbeat_timeout_ms, and a
    // fixed timeout then livelocks — every incarnation is kicked mid-replay
    // before reaching a new checkpoint. Each restart that recovered no new
    // polls doubles the effective timeout (capped); each one that
    // progressed decays it, so real hangs are still caught at a bounded
    // multiple of the configured timeout.
    std::uint64_t last_restart_polls = 0;
    int kick_backoff = 0;
  };

  void daemon_main(std::size_t i);
  void watchdog_main();
  void collector_main();
  /// Claim the writer slot and build (or rebuild) daemon i's reader
  /// against the shared store.
  void build_reader(Daemon& d, std::size_t i);
  /// Reset the daemon's supervision state and launch its thread. The
  /// reader must be fully built (and resumed, on a restart) first.
  void launch(Daemon& d, std::size_t i);
  /// One poll plus its chaos and event bookkeeping. Throws to crash.
  void poll_step(Daemon& d, std::size_t i);
  void apply_chaos(Daemon& d, std::size_t i);
  void maybe_checkpoint(Daemon& d, std::size_t i, bool force);
  void restart(Daemon& d, std::size_t i);

  RuntimeConfig config_;
  fleet::TelemetryStore store_;
  std::vector<std::unique_ptr<Daemon>> daemons_;
  std::thread watchdog_;
  std::thread collector_;
  std::atomic<bool> shutdown_{false};
  std::atomic<std::int64_t> throttle_until_ns_{0};
  std::atomic<std::uint64_t> events_collected_{0};
  std::atomic<std::uint64_t> throttles_{0};
  bool ran_ = false;
};

}  // namespace ecocap::runtime
