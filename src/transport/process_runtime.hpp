// transport::ProcessRuntime — the coordinator side of the cross-process
// runtime: forks one OS process per shard, wires a full data-plane mesh plus
// one control link per child BEFORE forking (children inherit connected
// sockets and never dial), distributes the run configuration in a kConfig
// handshake, issues run and deposit commands, and collects ledgers,
// counters, queues and phase logs at kCollect. It is on the command path
// only: the shards cross their superstep barriers among themselves, one
// kBatch frame per peer per crossing (transport/shard_engine.hpp), and a
// run command ends when every shard has sent kDone.
//
// The public surface mirrors rt::Runtime's inspection API so harnesses can
// swap transports without changing their measurement code, and every
// deposit/run is recorded in a command log so the shadow-fabric cross-check
// (transport/shadow.hpp) can replay the exact run on the in-memory runtime.
//
// Fork discipline: all forks happen in the constructor, which must run
// before the calling process spawns threads it cannot afford to lose (a
// forked child inherits only the calling thread). rt::Runtime joins its
// workers in its destructor, so "construct ProcessRuntime, then build the
// rt shadow" is always safe. Children exit via _exit(0) — no unwinding, no
// atexit — and the destructor reaps them, convicting any child that aborted.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rt/runtime.hpp"
#include "transport/endpoint.hpp"
#include "transport/shard_engine.hpp"

namespace clb::transport {

/// One replayable coordinator action, for the shadow cross-check.
struct Command {
  enum class Kind : std::uint8_t { kRun, kDeposit };
  Kind kind = Kind::kRun;
  std::uint64_t steps = 0;   // kRun
  std::uint32_t proc = 0;    // kDeposit
  sim::Task task{};          // kDeposit
};

class ProcessRuntime {
 public:
  /// Forks cfg.workers shard processes over `wire`. cfg.index is ignored
  /// (stamped per child). Blocks until every child acked its config.
  ProcessRuntime(ShardRunConfig cfg, WireKind wire);

  /// Convenience seam from the rt vocabulary: maps RtConfig::transport to
  /// the wire kind (must not be kInProc), resolves the shard count like
  /// rt::Runtime does (rt::resolve_workers), and checks that every rt
  /// feature this transport does not carry (latency fabric, crash
  /// schedules, drop injection, zoo policies, stealing, telemetry, tracing)
  /// is off.
  ProcessRuntime(const rt::RtConfig& cfg, const ModelSpec& model);

  ~ProcessRuntime();

  ProcessRuntime(const ProcessRuntime&) = delete;
  ProcessRuntime& operator=(const ProcessRuntime&) = delete;

  /// Executes `steps` on all shard processes and waits until every child
  /// reports kDone. Callable repeatedly. If a shard dies instead, every
  /// child is reaped and the coordinator aborts naming their exit statuses.
  void run(std::uint64_t steps);

  /// Appends a task to p's queue (routed to the owning child). Mirrors
  /// rt::Runtime::deposit; recorded in the command log.
  void deposit(std::uint32_t p, sim::Task t);

  /// Ships every child's final state to the coordinator and merges it.
  /// Idempotent; implied by the first inspection call. No run() or
  /// deposit() may follow.
  void collect();

  // ---- Inspection (after collect(); all mirror rt::Runtime) ----
  [[nodiscard]] const ShardRunConfig& config() const { return cfg_; }
  [[nodiscard]] WireKind wire() const { return wire_; }
  [[nodiscard]] std::uint64_t n() const { return cfg_.n; }
  [[nodiscard]] unsigned worker_count() const { return cfg_.workers; }
  [[nodiscard]] std::uint64_t step() const { return step_base_; }
  [[nodiscard]] const rt::RtProcessor& processor(std::uint64_t p);
  [[nodiscard]] std::uint64_t load(std::uint64_t p);
  [[nodiscard]] std::uint64_t total_load();
  [[nodiscard]] std::uint64_t total_generated();
  [[nodiscard]] std::uint64_t total_consumed();
  [[nodiscard]] std::uint64_t running_max_load();
  [[nodiscard]] bool conservation_holds();
  [[nodiscard]] sim::MessageCounters messages();
  [[nodiscard]] std::uint64_t clamped_transfers();
  [[nodiscard]] std::vector<rt::LedgerEntry> ledger();
  [[nodiscard]] const std::vector<rt::RtPhaseSummary>& phases();
  [[nodiscard]] stats::IntHistogram sojourn_steps();
  [[nodiscard]] stats::IntHistogram sojourn_us();
  [[nodiscard]] std::uint64_t deposited();
  /// Wire accounting merged over every child's links (bytes, frames,
  /// barrier count, barrier RTT histogram).
  [[nodiscard]] const obs::WireStats& wire_stats();
  /// One shard's frame bill: its data links as it reported them (with its
  /// crossings) and the frames the coordinator received on its control
  /// link, kState included.
  struct ShardWire {
    obs::WireStats data;
    std::uint64_t control_frames = 0;
  };
  /// Per-shard frame bills, in shard order.
  [[nodiscard]] const std::vector<ShardWire>& shard_wire();
  /// Wall-clock seconds spent inside run() so far.
  [[nodiscard]] double wall_seconds() const { return wall_seconds_; }
  /// The zero of every shard's wall-clock sojourn stamps, taken before the
  /// fork.
  [[nodiscard]] std::chrono::steady_clock::time_point epoch() const {
    return epoch_;
  }
  /// Each shard's sojourn epoch as it reported it, in shard order.
  [[nodiscard]] const std::vector<std::chrono::steady_clock::time_point>&
  shard_epochs();

  /// Every run()/deposit() issued, in order — the shadow replay script.
  [[nodiscard]] const std::vector<Command>& command_log() const {
    return log_;
  }

 private:
  void spawn();
  /// A shard died during run(): closes every control link, reaps every
  /// child and aborts.
  [[noreturn]] void fail_run(unsigned shard);

  ShardRunConfig cfg_;
  WireKind wire_ = WireKind::kUds;
  std::vector<Endpoint> ctl_;   // coordinator end of each child's control link
  std::vector<pid_t> pids_;
  rt::ShardMap map_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t step_base_ = 0;
  double wall_seconds_ = 0;
  std::vector<Command> log_;

  // Merged state (valid once collected_).
  bool collected_ = false;
  std::vector<std::unique_ptr<rt::TaskArena>> arenas_;  // procs_' queues
  std::vector<rt::RtProcessor> procs_;
  sim::MessageCounters msg_;
  std::uint64_t clamped_ = 0;
  std::uint64_t deposited_ = 0;
  std::vector<rt::LedgerEntry> ledger_;
  stats::IntHistogram sojourn_steps_, sojourn_us_;
  std::uint64_t running_max_ = 0;
  std::vector<rt::RtPhaseSummary> phases_;
  obs::WireStats wire_stats_;
  std::vector<ShardWire> shard_wire_;
  std::vector<std::chrono::steady_clock::time_point> shard_epochs_;
};

}  // namespace clb::transport
