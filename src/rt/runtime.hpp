// The concurrent runtime: the paper's protocol on real worker threads.
//
// Shared-nothing design: the n logical processors are split into contiguous
// shards, each owned by one worker thread running one rt::ShardCore (see
// rt/shard_core.hpp for the step schedule and the determinism contract).
// Workers implement the core's exchange seam in one address space: send()
// copies the message (and the tasks it carries) into the sender's outbox
// for the owner (rt/outbox.hpp), drain() takes from every sender's outbox
// exactly the messages sealed at the drainer's last crossing, and
// allgather() is a util::PhaseBarrier crossing over per-worker blob buffers
// double-buffered by parity. There is no lock and no allocation on the hot
// path once the outboxes have grown to a step's traffic.
//
// On top of the core's instant threshold schedule the runtime adds the
// policies only it carries: the latency fabric (the dist:: protocol over
// per-worker delay queues), all-in-air scatter, the workload-zoo baselines,
// deterministic work stealing, crash re-homing, telemetry snapshots and the
// fault-injection hooks. Free-running mode (deterministic = false) skips
// the canonical sorts (arrival order wins), attaches spin-work to each
// consumed task so "consume" costs real CPU, and measures wall-clock
// throughput and sojourn.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rt/config.hpp"
#include "rt/shard_core.hpp"
#include "util/thread_pool.hpp"

namespace clb::rt {

class Runtime {
 public:
  /// Spawns cfg.workers - 1 threads, each parked on the command barrier;
  /// the thread that calls run() executes shard 0 itself. The
  /// model must be parallel-safe (!serial_generation()); it is shared by all
  /// workers and must therefore be stateless across step_action calls, which
  /// every counter-RNG model in src/models is.
  Runtime(RtConfig cfg, sim::LoadModel* model);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Executes `steps` runtime steps, shard 0 on the calling thread and the
  /// others on the worker threads; blocks until done. Callable repeatedly;
  /// state carries over (step numbering included).
  void run(std::uint64_t steps);

  // ---- Inspection (main thread, between run() calls) ----
  [[nodiscard]] const RtConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t n() const { return cfg_.n; }
  [[nodiscard]] unsigned worker_count() const {
    return static_cast<unsigned>(workers_.size());
  }
  [[nodiscard]] std::uint64_t step() const { return step_base_; }
  [[nodiscard]] std::uint64_t load(std::uint64_t p) const {
    return procs_[p].queue.size();
  }
  [[nodiscard]] const RtProcessor& processor(std::uint64_t p) const {
    return procs_[p];
  }
  [[nodiscard]] std::uint64_t total_load() const;
  [[nodiscard]] std::uint64_t total_generated() const;
  [[nodiscard]] std::uint64_t total_consumed() const;
  [[nodiscard]] std::uint64_t running_max_load() const;
  /// generated + deposited == consumed + queued + dropped? Count-based only
  /// — identity-blind, which is precisely why the fuzzer's FIFO oracle and
  /// not this check must convict the mailbox-drop mutation (a transfer
  /// that never reaches its recipient).
  [[nodiscard]] bool conservation_holds() const;

  /// Message counters summed over workers (same attribution rules as the
  /// simulator: queries/accepts/ids/control from the protocol, transfers
  /// and tasks_moved from applied transfers).
  [[nodiscard]] sim::MessageCounters messages() const;
  [[nodiscard]] std::uint64_t clamped_transfers() const;

  /// All applied transfers, sorted by (step, from, to). Within one step
  /// sources are unique, so this order is canonical and directly comparable
  /// against the engine's per-step pending-transfer capture.
  [[nodiscard]] std::vector<LedgerEntry> ledger() const;

  [[nodiscard]] const std::vector<RtPhaseSummary>& phases() const;

  [[nodiscard]] stats::IntHistogram sojourn_steps() const;
  [[nodiscard]] stats::IntHistogram sojourn_us() const;

  /// Wall-clock seconds spent inside run() so far.
  [[nodiscard]] double wall_seconds() const { return wall_seconds_; }

  /// Exchange traffic: messages sent to another worker vs to the sender's
  /// own shard. The remote fraction is the cross-core share.
  [[nodiscard]] std::uint64_t remote_pushes() const;
  [[nodiscard]] std::uint64_t self_pushes() const;

  /// Fault-injection bookkeeping (drop_transfer_message).
  [[nodiscard]] std::uint64_t dropped_messages() const;
  [[nodiscard]] std::uint64_t dropped_tasks() const;
  /// The dropped victims themselves, sorted like ledger() — in
  /// deterministic mode the victim identity is worker-count-invariant.
  [[nodiscard]] std::vector<LedgerEntry> dropped_log() const;

  /// Latency-mode fabric counters (0 in instant mode).
  [[nodiscard]] std::uint64_t fabric_sent() const;
  [[nodiscard]] std::uint64_t fabric_in_flight() const;
  /// Link-model counters summed over workers (all 0 on an unshaped fabric;
  /// comparable against dist::Network's identically-named stats).
  [[nodiscard]] std::uint64_t fabric_retransmits() const;
  [[nodiscard]] std::uint64_t fabric_dup_suppressed() const;
  [[nodiscard]] std::uint64_t fabric_queued_delay() const;
  /// Mutation bookkeeping: messages destroyed by link_loss_no_retransmit
  /// and duplicates applied by dup_delivery (the fuzzer's mutation_applied
  /// probes).
  [[nodiscard]] std::uint64_t link_lost_messages() const;
  [[nodiscard]] std::uint64_t dup_delivered() const;

  // ---- telemetry (RtConfig::telemetry; all readable between runs) ----
  /// True when telemetry was requested AND compiled in.
  [[nodiscard]] bool telemetry_enabled() const {
    return cfg_.telemetry && obs::kTelemetryCompiled;
  }
  /// Worker i's own counters (zeroed struct when telemetry is off).
  [[nodiscard]] const obs::WorkerTelemetry& worker_telemetry(unsigned i) const;
  /// All workers merged (counter totals conserved; phases is per-worker
  /// lockstep, so the merged value is workers x phase count).
  [[nodiscard]] obs::WorkerTelemetry telemetry_total() const;
  /// Snapshot timeline accumulated so far (one JSONL object per line; see
  /// obs::append_telemetry_snapshot). Empty without telemetry_interval.
  [[nodiscard]] const std::string& telemetry_jsonl() const {
    return telemetry_jsonl_;
  }
  /// Exports merged totals under `prefix`, per-worker blocks under
  /// `prefix`w<i>., and the cross-worker derived gauges the rt report
  /// keys on: utilization_mean, barrier_stall_fraction, queue_imbalance
  /// (max/mean consumed over workers) and workers.
  void export_telemetry(obs::MetricsRegistry& m,
                        const std::string& prefix) const;

  /// Appends a task to p's queue (main thread, between runs) — the fault
  /// hook the fuzzer's load spikes use, mirroring sim::Engine::deposit.
  void deposit(std::uint32_t p, sim::Task t);

  // ---- crash/recovery bookkeeping (RtConfig::crashes) ----
  /// Tasks moved off crashed processors so far; mirrors
  /// sim::Engine::rehomed_tasks (re-homes are queue moves, booked here and
  /// nowhere else — not in the ledger or message counters).
  [[nodiscard]] std::uint64_t rehomed_tasks() const { return rehomed_tasks_; }
  [[nodiscard]] std::uint64_t rehomed_events() const {
    return rehomed_events_;
  }
  /// Mutation bookkeeping: tasks destroyed by crash_lose_queue and steps on
  /// which stale_read_fresh changed the decision list (the fuzzer's
  /// mutation_applied probes).
  [[nodiscard]] std::uint64_t crash_lost_tasks() const {
    return crash_lost_tasks_;
  }
  [[nodiscard]] std::uint64_t stale_cheat_divergence() const {
    return stale_cheat_divergence_;
  }

  // ---- work stealing (RtConfig::steal) ---------------------------------
  /// Thief/victim pairs executed and tasks moved by the steal pass (steals
  /// ship as regular kTransfer messages, so they also appear in ledger(),
  /// messages().transfers and tasks_moved — same attribution as the engine).
  [[nodiscard]] std::uint64_t steal_events() const;
  [[nodiscard]] std::uint64_t stolen_tasks() const;
  /// Mutation bookkeeping: tasks cloned by steal_duplicate_task (the
  /// fuzzer's mutation_applied probe).
  [[nodiscard]] std::uint64_t steal_dup_tasks() const;

  /// Bytes bump-allocated across all per-worker queue arenas.
  [[nodiscard]] std::uint64_t arena_bytes_used() const;

 private:
  struct Worker;
  struct LatencyShared;

  void worker_main(Worker& w);
  /// The commanded steps on one worker's shard.
  void run_steps(Worker& w);
  /// all-in-air: every shard task thrown at a uniformly random processor.
  void run_scatter(Worker& w, std::uint64_t step);
  /// The workload-zoo policies (kStaleSq / kLocalSearch): publish the fresh
  /// load board, replicate the shared pure decision rule on every worker,
  /// ship own-shard transfers, and apply arrivals in ascending-sender order.
  void run_zoo(Worker& w, std::uint64_t step);
  /// The steal superstep (RtConfig::steal, instant fabric): publish the
  /// post-consume load + dry boards, replicate sim::steal_decisions on
  /// every worker, ship own-victim batches as kTransfer messages with
  /// canonical ordinals, and apply arrivals in ascending-sender order —
  /// the run_zoo discipline applied to stealing.
  void run_steal(Worker& w, std::uint64_t step);
  /// Crash re-home at the start of a crash step: leader-serial queue moves
  /// behind a pair of barriers (no-op on other steps).
  void process_crashes(Worker& w, std::uint64_t step);
  /// Leader-only: appends one snapshot line per worker (reads the `snap`
  /// copies published by the preceding barrier).
  void append_snapshots(std::uint64_t step);

  // ---- latency fabric (RtConfig::latency >= 1; see rt/latency section
  // of runtime.cpp) ----
  void run_lat_protocol(Worker& w, std::uint64_t step);
  void lat_send(Worker& w, std::uint64_t step, Message m);
  void lat_start_request(Worker& w, std::uint64_t step, std::uint32_t proc,
                         std::uint32_t root, std::uint32_t level);
  void lat_send_pending_queries(Worker& w, std::uint64_t step,
                                std::uint32_t proc);
  void lat_process_due(Worker& w, std::uint64_t step);
  void lat_evaluate(Worker& w, std::uint64_t step);
  void lat_discard_undelivered(Worker& w);
  void lat_drain_and_file(Worker& w, std::uint64_t step);

  RtConfig cfg_;
  sim::LoadModel* model_;
  ShardMap map_;
  // All n processors in one allocation, in shard order; each worker's core
  // views its own range, and the queues live in the cores' arenas.
  std::vector<RtProcessor> procs_;
  std::vector<std::unique_ptr<Worker>> workers_;

  // Superstep coordination.
  util::PhaseBarrier step_barrier_;  // workers only
  util::PhaseBarrier cmd_barrier_;   // workers (the run() caller is 0)
  std::uint64_t cmd_steps_ = 0;
  bool cmd_stop_ = false;
  std::uint64_t step_base_ = 0;

  std::uint64_t air_interval_ = 1;

  // Latency fabric (null in instant mode).
  std::unique_ptr<LatencyShared> lat_;

  // Fault injection (delay_skew_message; arrival-order by design, see
  // RtConfig).
  std::atomic<std::uint64_t> skew_send_ordinal_{0};

  std::string telemetry_jsonl_;  // leader-written behind snapshot barriers

  // Workload zoo (policies kStaleSq/kLocalSearch and RtConfig::crashes).
  // The boards are published by shard owners behind barriers; the stale
  // board is refreshed on broadcast steps only. Counters are leader-written
  // between barriers, main-read between runs.
  core::LivenessSchedule liveness_;
  std::vector<std::uint32_t> board_;        // fresh loads, post-generation
  std::vector<std::uint32_t> stale_board_;  // last broadcast (kStaleSq)
  std::vector<std::uint8_t> alive_board_;   // liveness at the current step
  std::uint64_t rehomed_tasks_ = 0;
  std::uint64_t rehomed_events_ = 0;
  std::uint64_t crash_lost_tasks_ = 0;
  std::uint64_t stale_cheat_divergence_ = 0;

  // Work stealing (RtConfig::steal). Boards published by shard owners
  // behind barriers, exactly like the zoo boards above; the dry board is
  // written during each worker's own consume loop.
  std::vector<std::uint32_t> steal_board_;      // post-consume loads
  std::vector<std::uint8_t> steal_dry_board_;   // consume budget left over
  std::vector<std::uint8_t> steal_alive_board_;

  std::uint64_t deposited_ = 0;
  double wall_seconds_ = 0;
  std::chrono::steady_clock::time_point start_tp_;
};

}  // namespace clb::rt
