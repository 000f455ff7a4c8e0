// The runtime's configuration vocabulary, shared by every executor of the
// shard core (rt/shard_core.hpp): rt::Runtime's worker threads and the
// cross-process transport's shard processes read the same RtConfig, book
// the same LedgerEntry / RtPhaseSummary records, and keep each processor's
// queue and protocol flags in the same RtProcessor.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/local_search.hpp"
#include "baselines/stale_shortest_queue.hpp"
#include "collision/collision.hpp"
#include "core/liveness.hpp"
#include "core/params.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "obs/trace.hpp"
#include "rt/arena.hpp"
#include "sim/steal.hpp"

namespace clb::rt {

enum class RtPolicy {
  kNone,         ///< no balancing; the scaling baseline
  kThreshold,    ///< the paper's threshold balancer (atomic phases, defaults)
  kAllInAir,     ///< periodic global scatter (Concluding Remarks baseline)
  kStaleSq,      ///< stale shortest-queue (periodic load broadcasts)
  kLocalSearch,  ///< randomized pairwise local search (arXiv:1706.09997)
};

[[nodiscard]] const char* policy_name(RtPolicy p);

/// Message substrate selection. kInProc is this runtime's native mode
/// (threads + outboxes in one address space). kUds/kTcp request the
/// cross-process transport: rt::Runtime itself refuses them — construct a
/// transport::ProcessRuntime from the same RtConfig instead (it forks one
/// process per shard and speaks the frame codec over Unix-domain or
/// loopback-TCP sockets; see src/transport/).
enum class Transport : std::uint8_t { kInProc, kUds, kTcp };

[[nodiscard]] const char* transport_name(Transport t);

struct RtConfig {
  std::uint64_t n = 1024;
  std::uint64_t seed = 1;
  /// Worker threads or shard processes; 0 = hardware_concurrency (see
  /// resolve_workers).
  unsigned workers = 1;
  /// Sequenced message delivery + canonical tie-breaks (see file header).
  bool deterministic = true;
  /// Which substrate carries the protocol (see Transport). This runtime
  /// only executes kInProc; the socket transports are selected through
  /// transport::ProcessRuntime, which consumes the same config.
  Transport transport = Transport::kInProc;
  RtPolicy policy = RtPolicy::kThreshold;
  /// Realised phase parameters; required (from_n) when policy==kThreshold.
  core::PhaseParams params{};
  collision::CollisionConfig game{};
  /// Iterations of register-churn work per consumed task (free-running mode;
  /// 0 = consume is just the queue pop, as in the simulator).
  std::uint32_t spin_work = 0;
  /// Record step-counted sojourn (consume step - birth step) per task.
  bool track_sojourn = false;
  /// Record wall-clock sojourn in microseconds per task (one steady_clock
  /// read per generated and consumed task; meant for free-running benches).
  bool time_sojourn = false;
  /// Optional trace sink (borrowed); emits kPhaseBegin/kPhaseEnd/kTransfer.
  obs::TraceSink* trace = nullptr;
  /// Test-only fault injection: silently drop the k-th kTransfer message
  /// (1-based; 0 = off). The sender's side-effects (pop, counters, ledger)
  /// stay — exactly the "broken exchange" a conservation oracle must convict.
  /// The ordinal counts transfers in canonical (step, source processor)
  /// order — transfers are staged per superstep and numbered by a prefix
  /// scan over the worker shards — so the chosen victim is identical for
  /// every worker count (see dropped_log()). Free-running mode keeps the
  /// same numbering; only WHICH partner a root matched may differ there.
  std::uint64_t drop_transfer_message = 0;
  /// Message latency in steps (0 = the idealised instant fabric of PR 4).
  /// With latency >= 1 the runtime executes the dist:: protocol over
  /// per-worker delay queues: a message sent in superstep t is only
  /// drainable at superstep t + delay(src, dst), with the delay coming
  /// from the same net::DeliveryPolicy dist::Network uses (uniform, or
  /// per-hop routing when `topology` is set). Requires policy kThreshold
  /// and game.a <= 8 (the dist protocol's fan-out cap).
  std::uint32_t latency = 0;
  /// Optional machine graph for per-hop routing (borrowed; must outlive
  /// the runtime). Latency mode only.
  const net::Topology* topology = nullptr;
  /// Link-model knobs (heterogeneous per-link jitter, bandwidth caps,
  /// loss + retransmit), keyed off `seed` — the exact same net::LinkModel
  /// dist::Network runs, sharded per worker. Latency mode only; defaults
  /// are the uniform/lossless degenerate case.
  net::NetConfig link{};
  /// Idle steps between phase completion and the next classification
  /// (latency mode; must be >= 1, as in dist::DistConfig).
  std::uint64_t phase_gap = 1;
  /// Failsafe phase duration; 0 derives the dist:: bound from depth, the
  /// Lemma 1 round budget and the latency.
  std::uint64_t max_phase_steps = 0;
  /// Test-only fault injection (latency mode): deliver the k-th fabric
  /// message (1-based send order; 0 = off) one superstep EARLY — a fabric
  /// that violates the delivery-time contract. No-op when the victim's
  /// delay is already 1. The ordinal counts sends in arrival order across
  /// workers, so pin workers = 1 for a replayable victim (the fuzzer's
  /// delay-skew scenarios do).
  std::uint64_t delay_skew_message = 0;
  /// Test-only fault injection (latency mode, lossy link): when the link
  /// model would lose a transfer payload's first attempt, drop the message
  /// outright instead of retransmitting — tasks vanish from the system
  /// without a dropped_tasks booking, exactly what the conservation oracle
  /// must convict (the link-loss-no-retransmit mutation).
  bool link_loss_no_retransmit = false;
  /// Test-only fault injection (latency mode, lossy link): materialise the
  /// suppressed ack-loss duplicate of every transfer command instead of
  /// counting it — the transfer applies twice, diverging the ledger and the
  /// queues from the dist shadow (the dup-delivery mutation).
  bool dup_delivery = false;
  /// Stale shortest-queue knobs (policy == kStaleSq). Instant fabric only.
  baselines::StaleSqConfig stale{};
  /// Local-search knobs (policy == kLocalSearch). Instant fabric only.
  baselines::LocalSearchConfig ls{};
  /// Crash/recovery schedule: at the start of each listed step the crashed
  /// processor's queue is re-homed (FIFO order, nearest alive processor
  /// scanning upward — see core::LivenessSchedule) by the leader worker
  /// behind a pair of barriers, and while down the processor neither
  /// generates, consumes, nor participates in balancing. Requires a
  /// liveness-aware policy (kNone, kStaleSq or kLocalSearch) on the instant
  /// fabric; the schedule is configuration, not randomness, so lockstep
  /// bit-identity against sim::Engine survives the crash.
  std::vector<core::CrashEvent> crashes;
  /// Test-only fault injection: a crashed processor's queue is *cleared*
  /// instead of re-homed, with no booking anywhere — the orphaned tasks
  /// vanish from every account, exactly what the conservation oracle must
  /// convict (the crash-lose-queue mutation).
  bool crash_lose_queue = false;
  /// Test-only fault injection (policy kStaleSq): the decision rule secretly
  /// reads the *fresh* load board instead of the stale broadcast snapshot —
  /// a baseline quietly enjoying information it should not have. Counters
  /// stay self-consistent; only the engine lockstep shadow (which plays the
  /// honest rule) can convict it (the stale-free-lunch mutation).
  bool stale_read_fresh = false;
  /// Deterministic work stealing (see sim/steal.hpp): when a processor's
  /// consume budget outlives its queue inside a step, it steals a batch
  /// from the most-loaded processor via the pure shared decision rule,
  /// replicated from sealed load/dry boards on every worker — the same
  /// worker-count-invariant ordinal discipline as drop_transfer_message.
  /// Instant fabric only; off by default so all lockstep tiers that predate
  /// it are untouched.
  sim::StealConfig steal{};
  /// Test-only fault injection (steal.enabled): the steal *clones* one task
  /// of every stolen batch instead of moving it — the task runs on the
  /// thief while a copy stays on the victim, breaking conservation exactly
  /// the way a buggy steal would (the steal-duplicate-task mutation; the
  /// conservation/ledger oracle must convict it).
  bool steal_duplicate_task = false;
  /// Per-worker hot-path telemetry (obs::WorkerTelemetry): superstep and
  /// barrier timing, exchange traffic, drain batch sizes. Observation only —
  /// deterministic outputs are bit-identical on or off. Ignored (forced
  /// false) when the binary was built with -DCLB_TELEMETRY=OFF.
  bool telemetry = false;
  /// Snapshot emitter: every `telemetry_interval` steps the leader appends
  /// one JSONL line per worker (cumulative counters + shard load) to
  /// telemetry_jsonl(). 0 = no snapshots. Requires `telemetry`.
  std::uint64_t telemetry_interval = 0;
  /// Tag stamped into every snapshot line, so benches can concatenate the
  /// timelines of several runs into one file and still group them.
  std::string telemetry_tag;
};

/// One applied transfer, for cross-validation against the simulator.
struct LedgerEntry {
  std::uint64_t step = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint32_t count = 0;
};

/// Per-phase record the leader worker assembles (threshold policy).
/// Instant mode: phases are single-step, end_step == start_step. Latency
/// mode: phases span steps (duration = end_step - start_step), directly
/// comparable against dist::DistPhaseRecord.
struct RtPhaseSummary {
  std::uint64_t phase_index = 0;
  std::uint64_t start_step = 0;
  std::uint64_t end_step = 0;
  std::uint64_t num_heavy = 0;
  std::uint64_t num_light = 0;
  std::uint64_t matched = 0;    ///< heavy roots that found a light partner
  std::uint64_t unmatched = 0;
  std::uint64_t requests = 0;   ///< collision-game requests over all levels
  std::uint32_t levels_used = 0;
  std::uint32_t collision_rounds = 0;
  bool forced = false;          ///< latency mode: ended by the failsafe
  bool completed = false;       ///< end-of-phase fields are valid
  std::vector<std::uint32_t> heavy_procs;  ///< ascending processor ids
};

/// Per-processor state. Owned exclusively by the shard's worker while a
/// run() is in flight; the main thread may inspect between runs (the
/// command barrier orders the accesses). The queue's rings live in the
/// shard's TaskArena, which must outlive every use of the queue.
struct RtProcessor {
  TaskQueue queue;
  std::uint64_t generated = 0;
  std::uint64_t consumed = 0;
  std::uint64_t consumed_on_origin = 0;
  std::uint64_t tasks_sent = 0;
  std::uint64_t tasks_received = 0;
  std::uint64_t balance_initiations = 0;
  // Protocol flags, stamped with lockstep epochs so phases need no clears.
  std::uint64_t light_epoch = 0;     ///< light at phase start
  std::uint64_t assigned_epoch = 0;  ///< reserved by an id message
  std::uint64_t matched_epoch = 0;   ///< (roots) matched this phase
  std::uint32_t matched_partner = 0;
  std::uint64_t accept_epoch = 0;    ///< collision: accepted_total validity
  std::uint32_t accepted_total = 0;
  std::uint64_t incoming_epoch = 0;  ///< collision: incoming validity
  std::uint32_t incoming = 0;
  std::uint64_t decide_epoch = 0;    ///< collision: round decision validity
  bool accepts_round = false;
};

/// Shard-process fan-out cap of the cross-process transport.
inline constexpr unsigned kMaxShardProcesses = 64;

/// The one rule mapping RtConfig::workers to a shard count, for every
/// executor: 0 means hardware_concurrency (capped at kMaxShardProcesses on
/// the socket transports), and no executor runs more shards than
/// processors.
[[nodiscard]] unsigned resolve_workers(const RtConfig& cfg);

}  // namespace clb::rt
