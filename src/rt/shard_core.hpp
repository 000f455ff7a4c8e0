// The shard core: one shard's half of the paper's protocol, written once for
// every executor that runs it in lockstep supersteps — rt::Runtime's worker
// threads and the cross-process transport's shard processes.
//
// A core runs a contiguous processor shard (util::block_range, so shard order
// = processor order) and owns its TaskArena and all per-shard protocol
// state; the host owns the processors' storage (rt::Runtime keeps all n in
// one allocation). One step (step_once) executes the same schedule as
// sim::Engine::step_once:
// generate/consume over the shard with the per-processor Philox streams,
// then for the threshold policy on a phase boundary Figure 2's phase as
// message exchanges — classify heavy/light from post-generation loads, run
// the query tree level by level (each collision round of Figure 1 = a query
// superstep, an accept superstep and a reduction), deliver id messages to
// roots, move T/4 tasks per match — then one closing reduction that carries
// the shard loads (the engine's start-of-step system_load snapshot) and the
// phase tallies.
//
// The core talks to its peers only through a three-operation seam, which
// each executor implements:
//
//   send(dest, m)    copy message `m` (a value) to the shard owning
//                    processor `dest`; a kTransfer or kScatter passes its
//                    tasks beside it. No ownership passes;
//   drain(out)       exactly the messages sent here before this shard's
//                    last allgather(), as values: task-carrying messages
//                    are applied on arrival, the rest returned. Messages a
//                    faster peer sent after crossing that allgather wait
//                    for the next drain, so a shard may send right after
//                    it drains;
//   allgather(blob)  a barrier that also exchanges each shard's small u64
//                    blob (heavy lists, scan lists and counts ride these).
//
// rt::Runtime implements it with per-(sender, destination) outboxes
// (rt/outbox.hpp) and util::PhaseBarrier, its drains exact by the counts
// each sender seals at every crossing; the transport with one kBatch frame
// per peer per crossing, carrying the blob and the messages, whose arrival
// from every peer is the barrier. Both cross the same schedule: per step
// one closing reduction, per phase one classification reduction, per
// collision round 3 allgathers, per tree level 5.
//
// Determinism contract (RtConfig::deterministic): drained batches whose
// processing order matters (child assignment, id matching) are sorted by the
// message's canonical key. Those keys encode protocol positions (global node
// slots, tree edges (g, s)), and the global node numbering is a merge of the
// per-shard scan lists every shard replays from the same blobs — so the
// order is partition-invariant and a run is bit-for-bit identical for ANY
// shard count and executor, matching sim::Engine with the same seed.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "obs/telemetry.hpp"
#include "rt/config.hpp"
#include "rt/message.hpp"
#include "sim/counters.hpp"
#include "sim/model.hpp"
#include "stats/histogram.hpp"

namespace clb::rt {

/// Target slots per query-tree node (message keys pack j in 4 bits).
inline constexpr std::uint32_t kMaxA = 16;

/// Canonical processing order of a drained batch: by key, then kind.
[[nodiscard]] bool key_less(const Message& a, const Message& b);

/// The block partition of n processors over `workers` shards, with O(1)
/// owner lookup.
class ShardMap {
 public:
  ShardMap(std::uint64_t n, unsigned workers)
      : chunk_(n / workers),
        extra_(n % workers),
        split_(extra_ * (chunk_ + 1)) {}

  [[nodiscard]] unsigned owner_of(std::uint64_t p) const {
    if (p < split_) return static_cast<unsigned>(p / (chunk_ + 1));
    return static_cast<unsigned>(extra_ + (p - split_) / chunk_);
  }

 private:
  std::uint64_t chunk_;
  std::uint64_t extra_;
  std::uint64_t split_;
};

/// One blob per shard, in shard order. Valid until the caller's next
/// allgather().
using Blobs = std::vector<std::span<const std::uint64_t>>;

class ShardCore {
 public:
  /// Shard `index` of cfg.workers; `epoch` is the zero of the wall-clock
  /// sojourn stamps.
  ShardCore(const RtConfig& cfg, sim::LoadModel& model, unsigned index,
            std::chrono::steady_clock::time_point epoch);
  virtual ~ShardCore() = default;

  ShardCore(const ShardCore&) = delete;
  ShardCore& operator=(const ShardCore&) = delete;

  // ---- the exchange seam (see file header) ----
  /// Copies `m` to the owner of `dest_proc`; `tasks` are what a kTransfer
  /// or kScatter carries (the seam sets m.task_count from them).
  virtual void send(std::uint32_t dest_proc, const Message& m,
                    std::span<const RtTask> tasks) = 0;
  void send(std::uint32_t dest_proc, const Message& m) {
    send(dest_proc, m, {});
  }
  /// Clears `out`, then fills it with the drained messages that carry no
  /// tasks; the others go to apply_tasks() on arrival.
  virtual void drain(std::vector<Message>& out) = 0;
  virtual const Blobs& allgather(std::span<const std::uint64_t> blob) = 0;

  /// One runtime step (see file header).
  void step_once(std::uint64_t step);

  /// Ships `count` tasks (clamped to the queue) from the back of root's
  /// queue to `partner` as one kTransfer, booking counters and ledger.
  /// `ordinal` is the transfer's canonical (step, source) number, which
  /// RtConfig::drop_transfer_message selects its victim by.
  void send_transfer(std::uint64_t step, std::uint32_t root,
                     std::uint32_t partner, std::uint64_t ordinal,
                     std::uint64_t count);
  /// Sends the staged (root, partner) pairs in ascending-source order,
  /// numbered from `base` + 1; `total` is the staged count over all shards.
  void apply_staged_transfers(std::uint64_t step, std::uint64_t base,
                              std::uint64_t total);
  /// Appends a kTransfer's or kScatter's `tasks` to the recipient m.b's
  /// queue (a transfer also books them as received).
  void apply_tasks(const Message& m, std::span<const RtTask> tasks);

  [[nodiscard]] RtProcessor& proc(std::uint64_t p) {
    CLB_DCHECK(p >= begin && p < end, "processor outside the owned shard");
    return procs[p - begin];
  }
  [[nodiscard]] unsigned owner_of(std::uint64_t p) const {
    return map_.owner_of(p);
  }
  [[nodiscard]] std::uint32_t now_us() const;
  /// The zero of the wall-clock sojourn stamps.
  [[nodiscard]] std::chrono::steady_clock::time_point epoch() const {
    return epoch_;
  }

  /// A query-tree node hosted at owner(proc). `slot` is the node's global
  /// index at its level (dense, ascending across shards), which keys the
  /// collision game's target draws exactly like the simulator's requesters
  /// vector index.
  struct Node {
    std::uint64_t slot = 0;
    std::uint32_t proc = 0;
    std::uint32_t root = 0;
    std::uint32_t targets[kMaxA] = {};
    // The first accept_count entries, in acceptance order (round, then j).
    std::uint32_t accepted[kMaxA] = {};
    std::uint32_t accepted_mask = 0;
    std::uint32_t accept_count = 0;
    std::uint32_t round_replies = 0;
    bool active = false;
    std::uint8_t pending_children = 0;
    std::uint8_t status_nonapp = 0;
  };

  /// A forwarding parent's contribution to the next level; the replicated
  /// scan merge assigns `base` = the global slot of child s=0.
  struct ScanEntry {
    std::uint64_t g = 0;  // parent slot
    std::uint64_t base = 0;
    std::uint32_t root = 0;
    std::uint32_t count = 0;  // 1 or 2
    std::uint32_t child[2] = {};
  };

  /// A matched (root, partner) pair awaiting its task move. Transfers are
  /// staged when the match is decided and sent after a reduction, numbered
  /// by a prefix over the shards — so the k-th transfer in (step, source)
  /// order is the same protocol event at every shard count.
  struct StagedTransfer {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
  };

  // ---- identity ----
  const RtConfig cfg;
  sim::LoadModel& model;
  const unsigned index;
  const std::uint64_t begin, end;  // owned processor shard [begin, end)
  const bool telemetry;            // requested AND compiled in

  // ---- the shard's processors (index p - begin). The host owns their
  // storage and sets `procs` before the first step; their queues grow from
  // `arena`.
  TaskArena arena;
  std::span<RtProcessor> procs;

  // ---- host hooks into generate/consume (rt::Runtime only) ----
  const core::LivenessSchedule* liveness = nullptr;  // dead procs idle
  std::uint8_t* dry_board = nullptr;  // steal: leftover consume budget

  // ---- lockstep protocol state ----
  // Every shard advances the epochs at the same points of the superstep
  // schedule, so a stamp comparison means the same thing anywhere.
  std::uint64_t phase_epoch = 0;
  std::uint64_t level_epoch = 0;
  std::uint64_t round_epoch = 0;
  std::uint64_t phase_count = 0;
  std::uint64_t sys_load = 0;  // total system load at start of current step
  std::vector<Message> batch;
  std::vector<Node> nodes, next_nodes;
  std::vector<std::uint32_t> heavy_local;
  std::vector<ScanEntry> scan;
  std::vector<StagedTransfer> staged;
  std::uint64_t transfer_seen = 0;  // replicated global transfer count
  /// The step's balancing tally for the closing reduction: matched roots
  /// (threshold phase) or scattered tasks (all-in-air). Reset every step.
  std::uint64_t balanced = 0;
  bool phase_ran = false;  // an instant-fabric phase ran this step
  // Per-phase stats, tracked by every shard in lockstep.
  std::uint64_t ph_requests = 0;
  std::uint32_t ph_levels = 0;
  std::uint32_t ph_rounds = 0;

  // ---- outputs, read between runs ----
  sim::MessageCounters msg;
  std::uint64_t clamped = 0;
  std::vector<LedgerEntry> ledger;
  std::vector<LedgerEntry> dropped;  // drop_transfer_message victims
  std::uint64_t dropped_msgs = 0;
  std::uint64_t dropped_task_count = 0;
  stats::IntHistogram sojourn_steps, sojourn_us;
  std::vector<RtPhaseSummary> phases;  // shard 0 only
  std::uint64_t running_max = 0;       // shard 0 only

  // ---- telemetry (single-writer; see obs::WorkerTelemetry) ----
  obs::WorkerTelemetry telem;
  std::uint64_t step_stall_ns = 0;  // barrier ns within the current step
  std::uint64_t cur_step = 0;       // step being executed (trace stamping)

 protected:
  /// Runs before generate/consume (rt: the crash re-home).
  virtual void before_step(std::uint64_t /*step*/) {}
  /// The balancing policy between generate/consume and the closing
  /// reduction. The core's own: the threshold phase on phase boundaries.
  virtual void balance(std::uint64_t step);
  /// Runs after the step's telemetry is booked (rt: snapshot emitter).
  virtual void after_step(std::uint64_t /*step*/, std::uint64_t /*load*/) {}

 private:
  void run_phase(std::uint64_t step);
  std::uint64_t run_level(std::uint64_t step, std::uint64_t phase_index,
                          std::uint32_t level, std::uint64_t node_count);

  ShardMap map_;
  std::chrono::steady_clock::time_point epoch_;
  // Reused across phases and levels (hot loops do not allocate): the
  // classification / staged-count blob, the scan merge's cursors and the
  // tasks of the transfer being sent.
  std::vector<std::uint64_t> blob_;
  std::vector<std::size_t> scan_pos_;
  std::vector<RtTask> transfer_tasks_;
};

static_assert(std::is_trivially_copyable_v<ShardCore::Node>);

}  // namespace clb::rt
