// The per-process shard engine: one shard process's half of the
// cross-process runtime. It runs an rt::ShardCore — the same step schedule,
// protocol and determinism contract as rt::Runtime's worker threads — and
// implements the core's exchange seam over the data links, peer to peer:
//
//   * send() serialises each message into the batch pending for the peer
//     that owns its destination;
//   * allgather() sends every peer exactly one kBatch frame — this shard's
//     blob, its crossing ordinal and the pending batch, possibly empty —
//     then receives one frame from each peer in shard order. Receiving a
//     frame from every peer is the barrier: by per-link FIFO each peer has
//     sent everything it had for this crossing. The peers' blobs are
//     returned, their messages kept for the next drain();
//   * drain() decodes what arrived since the last drain: this shard's own
//     messages first, then the peers in shard order, each in send order.
//
// The coordinator is on the command path only. With no one watching every
// shard's schedule, the data links check it: a frame's crossing ordinal
// must equal the receiver's, and after each run command every shard sends
// each peer an end-of-run mark carrying its crossing count and reads
// theirs. A batch where a mark is due, a mark where a batch is due, or a
// mismatched count aborts the shard with a message naming it, the peer and
// the crossing.
//
// Every shard stamps wall-clock sojourn against the coordinator's epoch,
// taken once before the fork: CLOCK_MONOTONIC is system-wide, so a task
// born in one shard process and consumed in another reads one clock.
//
// What remains here is what is specific to the transport: the sockets, the
// control loop serving coordinator commands, and state shipping. The run is
// bit-identical to rt::Runtime (and therefore sim::Engine) for any shard
// count — which is precisely what lets the in-memory shadow convict a
// corrupted frame (see transport/shadow.hpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "collision/collision.hpp"
#include "core/params.hpp"
#include "obs/wire.hpp"
#include "rt/config.hpp"
#include "sim/counters.hpp"
#include "stats/histogram.hpp"
#include "transport/endpoint.hpp"
#include "transport/wire.hpp"

namespace clb::transport {

/// Everything a shard worker needs to run, distributed by the coordinator
/// in the kConfig handshake frame. Mirrors the supported subset of
/// rt::RtConfig plus the worker's own identity.
struct ShardRunConfig {
  std::uint64_t n = 1024;
  std::uint64_t seed = 1;
  std::uint32_t workers = 1;
  std::uint32_t index = 0;  ///< this worker's shard index
  bool deterministic = true;
  rt::RtPolicy policy = rt::RtPolicy::kThreshold;
  core::PhaseParams params{};
  collision::CollisionConfig game{};
  std::uint32_t spin_work = 0;
  bool track_sojourn = false;
  bool time_sojourn = false;
  /// Test-only fault injection: corrupt the k-th kTransfer message this
  /// worker serialises to a remote shard (1-based; 0 = off) by flipping the
  /// first payload task's birth_step low bit BEFORE the frame is signed —
  /// the CRC accepts it, all counters stay consistent, and only the
  /// shadow-fabric cross-check (queue identity / sojourn histogram) can
  /// convict it. The frame-corrupt mutation.
  std::uint64_t corrupt_transfer_frame = 0;
  /// Test-only fault injection: the last shard crosses one extra allgather
  /// (an empty blob) right after its k-th step (1-based; 0 = off), so its
  /// schedule runs one crossing ahead of its peers'. The next end-of-run
  /// mark exchange convicts it; placed mid-run, the crossings in between
  /// would hand the core blobs of another meaning first, so a test puts k
  /// at the last step of a run.
  std::uint64_t extra_crossing_step = 0;
  ModelSpec model{};

  /// The rt::RtConfig this shard's core runs under.
  [[nodiscard]] rt::RtConfig rt_config() const;

  void serialize(Writer& w) const;
  [[nodiscard]] static ShardRunConfig deserialize(Reader& r);
};

/// A worker's end-of-run state, shipped to the coordinator on kCollect.
/// Histograms travel as sparse (value, count) pairs.
struct ShardState {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  /// Storage of the queues deserialize() rebuilds; whoever keeps `procs`
  /// keeps this arena alive with them.
  std::unique_ptr<rt::TaskArena> arena = std::make_unique<rt::TaskArena>();
  std::vector<rt::RtProcessor> procs;  ///< [begin, end), protocol flags zeroed
  sim::MessageCounters msg;
  std::uint64_t clamped = 0;
  std::uint64_t deposited = 0;
  std::vector<rt::LedgerEntry> ledger;
  stats::IntHistogram sojourn_steps;
  stats::IntHistogram sojourn_us;
  /// The shard core's sojourn epoch (steady_clock ticks since the clock's
  /// zero); every shard's equals the coordinator's.
  std::int64_t epoch_ticks = 0;
  std::uint64_t running_max = 0;               ///< worker 0 only
  std::vector<rt::RtPhaseSummary> phases;      ///< worker 0 only
  /// The data links to the peers, with the crossings and their RTTs.
  obs::WireStats data_wire;
  /// The control link to the coordinator, up to the kState frame.
  obs::WireStats control_wire;

  void serialize(Writer& w) const;
  [[nodiscard]] static ShardState deserialize(Reader& r);
};

/// Entry point for a forked shard worker: performs the kConfig handshake on
/// `control`, builds the engine, acks, and serves coordinator commands
/// (kRun / kDeposit / kCollect) until kShutdown. `peers[i]` is the data
/// link to worker i (invalid at this worker's own index); `epoch` is the
/// coordinator's sojourn epoch, inherited across the fork. Never returns
/// normally — the caller _exit()s after it does.
void shard_worker_main(Endpoint control, std::vector<Endpoint> peers,
                       std::chrono::steady_clock::time_point epoch);

}  // namespace clb::transport
