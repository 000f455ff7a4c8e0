// The per-process shard engine: one shard process's half of the
// cross-process runtime. It runs an rt::ShardCore — the same step schedule,
// protocol and determinism contract as rt::Runtime's worker threads — and
// implements the core's exchange seam over real sockets:
//
//   * send() serialises each message into one per-peer batch, flushed as a
//     single kBatch frame at every allgather (per-link FIFO order means a
//     drain that has consumed k batches from a peer has seen every message
//     that peer sent before its k-th allgather — the superstep quiescence
//     PhaseBarrier provides in one address space);
//   * allgather() is an explicit control-plane exchange with the
//     coordinator: kBarrier carries this shard's blob, kRelease returns all
//     shards' blobs.
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
  obs::WireStats wire;

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
