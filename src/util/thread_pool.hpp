// Fixed-size thread pool with a blocking parallel_for, plus the two
// primitives the concurrent runtime (src/rt) builds its supersteps from:
// a reusable phase barrier and stable per-thread worker IDs.
//
// The simulator's per-step work (task generation, query placement) is data
// parallel over processors. Per-processor counter-based RNG streams make the
// result independent of how the index range is split, so the engine is
// deterministic for any worker count — including the single-threaded
// fallback used when hardware_concurrency() == 1.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace clb::util {

/// Splits [0, count) into `parts` contiguous blocks; returns [begin, end) of
/// block `index`. Blocks differ in size by at most 1, and earlier blocks get
/// the larger sizes, so concatenating blocks 0..parts-1 walks [0, count) in
/// order. Both ThreadPool::parallel_for and the rt shard partition use this,
/// which is what makes "worker order = ascending processor order" a property
/// the runtime can rely on.
[[nodiscard]] std::pair<std::uint64_t, std::uint64_t> block_range(
    std::uint64_t count, unsigned parts, unsigned index);

/// Reusable cyclic barrier with std::barrier's core API (arrive_and_wait).
/// All `parties` threads wait until the last one arrives, then all proceed;
/// the barrier resets itself for the next cycle. Unlike std::barrier it is
/// copy-free to embed and has no completion function.
///
/// Arrival is one atomic increment; the last arriver resets the count and
/// bumps a generation word, which is what the others wait on. A waiter
/// spins on the generation for a fixed budget (kSpinBudget `pause`s, tens
/// of microseconds — longer than a lockstep superstep's usual skew), then
/// parks on std::atomic::wait. The releaser calls notify_all only when
/// someone is parked, so a crossing where everyone arrives within the
/// budget costs no system call at all. When the parties outnumber the CPUs
/// this process may run on (its affinity mask, capped by
/// hardware_concurrency), a waiter never spins: the thread it waits for may
/// need its CPU, so it parks at once — the oversubscribed case (CI runners,
/// `taskset -c 0`) behaves like a blocking barrier.
///
/// Every write made before arrive_and_wait() happens-before every read made
/// after it in any other party (acq_rel arrivals, a release of the
/// generation, acquire loads by the waiters). The rt runtime leans on that:
/// plain (non-atomic) per-worker slots published before a barrier are safe
/// to read after it.
class PhaseBarrier {
 public:
  /// Spin iterations before a waiter parks.
  static constexpr unsigned kSpinBudget = 1u << 12;

  explicit PhaseBarrier(unsigned parties);

  PhaseBarrier(const PhaseBarrier&) = delete;
  PhaseBarrier& operator=(const PhaseBarrier&) = delete;

  /// Blocks until all parties have arrived at this cycle.
  void arrive_and_wait();

  /// arrive_and_wait, returning the nanoseconds this thread spent inside
  /// the call (arrive -> release). The telemetry layer's barrier-stall
  /// accounting uses this; it costs two steady_clock reads on top of the
  /// plain wait, so callers should only pick it when they actually record
  /// the result.
  std::uint64_t arrive_and_wait_timed();

  [[nodiscard]] unsigned parties() const { return parties_; }

  /// True when waiters spin before parking (parties fit on the CPUs).
  [[nodiscard]] bool spins() const { return spin_; }

  /// Number of completed cycles (modulo 2^32). Only meaningful when the
  /// caller knows the barrier is quiescent (e.g. between rt run() commands);
  /// used by tests.
  [[nodiscard]] std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  const unsigned parties_;
  const bool spin_;
  alignas(64) std::atomic<unsigned> arrived_{0};
  // 32 bits: the width std::atomic::wait parks on natively (a futex word).
  alignas(64) std::atomic<std::uint32_t> generation_{0};
  std::atomic<unsigned> parked_{0};
};

class ThreadPool {
 public:
  /// Creates `workers` threads; 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned worker_count() const {
    return static_cast<unsigned>(threads_.size() + 1);  // workers + caller
  }

  /// Stable ID of the calling thread within its owning pool: the caller of
  /// parallel_for is worker 0, spawned threads are 1..worker_count()-1, and
  /// a given pool thread reports the same index for its whole lifetime (IDs
  /// are pinned at spawn, not assigned per job). Threads that belong to no
  /// pool — including the main thread — report 0, matching their role as
  /// "worker 0" when they call parallel_for.
  [[nodiscard]] static unsigned worker_index();

  /// Adopts the calling thread into the worker-ID scheme: worker_index()
  /// returns `index` for this thread from now on. For threads that behave
  /// like pool workers but are spawned elsewhere — rt::Runtime's shard
  /// threads bind their shard index at startup so trace events and
  /// telemetry they emit carry the right lane. Pool threads never need
  /// this (their ID is pinned at spawn).
  static void bind_worker_index(unsigned index);

  /// Runs body(begin, end) over [0, count) split into contiguous blocks, one
  /// per worker (the calling thread participates). Blocks until all finish.
  /// `body` must be safe to call concurrently on disjoint ranges. Inside
  /// `body`, worker_index() identifies the executing worker, and worker i
  /// always receives block i (block_range(count, worker_count(), i)).
  void parallel_for(std::uint64_t count,
                    const std::function<void(std::uint64_t, std::uint64_t)>& body);

 private:
  void worker_loop(unsigned index);

  struct Job {
    const std::function<void(std::uint64_t, std::uint64_t)>* body = nullptr;
    std::uint64_t count = 0;
    std::uint64_t generation = 0;
  };

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  Job job_;
  unsigned pending_ = 0;
  bool stop_ = false;
};

}  // namespace clb::util
