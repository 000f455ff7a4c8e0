#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#ifdef __linux__
#include <sched.h>
#endif

#include "util/check.hpp"

namespace clb::util {

namespace {

// Worker ID of the current thread. Pool threads set this once at spawn;
// everything else (main thread, detached helpers) keeps the default 0.
thread_local unsigned t_worker_index = 0;

/// CPUs this process may run on: its affinity mask (what `taskset` sets),
/// capped by hardware_concurrency. Read once — hardware_concurrency() reads
/// sysfs on every call, a few microseconds per barrier construction.
unsigned usable_cpus() {
  static const unsigned cpus = [] {
    unsigned n = std::max(1u, std::thread::hardware_concurrency());
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
      n = std::min(n, static_cast<unsigned>(std::max(1, CPU_COUNT(&set))));
    }
#endif
    return n;
  }();
  return cpus;
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

std::pair<std::uint64_t, std::uint64_t> block_range(std::uint64_t count,
                                                    unsigned parts,
                                                    unsigned index) {
  const std::uint64_t base = count / parts;
  const std::uint64_t extra = count % parts;
  const std::uint64_t begin =
      index * base + std::min<std::uint64_t>(index, extra);
  const std::uint64_t size = base + (index < extra ? 1 : 0);
  return {begin, begin + size};
}

PhaseBarrier::PhaseBarrier(unsigned parties)
    : parties_(parties), spin_(parties <= usable_cpus()) {
  CLB_CHECK(parties >= 1, "PhaseBarrier needs at least one party");
}

void PhaseBarrier::arrive_and_wait() {
  // Our own last crossing saw this value, and it cannot advance until we
  // arrive, so a relaxed load reads the current cycle's generation.
  const std::uint32_t gen = generation_.load(std::memory_order_relaxed);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    // The next cycle's arrivals start only after they see the new
    // generation, so the reset is ordered before them.
    arrived_.store(0, std::memory_order_relaxed);
    // seq_cst store, then seq_cst load of parked_: paired with the waiter's
    // seq_cst increment-then-load below, at least one side sees the other,
    // so a waiter that parks on the old generation is always notified.
    generation_.store(gen + 1, std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_seq_cst) != 0) generation_.notify_all();
    return;
  }
  if (spin_) {
    for (unsigned i = 0; i < kSpinBudget; ++i) {
      if (generation_.load(std::memory_order_acquire) != gen) return;
      cpu_relax();
    }
  }
  parked_.fetch_add(1, std::memory_order_seq_cst);
  while (generation_.load(std::memory_order_seq_cst) == gen) {
    generation_.wait(gen, std::memory_order_acquire);
  }
  parked_.fetch_sub(1, std::memory_order_relaxed);
}

std::uint64_t PhaseBarrier::arrive_and_wait_timed() {
  const auto t0 = std::chrono::steady_clock::now();
  arrive_and_wait();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

ThreadPool::ThreadPool(unsigned workers) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  // The calling thread is worker 0; spawn the rest.
  threads_.reserve(workers - 1);
  for (unsigned i = 1; i < workers; ++i) {
    threads_.emplace_back([this, i] {
      t_worker_index = i;
      worker_loop(i);
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : threads_) t.join();
}

unsigned ThreadPool::worker_index() { return t_worker_index; }

void ThreadPool::bind_worker_index(unsigned index) { t_worker_index = index; }

void ThreadPool::parallel_for(
    std::uint64_t count,
    const std::function<void(std::uint64_t, std::uint64_t)>& body) {
  if (count == 0) return;
  const unsigned parts = worker_count();
  if (parts == 1 || count < 2 * parts) {
    body(0, count);
    return;
  }
  {
    std::lock_guard lock(mu_);
    CLB_CHECK(pending_ == 0, "nested parallel_for is not supported");
    job_.body = &body;
    job_.count = count;
    ++job_.generation;
    pending_ = parts - 1;
  }
  cv_start_.notify_all();

  auto [begin, end] = block_range(count, parts, 0);
  body(begin, end);

  std::unique_lock lock(mu_);
  cv_done_.wait(lock, [this] { return pending_ == 0; });
  job_.body = nullptr;
}

void ThreadPool::worker_loop(unsigned index) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(std::uint64_t, std::uint64_t)>* body = nullptr;
    std::uint64_t count = 0;
    {
      std::unique_lock lock(mu_);
      cv_start_.wait(lock, [&] {
        return stop_ || (job_.body != nullptr && job_.generation > seen_generation);
      });
      if (stop_) return;
      seen_generation = job_.generation;
      body = job_.body;
      count = job_.count;
    }
    auto [begin, end] = block_range(count, worker_count(), index);
    (*body)(begin, end);
    {
      std::lock_guard lock(mu_);
      if (--pending_ == 0) cv_done_.notify_one();
    }
  }
}

}  // namespace clb::util
