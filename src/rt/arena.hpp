// Cache-conscious task storage for the million-processor regime.
//
// At n = 2^20..2^24 the runtime's hot loop touches every processor's queue
// every step. With std::deque each queue is a separately malloc'd 512-byte
// chunk plus a chunk map — 2^20 pointer-chasing islands scattered across the
// heap, one cache miss per processor just to reach the FIFO. TaskArena fixes
// the *placement*: one bump allocator per worker shard, so the ring buffers
// of consecutive processors are laid out consecutively in memory and the
// sequential per-shard step loop walks the arena almost linearly. TaskQueue
// fixes the *layout*: a power-of-two ring holding the task record as SoA —
// birth_step / origin / weight / birth_us in four parallel contiguous
// arrays — so scans that need one field (load boards, weight sums) stream
// 4-byte lanes instead of 16-byte records.
//
// Every runtime queue uses this layout: the shard core (rt/shard_core.hpp)
// owns its shard's arena and grows every queue of its shard from it, and
// the transport's state shipping rebuilds queues in an arena that lives as
// long as they do. The FIFO contract (push_back at the tail,
// pop_front at the head, transfers extracted from the back) matches
// sim::FifoQueue, so ledgers, counters and phase logs are bit-identical to
// the simulator's.
//
// Threading: a queue (and its arena) is owned by the shard's worker; the
// leader's crash re-home and the main thread's deposit() run at barrier /
// between-run quiescent points, the same discipline RtProcessor already has.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "rt/message.hpp"
#include "util/check.hpp"

namespace clb::rt {

/// Bump allocator for one worker shard's queue storage. Never frees
/// individual allocations (rings are grow-only per run, like std::deque
/// chunks); memory is reclaimed when the arena dies with the runtime.
class TaskArena {
 public:
  explicit TaskArena(std::size_t chunk_bytes = 1u << 18)
      : chunk_bytes_(chunk_bytes) {}

  TaskArena(const TaskArena&) = delete;
  TaskArena& operator=(const TaskArena&) = delete;

  /// Returns `bytes` of 64-byte-aligned storage. Allocations within a chunk
  /// are contiguous in call order — the locality the file header describes.
  [[nodiscard]] std::byte* allocate(std::size_t bytes) {
    bytes = (bytes + 63) & ~std::size_t{63};
    if (bytes > static_cast<std::size_t>(end_ - cur_)) {
      const std::size_t chunk = bytes > chunk_bytes_ ? bytes : chunk_bytes_;
      chunks_.push_back(std::make_unique<std::byte[]>(chunk + 63));
      auto base = reinterpret_cast<std::uintptr_t>(chunks_.back().get());
      cur_ = reinterpret_cast<std::byte*>((base + 63) & ~std::uintptr_t{63});
      end_ = cur_ + chunk;
      bytes_reserved_ += chunk;
    }
    std::byte* p = cur_;
    cur_ += bytes;
    bytes_used_ += bytes;
    return p;
  }

  [[nodiscard]] std::size_t bytes_used() const { return bytes_used_; }
  [[nodiscard]] std::size_t bytes_reserved() const { return bytes_reserved_; }
  [[nodiscard]] std::size_t chunks() const { return chunks_.size(); }

 private:
  std::size_t chunk_bytes_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::byte* cur_ = nullptr;
  std::byte* end_ = nullptr;
  std::size_t bytes_used_ = 0;
  std::size_t bytes_reserved_ = 0;
};

/// FIFO task queue: a power-of-two SoA ring grown from its shard's arena.
/// head_ and tail_ are free-running counters masked on access, exactly like
/// sim::FifoQueue, so FIFO semantics match the simulator by construction.
/// An empty queue owns no storage, so a shard's queues construct as zeroed
/// memory.
class TaskQueue {
 public:
  TaskQueue() = default;

  TaskQueue(TaskQueue&&) = default;
  TaskQueue& operator=(TaskQueue&&) = default;
  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  [[nodiscard]] std::uint64_t size() const { return tail_ - head_; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// `arena` is the arena of the queue's shard: the ring lives in it, so it
  /// must outlive every use of the queue, and only the shard's owner may
  /// grow from it.
  void push_back(const RtTask& t, TaskArena& arena) {
    if (tail_ - head_ == mask_ + 1 || birth_step_ == nullptr) grow(arena);
    const std::uint64_t i = tail_ & mask_;
    birth_step_[i] = t.task.birth_step;
    origin_[i] = t.task.origin;
    weight_[i] = t.task.weight;
    birth_us_[i] = t.birth_us;
    ++tail_;
  }

  [[nodiscard]] RtTask operator[](std::uint64_t i) const {
    const std::uint64_t j = (head_ + i) & mask_;
    return RtTask{sim::Task{birth_step_[j], origin_[j], weight_[j]},
                  birth_us_[j]};
  }

  [[nodiscard]] RtTask front() const { return (*this)[0]; }

  void pop_front() {
    CLB_DCHECK(tail_ != head_, "pop_front on empty TaskQueue");
    ++head_;
  }

  /// Moves the newest `count` tasks (oldest-first among them, i.e. original
  /// relative order) into `out` — transfers always take from the back of
  /// the FIFO.
  void extract_back(std::uint64_t count, std::vector<RtTask>& out) {
    CLB_DCHECK(count <= size(), "extract_back past queue head");
    const std::uint64_t start = size() - count;
    for (std::uint64_t i = start; i < size(); ++i) out.push_back((*this)[i]);
    tail_ -= count;
  }

  void clear() { head_ = tail_ = 0; }

  /// Forward iteration yielding RtTask by value; supports the
  /// pre-existing `for (const rt::RtTask& t : proc.queue)` call sites — the
  /// const reference binds to the materialised temporary per iteration.
  class const_iterator {
   public:
    const_iterator(const TaskQueue* q, std::uint64_t i) : q_(q), i_(i) {}
    RtTask operator*() const { return (*q_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const TaskQueue* q_;
    std::uint64_t i_;
  };
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size()}; }

 private:
  void grow(TaskArena& arena) {
    const std::uint64_t cap = mask_ ? (mask_ + 1) * 2 : 8;
    // One bump allocation for all four lanes keeps a queue's SoA arrays on
    // adjacent cache lines.
    auto* block = reinterpret_cast<std::uint32_t*>(
        arena.allocate(cap * 4 * sizeof(std::uint32_t)));
    std::uint32_t* nb = block;
    std::uint32_t* no = block + cap;
    std::uint32_t* nw = block + 2 * cap;
    std::uint32_t* nu = block + 3 * cap;
    const std::uint64_t sz = tail_ - head_;
    for (std::uint64_t i = 0; i < sz; ++i) {
      const std::uint64_t j = (head_ + i) & mask_;
      nb[i] = birth_step_[j];
      no[i] = origin_[j];
      nw[i] = weight_[j];
      nu[i] = birth_us_[j];
    }
    birth_step_ = nb;
    origin_ = no;
    weight_ = nw;
    birth_us_ = nu;
    head_ = 0;
    tail_ = sz;
    mask_ = cap - 1;
  }

  // SoA ring. The lanes are views into arena storage.
  std::uint32_t* birth_step_ = nullptr;
  std::uint32_t* origin_ = nullptr;
  std::uint32_t* weight_ = nullptr;
  std::uint32_t* birth_us_ = nullptr;
  std::uint64_t mask_ = 0;
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
};

}  // namespace clb::rt
