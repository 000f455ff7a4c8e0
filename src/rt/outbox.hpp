// The in-process exchange of rt::Runtime: per-(sender, destination)
// message batches written by value into storage that never moves.
//
// Every worker owns one Outbox per destination worker, itself included.
// Within a step an outbox is append-only: send() copies the message into
// the next slot of a chunked message stream and the tasks a kTransfer or
// kScatter carries into a chunked task stream beside it. Chunks are kept
// from step to step, so after the first steps a send allocates nothing.
//
// Exactness. Before each barrier arrival the owner seals every outbox: it
// records the outbox's message count in the slot of the crossing's parity.
// A destination that has crossed barrier k reads the parity-k seal and
// takes, from its cursor, exactly the messages sent before the sender's
// k-th arrival — everything sent before the drainer's last crossing. The
// barrier orders those writes before the read, so neither the messages nor
// the seal are atomics. A faster sender meanwhile appends its next
// superstep's messages past the seal, into slots the drain never reads,
// and rewrites the parity-k seal only at arrival k + 2 — after the
// drainer's arrival k + 1, which follows its drains.
//
// Reset. The owner rewinds its outboxes and each destination resets its
// cursors at step start. Every drain of a step precedes the step's closing
// allgather, so no one reads an outbox while it is rewound.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "rt/message.hpp"
#include "util/check.hpp"

namespace clb::rt {

/// An append-only stream of T in chunks that never move. append(n) returns
/// n contiguous slots; a reader that replays the same run lengths from a
/// Cursor finds each run where it was written. rewind() starts the stream
/// over in the chunks it already has.
template <typename T>
class ChunkStream {
  struct Chunk {
    explicit Chunk(std::size_t n)
        : cap(n), data(std::make_unique<T[]>(n)) {}
    std::size_t cap;
    std::unique_ptr<T[]> data;
    std::unique_ptr<Chunk> next;
  };

 public:
  static constexpr std::size_t kFirstChunk = 64;
  static constexpr std::size_t kMaxChunk = 4096;

  /// A reader's position; a default Cursor is at the start of the stream.
  struct Cursor {
    const Chunk* chunk = nullptr;
    std::size_t pos = 0;
  };

  /// Writer only.
  [[nodiscard]] T* append(std::size_t n) {
    // A run never straddles chunks: when it does not fit, it starts the
    // next chunk, which is inserted (never resized) when missing or small.
    if (cur_ == nullptr) {
      if (head_ == nullptr || head_->cap < n) {
        head_ = insert(std::move(head_), n, kFirstChunk);
      }
      cur_ = head_.get();
      pos_ = 0;
    } else if (pos_ + n > cur_->cap) {
      if (cur_->next == nullptr || cur_->next->cap < n) {
        cur_->next = insert(std::move(cur_->next), n, 2 * cur_->cap);
      }
      cur_ = cur_->next.get();
      pos_ = 0;
    }
    T* p = cur_->data.get() + pos_;
    pos_ += n;
    return p;
  }

  /// Writer only, while no reader is inside the stream.
  void rewind() { cur_ = nullptr; }

  /// The next run of `n` slots at `c`, by append()'s placement rule.
  [[nodiscard]] const T* read(Cursor& c, std::size_t n) const {
    if (c.chunk == nullptr) {
      c.chunk = head_.get();
      c.pos = 0;
    } else if (c.pos + n > c.chunk->cap) {
      c.chunk = c.chunk->next.get();
      c.pos = 0;
    }
    const T* p = c.chunk->data.get() + c.pos;
    c.pos += n;
    return p;
  }

 private:
  static std::unique_ptr<Chunk> insert(std::unique_ptr<Chunk> rest,
                                       std::size_t n, std::size_t want) {
    auto c = std::make_unique<Chunk>(std::max(n, std::min(want, kMaxChunk)));
    c->next = std::move(rest);
    return c;
  }

  std::unique_ptr<Chunk> head_;
  Chunk* cur_ = nullptr;  // null: rewound, the next run starts at head_
  std::size_t pos_ = 0;
};

/// One sender's messages for one destination (see file header).
class alignas(64) Outbox {
 public:
  /// A destination's read position in one sender's outbox.
  struct Cursor {
    ChunkStream<Message>::Cursor msgs;
    ChunkStream<RtTask>::Cursor tasks;
    std::uint64_t taken = 0;
  };

  /// Owner only: appends `m` and the tasks it carries.
  void push(const Message& m, std::span<const RtTask> tasks) {
    Message* slot = msgs_.append(1);
    *slot = m;
    slot->task_count = static_cast<std::uint32_t>(tasks.size());
    if (!tasks.empty()) {
      std::copy(tasks.begin(), tasks.end(), tasks_.append(tasks.size()));
    }
    ++count_;
  }

  /// Owner only, before arriving at its `crossing`-th barrier crossing.
  void seal(std::uint64_t crossing) { sealed_[crossing & 1] = count_; }

  /// Owner only, at step start.
  void reset() {
    msgs_.rewind();
    tasks_.rewind();
    count_ = 0;
  }

  /// Destination only, after its `crossing`-th crossing and after
  /// resetting `c` at this step's start: calls f(message, tasks) in send
  /// order on every message sealed at that crossing and not yet taken, and
  /// returns how many.
  template <typename F>
  std::uint64_t drain(Cursor& c, std::uint64_t crossing, F&& f) const {
    const std::uint64_t end = sealed_[crossing & 1];
    CLB_DCHECK(end >= c.taken, "outbox cursor ahead of the seal");
    const std::uint64_t n = end - c.taken;
    for (; c.taken < end; ++c.taken) {
      const Message& m = *msgs_.read(c.msgs, 1);
      const RtTask* tasks =
          m.task_count == 0 ? nullptr : tasks_.read(c.tasks, m.task_count);
      f(m, std::span<const RtTask>(tasks, m.task_count));
    }
    return n;
  }

 private:
  ChunkStream<Message> msgs_;
  ChunkStream<RtTask> tasks_;
  std::uint64_t count_ = 0;
  std::uint64_t sealed_[2] = {};
};

}  // namespace clb::rt
