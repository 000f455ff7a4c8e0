// Lock-free MPSC mailbox and the message vocabulary of the concurrent
// runtime.
//
// Every worker owns exactly one mailbox; any worker (including the owner)
// may push, only the owner drains. It is Vyukov's intrusive queue: a push
// is one XCHG on the head plus one release store linking the predecessor,
// and a drain walks the links from the tail in push order. Every message
// carries the sender's barrier-crossing count, and a drain hands out only
// messages stamped before the drainer's own count — everything sent before
// its last crossing. A faster producer may already be pushing its next
// superstep's messages; those stay queued for the next drain, so the
// runtime drains without fencing its own sends.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "net/delivery.hpp"
#include "sim/task.hpp"
#include "util/check.hpp"

namespace clb::rt {

/// A task in flight through the runtime. Wraps the simulator's Task (so
/// equivalence checks compare the exact same identity triple) and adds the
/// wall-clock birth stamp free-running mode needs for sojourn latency.
struct RtTask {
  sim::Task task;
  std::uint32_t birth_us = 0;  ///< microseconds since Runtime construction
};

enum class MsgKind : std::uint8_t {
  kQuery,        ///< collision game: request slot queries a target
  kAccept,       ///< collision game: target accepted the query
  kChild,        ///< tree: parent node announces child q (coordination)
  kChildStatus,  ///< tree: child reports applicative / non-applicative
  kId,           ///< an applicative light sends its id to the root
  kForward,      ///< tree: child becomes a node at the next level
  kTransfer,     ///< T/4 tasks moving from a matched root to its light
  kScatter,      ///< all-in-air: one task thrown to a random processor
  kTransferCmd,  ///< latency fabric: delayed "ship the block" command,
                 ///< staged at the source owner, applied end of its due step
};

/// One runtime message. `key` is the message's canonical processing key —
/// a total order that depends only on protocol state (slots, tree edges),
/// never on which worker sent it or when it arrived — so deterministic mode
/// can sort a drained batch into a partition-invariant order. Field use per
/// kind (slots/edges are recovered from `key`):
///
///   kQuery        key = slot<<4 | j      a = target, b = requester proc
///   kAccept       key = slot<<4 | j      a = requester proc (routing)
///   kChild        key = g<<1 | s         a = child q, b = root, c = parent
///   kChildStatus  key = g<<1 | s         a = parent, b = applicative flag
///   kId           key = g<<1 | s         a = root, b = partner (light)
///   kForward      key = child slot       a = child proc, b = root
///   kTransfer     key = from             a = from, b = to, payload = tasks
///   kScatter      key = from<<32 | seq   a = from, b = to, payload = task
///
/// Latency mode (RtConfig::latency >= 1) runs the dist:: protocol instead;
/// its messages use the `from`/`to` endpoints, the delivery step `due`, and
/// the shared canonical `seq` stamp (net/delivery.hpp), with `a`/`b`
/// carrying the dist Message payloads (root/count, level/applicative).
struct Message {
  std::atomic<Message*> next{nullptr};  // intrusive MPSC link
  std::uint64_t crossing = 0;  // sender's barrier crossings at send time
  MsgKind kind = MsgKind::kQuery;
  std::uint64_t key = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::uint32_t from = 0;       // latency mode: protocol sender
  std::uint32_t to = 0;         // latency mode: protocol recipient
  std::uint64_t due = 0;        // latency mode: step the message matures
  net::SeqKey seq{};            // latency mode: canonical send position
  std::vector<RtTask> payload;  // kTransfer / kScatter only
};

/// Intrusive multi-producer single-consumer queue after Vyukov. The queue
/// does not own messages in steady state (producers allocate, the consumer
/// deletes after processing); the destructor deletes anything still queued.
class Mailbox {
 public:
  Mailbox() : head_(&stub_), tail_(&stub_) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  ~Mailbox() {
    drain(~std::uint64_t{0}, [](Message* m) { delete m; });
  }

  /// Wait-free from any thread.
  void push(Message* m) {
    m->next.store(nullptr, std::memory_order_relaxed);
    Message* prev = head_.exchange(m, std::memory_order_acq_rel);
    // Between the exchange and this store the chain is broken; drain()
    // waits out the window when it needs the link.
    prev->next.store(m, std::memory_order_release);
  }

  /// Owner thread only; safe against concurrent pushes. Invokes `f`, in
  /// push order, on every message stamped with a crossing below `crossing`
  /// and returns how many; later-stamped messages stay queued. A message
  /// sent before the sender's k-th barrier arrival is pushed and linked
  /// before any party returns from that barrier, and everything stamped k
  /// or later is pushed after, so after the drainer's k-th crossing the
  /// messages stamped below k are a fully linked prefix of the queue. `f`
  /// may delete the message.
  template <typename F>
  std::uint64_t drain(std::uint64_t crossing, F&& f) {
    std::uint64_t count = 0;
    for (;;) {
      Message* tail = tail_;
      Message* next = tail->next.load(std::memory_order_acquire);
      if (tail == &stub_) {
        if (next == nullptr) return count;  // empty
        tail_ = next;
        tail = next;
        next = next->next.load(std::memory_order_acquire);
      }
      if (tail->crossing >= crossing) return count;  // a later superstep's
      if (next == nullptr) {
        // `tail` is the last linked message. If it is also the last pushed,
        // re-insert the stub behind it so it can be handed out; otherwise
        // a producer is between its exchange and its link — wait for it.
        if (tail == head_.load(std::memory_order_acquire)) push(&stub_);
        while ((next = tail->next.load(std::memory_order_acquire)) ==
               nullptr) {
          std::this_thread::yield();
        }
      }
      tail_ = next;
      f(tail);
      ++count;
    }
  }

 private:
  alignas(64) std::atomic<Message*> head_;  // producers XCHG here
  alignas(64) Message* tail_;               // consumer-private cursor
  Message stub_;
};

}  // namespace clb::rt
