// The message vocabulary of the shard core's exchange (rt/shard_core.hpp):
// the task record every executor moves, the message kinds, and the message
// itself — a small trivially copyable value. Messages are copied into the
// exchange, never owned through it; the tasks a kTransfer or kScatter
// carries travel beside it (rt/outbox.hpp in process, the kBatch frame over
// the wire), not inside it.
#pragma once

#include <cstdint>
#include <type_traits>

#include "net/delivery.hpp"
#include "sim/task.hpp"

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

/// The kinds whose tasks travel with them; a drain applies them on arrival.
[[nodiscard]] constexpr bool carries_tasks(MsgKind k) {
  return k == MsgKind::kTransfer || k == MsgKind::kScatter;
}

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
///   kTransfer     key = from             a = from, b = to
///   kScatter      key = from<<32 | seq   a = from, b = to
///
/// A kTransfer or kScatter carries `task_count` tasks, sent and received
/// beside the message through the exchange seam.
///
/// Latency mode (RtConfig::latency >= 1) runs the dist:: protocol instead;
/// its messages use the `from`/`to` endpoints, the delivery step `due`, and
/// the shared canonical `seq` stamp (net/delivery.hpp), with `a`/`b`
/// carrying the dist Message payloads (root/count, level/applicative).
struct Message {
  std::uint64_t key = 0;
  std::uint64_t due = 0;  // latency mode: step the message matures
  net::SeqKey seq{};      // latency mode: canonical send position
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::uint32_t from = 0;  // latency mode: protocol sender
  std::uint32_t to = 0;    // latency mode: protocol recipient
  std::uint32_t task_count = 0;
  MsgKind kind = MsgKind::kQuery;
};

static_assert(std::is_trivially_copyable_v<Message>);

}  // namespace clb::rt
