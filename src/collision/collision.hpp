// The (n, beta, a, b, c)-collision protocol — Figure 1 of the paper.
//
// Originating in shared-memory simulations [MSS95], the protocol assigns
// queries to processors such that (1) no processor answers more than c
// queries and (2) at least b < a of each request's queries are answered.
//
// Per round:
//   * every unfinished request sends queries to the targets (from its fixed
//     set of `a` i.u.a.r. choices — no fresh randomness after round one)
//     that have not yet accepted;
//   * a processor receiving at most c queries this round — and with total
//     accepted capacity c remaining — accepts all of them and replies with
//     accept messages; otherwise it answers none (the collision effect);
//   * a request with >= b accumulated accepts cancels its remaining queries
//     and leaves the game.
//
// The paper runs log log n / log(c(a-b)) + 3 rounds and shows the result is
// a valid assignment w.h.p. This implementation stops early once every
// request has finished, and reports rounds/messages used so Lemma 1 and the
// O(n/a)-messages claim can be measured.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/trace.hpp"

namespace clb::collision {

struct CollisionConfig {
  std::uint32_t a = 5;  ///< queries per request
  std::uint32_t b = 2;  ///< accepted queries required per request
  std::uint32_t c = 1;  ///< collision value (acceptance capacity)
  /// Round budget; 0 means the paper's bound log2 log2 n / log2(c(a-b)) + 3.
  std::uint32_t max_rounds = 0;
  /// Optional trace sink (borrowed): run() emits one kCollisionRound event
  /// per round with the active-request and message counts.
  obs::TraceSink* trace = nullptr;
};

struct CollisionOutcome {
  /// True iff every request accumulated >= b accepts within the round budget.
  bool valid = false;
  std::uint32_t rounds_used = 0;
  std::uint64_t query_messages = 0;
  std::uint64_t accept_messages = 0;
  /// accepted[r] = processors that accepted request r's queries (|.| >= b on
  /// success; the order is the order of acceptance).
  std::vector<std::vector<std::uint32_t>> accepted;
  /// Cumulative queries each *touched* processor accepted; untouched
  /// processors are absent. Used to verify the <= c invariant.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> per_proc_accepts;
};

/// Draws request `slot`'s fixed target set: `a` distinct processors in
/// [0, n), excluding `requester`, written to out_targets[0..a). This is the
/// exact keying (CounterRng(seed, hash(salt, slot), requester)) and rejection
/// loop CollisionGame::run uses — exported so the message-passing runtime
/// (src/rt) reproduces the simulator's randomness bit-for-bit. `slot` is the
/// request's index in the requesters vector, NOT its processor id; callers
/// that shard requests across threads must agree on a global slot numbering.
void draw_targets(std::uint64_t n, std::uint64_t seed, std::uint64_t slot,
                  std::uint32_t requester, std::uint32_t a,
                  std::uint32_t* out_targets);

/// The seed of the collision game played at tree level `level` of threshold
/// phase `phase_index` in a run seeded `seed`. The one derivation every
/// executor of the threshold protocol (core::ThresholdBalancer and the rt
/// shard core) keys its games with, so their target draws agree.
[[nodiscard]] std::uint64_t phase_game_seed(std::uint64_t seed,
                                            std::uint64_t phase_index,
                                            std::uint32_t level);

/// The paper's round budget log2 log2 n / log2(c(a-b)) + 3 for this n and
/// config (32 when the analysis precondition c(a-b) >= 2 fails or n < 4).
/// cfg.max_rounds, when non-zero, overrides it.
[[nodiscard]] std::uint32_t round_bound(std::uint64_t n,
                                        const CollisionConfig& cfg);

/// One standalone collision game over `n` processors.
class CollisionGame {
 public:
  CollisionGame(std::uint64_t n, CollisionConfig cfg);

  /// Runs the protocol for the given requesters. `requesters[r]` is the
  /// processor originating request r; its own id is excluded from its random
  /// targets. `seed` keys all random choices; a fixed (seed, requesters)
  /// pair replays identically.
  CollisionOutcome run(const std::vector<std::uint32_t>& requesters,
                       std::uint64_t seed);

  /// Timestamp stamped onto trace events of subsequent run() calls (games
  /// are standalone, so the caller supplies the simulation step).
  void set_trace_time(std::uint64_t step) { trace_time_ = step; }

  /// The round budget the paper prescribes for this n and config.
  [[nodiscard]] std::uint32_t paper_round_bound() const;

  [[nodiscard]] const CollisionConfig& config() const { return cfg_; }

  /// Checks the paper's side conditions (1) and (2) on (a, b, c) for load
  /// fraction beta = requests/n; returns false when the analysis does not
  /// apply (the protocol still runs).
  [[nodiscard]] bool conditions_hold(double beta, double xi = 0.01) const;

 private:
  std::uint64_t n_;
  CollisionConfig cfg_;

  // Scratch reused across run() calls (stamp-based so no O(n) clears).
  std::vector<std::uint32_t> incoming_count_;
  std::vector<std::uint32_t> incoming_stamp_;
  std::vector<std::uint32_t> accepted_total_;
  std::vector<std::uint32_t> accepted_stamp_;
  std::uint32_t stamp_ = 0;
  std::uint64_t trace_time_ = 0;
};

}  // namespace clb::collision
