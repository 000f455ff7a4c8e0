#include "collision/collision.hpp"

#include <algorithm>
#include <cmath>

#include "rng/dist.hpp"
#include "rng/philox.hpp"
#include "rng/splitmix64.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace clb::collision {

namespace {
constexpr std::uint64_t kTargetSalt = 0x636F6C6C696465ULL;  // "collide"
constexpr std::uint64_t kGameSalt = 0x70686173656761ULL;    // "phasega"
}  // namespace

std::uint64_t phase_game_seed(std::uint64_t seed, std::uint64_t phase_index,
                              std::uint32_t level) {
  return rng::hash_combine(rng::hash_combine(seed, kGameSalt),
                           rng::hash_combine(phase_index, level));
}

CollisionGame::CollisionGame(std::uint64_t n, CollisionConfig cfg)
    : n_(n), cfg_(cfg) {
  CLB_CHECK(n_ >= 2, "collision game needs n >= 2");
  CLB_CHECK(cfg_.a >= 2, "collision game needs a >= 2");
  CLB_CHECK(cfg_.b >= 1 && cfg_.b < cfg_.a, "collision game needs 1 <= b < a");
  CLB_CHECK(cfg_.c >= 1, "collision game needs c >= 1");
  CLB_CHECK(cfg_.a < n_, "need a < n so distinct targets exist");
  incoming_count_.resize(n_, 0);
  incoming_stamp_.resize(n_, 0);
  accepted_total_.resize(n_, 0);
  accepted_stamp_.resize(n_, 0);
}

void draw_targets(std::uint64_t n, std::uint64_t seed, std::uint64_t slot,
                  std::uint32_t requester, std::uint32_t a,
                  std::uint32_t* out_targets) {
  rng::CounterRng rng(seed, rng::hash_combine(kTargetSalt, slot), requester);
  for (std::uint32_t j = 0; j < a; ++j) {
    for (;;) {
      const auto cand = static_cast<std::uint32_t>(rng::bounded(rng, n));
      if (cand == requester) continue;
      bool dup = false;
      for (std::uint32_t k = 0; k < j; ++k) {
        if (out_targets[k] == cand) {
          dup = true;
          break;
        }
      }
      if (!dup) {
        out_targets[j] = cand;
        break;
      }
    }
  }
}

std::uint32_t round_bound(std::uint64_t n, const CollisionConfig& cfg) {
  if (cfg.max_rounds != 0) return cfg.max_rounds;
  const std::uint64_t spread =
      static_cast<std::uint64_t>(cfg.c) * (cfg.a - cfg.b);
  if (spread < 2 || n < 4) {
    // The analysis requires c(a-b) >= 2; fall back to a generous linear
    // budget so the protocol still terminates deterministically.
    return 32;
  }
  const double rounds =
      util::log2log2(n) / std::log2(static_cast<double>(spread)) + 3.0;
  return static_cast<std::uint32_t>(std::ceil(rounds));
}

std::uint32_t CollisionGame::paper_round_bound() const {
  CollisionConfig no_override = cfg_;
  no_override.max_rounds = 0;
  return round_bound(n_, no_override);
}

bool CollisionGame::conditions_hold(double beta, double xi) const {
  // Condition (1) of the paper: c^2 (a-b) / (c+1) > 1 + xi.
  const double lhs = static_cast<double>(cfg_.c) * cfg_.c * (cfg_.a - cfg_.b) /
                     (static_cast<double>(cfg_.c) + 1.0);
  if (!(lhs > 1.0 + xi)) return false;
  // Structural requirements stated alongside the protocol: a in
  // [2, sqrt(log n)], request fraction beta < 1, and c(a-b) >= 2 so the
  // round bound's denominator is positive. (Condition (2) of the paper is
  // typographically corrupted in the source text; it constrains beta for
  // fixed (a, b, c) and is subsumed here by requiring beta < 1 — the
  // Lemma 1 parameters satisfy it for suitably small beta, which the
  // empirical EXP-01 sweep verifies directly.)
  // The paper's asymptotic precondition a <= sqrt(log n) is meaningless at
  // machine-sized n (sqrt(log2 2^16) = 4 would already exclude Lemma 1's
  // a = 5); we apply it with the customary constant slack a <= 2 sqrt(log n).
  if (cfg_.a < 2) return false;
  if (static_cast<double>(cfg_.a) * cfg_.a >
      4.0 * std::log2(static_cast<double>(n_)) + 1e-9) {
    return false;
  }
  if (!(beta < 1.0)) return false;
  return static_cast<std::uint64_t>(cfg_.c) * (cfg_.a - cfg_.b) >= 2;
}

CollisionOutcome CollisionGame::run(
    const std::vector<std::uint32_t>& requesters, std::uint64_t seed) {
  const std::size_t m = requesters.size();
  CollisionOutcome out;
  out.accepted.resize(m);
  const std::uint32_t max_rounds =
      cfg_.max_rounds ? cfg_.max_rounds : paper_round_bound();
  if (m == 0) {
    out.valid = true;
    return out;
  }

  const std::uint32_t a = cfg_.a;
  // Fixed random target sets: a distinct processors per request, excluding
  // the requester itself; no fresh randomness in later rounds (Figure 1).
  std::vector<std::uint32_t> targets(m * a);
  for (std::size_t r = 0; r < m; ++r) {
    draw_targets(n_, seed, r, requesters[r], a, targets.data() + r * a);
  }

  std::vector<std::uint32_t> accepted_mask(m, 0);  // bit j: target j accepted
  std::vector<std::uint32_t> accept_count(m, 0);
  std::vector<std::uint32_t> active(m);
  for (std::size_t r = 0; r < m; ++r) active[r] = static_cast<std::uint32_t>(r);

  // Per-run acceptance totals use a fresh stamp epoch so the scratch arrays
  // need no O(n) clearing between runs. Guard against (theoretical) stamp
  // wrap-around by resetting the arrays well before UINT32_MAX.
  if (stamp_ > 0xFFFF0000u) {
    std::fill(incoming_stamp_.begin(), incoming_stamp_.end(), 0u);
    std::fill(accepted_stamp_.begin(), accepted_stamp_.end(), 0u);
    stamp_ = 0;
  }
  const std::uint32_t run_epoch = ++stamp_;
  std::vector<std::uint32_t> run_touched;
  auto accepted_total = [&](std::uint32_t p) -> std::uint32_t {
    return accepted_stamp_[p] == run_epoch ? accepted_total_[p] : 0;
  };
  auto bump_accepted_total = [&](std::uint32_t p, std::uint32_t by) {
    if (accepted_stamp_[p] != run_epoch) {
      accepted_stamp_[p] = run_epoch;
      accepted_total_[p] = 0;
      run_touched.push_back(p);
    }
    accepted_total_[p] += by;
  };

  std::vector<std::uint32_t> touched;
  for (std::uint32_t round = 1; round <= max_rounds && !active.empty();
       ++round) {
    out.rounds_used = round;
    [[maybe_unused]] const std::uint64_t round_queries_before =
        out.query_messages;
    [[maybe_unused]] const std::uint64_t round_accepts_before =
        out.accept_messages;
    [[maybe_unused]] const std::size_t round_active = active.size();
    const std::uint32_t round_stamp = ++stamp_;
    touched.clear();

    // Pass 1: deliver queries, counting per-processor arrivals.
    for (const std::uint32_t r : active) {
      for (std::uint32_t j = 0; j < a; ++j) {
        if (accepted_mask[r] & (1u << j)) continue;
        const std::uint32_t p = targets[r * a + j];
        if (incoming_stamp_[p] != round_stamp) {
          incoming_stamp_[p] = round_stamp;
          incoming_count_[p] = 0;
          touched.push_back(p);
        }
        ++incoming_count_[p];
        ++out.query_messages;
      }
    }

    // Pass 2: each touched processor decides: accept all (collision value
    // not exceeded and capacity remains) or none. Encode the decision by
    // leaving incoming_count_ > 0 only for accepting processors.
    for (const std::uint32_t p : touched) {
      const std::uint32_t incoming = incoming_count_[p];
      const bool accepts =
          incoming <= cfg_.c && accepted_total(p) + incoming <= cfg_.c;
      if (accepts) {
        bump_accepted_total(p, incoming);
        out.accept_messages += incoming;
      } else {
        incoming_count_[p] = 0;
      }
    }

    // Pass 3: requests collect accepts; those with >= b leave the game.
    std::size_t w = 0;
    for (std::size_t idx = 0; idx < active.size(); ++idx) {
      const std::uint32_t r = active[idx];
      for (std::uint32_t j = 0; j < a; ++j) {
        if (accepted_mask[r] & (1u << j)) continue;
        const std::uint32_t p = targets[r * a + j];
        if (incoming_stamp_[p] == round_stamp && incoming_count_[p] > 0) {
          accepted_mask[r] |= (1u << j);
          ++accept_count[r];
          out.accepted[r].push_back(p);
        }
      }
      if (accept_count[r] < cfg_.b) active[w++] = r;
    }
    active.resize(w);
    CLB_TRACE_EVENT(cfg_.trace, obs::EventKind::kCollisionRound,
                    trace_time_, round, 0, round_active,
                    out.query_messages - round_queries_before,
                    out.accept_messages - round_accepts_before);
  }

  out.valid = active.empty();
  // Export per-processor acceptance totals for invariant checking; only the
  // processors actually touched are visited (the balancer runs one game per
  // tree level, so this must stay sublinear in n).
  out.per_proc_accepts.reserve(run_touched.size());
  for (const std::uint32_t p : run_touched) {
    out.per_proc_accepts.emplace_back(p, accepted_total_[p]);
  }
  return out;
}

}  // namespace clb::collision
