#include "core/threshold_balancer.hpp"

#include <algorithm>

#include "obs/views.hpp"
#include "rng/dist.hpp"
#include "rng/philox.hpp"
#include "rng/splitmix64.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace clb::core {

namespace {
constexpr std::uint64_t kPreroundSalt = 0x707265726F756EULL; // "preroun"
}  // namespace

ThresholdBalancer::ThresholdBalancer(ThresholdBalancerConfig cfg)
    : cfg_(cfg) {
  CLB_CHECK(cfg_.params.n >= 4, "balancer params must be realised (from_n)");
  CLB_CHECK(cfg_.game.b >= 1 && cfg_.game.b <= 2,
            "query trees are binary: b must be 1 or 2");
}

void ThresholdBalancer::on_reset(sim::Engine& engine) {
  CLB_CHECK(engine.n() == cfg_.params.n,
            "balancer was parameterised for a different n");
  ensure_arrays(engine.n());
  collision::CollisionConfig game_cfg = cfg_.game;
  game_cfg.trace = cfg_.trace;
  game_ = std::make_unique<collision::CollisionGame>(engine.n(), game_cfg);
  last_phase_ = PhaseStats{};
  open_phase_ = PhaseStats{};
  phase_open_ = false;
  levels_run_ = 0;
  agg_ = AggregateStats{};
  requests_per_root_hist_.clear();
  phase_count_ = 0;
  streams_.clear();
}

void ThresholdBalancer::ensure_arrays(std::uint64_t n) {
  assign_stamp_.assign(n, 0);
  light_stamp_.assign(n, 0);
  matched_stamp_.assign(n, 0);
  matched_partner_.assign(n, 0);
  root_req_stamp_.assign(n, 0);
  root_req_count_.assign(n, 0);
  epoch_ = 0;
}

void ThresholdBalancer::bump_epoch() {
  if (epoch_ == 0xFFFFFFFFu) ensure_arrays(assign_stamp_.size());
  ++epoch_;
}

void ThresholdBalancer::on_step(sim::Engine& engine) {
  const bool phase_boundary = engine.step() % cfg_.params.phase_len == 0;
  if (phase_boundary) {
    if (phase_open_) finalize_phase(engine);
    begin_phase(engine);
    if (cfg_.execution == PhaseExecution::kAtomic) {
      run_levels(engine, cfg_.params.tree_depth);
      finalize_phase(engine);
    }
  }
  if (cfg_.execution == PhaseExecution::kSpread && phase_open_) {
    // Distribute the remaining levels evenly over the remaining phase steps.
    const std::uint64_t step_in_phase = engine.step() % cfg_.params.phase_len;
    const std::uint64_t steps_left = cfg_.params.phase_len - step_in_phase;
    const std::uint32_t levels_left = cfg_.params.tree_depth - levels_run_;
    if (levels_left > 0) {
      run_levels(engine,
                 static_cast<std::uint32_t>(
                     util::ceil_div(levels_left, steps_left)));
    }
  }
  if (cfg_.streaming_transfers) pump_streams(engine);
}

void ThresholdBalancer::issue_transfer(sim::Engine& engine,
                                       std::uint32_t root,
                                       std::uint32_t partner) {
  // In weight mode, transfer_amount is a weight budget: move the fewest
  // newest tasks whose cumulative weight reaches it.
  const auto count = static_cast<std::uint32_t>(
      cfg_.weight_based
          ? engine.transfer_count_for_weight(root, cfg_.params.transfer_amount)
          : cfg_.params.transfer_amount);
  if (count == 0) return;
  if (cfg_.streaming_transfers) {
    streams_.push_back(Stream{root, partner, count});
  } else {
    engine.schedule_transfer(root, partner, count);
  }
}

void ThresholdBalancer::pump_streams(sim::Engine& engine) {
  std::size_t w = 0;
  for (Stream& s : streams_) {
    engine.schedule_transfer(s.from, s.to, 1);
    if (--s.remaining > 0) streams_[w++] = s;
  }
  streams_.resize(w);
}

void ThresholdBalancer::begin_phase(sim::Engine& engine) {
  const std::uint64_t n = engine.n();
  const PhaseParams& pp = cfg_.params;
  bump_epoch();

  open_phase_ = PhaseStats{};
  open_phase_.phase_index = phase_count_++;
  open_phase_.start_step = engine.step();
  phase_attributed_msgs_ = 0;
  phase_open_ = true;
  levels_run_ = 0;

  // Classification (beginning-of-phase loads). Light-ness is snapshotted so
  // the spread execution keeps the paper's "at the beginning of the phase"
  // semantics even while loads drift.
  heavy_.clear();
  for (std::uint64_t p = 0; p < n; ++p) {
    const std::uint64_t load =
        cfg_.weight_based ? engine.weight_load(p) : engine.load(p);
    if (load >= pp.heavy_threshold) {
      heavy_.push_back(static_cast<std::uint32_t>(p));
    } else if (load <= pp.light_threshold) {
      set_light(static_cast<std::uint32_t>(p));
      ++open_phase_.num_light;
    }
  }
  open_phase_.num_heavy = heavy_.size();
  open_phase_.messages = engine.mutable_messages().protocol_total();
  CLB_TRACE_EVENT(cfg_.trace, obs::EventKind::kPhaseBegin, engine.step(), 0, 0,
                  open_phase_.phase_index, open_phase_.num_heavy,
                  open_phase_.num_light);

  nodes_.clear();
  if (heavy_.empty()) return;
  for (const std::uint32_t h : heavy_) engine.note_balance_initiation(h);

  if (cfg_.one_shot_preround) run_preround(engine);
  for (const std::uint32_t h : heavy_) {
    if (!matched(h)) nodes_.push_back(Node{h, h});
  }
}

void ThresholdBalancer::run_preround(sim::Engine& engine) {
  // §4.3 one-shot pre-round: each heavy sends one request to one i.u.a.r.
  // processor; a light processor hit by exactly one request balances
  // immediately. Satisfied heavies skip the tree search.
  const std::uint64_t n = engine.n();
  auto& msg = engine.mutable_messages();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> hits;  // (target, h)
  hits.reserve(heavy_.size());
  for (const std::uint32_t h : heavy_) {
    rng::CounterRng rng(engine.seed(), rng::hash_combine(kPreroundSalt, h),
                        open_phase_.phase_index);
    auto q = static_cast<std::uint32_t>(rng::bounded(rng, n));
    if (q == h) q = (q + 1) % static_cast<std::uint32_t>(n);
    ++msg.control;
    ++phase_attributed_msgs_;
    hits.emplace_back(q, h);
  }
  std::sort(hits.begin(), hits.end());
  for (std::size_t i = 0; i < hits.size();) {
    std::size_t j = i;
    while (j < hits.size() && hits[j].first == hits[i].first) ++j;
    const std::uint32_t q = hits[i].first;
    if (j - i == 1 && light_at_phase_start(q) && !assigned(q)) {
      set_assigned(q);
      ++msg.id_messages;
      ++phase_attributed_msgs_;
      const std::uint32_t h = hits[i].second;
      set_matched(h, q);
      issue_transfer(engine, h, q);
      ++open_phase_.preround_matched;
      CLB_TRACE_EVENT(cfg_.trace, obs::EventKind::kPreroundMatch,
                      engine.step(), h, q, open_phase_.phase_index);
    }
    i = j;
  }
}

void ThresholdBalancer::run_levels(sim::Engine& engine, std::uint32_t count) {
  const PhaseParams& pp = cfg_.params;
  auto& msg = engine.mutable_messages();
  const std::uint32_t b = cfg_.game.b;

  auto deliver_id = [&](std::uint32_t root, std::uint32_t partner) {
    ++msg.id_messages;
    ++phase_attributed_msgs_;
    CLB_TRACE_EVENT(cfg_.trace, obs::EventKind::kIdMessage, engine.step(),
                    root, partner, open_phase_.phase_index, levels_run_);
    if (!matched(root)) {
      set_matched(root, partner);
      issue_transfer(engine, root, partner);
    }
  };

  for (std::uint32_t l = 0; l < count && levels_run_ < pp.tree_depth &&
                            !nodes_.empty();
       ++l) {
    const std::uint32_t level = ++levels_run_;
    open_phase_.levels_used = level;
    open_phase_.requests += nodes_.size();
    requesters_.clear();
    for (const Node& node : nodes_) {
      requesters_.push_back(node.proc);
      if (root_req_stamp_[node.root] != epoch_) {
        root_req_stamp_[node.root] = epoch_;
        root_req_count_[node.root] = 0;
      }
      ++root_req_count_[node.root];
    }

    const std::uint64_t game_seed = collision::phase_game_seed(
        engine.seed(), open_phase_.phase_index, level);
    game_->set_trace_time(engine.step());
    const auto outcome = game_->run(requesters_, game_seed);
    open_phase_.collision_rounds += outcome.rounds_used;
    msg.queries += outcome.query_messages;
    msg.accepts += outcome.accept_messages;
    phase_attributed_msgs_ += outcome.query_messages + outcome.accept_messages;
    CLB_TRACE_EVENT(cfg_.trace, obs::EventKind::kTreeLevel, engine.step(),
                    level, 0, nodes_.size(), outcome.rounds_used,
                    outcome.query_messages + outcome.accept_messages);

    next_nodes_.clear();
    for (std::size_t idx = 0; idx < nodes_.size(); ++idx) {
      const std::uint32_t root = nodes_[idx].root;
      const auto& children = outcome.accepted[idx];
      if (children.size() < b) ++open_phase_.failed_requests;

      bool applicative[2] = {false, false};
      const std::size_t k = std::min<std::size_t>(children.size(), 2);
      for (std::size_t j = 0; j < k; ++j) {
        const std::uint32_t q = children[j];
        if (light_at_phase_start(q) && !assigned(q)) {
          applicative[j] = true;
          set_assigned(q);
          deliver_id(root, q);
        }
      }
      // Sibling rule: children forward the search only when both are
      // non-applicative (checked via the parent: two control messages).
      if (k == 2 && !applicative[0] && !applicative[1]) {
        msg.control += 2;
        phase_attributed_msgs_ += 2;
        if (!cfg_.prune_satisfied || !matched(root)) {
          next_nodes_.push_back(Node{children[0], root});
          next_nodes_.push_back(Node{children[1], root});
        }
      } else if (k == 1 && !applicative[0]) {
        // Degenerate request (fewer than b accepts): the lone child is
        // treated as having a non-applicative sibling.
        if (!cfg_.prune_satisfied || !matched(root)) {
          next_nodes_.push_back(Node{children[0], root});
        }
      }
    }
    nodes_.swap(next_nodes_);
  }
}

void ThresholdBalancer::finalize_phase(sim::Engine& engine) {
  if (!phase_open_) return;
  // Phase boundaries are a cold path: the always-on conservation check costs
  // one O(n) counter scan per phase, nothing per step (the per-step variant
  // in Engine::step_once is debug-only).
  engine.check_conservation();
  for (const std::uint32_t h : heavy_) {
    if (matched(h)) {
      ++open_phase_.matched_heavy;
    } else {
      ++open_phase_.unmatched_heavy;
    }
    // Lemma 7 histogram: collision-game requests charged to this root.
    const std::uint64_t reqs =
        root_req_stamp_[h] == epoch_ ? root_req_count_[h] : 0;
    requests_per_root_hist_.add(reqs);
  }
  open_phase_.messages =
      engine.mutable_messages().protocol_total() - open_phase_.messages;
  // Accounting-drift guard: everything this balancer charged to the phase
  // must equal the global protocol-counter delta over the same window. A
  // mismatch means some call site bumped MessageCounters without phase
  // attribution (or vice versa), which would silently corrupt the §1.2
  // messages-per-phase measurements.
  CLB_DCHECK(open_phase_.messages == phase_attributed_msgs_,
             "per-phase message attribution drifted from global counters");
  CLB_TRACE_EVENT(cfg_.trace, obs::EventKind::kPhaseEnd, engine.step(), 0, 0,
                  open_phase_.phase_index, open_phase_.matched_heavy,
                  open_phase_.unmatched_heavy);
  if (cfg_.metrics != nullptr) obs::record_phase(*cfg_.metrics, open_phase_);
  last_phase_ = open_phase_;
  agg_.absorb(open_phase_);
  phase_open_ = false;
}

}  // namespace clb::core
