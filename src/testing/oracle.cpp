#include "testing/oracle.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>

#include "collision/collision.hpp"
#include "core/threshold_balancer.hpp"
#include "rng/dist.hpp"
#include "rng/philox.hpp"

namespace clb::testing {

namespace {

/// Task identity: (birth_step, origin). Weight is checked separately via
/// weight_load consistency because generated weights are model-internal
/// randomness the oracle does not re-derive.
struct TaskId {
  std::uint32_t birth = 0;
  std::uint32_t origin = 0;

  friend bool operator==(const TaskId&, const TaskId&) = default;
  friend auto operator<=>(const TaskId&, const TaskId&) = default;
};

std::string fmt(const char* f, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, args...);
  return buf;
}

/// Full-state fingerprint for the determinism check: every queue's exact
/// contents plus all counters. Any divergence between two runs of the same
/// scenario shows up here.
std::string fingerprint(const sim::Engine& e) {
  std::string out;
  out.reserve(4096);
  for (std::uint64_t p = 0; p < e.n(); ++p) {
    const auto& proc = e.processor(p);
    out += fmt("p%llu g%llu c%llu w%llu s%llu r%llu:",
               static_cast<unsigned long long>(p),
               static_cast<unsigned long long>(proc.generated),
               static_cast<unsigned long long>(proc.consumed),
               static_cast<unsigned long long>(proc.weight_load),
               static_cast<unsigned long long>(proc.tasks_sent),
               static_cast<unsigned long long>(proc.tasks_received));
    for (std::uint64_t i = 0; i < proc.queue.size(); ++i) {
      const sim::Task& t = proc.queue.at(i);
      out += fmt("(%u,%u,%u)", t.birth_step, t.origin, t.weight);
    }
    out += '\n';
  }
  const auto& m = e.messages();
  out += fmt("msg q%llu a%llu i%llu c%llu t%llu tm%llu clamp%llu\n",
             static_cast<unsigned long long>(m.queries),
             static_cast<unsigned long long>(m.accepts),
             static_cast<unsigned long long>(m.id_messages),
             static_cast<unsigned long long>(m.control),
             static_cast<unsigned long long>(m.transfers),
             static_cast<unsigned long long>(m.tasks_moved),
             static_cast<unsigned long long>(e.clamped_transfers()));
  return out;
}

/// Applies the scenario's fault deposits for `step` to the engine and, when
/// `shadow` is non-null, mirrors them into the oracle's shadow queues.
void apply_faults(const Scenario& s, sim::Engine& engine, std::uint64_t step,
                  std::vector<std::deque<TaskId>>* shadow) {
  for (const FaultEvent& ev : s.faults) {
    if (ev.step != step) continue;
    for (std::uint32_t i = 0; i < ev.tasks; ++i) {
      engine.deposit(ev.proc, sim::Task{static_cast<std::uint32_t>(step),
                                        ev.proc, 1});
      if (shadow != nullptr) {
        (*shadow)[ev.proc].push_back(
            TaskId{static_cast<std::uint32_t>(step), ev.proc});
      }
    }
  }
}

/// Installs the scenario's mutation as a post-capture hook. The hook keeps
/// trying from mutation_step onwards until the machine state lets the
/// mutation bite (e.g. drop needs a non-empty queue), then disarms.
void arm_mutation(const Scenario& s, CaptureBalancer& cap, bool* applied) {
  if (s.mutation == MutationKind::kNone) return;
  cap.set_post_capture_hook([&s, applied](sim::Engine& e) {
    if (*applied || e.step() < s.mutation_step) return;
    switch (s.mutation) {
      case MutationKind::kNone:
        break;
      case MutationKind::kDropTask:
        for (std::uint64_t p = 0; p < e.n(); ++p) {
          if (e.load(p) > 0) {
            e.steal_newest_for_test(static_cast<std::uint32_t>(p));
            *applied = true;
            return;
          }
        }
        break;
      case MutationKind::kDupTask:
        for (std::uint64_t p = 0; p < e.n(); ++p) {
          if (e.load(p) > 0) {
            // Deliver the newest task a second time; deposit() books it, so
            // count-based conservation still balances.
            e.deposit(static_cast<std::uint32_t>(p),
                      e.processor(p).queue.back());
            *applied = true;
            return;
          }
        }
        break;
      case MutationKind::kReorder:
        for (std::uint64_t p = 0; p < e.n(); ++p) {
          const auto& q = e.processor(p).queue;
          if (q.size() < 2) continue;
          const sim::Task& a = q.at(0);
          const sim::Task& b = q.at(q.size() - 1);
          if (a.birth_step == b.birth_step && a.origin == b.origin) continue;
          e.swap_queue_entries_for_test(static_cast<std::uint32_t>(p), 0,
                                        q.size() - 1);
          *applied = true;
          return;
        }
        break;
      case MutationKind::kPhantomMessage:
        // Lands between this phase's finalisation and the next begin, so it
        // escapes every per-phase attribution window.
        e.mutable_messages().control += 1;
        *applied = true;
        break;
      case MutationKind::kMailboxDrop:
      case MutationKind::kCrashLoseQueue:
      case MutationKind::kStaleFreeLunch:
        // Runtime-only faults; the fuzzer routes them through
        // run_rt_scenario (rt_oracle.cpp), so the engine hook never sees
        // them.
        break;
      case MutationKind::kDelaySkew:
      case MutationKind::kLinkLossNoRetransmit:
      case MutationKind::kDupDelivery:
      case MutationKind::kStealDuplicateTask:
        // Applied inside rt_oracle.cpp / fuzzer.cpp, not by an engine hook.
        break;
    }
  });
}

/// Runs the scenario start to finish with no checks; used for the
/// determinism replay (the checked run already validated the invariants).
std::string replay_fingerprint(const Scenario& s, unsigned threads) {
  ScenarioRuntime rt = build_runtime(s);
  sim::EngineConfig ec;
  ec.n = s.n;
  ec.seed = s.engine_seed;
  ec.threads = threads;
  ec.liveness = rt.liveness.get();
  sim::Engine engine(ec, rt.model.get(), rt.balancer.get());
  for (std::uint64_t step = 0; step < s.steps; ++step) {
    apply_faults(s, engine, step, nullptr);
    engine.step_once();
  }
  return fingerprint(engine);
}

}  // namespace

OracleReport run_engine_scenario(const Scenario& s) {
  ScenarioRuntime rt = build_runtime(s);
  CaptureBalancer cap(rt.balancer.get());
  bool mutation_applied = false;
  arm_mutation(s, cap, &mutation_applied);

  sim::EngineConfig ec;
  ec.n = s.n;
  ec.seed = s.engine_seed;
  ec.threads = s.threads;
  ec.liveness = rt.liveness.get();
  sim::Engine engine(ec, rt.model.get(), &cap);

  // AllInAir redistributes through drain_all/deposit, outside the transfer
  // API — exact per-queue prediction is impossible, so the oracle degrades
  // to multiset identity and resyncs the shadow from reality each step.
  const bool strict = s.balancer != BalancerKind::kAllInAir;

  std::vector<std::deque<TaskId>> shadow(s.n);
  std::vector<std::uint64_t> gen_before(s.n), con_before(s.n);

  // The whole check body runs inside an IIFE so every early failure return
  // still gets mutation_applied stamped on (the hook fires mid-loop, after
  // some failure exits would already have been taken).
  OracleReport rep = [&]() -> OracleReport {
  OracleReport ok_rep;

  for (std::uint64_t step = 0; step < s.steps; ++step) {
    apply_faults(s, engine, step, &shadow);
    for (std::uint64_t p = 0; p < s.n; ++p) {
      gen_before[p] = engine.processor(p).generated;
      con_before[p] = engine.processor(p).consumed;
    }

    engine.step_once();

    // Crash re-home runs at the top of the engine step, before generation
    // and consumption: the crashed queue moves FIFO-whole onto the re-home
    // target's back. Mirror that into the shadow first.
    if (rt.liveness != nullptr && rt.liveness->crash_step(step)) {
      for (const std::uint32_t c : rt.liveness->crashes_at(step)) {
        auto& src = shadow[c];
        auto& dst = shadow[rt.liveness->rehome_target(c, step)];
        dst.insert(dst.end(), src.begin(), src.end());
        src.clear();
      }
    }

    // Predict generation and consumption from the lifetime-counter deltas
    // (stateful models — Adversarial, OnOff — cannot be re-queried).
    // Within a processor-step the engine generates first, then consumes
    // from the front.
    for (std::uint64_t p = 0; p < s.n; ++p) {
      const std::uint64_t gen = engine.processor(p).generated - gen_before[p];
      const std::uint64_t con = engine.processor(p).consumed - con_before[p];
      for (std::uint64_t i = 0; i < gen; ++i) {
        shadow[p].push_back(TaskId{static_cast<std::uint32_t>(step),
                                   static_cast<std::uint32_t>(p)});
      }
      if (con > shadow[p].size()) {
        return OracleReport::failure(
            step, fmt("proc %llu consumed %llu tasks but only %zu were "
                      "queued",
                      static_cast<unsigned long long>(p),
                      static_cast<unsigned long long>(con),
                      shadow[p].size()));
      }
      shadow[p].erase(shadow[p].begin(),
                      shadow[p].begin() + static_cast<std::ptrdiff_t>(con));
    }

    if (strict) {
      // Replay the captured transfers against the shadow, exactly like
      // Engine::apply_transfers: newest `count` tasks, old order preserved,
      // clamped to the sender's load at application time.
      for (const sim::Transfer& t : cap.captured()) {
        auto& src = shadow[t.from];
        auto& dst = shadow[t.to];
        const std::uint64_t count =
            std::min<std::uint64_t>(t.count, src.size());
        const auto first = src.end() - static_cast<std::ptrdiff_t>(count);
        dst.insert(dst.end(), first, src.end());
        src.erase(first, src.end());
      }
      for (std::uint64_t p = 0; p < s.n; ++p) {
        const auto& q = engine.processor(p).queue;
        if (q.size() != shadow[p].size()) {
          return OracleReport::failure(
              step,
              fmt("task conservation by identity: proc %llu has %llu "
                  "queued tasks, oracle predicted %zu",
                  static_cast<unsigned long long>(p),
                  static_cast<unsigned long long>(q.size()),
                  shadow[p].size()));
        }
        for (std::uint64_t i = 0; i < q.size(); ++i) {
          const sim::Task& t = q.at(i);
          if (TaskId{t.birth_step, t.origin} != shadow[p][i]) {
            return OracleReport::failure(
                step,
                fmt("FIFO order violated: proc %llu position %llu holds "
                    "task (birth=%u origin=%u), oracle predicted "
                    "(birth=%u origin=%u)",
                    static_cast<unsigned long long>(p),
                    static_cast<unsigned long long>(i), t.birth_step,
                    t.origin, shadow[p][i].birth, shadow[p][i].origin));
          }
        }
      }
    } else {
      // Multiset identity: the global bag of task identities must match.
      std::vector<TaskId> expect, actual;
      for (std::uint64_t p = 0; p < s.n; ++p) {
        expect.insert(expect.end(), shadow[p].begin(), shadow[p].end());
        const auto& q = engine.processor(p).queue;
        for (std::uint64_t i = 0; i < q.size(); ++i) {
          const sim::Task& t = q.at(i);
          actual.push_back(TaskId{t.birth_step, t.origin});
        }
      }
      std::sort(expect.begin(), expect.end());
      std::sort(actual.begin(), actual.end());
      if (expect != actual) {
        return OracleReport::failure(
            step, fmt("task conservation by identity (multiset): %zu tasks "
                      "expected, %zu queued, or identities differ",
                      expect.size(), actual.size()));
      }
      // Resync for next step's consumption prediction.
      for (std::uint64_t p = 0; p < s.n; ++p) {
        shadow[p].clear();
        const auto& q = engine.processor(p).queue;
        for (std::uint64_t i = 0; i < q.size(); ++i) {
          const sim::Task& t = q.at(i);
          shadow[p].push_back(TaskId{t.birth_step, t.origin});
        }
      }
    }

    // Weight accounting: the cached weight_load must equal the sum of the
    // queued tasks' weights.
    for (std::uint64_t p = 0; p < s.n; ++p) {
      const auto& q = engine.processor(p).queue;
      std::uint64_t w = 0;
      for (std::uint64_t i = 0; i < q.size(); ++i) w += q.at(i).weight;
      if (w != engine.weight_load(p)) {
        return OracleReport::failure(
            step, fmt("weight accounting drift on proc %llu: cached %llu, "
                      "queue sums to %llu",
                      static_cast<unsigned long long>(p),
                      static_cast<unsigned long long>(engine.weight_load(p)),
                      static_cast<unsigned long long>(w)));
      }
    }

    if (!engine.conservation_holds()) {
      return OracleReport::failure(
          step, "count conservation violated: generated + deposited != "
                "consumed + queued + drained");
    }
  }

  // Per-phase message attribution: every protocol message the engine
  // counted must have been attributed to some finalised phase. Only
  // meaningful for the threshold balancer with no phase left open.
  if (auto* tb = dynamic_cast<core::ThresholdBalancer*>(rt.balancer.get())) {
    if (!tb->phase_open() &&
        tb->aggregate().total_messages != engine.messages().protocol_total()) {
      return OracleReport::failure(
          s.steps,
          fmt("message attribution mismatch: phases account for %llu "
              "protocol messages, engine counted %llu",
              static_cast<unsigned long long>(tb->aggregate().total_messages),
              static_cast<unsigned long long>(
                  engine.messages().protocol_total())));
    }
  }

  // Determinism: an unmutated scenario must replay bit-identically under a
  // different thread-pool size.
  if (s.mutation == MutationKind::kNone &&
      fingerprint(engine) != replay_fingerprint(s, s.threads_replay)) {
    return OracleReport::failure(
        s.steps, fmt("nondeterminism: replay with %u threads diverged from "
                     "the %u-thread run",
                     s.threads_replay, s.threads));
  }
  return ok_rep;
  }();
  rep.mutation_applied = mutation_applied;
  return rep;
}

OracleReport run_collision_scenario(const Scenario& s) {
  collision::CollisionConfig cfg{s.a, s.b, s.c, 0};
  collision::CollisionGame game(s.n, cfg);

  // Distinct requesters via a seeded partial Fisher-Yates shuffle.
  const std::uint64_t k = std::min<std::uint64_t>(s.collision_requests, s.n);
  std::vector<std::uint32_t> procs(s.n);
  for (std::uint64_t i = 0; i < s.n; ++i) {
    procs[i] = static_cast<std::uint32_t>(i);
  }
  rng::CounterRng rng(s.engine_seed, 0xC0111D, 0);
  for (std::uint64_t i = 0; i < k; ++i) {
    const std::uint64_t j = i + rng::bounded(rng, s.n - i);
    std::swap(procs[i], procs[j]);
  }
  std::vector<std::uint32_t> reqs(procs.begin(),
                                  procs.begin() + static_cast<std::ptrdiff_t>(k));

  const collision::CollisionOutcome o = game.run(reqs, s.engine_seed);

  if (o.accepted.size() != reqs.size()) {
    return OracleReport::failure(
        0, fmt("outcome has %zu accept lists for %zu requests",
               o.accepted.size(), reqs.size()));
  }
  std::uint64_t accepts_total = 0;
  for (std::size_t r = 0; r < reqs.size(); ++r) {
    const auto& acc = o.accepted[r];
    accepts_total += acc.size();
    if (o.valid && acc.size() < s.b) {
      return OracleReport::failure(
          0, fmt("protocol reported success but request %zu has only %zu "
                 "accepts (b=%u)",
                 r, acc.size(), s.b));
    }
    std::vector<std::uint32_t> sorted = acc;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return OracleReport::failure(
          0, fmt("request %zu was accepted twice by the same processor", r));
    }
    for (std::uint32_t p : acc) {
      if (p >= s.n) {
        return OracleReport::failure(
            0, fmt("request %zu accepted by out-of-range processor %u", r, p));
      }
      if (p == reqs[r]) {
        return OracleReport::failure(
            0, fmt("request %zu accepted by its own originator %u", r, p));
      }
    }
  }
  std::uint64_t per_proc_total = 0;
  for (const auto& [p, cnt] : o.per_proc_accepts) {
    per_proc_total += cnt;
    if (cnt > s.c) {
      return OracleReport::failure(
          0, fmt("processor %u accepted %u queries, capacity c=%u", p, cnt,
                 s.c));
    }
  }
  if (per_proc_total != accepts_total) {
    return OracleReport::failure(
        0, fmt("per-processor accepts sum to %llu but accept lists hold "
               "%llu entries",
               static_cast<unsigned long long>(per_proc_total),
               static_cast<unsigned long long>(accepts_total)));
  }
  if (o.rounds_used > game.paper_round_bound()) {
    return OracleReport::failure(
        0, fmt("game ran %u rounds, budget is %u", o.rounds_used,
               game.paper_round_bound()));
  }

  // Replay must be identical: same seed, same requesters.
  collision::CollisionGame game2(s.n, cfg);
  const collision::CollisionOutcome o2 = game2.run(reqs, s.engine_seed);
  if (o2.valid != o.valid || o2.rounds_used != o.rounds_used ||
      o2.query_messages != o.query_messages ||
      o2.accept_messages != o.accept_messages || o2.accepted != o.accepted) {
    return OracleReport::failure(0, "collision game replay diverged");
  }
  return OracleReport{};
}

OracleReport check_scenario(const Scenario& s) {
  if (s.collision_only) return run_collision_scenario(s);
  if (s.runtime) return run_rt_scenario(s);
  return run_engine_scenario(s);
}

}  // namespace clb::testing
