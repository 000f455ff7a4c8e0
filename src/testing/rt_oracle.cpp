// The runtime oracle: drives rt::Runtime scenarios and checks them against
// the strongest reference available.
//
// Threshold / unbalanced scenarios run in lockstep with a shadow
// sim::Engine (same seed, model, phase parameters): after every step the
// total loads must agree, and periodically — plus at the end — every queue
// must match task-by-task in FIFO order, along with message counters and
// the applied-transfer ledger. This is an *identity* check: the
// kMailboxDrop mutation keeps the sender's books consistent (count
// conservation stays green by design, see rt::RtConfig), so only the
// missing tasks on the receiver's queue can convict it.
//
// All-in-air scenarios use per-processor scatter streams that deliberately
// differ from the serial baseline's single global stream, so there is no
// engine to compare against; they are checked for count conservation every
// step and for a bit-identical replay under a different worker count.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "dist/dist_balancer.hpp"
#include "rng/splitmix64.hpp"
#include "rt/runtime.hpp"
#include "sim/engine.hpp"
#include "testing/oracle.hpp"
#include "util/check.hpp"

namespace clb::testing {

namespace {

rt::RtPolicy policy_of(const Scenario& s) {
  switch (s.balancer) {
    case BalancerKind::kNone: return rt::RtPolicy::kNone;
    case BalancerKind::kAllInAir: return rt::RtPolicy::kAllInAir;
    case BalancerKind::kStaleSq: return rt::RtPolicy::kStaleSq;
    case BalancerKind::kLocalSearch: return rt::RtPolicy::kLocalSearch;
    default: return rt::RtPolicy::kThreshold;
  }
}

/// A runtime scenario with overrides re-applied into the runtime envelope
/// (the shrinker's --n floor of 16 is below the runtime's n > 16 CHECK).
Scenario sanitized(const Scenario& in) {
  Scenario s = in;
  if (s.n < 32) s.n = 32;
  return s;
}

struct RtRun {
  std::unique_ptr<sim::LoadModel> model;
  std::unique_ptr<rt::Runtime> run;
};

RtRun build_rt(const Scenario& s, unsigned workers) {
  RtRun r;
  r.model = build_runtime(s).model;
  rt::RtConfig cfg;
  cfg.n = s.n;
  cfg.seed = s.engine_seed;
  cfg.workers = workers;
  cfg.deterministic = true;
  cfg.policy = policy_of(s);
  if (cfg.policy == rt::RtPolicy::kThreshold) {
    core::Fractions fr;
    fr.t_min = s.t_min;
    cfg.params = core::PhaseParams::from_n(s.n, fr);
    cfg.game = collision::CollisionConfig{s.a, s.b, s.c, 0};
    if (s.rt_latency) {
      cfg.latency = s.latency;
      cfg.link.jitter = s.link_jitter;
      cfg.link.bandwidth = s.link_bandwidth;
      cfg.link.loss_per_64k = s.link_loss;
      if (s.mutation == MutationKind::kDelaySkew) {
        // Deliver the very first fabric message a superstep early; the
        // dist-shadow lockstep below is what must notice.
        cfg.delay_skew_message = 1;
      }
      if (s.mutation == MutationKind::kLinkLossNoRetransmit) {
        // Drop a transfer payload's lost first attempt outright instead of
        // retransmitting; the conservation oracle must notice the tasks
        // leaving the system.
        cfg.link_loss_no_retransmit = true;
      }
      if (s.mutation == MutationKind::kDupDelivery) {
        // Replay a transfer command whose ack draw was lost; the dup stages
        // the same transfer twice, and the ledger / identity sweep against
        // the clean dist shadow must notice.
        cfg.dup_delivery = true;
      }
    }
  }
  cfg.stale = baselines::StaleSqConfig{s.stale_staleness, s.stale_gap};
  cfg.ls = baselines::LocalSearchConfig{s.ls_min_load};
  cfg.crashes = s.crashes;
  if (s.rt_steal || s.mutation == MutationKind::kStealDuplicateTask) {
    cfg.steal.enabled = true;
  }
  if (s.mutation == MutationKind::kStealDuplicateTask) {
    // Stolen batches clone instead of move; conservation convicts (the
    // extra copies are booked nowhere) and the engine shadow's queues
    // diverge task-by-task.
    cfg.steal_duplicate_task = true;
  }
  if (s.mutation == MutationKind::kMailboxDrop) {
    // Drop the very first transfer the runtime sends; later ordinals risk
    // never firing on lightly loaded scenarios.
    cfg.drop_transfer_message = 1;
  }
  if (s.mutation == MutationKind::kCrashLoseQueue && !cfg.crashes.empty()) {
    // Crashed queues vanish instead of re-homing; runtime conservation
    // convicts it (the lost tasks are booked nowhere). Guarded on a
    // non-empty schedule: a crash-free scenario has nothing to lose, and
    // arming the flag without crashes trips the runtime's config check.
    cfg.crash_lose_queue = true;
  }
  if (s.mutation == MutationKind::kStaleFreeLunch) {
    // Stale-SQ decisions secretly read fresh loads; the honest engine
    // shadow's queues and ledger diverge (totals alone cannot convict —
    // transfers conserve load either way).
    cfg.stale_read_fresh = true;
  }
  r.run = std::make_unique<rt::Runtime>(cfg, r.model.get());
  return r;
}

void apply_rt_faults(const Scenario& s, rt::Runtime& run, std::uint64_t step) {
  for (const FaultEvent& ev : s.faults) {
    if (ev.step != step) continue;
    for (std::uint32_t i = 0; i < ev.tasks; ++i) {
      run.deposit(ev.proc,
                  sim::Task{static_cast<std::uint32_t>(step), ev.proc, 1});
    }
  }
}

/// Element-wise queue comparison (the FIFO/identity oracle).
bool queues_match(const sim::Engine& eng, const rt::Runtime& run,
                  std::uint64_t* bad_proc, std::string* what) {
  for (std::uint64_t p = 0; p < eng.n(); ++p) {
    const sim::Processor& sp = eng.processor(p);
    const rt::RtProcessor& rp = run.processor(p);
    if (sp.load() != rp.queue.size()) {
      *bad_proc = p;
      *what = "queue length " + std::to_string(rp.queue.size()) +
              " != engine's " + std::to_string(sp.load());
      return false;
    }
    for (std::uint64_t i = 0; i < sp.load(); ++i) {
      const sim::Task& a = sp.queue.at(i);
      const sim::Task& b = rp.queue[i].task;
      if (a.birth_step != b.birth_step || a.origin != b.origin) {
        *bad_proc = p;
        *what = "task identity diverges at FIFO position " +
                std::to_string(i);
        return false;
      }
    }
  }
  return true;
}

/// Order-insensitive state fingerprint for the determinism replay.
std::uint64_t fingerprint(const rt::Runtime& run) {
  std::uint64_t h = 0x5254464E47ULL;  // "RTFNG"
  for (std::uint64_t p = 0; p < run.n(); ++p) {
    const rt::RtProcessor& proc = run.processor(p);
    h = rng::hash_combine(h, proc.queue.size());
    for (const rt::RtTask& t : proc.queue) {
      h = rng::hash_combine(h, (static_cast<std::uint64_t>(t.task.birth_step)
                                << 32) |
                                   t.task.origin);
    }
    h = rng::hash_combine(h, proc.tasks_sent);
    h = rng::hash_combine(h, proc.tasks_received);
    h = rng::hash_combine(h, proc.consumed);
  }
  const sim::MessageCounters m = run.messages();
  h = rng::hash_combine(h, m.protocol_total());
  h = rng::hash_combine(h, m.transfers);
  h = rng::hash_combine(h, m.tasks_moved);
  for (const rt::LedgerEntry& e : run.ledger()) {
    h = rng::hash_combine(h, (static_cast<std::uint64_t>(e.from) << 32) |
                                 e.to);
    h = rng::hash_combine(h, (e.step << 16) | e.count);
  }
  return h;
}

OracleReport run_against_engine(const Scenario& s) {
  RtRun main = build_rt(s, s.threads);

  // The shadow engine: same model family, seed and (for threshold) phase
  // parameters. build_runtime already realises the scenario's threshold
  // balancer with the runtime-compatible options (clamp_to_runtime zeroed
  // the spread/preround/prune/streaming/weight dimensions), so it can be
  // reused verbatim; the capture wrapper replays the engine's clamp rule on
  // scheduled transfers into a ledger comparable with rt::Runtime's.
  // Latency scenarios instead shadow dist::DistThresholdBalancer — the
  // protocol the latency fabric mirrors message for message.
  ScenarioRuntime shadow = build_runtime(s);
  std::unique_ptr<dist::DistThresholdBalancer> dist_shadow;
  sim::Balancer* inner = shadow.balancer.get();
  if (s.rt_latency) {
    dist::DistConfig dc;
    core::Fractions fr;
    fr.t_min = s.t_min;
    dc.params = core::PhaseParams::from_n(s.n, fr);
    dc.a = s.a;
    dc.b = s.b;
    dc.c = s.c;
    dc.latency = s.latency;
    // Same link model as the runtime (the shadow stays clean: scenario
    // mutations only ever reach the rt side).
    dc.link.jitter = s.link_jitter;
    dc.link.bandwidth = s.link_bandwidth;
    dc.link.loss_per_64k = s.link_loss;
    dist_shadow = std::make_unique<dist::DistThresholdBalancer>(dc);
    inner = dist_shadow.get();
  }
  CaptureBalancer cap(inner);
  sim::EngineConfig ec{.n = s.n, .seed = s.engine_seed,
                       .liveness = shadow.liveness.get()};
  // The shadow steals with the same pure rule (the mutation, if any, only
  // ever reaches the rt side).
  if (s.rt_steal || s.mutation == MutationKind::kStealDuplicateTask) {
    ec.steal.enabled = true;
  }
  sim::Engine eng(ec, shadow.model.get(), &cap);

  std::vector<rt::LedgerEntry> engine_ledger;
  cap.set_post_capture_hook([&](sim::Engine& e) {
    for (const sim::Transfer& t : cap.captured()) {
      engine_ledger.push_back(
          {e.step(), t.from, t.to,
           static_cast<std::uint32_t>(
               std::min<std::uint64_t>(t.count, e.load(t.from)))});
    }
  });

  for (std::uint64_t step = 0; step < s.steps; ++step) {
    apply_rt_faults(s, *main.run, step);
    for (const FaultEvent& ev : s.faults) {
      if (ev.step != step) continue;
      for (std::uint32_t i = 0; i < ev.tasks; ++i) {
        eng.deposit(ev.proc,
                    sim::Task{static_cast<std::uint32_t>(step), ev.proc, 1});
      }
    }
    main.run->run(1);
    eng.step_once();

    if (!main.run->conservation_holds()) {
      return OracleReport::failure(
          step, "runtime count conservation violated: generated + deposited "
                "!= consumed + queued + dropped");
    }
    if (main.run->total_load() != eng.total_load()) {
      return OracleReport::failure(
          step, "runtime total load " +
                    std::to_string(main.run->total_load()) +
                    " != engine total load " +
                    std::to_string(eng.total_load()));
    }
    // Full identity sweep periodically and on the last step; O(total load),
    // so every 8th step keeps the fuzz sweep affordable while still
    // pinpointing a violation within one phase or two.
    if (step % 8 == 7 || step + 1 == s.steps) {
      std::uint64_t bad_proc = 0;
      std::string what;
      if (!queues_match(eng, *main.run, &bad_proc, &what)) {
        return OracleReport::failure(
            step, "FIFO/identity divergence on processor " +
                      std::to_string(bad_proc) + ": " + what);
      }
    }
  }

  const sim::MessageCounters& em = eng.messages();
  const sim::MessageCounters rm = main.run->messages();
  if (em.queries != rm.queries || em.accepts != rm.accepts ||
      em.id_messages != rm.id_messages || em.control != rm.control ||
      em.transfers != rm.transfers || em.tasks_moved != rm.tasks_moved) {
    return OracleReport::failure(s.steps,
                                 "message counters diverge from engine");
  }
  if (eng.clamped_transfers() != main.run->clamped_transfers()) {
    return OracleReport::failure(s.steps, "clamped-transfer counts diverge");
  }
  if (eng.rehomed_tasks() != main.run->rehomed_tasks() ||
      eng.rehomed_events() != main.run->rehomed_events()) {
    return OracleReport::failure(
        s.steps, "crash re-home accounting diverges from engine (" +
                     std::to_string(main.run->rehomed_tasks()) + "/" +
                     std::to_string(main.run->rehomed_events()) + " vs " +
                     std::to_string(eng.rehomed_tasks()) + "/" +
                     std::to_string(eng.rehomed_events()) + ")");
  }

  // Ledger comparison, both sides canonically sorted. The runtime books
  // steals into its ledger alongside balancer transfers; merge the engine's
  // steal log in before sorting so both sides carry the same event set.
  // A steal and a phase transfer may share (step, from, to), so `count`
  // joins the sort key to keep the order total.
  for (const sim::StealRecord& t : eng.steal_log()) {
    engine_ledger.push_back({t.step, t.from, t.to, t.count});
  }
  std::sort(engine_ledger.begin(), engine_ledger.end(),
            [](const rt::LedgerEntry& a, const rt::LedgerEntry& b) {
              if (a.step != b.step) return a.step < b.step;
              if (a.from != b.from) return a.from < b.from;
              if (a.to != b.to) return a.to < b.to;
              return a.count < b.count;
            });
  const std::vector<rt::LedgerEntry> rt_ledger = main.run->ledger();
  if (engine_ledger.size() != rt_ledger.size()) {
    return OracleReport::failure(s.steps, "transfer ledger sizes diverge");
  }
  for (std::size_t i = 0; i < rt_ledger.size(); ++i) {
    const rt::LedgerEntry& a = engine_ledger[i];
    const rt::LedgerEntry& b = rt_ledger[i];
    if (a.step != b.step || a.from != b.from || a.to != b.to ||
        a.count != b.count) {
      return OracleReport::failure(s.steps, "transfer ledger entry " +
                                               std::to_string(i) +
                                               " diverges from engine");
    }
  }

  if (dist_shadow != nullptr) {
    // Latency fabrics additionally agree phase by phase: same start/end
    // step (duration ∝ latency rides on this), same matching outcome.
    const std::vector<dist::DistPhaseRecord>& dl =
        dist_shadow->stats().phase_log;
    std::vector<const rt::RtPhaseSummary*> completed;
    for (const rt::RtPhaseSummary& ps : main.run->phases()) {
      if (ps.completed) completed.push_back(&ps);
    }
    if (completed.size() != dl.size()) {
      return OracleReport::failure(
          s.steps, "completed phase counts diverge from dist shadow (" +
                       std::to_string(completed.size()) + " vs " +
                       std::to_string(dl.size()) + ")");
    }
    for (std::size_t i = 0; i < dl.size(); ++i) {
      const dist::DistPhaseRecord& a = dl[i];
      const rt::RtPhaseSummary& b = *completed[i];
      if (a.phase_index != b.phase_index || a.start_step != b.start_step ||
          a.end_step != b.end_step || a.num_heavy != b.num_heavy ||
          a.matched != b.matched || a.unmatched != b.unmatched ||
          a.forced != b.forced) {
        return OracleReport::failure(s.steps,
                                     "phase record " + std::to_string(i) +
                                         " diverges from dist shadow");
      }
    }
  }
  return OracleReport{};
}

OracleReport run_air(const Scenario& s) {
  RtRun main = build_rt(s, s.threads);
  for (std::uint64_t step = 0; step < s.steps; ++step) {
    apply_rt_faults(s, *main.run, step);
    main.run->run(1);
    if (!main.run->conservation_holds()) {
      return OracleReport::failure(
          step, "runtime count conservation violated (all-in-air)");
    }
  }

  // Determinism: a fresh runtime with a different worker count must land on
  // the bit-identical state.
  RtRun replay = build_rt(s, s.threads_replay);
  for (std::uint64_t step = 0; step < s.steps; ++step) {
    apply_rt_faults(s, *replay.run, step);
    replay.run->run(1);
  }
  if (fingerprint(*main.run) != fingerprint(*replay.run)) {
    return OracleReport::failure(
        s.steps, "all-in-air runtime is not deterministic across worker "
                 "counts (" +
                     std::to_string(s.threads) + " vs " +
                     std::to_string(s.threads_replay) + ")");
  }
  return OracleReport{};
}

}  // namespace

OracleReport run_rt_scenario(const Scenario& in) {
  CLB_CHECK(in.runtime, "run_rt_scenario needs a runtime scenario");
  const Scenario s = sanitized(in);
  OracleReport r = policy_of(s) == rt::RtPolicy::kAllInAir
                       ? run_air(s)
                       : run_against_engine(s);
  if (s.mutation == MutationKind::kMailboxDrop) {
    // Report whether the fault actually fired — a scenario that never sends
    // a transfer cannot convict anything, and the harness counts such runs
    // separately. Deterministic mode makes the single-threaded replay land
    // on the same transfer schedule as the checked run, so its drop counter
    // answers the question; a second run is cheap at fuzz sizes.
    RtRun probe = build_rt(s, 1);
    for (std::uint64_t step = 0; step < s.steps; ++step) {
      apply_rt_faults(s, *probe.run, step);
      probe.run->run(1);
    }
    r.mutation_applied = probe.run->dropped_messages() > 0;
  }
  if (s.mutation == MutationKind::kDelaySkew) {
    // The skew rewrites the first fabric send's delivery step, so it fired
    // iff the fabric carried any message at all (latency >= 2 guarantees
    // the rewrite is not a no-op).
    RtRun probe = build_rt(s, 1);
    for (std::uint64_t step = 0; step < s.steps; ++step) {
      apply_rt_faults(s, *probe.run, step);
      probe.run->run(1);
    }
    r.mutation_applied = probe.run->fabric_sent() > 0;
  }
  if (s.mutation == MutationKind::kLinkLossNoRetransmit) {
    // Fired iff a transfer payload's first attempt actually drew a loss —
    // the runtime counts each unreplayed drop.
    RtRun probe = build_rt(s, 1);
    for (std::uint64_t step = 0; step < s.steps; ++step) {
      apply_rt_faults(s, *probe.run, step);
      probe.run->run(1);
    }
    r.mutation_applied = probe.run->link_lost_messages() > 0;
  }
  if (s.mutation == MutationKind::kDupDelivery) {
    // Fired iff some transfer command's ack draw was lost and the clone was
    // actually filed.
    RtRun probe = build_rt(s, 1);
    for (std::uint64_t step = 0; step < s.steps; ++step) {
      apply_rt_faults(s, *probe.run, step);
      probe.run->run(1);
    }
    r.mutation_applied = probe.run->dup_delivered() > 0;
  }
  if (s.mutation == MutationKind::kCrashLoseQueue) {
    // Fired iff some crashed queue actually held tasks when it vanished.
    RtRun probe = build_rt(s, 1);
    for (std::uint64_t step = 0; step < s.steps; ++step) {
      apply_rt_faults(s, *probe.run, step);
      probe.run->run(1);
    }
    r.mutation_applied = probe.run->crash_lost_tasks() > 0;
  }
  if (s.mutation == MutationKind::kStaleFreeLunch) {
    // Fired iff a cheating decision ever differed from the honest stale
    // rule (the runtime counts divergent transfer lists per step).
    RtRun probe = build_rt(s, 1);
    for (std::uint64_t step = 0; step < s.steps; ++step) {
      apply_rt_faults(s, *probe.run, step);
      probe.run->run(1);
    }
    r.mutation_applied = probe.run->stale_cheat_divergence() > 0;
  }
  if (s.mutation == MutationKind::kStealDuplicateTask) {
    // Fired iff a steal batch actually shipped — each one clones its newest
    // task back onto the victim, and the runtime counts the clones.
    RtRun probe = build_rt(s, 1);
    for (std::uint64_t step = 0; step < s.steps; ++step) {
      apply_rt_faults(s, *probe.run, step);
      probe.run->run(1);
    }
    r.mutation_applied = probe.run->steal_dup_tasks() > 0;
  }
  return r;
}

}  // namespace clb::testing
