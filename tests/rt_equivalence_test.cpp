// Bit-for-bit equivalence of rt::Runtime (deterministic mode) against
// sim::Engine + core::ThresholdBalancer: same seed must yield identical
// heavy/light classifications, transfer ledger, message counters, and final
// per-task queue contents — for ANY worker count. The sim side replays the
// engine's clamp rule on the transfers a CaptureBalancer snapshots, so the
// two ledgers are directly comparable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "core/threshold_balancer.hpp"
#include "models/burst.hpp"
#include "models/single.hpp"
#include "rt/runtime.hpp"
#include "sim/engine.hpp"
#include "testing/oracle.hpp"

namespace {

using namespace clb;

enum class WhichModel { kSingle, kBurst };

const char* model_name(WhichModel m) {
  return m == WhichModel::kSingle ? "single" : "burst";
}

std::unique_ptr<sim::LoadModel> make_model(WhichModel m, std::uint64_t n) {
  if (m == WhichModel::kSingle) {
    return std::make_unique<models::SingleModel>(0.45, 0.1);
  }
  models::BurstConfig bc;
  bc.period = 16;
  bc.burst_len = 8;
  bc.hot_fraction = 0.1;
  bc.burst_rate = 6;
  return std::make_unique<models::BurstModel>(bc, n);
}

/// Load spikes deposited before a step executes, identically on both sides
/// (guarantees heavy processors, so transfers actually happen).
struct Spike {
  std::uint64_t step;
  std::uint32_t proc;
  std::uint32_t tasks;
};

std::vector<Spike> spikes_for(std::uint64_t seed, std::uint64_t n) {
  const auto p = [&](std::uint64_t k) {
    return static_cast<std::uint32_t>((seed * 7 + k * 13) % n);
  };
  return {{4, p(0), 40}, {9, p(1), 56}, {17, p(2), 48}};
}

struct PhaseRecord {
  std::uint64_t start_step = 0;
  std::uint64_t num_heavy = 0;
  std::uint64_t num_light = 0;
  std::uint64_t matched = 0;
  std::uint64_t unmatched = 0;
  std::uint64_t requests = 0;
  std::uint32_t levels_used = 0;
  std::uint64_t collision_rounds = 0;
  std::vector<std::uint32_t> heavy_procs;
};

struct RunRecord {
  std::vector<std::vector<sim::Task>> queues;
  std::vector<std::uint64_t> generated;
  std::vector<std::uint64_t> consumed;
  std::vector<std::uint64_t> consumed_on_origin;
  std::vector<std::uint64_t> initiations;
  sim::MessageCounters msg;
  std::uint64_t clamped = 0;
  std::uint64_t running_max = 0;
  std::uint64_t total_load = 0;
  std::uint64_t steal_events = 0;
  std::uint64_t stolen = 0;
  std::vector<rt::LedgerEntry> ledger;
  std::vector<PhaseRecord> phases;
};

RunRecord run_sim(std::uint64_t n, std::uint64_t seed, std::uint64_t steps,
                  WhichModel which, const core::PhaseParams& params,
                  const sim::StealConfig& steal = {}) {
  auto model = make_model(which, n);
  core::ThresholdBalancer inner({.params = params});
  clb::testing::CaptureBalancer cap(&inner);
  sim::Engine eng({.n = n, .seed = seed, .steal = steal}, model.get(), &cap);

  RunRecord r;
  cap.set_post_capture_hook([&](sim::Engine& e) {
    // The hook runs after on_step, before apply_transfers: loads are still
    // the post-generation loads the balancer classified, and the scheduled
    // counts can be clamped exactly like Engine::apply_transfers will.
    for (const sim::Transfer& t : cap.captured()) {
      const std::uint64_t cnt = std::min<std::uint64_t>(t.count, e.load(t.from));
      r.ledger.push_back({e.step(), t.from, t.to,
                          static_cast<std::uint32_t>(cnt)});
    }
    if (e.step() % params.phase_len == 0) {
      // Atomic execution finalises the phase inside the same on_step, so
      // last_phase() is the phase that just ran at this very step.
      const core::PhaseStats& ps = inner.last_phase();
      PhaseRecord pr;
      pr.start_step = ps.start_step;
      pr.num_heavy = ps.num_heavy;
      pr.num_light = ps.num_light;
      pr.matched = ps.matched_heavy;
      pr.unmatched = ps.unmatched_heavy;
      pr.requests = ps.requests;
      pr.levels_used = ps.levels_used;
      pr.collision_rounds = ps.collision_rounds;
      for (std::uint64_t p = 0; p < n; ++p) {
        if (e.load(p) >= params.heavy_threshold) {
          pr.heavy_procs.push_back(static_cast<std::uint32_t>(p));
        }
      }
      r.phases.push_back(std::move(pr));
    }
  });

  const std::vector<Spike> spikes = spikes_for(seed, n);
  for (std::uint64_t s = 0; s < steps; ++s) {
    for (const Spike& sp : spikes) {
      if (sp.step != s) continue;
      for (std::uint32_t i = 0; i < sp.tasks; ++i) {
        eng.deposit(sp.proc, sim::Task{static_cast<std::uint32_t>(s), sp.proc, 1});
      }
    }
    eng.step_once();
  }

  for (std::uint64_t p = 0; p < n; ++p) {
    const sim::Processor& proc = eng.processor(p);
    std::vector<sim::Task> q;
    for (std::uint64_t i = 0; i < proc.queue.size(); ++i) {
      q.push_back(proc.queue.at(i));
    }
    r.queues.push_back(std::move(q));
    r.generated.push_back(proc.generated);
    r.consumed.push_back(proc.consumed);
    r.consumed_on_origin.push_back(proc.consumed_on_origin);
    r.initiations.push_back(proc.balance_initiations);
  }
  r.msg = eng.messages();
  r.clamped = eng.clamped_transfers();
  r.running_max = eng.running_max_load();
  r.total_load = eng.total_load();
  r.steal_events = eng.steal_events();
  r.stolen = eng.stolen_tasks();
  // The engine books steals into a separate log (the runtime folds them
  // into its ledger alongside balancer transfers); merge before sorting so
  // the two event sets match.
  for (const sim::StealRecord& t : eng.steal_log()) {
    r.ledger.push_back({t.step, t.from, t.to, t.count});
  }
  // The engine schedules transfers in id-delivery order, which leaves root
  // order once trees deepen; rt::Runtime::ledger() is canonically sorted by
  // (step, from, to, count) — count joins the key because a steal and a
  // phase transfer may share the same (step, from, to).
  std::sort(r.ledger.begin(), r.ledger.end(),
            [](const rt::LedgerEntry& a, const rt::LedgerEntry& b) {
              if (a.step != b.step) return a.step < b.step;
              if (a.from != b.from) return a.from < b.from;
              if (a.to != b.to) return a.to < b.to;
              return a.count < b.count;
            });
  EXPECT_TRUE(eng.conservation_holds());
  return r;
}

RunRecord run_rt(std::uint64_t n, std::uint64_t seed, std::uint64_t steps,
                 WhichModel which, const core::PhaseParams& params,
                 unsigned workers, const sim::StealConfig& steal = {}) {
  auto model = make_model(which, n);
  rt::RtConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.workers = workers;
  cfg.deterministic = true;
  cfg.policy = rt::RtPolicy::kThreshold;
  cfg.params = params;
  cfg.steal = steal;
  rt::Runtime run(cfg, model.get());

  const std::vector<Spike> spikes = spikes_for(seed, n);
  std::uint64_t done = 0;
  for (const Spike& sp : spikes) {
    if (sp.step > done) {
      run.run(sp.step - done);
      done = sp.step;
    }
    for (std::uint32_t i = 0; i < sp.tasks; ++i) {
      run.deposit(sp.proc,
                  sim::Task{static_cast<std::uint32_t>(sp.step), sp.proc, 1});
    }
  }
  run.run(steps - done);

  RunRecord r;
  for (std::uint64_t p = 0; p < n; ++p) {
    const rt::RtProcessor& proc = run.processor(p);
    std::vector<sim::Task> q;
    for (const rt::RtTask& t : proc.queue) q.push_back(t.task);
    r.queues.push_back(std::move(q));
    r.generated.push_back(proc.generated);
    r.consumed.push_back(proc.consumed);
    r.consumed_on_origin.push_back(proc.consumed_on_origin);
    r.initiations.push_back(proc.balance_initiations);
  }
  r.msg = run.messages();
  r.clamped = run.clamped_transfers();
  r.running_max = run.running_max_load();
  r.total_load = run.total_load();
  r.steal_events = run.steal_events();
  r.stolen = run.stolen_tasks();
  r.ledger = run.ledger();
  for (const rt::RtPhaseSummary& ps : run.phases()) {
    PhaseRecord pr;
    pr.start_step = ps.start_step;
    pr.num_heavy = ps.num_heavy;
    pr.num_light = ps.num_light;
    pr.matched = ps.matched;
    pr.unmatched = ps.unmatched;
    pr.requests = ps.requests;
    pr.levels_used = ps.levels_used;
    pr.collision_rounds = ps.collision_rounds;
    pr.heavy_procs = ps.heavy_procs;
    r.phases.push_back(std::move(pr));
  }
  EXPECT_TRUE(run.conservation_holds());
  return r;
}

void expect_equal(const RunRecord& sim_r, const RunRecord& rt_r,
                  const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(sim_r.queues.size(), rt_r.queues.size());
  for (std::size_t p = 0; p < sim_r.queues.size(); ++p) {
    const auto& a = sim_r.queues[p];
    const auto& b = rt_r.queues[p];
    ASSERT_EQ(a.size(), b.size()) << "queue length, proc " << p;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].birth_step, b[i].birth_step)
          << "proc " << p << " pos " << i;
      EXPECT_EQ(a[i].origin, b[i].origin) << "proc " << p << " pos " << i;
    }
    EXPECT_EQ(sim_r.generated[p], rt_r.generated[p]) << "generated, proc " << p;
    EXPECT_EQ(sim_r.consumed[p], rt_r.consumed[p]) << "consumed, proc " << p;
    EXPECT_EQ(sim_r.consumed_on_origin[p], rt_r.consumed_on_origin[p])
        << "consumed_on_origin, proc " << p;
    EXPECT_EQ(sim_r.initiations[p], rt_r.initiations[p])
        << "initiations, proc " << p;
  }

  EXPECT_EQ(sim_r.msg.queries, rt_r.msg.queries);
  EXPECT_EQ(sim_r.msg.accepts, rt_r.msg.accepts);
  EXPECT_EQ(sim_r.msg.id_messages, rt_r.msg.id_messages);
  EXPECT_EQ(sim_r.msg.control, rt_r.msg.control);
  EXPECT_EQ(sim_r.msg.transfers, rt_r.msg.transfers);
  EXPECT_EQ(sim_r.msg.tasks_moved, rt_r.msg.tasks_moved);
  EXPECT_EQ(sim_r.clamped, rt_r.clamped);
  EXPECT_EQ(sim_r.running_max, rt_r.running_max);
  EXPECT_EQ(sim_r.total_load, rt_r.total_load);
  EXPECT_EQ(sim_r.steal_events, rt_r.steal_events);
  EXPECT_EQ(sim_r.stolen, rt_r.stolen);

  ASSERT_EQ(sim_r.ledger.size(), rt_r.ledger.size());
  for (std::size_t i = 0; i < sim_r.ledger.size(); ++i) {
    EXPECT_EQ(sim_r.ledger[i].step, rt_r.ledger[i].step) << "ledger " << i;
    EXPECT_EQ(sim_r.ledger[i].from, rt_r.ledger[i].from) << "ledger " << i;
    EXPECT_EQ(sim_r.ledger[i].to, rt_r.ledger[i].to) << "ledger " << i;
    EXPECT_EQ(sim_r.ledger[i].count, rt_r.ledger[i].count) << "ledger " << i;
  }

  ASSERT_EQ(sim_r.phases.size(), rt_r.phases.size());
  for (std::size_t i = 0; i < sim_r.phases.size(); ++i) {
    const PhaseRecord& a = sim_r.phases[i];
    const PhaseRecord& b = rt_r.phases[i];
    EXPECT_EQ(a.start_step, b.start_step) << "phase " << i;
    EXPECT_EQ(a.num_heavy, b.num_heavy) << "phase " << i;
    EXPECT_EQ(a.num_light, b.num_light) << "phase " << i;
    EXPECT_EQ(a.matched, b.matched) << "phase " << i;
    EXPECT_EQ(a.unmatched, b.unmatched) << "phase " << i;
    EXPECT_EQ(a.requests, b.requests) << "phase " << i;
    EXPECT_EQ(a.levels_used, b.levels_used) << "phase " << i;
    EXPECT_EQ(a.collision_rounds, b.collision_rounds) << "phase " << i;
    EXPECT_EQ(a.heavy_procs, b.heavy_procs) << "phase " << i;
  }
}

class RtEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, WhichModel>> {};

TEST_P(RtEquivalence, MatchesEngineForAllWorkerCounts) {
  const std::uint64_t seed = std::get<0>(GetParam());
  const WhichModel which = std::get<1>(GetParam());
  const std::uint64_t n = 192;
  const std::uint64_t steps = 48;
  core::Fractions f;
  f.t_min = 64;  // phase_len 4: phases interleave with plain steps
  const core::PhaseParams params = core::PhaseParams::from_n(n, f);

  const RunRecord sim_r = run_sim(n, seed, steps, which, params);
  for (unsigned workers : {1u, 2u, 8u}) {
    const RunRecord rt_r = run_rt(n, seed, steps, which, params, workers);
    expect_equal(sim_r, rt_r,
                 std::string(model_name(which)) + " seed=" +
                     std::to_string(seed) + " workers=" +
                     std::to_string(workers));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndModels, RtEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(WhichModel::kSingle,
                                         WhichModel::kBurst)),
    [](const auto& param_info) {
      return std::string(model_name(std::get<1>(param_info.param))) + "_seed" +
             std::to_string(std::get<0>(param_info.param));
    });

// Densest schedule: T floor 16 makes phase_len 1 — a phase every step, the
// maximum barrier pressure per step. Catches slot-reuse bugs that need
// back-to-back phases.
TEST(RtEquivalenceDense, PhaseEveryStep) {
  const std::uint64_t n = 96;
  const std::uint64_t steps = 24;
  const core::PhaseParams params = core::PhaseParams::from_n(n);
  ASSERT_EQ(params.phase_len, 1u);
  const RunRecord sim_r = run_sim(n, 5, steps, WhichModel::kSingle, params);
  for (unsigned workers : {1u, 3u, 8u}) {
    const RunRecord rt_r =
        run_rt(n, 5, steps, WhichModel::kSingle, params, workers);
    expect_equal(sim_r, rt_r, "dense workers=" + std::to_string(workers));
  }
}

// NoBalancing policy: generation/consumption alone must already match the
// engine exactly (same per-processor Philox streams, any worker count).
TEST(RtEquivalenceNone, UnbalancedMatchesEngine) {
  const std::uint64_t n = 128;
  const std::uint64_t steps = 64;
  auto sim_model = make_model(WhichModel::kBurst, n);
  sim::Engine eng({.n = n, .seed = 11}, sim_model.get(), nullptr);
  eng.run(steps);

  auto rt_model = make_model(WhichModel::kBurst, n);
  rt::RtConfig cfg;
  cfg.n = n;
  cfg.seed = 11;
  cfg.workers = 4;
  cfg.policy = rt::RtPolicy::kNone;
  rt::Runtime run(cfg, rt_model.get());
  run.run(steps);

  EXPECT_EQ(eng.total_load(), run.total_load());
  EXPECT_EQ(eng.total_generated(), run.total_generated());
  EXPECT_EQ(eng.total_consumed(), run.total_consumed());
  EXPECT_EQ(eng.running_max_load(), run.running_max_load());
  for (std::uint64_t p = 0; p < n; ++p) {
    ASSERT_EQ(eng.load(p), run.load(p)) << "proc " << p;
  }
  EXPECT_TRUE(run.conservation_holds());
}

// Deterministic mode must be bit-identical across worker counts for the
// AllInAir policy too (sim::baselines::AllInAir uses one global scatter
// stream, so the rt variant is compared against itself, not the engine —
// the per-processor scatter streams are a documented difference).
TEST(RtEquivalenceAir, ScatterDeterministicAcrossWorkers) {
  const std::uint64_t n = 128;
  const std::uint64_t steps = 48;

  auto fingerprint = [&](unsigned workers) {
    auto model = make_model(WhichModel::kSingle, n);
    rt::RtConfig cfg;
    cfg.n = n;
    cfg.seed = 7;
    cfg.workers = workers;
    cfg.policy = rt::RtPolicy::kAllInAir;
    rt::Runtime run(cfg, model.get());
    run.run(steps);
    EXPECT_TRUE(run.conservation_holds());
    std::vector<std::uint64_t> fp;
    for (std::uint64_t p = 0; p < n; ++p) {
      fp.push_back(run.load(p));
      const rt::RtProcessor& proc = run.processor(p);
      fp.push_back(proc.tasks_sent);
      fp.push_back(proc.tasks_received);
    }
    const sim::MessageCounters m = run.messages();
    fp.push_back(m.control);
    fp.push_back(m.transfers);
    fp.push_back(m.tasks_moved);
    return fp;
  };

  const auto base = fingerprint(1);
  EXPECT_EQ(base, fingerprint(2));
  EXPECT_EQ(base, fingerprint(8));
}

// Deterministic work stealing must match a shadow engine running the same
// pure rule for any worker count, on or off.
class RtEquivalenceScale : public ::testing::TestWithParam<bool> {};

TEST_P(RtEquivalenceScale, StealMatchesEngine) {
  const bool steal_on = GetParam();
  const std::uint64_t n = 192;
  const std::uint64_t steps = 48;
  core::Fractions f;
  f.t_min = 64;  // phase_len 4: phases interleave with steal-active steps
  const core::PhaseParams params = core::PhaseParams::from_n(n, f);
  sim::StealConfig steal;
  steal.enabled = steal_on;

  const RunRecord sim_r = run_sim(n, 2, steps, WhichModel::kBurst, params,
                                  steal);
  if (steal_on) {
    // The burst spikes guarantee loaded victims while quiet processors run
    // dry, so an all-green run with zero steals would be vacuous.
    EXPECT_GT(sim_r.steal_events, 0u);
  }
  for (unsigned workers : {1u, 2u, 8u}) {
    const RunRecord rt_r = run_rt(n, 2, steps, WhichModel::kBurst, params,
                                  workers, steal);
    expect_equal(sim_r, rt_r,
                 std::string("scale steal=") + (steal_on ? "on" : "off") +
                     " workers=" + std::to_string(workers));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Steal, RtEquivalenceScale, ::testing::Bool(),
    [](const auto& param_info) {
      return std::string("steal_") + (param_info.param ? "on" : "off");
    });

// One 2^16-processor point: the arena queue layout at scale (scaled down in
// steps) with stealing on stays bit-identical to the engine.
TEST(RtEquivalenceScale64k, ArenaStealMatchesEngine) {
  const std::uint64_t n = 1ULL << 16;
  const std::uint64_t steps = 24;
  core::Fractions f;
  f.t_min = 64;
  const core::PhaseParams params = core::PhaseParams::from_n(n, f);
  sim::StealConfig steal;
  steal.enabled = true;

  const RunRecord sim_r = run_sim(n, 3, steps, WhichModel::kBurst, params,
                                  steal);
  EXPECT_GT(sim_r.steal_events, 0u);
  for (unsigned workers : {1u, 4u}) {
    const RunRecord rt_r = run_rt(n, 3, steps, WhichModel::kBurst, params,
                                  workers, steal);
    expect_equal(sim_r, rt_r, "n64k workers=" + std::to_string(workers));
  }
}

}  // namespace
