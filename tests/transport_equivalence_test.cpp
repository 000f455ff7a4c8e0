// End-to-end lockstep runs of the cross-process transport: shard processes
// over UDS (and TCP) must be bit-identical — ledger, counters, phase log,
// per-queue task identity — to the in-memory rt::Runtime shadow for every
// seed x model x shard-count combination, and the frame-corrupt mutation
// (a payload corrupted BEFORE the frame is signed, so the CRC accepts it)
// must be convicted by the shadow cross-check and by nothing weaker.
#include <gtest/gtest.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/params.hpp"
#include "models/burst.hpp"
#include "obs/telemetry.hpp"
#include "rt/runtime.hpp"
#include "transport/process_runtime.hpp"
#include "transport/shadow.hpp"

namespace {

using namespace clb;
using namespace clb::transport;

enum class WhichModel { kSingle, kBurst };

const char* model_name(WhichModel m) {
  return m == WhichModel::kSingle ? "single" : "burst";
}

ModelSpec spec_for(WhichModel m) {
  if (m == WhichModel::kSingle) return ModelSpec::single(0.45, 0.1);
  models::BurstConfig bc;
  bc.period = 16;
  bc.burst_len = 8;
  bc.hot_fraction = 0.1;
  bc.burst_rate = 6;
  return ModelSpec::bursty(bc);
}

/// Same spike schedule as rt_equivalence_test.cpp: deposits guarantee heavy
/// processors, so transfers (and with >= 2 shards, cross-process transfers)
/// actually happen.
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

ShardRunConfig make_cfg(std::uint64_t n, std::uint64_t seed,
                        std::uint32_t workers, WhichModel which) {
  ShardRunConfig c;
  c.n = n;
  c.seed = seed;
  c.workers = workers;
  c.deterministic = true;
  c.policy = rt::RtPolicy::kThreshold;
  core::Fractions f;
  f.t_min = 64;  // phase_len 4: phases interleave with plain steps
  c.params = core::PhaseParams::from_n(n, f);
  c.model = spec_for(which);
  return c;
}

/// Drives the run()/deposit() interleave of rt_equivalence_test's run_rt on
/// either executor.
template <typename Executor>
void drive(Executor& pr, std::uint64_t steps, std::uint64_t seed,
           std::uint64_t n) {
  const std::vector<Spike> spikes = spikes_for(seed, n);
  std::uint64_t done = 0;
  for (const Spike& sp : spikes) {
    if (sp.step > done) {
      pr.run(sp.step - done);
      done = sp.step;
    }
    for (std::uint32_t i = 0; i < sp.tasks; ++i) {
      pr.deposit(sp.proc,
                 sim::Task{static_cast<std::uint32_t>(sp.step), sp.proc, 1});
    }
  }
  pr.run(steps - done);
}

/// Full-state fingerprint for the cross-shard-count identity check: queue
/// task identities, counters, the sorted ledger, and the phase log.
std::vector<std::uint64_t> fingerprint(ProcessRuntime& pr) {
  std::vector<std::uint64_t> fp;
  for (std::uint64_t p = 0; p < pr.n(); ++p) {
    const rt::RtProcessor& proc = pr.processor(p);
    fp.push_back(proc.queue.size());
    for (const rt::RtTask& t : proc.queue) {
      fp.push_back((static_cast<std::uint64_t>(t.task.birth_step) << 32) |
                   t.task.origin);
    }
    fp.push_back(proc.generated);
    fp.push_back(proc.consumed);
    fp.push_back(proc.balance_initiations);
  }
  const sim::MessageCounters m = pr.messages();
  fp.insert(fp.end(), {m.queries, m.accepts, m.id_messages, m.control,
                       m.transfers, m.tasks_moved});
  fp.push_back(pr.clamped_transfers());
  fp.push_back(pr.running_max_load());
  for (const rt::LedgerEntry& e : pr.ledger()) {
    fp.insert(fp.end(), {e.step, e.from, e.to, e.count});
  }
  for (const rt::RtPhaseSummary& ps : pr.phases()) {
    fp.insert(fp.end(), {ps.phase_index, ps.start_step, ps.num_heavy,
                         ps.num_light, ps.matched, ps.unmatched, ps.requests,
                         ps.levels_used, ps.collision_rounds});
    for (std::uint32_t h : ps.heavy_procs) fp.push_back(h);
  }
  return fp;
}

class TransportEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, WhichModel>> {
};

TEST_P(TransportEquivalence, UdsMatchesShadowForAllShardCounts) {
  const std::uint64_t seed = std::get<0>(GetParam());
  const WhichModel which = std::get<1>(GetParam());
  const std::uint64_t n = 192;
  const std::uint64_t steps = 48;

  std::vector<std::uint64_t> base_fp;
  for (std::uint32_t shards : {2u, 4u}) {
    SCOPED_TRACE(std::string(model_name(which)) + " seed=" +
                 std::to_string(seed) + " shards=" + std::to_string(shards));
    ProcessRuntime pr(make_cfg(n, seed, shards, which), WireKind::kUds);
    drive(pr, steps, seed, n);

    const ShadowReport rep = shadow_check(pr);
    EXPECT_TRUE(rep.ok) << rep.divergence;
    EXPECT_TRUE(pr.conservation_holds());
    EXPECT_FALSE(pr.phases().empty());

    // The wire actually carried the run: frames in both planes, one barrier
    // per shard per crossing, RTTs measured.
    const obs::WireStats& ws = pr.wire_stats();
    EXPECT_GT(ws.bytes_sent, 0u);
    EXPECT_GT(ws.frames_sent, 0u);
    EXPECT_GT(ws.barriers, 0u);
    EXPECT_EQ(ws.barrier_rtt_us.total(), ws.barriers);

    // Shard-count invariance, directly: 2 and 4 processes produce the same
    // bits, not merely the same shadow verdict.
    const std::vector<std::uint64_t> fp = fingerprint(pr);
    if (base_fp.empty()) {
      base_fp = fp;
    } else {
      EXPECT_EQ(base_fp, fp) << "2-shard vs 4-shard state diverged";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndModels, TransportEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(WhichModel::kSingle,
                                         WhichModel::kBurst)),
    [](const auto& param_info) {
      return std::string(model_name(std::get<1>(param_info.param))) + "_seed" +
             std::to_string(std::get<0>(param_info.param));
    });

// Same codec, same protocol, different socket: one TCP run must pass the
// identical shadow check.
TEST(TransportTcp, MatchesShadow) {
  const std::uint64_t n = 192;
  ProcessRuntime pr(make_cfg(n, 1, 2, WhichModel::kSingle), WireKind::kTcp);
  drive(pr, 48, 1, n);
  const ShadowReport rep = shadow_check(pr);
  EXPECT_TRUE(rep.ok) << rep.divergence;
  EXPECT_GT(pr.wire_stats().barriers, 0u);
}

// kNone policy: no protocol messages, but the data links still carry the
// lockstep barrier — one blob-only kBatch per peer per crossing (the
// closing reduction's [load, max, balanced]) and one end-of-run mark per
// peer per run(); generation/consumption must still match the shadow.
TEST(TransportNone, UnbalancedMatchesShadow) {
  const std::uint64_t steps = 64;
  ShardRunConfig cfg = make_cfg(128, 11, 3, WhichModel::kBurst);
  cfg.policy = rt::RtPolicy::kNone;
  ProcessRuntime pr(cfg, WireKind::kUds);
  pr.run(steps);
  const ShadowReport rep = shadow_check(pr);
  EXPECT_TRUE(rep.ok) << rep.divergence;
  const sim::MessageCounters m = pr.messages();
  EXPECT_EQ(m.transfers, 0u);

  const std::uint64_t peers = cfg.workers - 1;
  // [u32 blob_len, 3 x u64 blob, u64 crossing, u32 msg_count = 0].
  const std::uint64_t batch_bytes = kFrameHeaderSize + 4 + 3 * 8 + 8 + 4;
  const std::uint64_t mark_bytes = kFrameHeaderSize + 8;
  ASSERT_EQ(pr.shard_wire().size(), cfg.workers);
  for (unsigned i = 0; i < cfg.workers; ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    const obs::WireStats& d = pr.shard_wire()[i].data;
    EXPECT_EQ(d.barriers, steps);
    EXPECT_EQ(d.frames_sent, (steps + 1) * peers);
    EXPECT_EQ(d.bytes_sent, steps * peers * batch_bytes + peers * mark_bytes);
    EXPECT_EQ(d.frames_received, d.frames_sent);
  }
}

// The RtConfig seam: constructing from an rt::RtConfig with
// transport = kUds must behave identically to the native constructor.
TEST(TransportSeam, RtConfigConstructor) {
  rt::RtConfig cfg;
  cfg.n = 192;
  cfg.seed = 2;
  cfg.workers = 2;
  cfg.deterministic = true;
  cfg.policy = rt::RtPolicy::kThreshold;
  core::Fractions f;
  f.t_min = 64;
  cfg.params = core::PhaseParams::from_n(cfg.n, f);
  cfg.transport = rt::Transport::kUds;
  ProcessRuntime pr(cfg, spec_for(WhichModel::kSingle));
  drive(pr, 48, 2, cfg.n);
  const ShadowReport rep = shadow_check(pr);
  EXPECT_TRUE(rep.ok) << rep.divergence;
}

// workers = 0 resolves by one rule on both executors (rt::resolve_workers):
// hardware_concurrency, clamped to n — and on the socket transports to the
// shard-process cap, so a large host cannot trip it.
TEST(TransportSeam, ZeroWorkersResolveLikeTheRuntime) {
  rt::RtConfig cfg;
  cfg.n = 3;
  cfg.seed = 4;
  cfg.workers = 0;
  cfg.policy = rt::RtPolicy::kNone;
  const unsigned expect = static_cast<unsigned>(std::min<std::uint64_t>(
      std::max(1u, std::thread::hardware_concurrency()), cfg.n));

  // Fork before the in-proc runtime spawns its threads.
  rt::RtConfig wire_cfg = cfg;
  wire_cfg.transport = rt::Transport::kUds;
  ProcessRuntime uds(wire_cfg, spec_for(WhichModel::kSingle));
  const auto model = spec_for(WhichModel::kSingle).make(cfg.n);
  rt::Runtime inproc(cfg, model.get());
  EXPECT_EQ(inproc.worker_count(), expect);
  EXPECT_EQ(uds.worker_count(), expect);
  uds.run(8);
  const ShadowReport rep = shadow_check(uds);
  EXPECT_TRUE(rep.ok) << rep.divergence;

  wire_cfg.n = 1ULL << 20;
  EXPECT_LE(rt::resolve_workers(wire_cfg), rt::kMaxShardProcesses);
  cfg.workers = 5;  // explicit counts pass through, clamped to n
  EXPECT_EQ(rt::resolve_workers(cfg), 3u);
}

// The frame-corrupt mutation: worker 0 flips one bit in the first task of
// its first remote kTransfer payload BEFORE the frame is signed. The CRC
// accepts the frame, sequence numbers stay clean, every counter remains
// self-consistent — only the shadow-fabric cross-check can convict it,
// through task identity (still queued) or the sojourn histogram (consumed).
TEST(TransportMutation, FrameCorruptConvictedByShadowOnly) {
  const std::uint64_t n = 192;
  ShardRunConfig cfg = make_cfg(n, 1, 2, WhichModel::kSingle);
  cfg.corrupt_transfer_frame = 1;
  cfg.track_sojourn = true;  // convicts even if the corrupted task was consumed
  ProcessRuntime pr(cfg, WireKind::kUds);
  drive(pr, 48, 1, n);

  // The transport itself is oblivious: the run completes, conservation holds
  // (the task still exists, just with a forged birth identity), counters are
  // plausible.
  EXPECT_TRUE(pr.conservation_holds());

  const ShadowReport rep = shadow_check(pr);
  EXPECT_FALSE(rep.ok)
      << "a corrupted-before-signing frame must not survive the shadow check";
  EXPECT_FALSE(rep.divergence.empty());
}

// Wall-clock sojourn over the wire: every shard process stamps births and
// consumptions against the coordinator's one pre-fork epoch. With a
// per-process epoch, a task moved to a later-started shard could read a
// negative sojourn, which wraps to ~2^32 us (and a dense histogram of that
// size kills the shard).
TEST(TransportSojourn, ShardsStampAgainstTheCoordinatorEpoch) {
  const std::uint64_t n = 192;
  ShardRunConfig cfg = make_cfg(n, 1, 4, WhichModel::kSingle);
  cfg.time_sojourn = true;
  ProcessRuntime pr(cfg, WireKind::kUds);
  drive(pr, 48, 1, n);
  const std::vector<rt::LedgerEntry> ledger = pr.ledger();
  const rt::ShardMap map(n, cfg.workers);
  ASSERT_TRUE(std::any_of(ledger.begin(), ledger.end(),
                          [&](const rt::LedgerEntry& e) {
                            return map.owner_of(e.from) != map.owner_of(e.to);
                          }))
      << "the run must move tasks between shard processes";

  ASSERT_EQ(pr.shard_epochs().size(), cfg.workers);
  for (unsigned i = 0; i < cfg.workers; ++i) {
    EXPECT_EQ(pr.shard_epochs()[i].time_since_epoch().count(),
              pr.epoch().time_since_epoch().count())
        << "shard " << i;
  }
  const stats::IntHistogram us = pr.sojourn_us();
  const auto since_epoch = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - pr.epoch());
  EXPECT_GT(us.total(), 0u);
  EXPECT_LE(us.max_value(), static_cast<std::uint64_t>(since_epoch.count()));
}

// Control for the mutation test: the identical scenario with the fault
// injection off passes — so the conviction above is the corruption, not the
// scenario.
TEST(TransportMutation, SameScenarioCleanPasses) {
  const std::uint64_t n = 192;
  ShardRunConfig cfg = make_cfg(n, 1, 2, WhichModel::kSingle);
  cfg.track_sojourn = true;
  ProcessRuntime pr(cfg, WireKind::kUds);
  drive(pr, 48, 1, n);
  const ShadowReport rep = shadow_check(pr);
  EXPECT_TRUE(rep.ok) << rep.divergence;
}

// The superstep schedule's barrier count is deterministic in lockstep, so
// it is pinned exactly: a refactor that adds a barrier or a reduction (or
// drops one) fails here. Per worker, a plain step crosses one barrier (the
// closing load reduction); a phase step adds the classification reduction,
// 3 crossings per collision round (R1, R2, the active-count reduction) and
// 5 per tree level (children, L2, the staged-count/scan reduction,
// transfers, forwards). Both executors cross this one schedule: rt's drains
// are exact by the senders' crossing stamps, the wire's by batch counting.
constexpr std::uint64_t kPinnedWireBarriers = 100;
// The same run with stealing on (in process only): run_steal adds its two
// shared-board crossings per step (the load/dry boards, the sends) and no
// fence after its drain.
constexpr std::uint64_t kPinnedInProcStealBarriers = 180;

/// steps + Σ over phases (1 + 3·rounds + 5·levels): the shard core's
/// schedule.
std::uint64_t core_schedule(std::uint64_t steps,
                            const std::vector<rt::RtPhaseSummary>& phases) {
  std::uint64_t crossings = steps;
  for (const rt::RtPhaseSummary& ps : phases) {
    crossings += 1 + 3 * ps.collision_rounds + 5 * ps.levels_used;
  }
  return crossings;
}

TEST(BarrierSchedule, PinnedPerStepInProcAndOverUds) {
  if (!obs::kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  const std::uint64_t n = 192;
  const std::uint64_t steps = 48;
  const std::uint64_t seed = 1;
  const ShardRunConfig sc = make_cfg(n, seed, 2, WhichModel::kSingle);

  rt::RtConfig rc = sc.rt_config();
  rc.telemetry = true;
  const auto model = sc.model.make(n);
  rt::Runtime inproc(rc, model.get());
  drive(inproc, steps, seed, n);
  const std::uint64_t inproc_per_worker =
      inproc.telemetry_total().barrier_waits / rc.workers;

  ProcessRuntime uds(sc, WireKind::kUds);
  drive(uds, steps, seed, n);
  const std::uint64_t wire_per_shard = uds.wire_stats().barriers / sc.workers;

  EXPECT_EQ(inproc_per_worker, core_schedule(steps, inproc.phases()));
  EXPECT_EQ(wire_per_shard, core_schedule(steps, uds.phases()));
  EXPECT_EQ(inproc_per_worker, kPinnedWireBarriers);
  EXPECT_EQ(wire_per_shard, kPinnedWireBarriers);
}

// The wire's frame bill per shard is exact at 2 and 4 shards, so a frame
// per crossing to or from the coordinator cannot come back unnoticed. On
// the data links a shard sends each peer one kBatch per crossing plus one
// end-of-run mark per run(); its control link carries 1 kConfigAck, 1 kDone
// per run() and 1 kState.
TEST(BarrierSchedule, ExactFramesPerShardOverUds) {
  const std::uint64_t n = 192;
  const std::uint64_t steps = 48;
  const std::uint64_t seed = 1;
  for (const std::uint32_t shards : {2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ProcessRuntime uds(make_cfg(n, seed, shards, WhichModel::kSingle),
                       WireKind::kUds);
    drive(uds, steps, seed, n);
    const std::uint64_t runs = static_cast<std::uint64_t>(std::count_if(
        uds.command_log().begin(), uds.command_log().end(),
        [](const Command& c) { return c.kind == Command::Kind::kRun; }));
    ASSERT_EQ(runs, 4u);
    ASSERT_EQ(uds.shard_wire().size(), shards);
    for (unsigned i = 0; i < shards; ++i) {
      SCOPED_TRACE("shard " + std::to_string(i));
      const ProcessRuntime::ShardWire& sw = uds.shard_wire()[i];
      EXPECT_EQ(sw.data.barriers, kPinnedWireBarriers);
      EXPECT_EQ(sw.data.frames_sent,
                (kPinnedWireBarriers + runs) * (shards - 1));
      EXPECT_EQ(sw.data.frames_received, sw.data.frames_sent);
      EXPECT_EQ(sw.control_frames, 1 + runs + 1);
    }
  }
}

TEST(BarrierSchedule, PinnedPerStepInProcWithStealing) {
  if (!obs::kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  const std::uint64_t n = 192;
  const std::uint64_t steps = 48;
  const std::uint64_t seed = 1;
  const ShardRunConfig sc = make_cfg(n, seed, 2, WhichModel::kSingle);

  rt::RtConfig rc = sc.rt_config();
  rc.telemetry = true;
  rc.steal.enabled = true;
  const auto model = sc.model.make(n);
  rt::Runtime inproc(rc, model.get());
  drive(inproc, steps, seed, n);
  ASSERT_GT(inproc.steal_events(), 0u) << "the pin must cover real steals";
  const std::uint64_t per_worker =
      inproc.telemetry_total().barrier_waits / rc.workers;

  EXPECT_EQ(per_worker, 2 * steps + core_schedule(steps, inproc.phases()));
  EXPECT_EQ(per_worker, kPinnedInProcStealBarriers);
}

// A shard that crosses one allgather more than its peers is convicted on
// the data links, since the coordinator no longer sees the schedule: both
// shards name themselves, the peer and the crossing, and the coordinator
// reaps every child before it aborts. The test process is made the
// subreaper, so a shard left running would be its child here.
TEST(TransportDeathTest, ExtraCrossingConvictedOnTheDataLinks) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  ShardRunConfig cfg = make_cfg(192, 1, 2, WhichModel::kSingle);
  cfg.extra_crossing_step = 8;  // shard 1, the last step of the run below
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_DEATH(
      {
        ::alarm(60);  // a hang dies by SIGALRM, which the regex rejects
        ProcessRuntime pr(cfg, WireKind::kUds);
        pr.run(8);
      },
      "shard 1 at crossing [0-9]+ received from shard 0 an end-of-run mark "
      "after [0-9]+ crossings where a kBatch was due"
      ".*shard [01] died during run\\(\\); reaped every shard: "
      "0=signal 6 1=signal 6");
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(60));
  int status = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1) << "a shard outlived the run";
  EXPECT_EQ(errno, ECHILD);
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 0), 0);
}

}  // namespace
