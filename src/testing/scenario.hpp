// Seed-driven scenario sampling for the fuzzing harness.
//
// A Scenario is a complete, value-typed description of one randomized run:
// machine size, load model (all six §1.2 models plus the weighted
// extension), balancing policy (the paper's algorithm in oracle and
// distributed form, every baseline, or none), protocol constants, latency,
// a fault schedule (load spikes deposited mid-run), and an optional
// deliberate mutation (a known-broken behaviour the invariant oracle must
// catch — the harness's self-test).
//
// Scenarios are sampled as a pure function of (scenario_seed, index), so
//   clb_fuzz --scenario-seed=S --index=I [--n=..] [--steps=..] ...
// replays any failure exactly; the shrinker only ever changes the three
// override dimensions (n, steps, fault count), which keeps repro command
// lines short.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/liveness.hpp"
#include "sim/balancer.hpp"
#include "sim/model.hpp"

namespace clb::testing {

enum class ModelKind {
  kSingle,
  kGeometric,
  kMulti,
  kAdversarial,
  kPoissonBatch,
  kOnOff,
  kWeighted,    // weighted extension; pairs with weight_based balancing
  kBurst,       // bursty hot-spot model (runtime scenarios)
  kDiurnal,     // workload zoo: sinusoidal day/night arrival rate
  kFlashCrowd,  // workload zoo: episodic correlated hot groups
  kPareto,      // workload zoo: heavy-tailed (Pareto) batch sizes
  kZipf,        // workload zoo: zipfian placement skew
  kHetero,      // workload zoo: heterogeneous processor speeds
};

enum class BalancerKind {
  kNone,
  kThreshold,
  kDist,
  kRsu,
  kLm,
  kRandomSeeking,
  kAllInAir,  // immediate-mode redistribution: oracle runs in multiset mode
  kStaleSq,       // workload zoo: stale shortest-queue baseline
  kLocalSearch,   // workload zoo: randomized pairwise local search
};

/// Deliberately broken behaviours, injected through the engine's test hooks
/// with *consistent-looking accounting* — count-based checks stay green and
/// only the identity/order-tracking oracle can object.
enum class MutationKind {
  kNone,
  kDropTask,        // lose one queued task in flight
  kDupTask,         // deliver one task twice
  kReorder,         // swap two tasks in one FIFO queue
  kPhantomMessage,  // bump a protocol counter outside any phase window
  kMailboxDrop,     // rt runtime: silently drop one transfer message
  kDelaySkew,       // rt latency fabric: deliver one message a step early
  kLinkLossNoRetransmit,  // lossy link: drop a first attempt, never resend
  kDupDelivery,           // lossy link: replay a transfer cmd on ack loss
  kCrashLoseQueue,        // rt runtime: a crashed queue vanishes un-rehomed
  kStaleFreeLunch,        // rt stale-sq: decisions secretly read fresh loads
  kStealDuplicateTask,    // rt stealing: a stolen batch clones, not moves
};

/// A load spike deposited onto one processor before `step` executes.
struct FaultEvent {
  std::uint64_t step = 0;
  std::uint32_t proc = 0;
  std::uint32_t tasks = 0;
};

struct Scenario {
  // Provenance (how to regenerate this scenario).
  std::uint64_t scenario_seed = 1;
  std::uint64_t index = 0;

  // Machine + run shape.
  std::uint64_t n = 64;
  std::uint64_t steps = 128;
  std::uint64_t engine_seed = 1;
  unsigned threads = 1;        // first run
  unsigned threads_replay = 1; // determinism re-run (may differ!)

  // Either a standalone collision game...
  bool collision_only = false;
  std::uint32_t a = 5, b = 2, c = 1;
  std::uint64_t collision_requests = 0;  // requester count (with repetition)

  // ...or a full engine run.
  ModelKind model = ModelKind::kSingle;
  double p = 0.4, eps = 0.1;      // Single / Weighted
  std::uint32_t geometric_k = 4;  // Geometric
  std::uint32_t multi_c = 3;      // Multi: pmf over {0..multi_c-1}
  double lambda = 0.5;            // PoissonBatch

  BalancerKind balancer = BalancerKind::kThreshold;
  /// Run on rt::Runtime (worker threads + mailboxes, deterministic mode)
  /// instead of sim::Engine. Runtime scenarios are clamped to the runtime's
  /// envelope (parallel-safe model, none/threshold/all-in-air policy, small
  /// n and steps); see clamp_to_runtime.
  bool runtime = false;
  /// Runtime scenarios only: run rt::Runtime's latency fabric (the dist::
  /// protocol over per-worker delay queues, delay = `latency`) instead of
  /// the instant fabric. The oracle then cross-validates against a shadow
  /// sim::Engine + dist::DistThresholdBalancer in lockstep. Requires the
  /// threshold policy with a <= 8.
  bool rt_latency = false;
  bool spread_execution = false;
  bool one_shot_preround = false;
  bool prune_satisfied = false;
  bool streaming_transfers = false;
  bool weight_based = false;
  std::uint64_t t_min = 16;
  std::uint32_t latency = 1;  // DistThresholdBalancer fabric latency
  // Link-model knobs for latency scenarios (net::NetConfig, applied to the
  // runtime and its dist lockstep shadow alike): extra per-link jitter span,
  // per-link bandwidth cap (messages/step, 0 = uncapped), and i.i.d. loss
  // probability as a /65536 numerator (0 = lossless).
  std::uint32_t link_jitter = 0;
  std::uint32_t link_bandwidth = 0;
  std::uint32_t link_loss = 0;

  std::vector<FaultEvent> faults;

  MutationKind mutation = MutationKind::kNone;
  std::uint64_t mutation_step = 0;  // applied at first opportunity >= this

  // Workload-zoo knobs (sampled after every older field, so pre-existing
  // (seed, index) pairs keep their exact scenarios).
  std::uint64_t stale_staleness = 8;  // kStaleSq: steps between broadcasts
  std::uint32_t stale_gap = 2;        // kStaleSq: minimum excess to act
  std::uint32_t ls_min_load = 2;      // kLocalSearch: probe threshold
  /// Crash/recovery schedule; only drawn for liveness-aware balancers
  /// (none / stale-sq / local-search) on the instant fabric.
  std::vector<core::CrashEvent> crashes;

  // Scale knob (sampled after every older field, same stream-stability
  // contract as the zoo knobs). Runtime scenarios only.
  /// Deterministic work stealing (RtConfig::steal); instant fabric only,
  /// so never drawn together with rt_latency.
  bool rt_steal = false;

  /// Pure function of (seed, index): every field above is derived with
  /// counter RNG, so the same pair always yields the same scenario.
  static Scenario sample(std::uint64_t scenario_seed, std::uint64_t index);

  /// One-line human summary (model/balancer/sizes/faults/mutation).
  [[nodiscard]] std::string describe() const;

  /// Exact command line that replays this scenario through clb_fuzz,
  /// including the shrinker's override dimensions.
  [[nodiscard]] std::string repro_command() const;
};

const char* to_string(ModelKind m);
const char* to_string(BalancerKind b);
const char* to_string(MutationKind m);
/// Inverse of to_string(MutationKind); returns kNone for unknown names.
MutationKind mutation_from_string(const std::string& name);

/// Forces `s` into rt::Runtime's envelope: a parallel-safe model, a policy
/// the runtime implements (none / threshold / all-in-air), protocol
/// constants within the runtime's query-width limit, and sizes small enough
/// that a phase-per-step schedule stays affordable under fuzzing. Called by
/// Scenario::sample for scenarios drawn as runtime, and by the fuzzer when
/// a runtime-only mutation (kMailboxDrop, kDelaySkew, or the link-model
/// mutations) is requested.
void clamp_to_runtime(Scenario& s);

/// Owns the model + balancer a scenario describes. The engine is built by
/// the oracle (which wraps the balancer to capture scheduled transfers), so
/// the runtime only carries the two plug-ins.
struct ScenarioRuntime {
  std::unique_ptr<sim::LoadModel> model;
  std::unique_ptr<sim::Balancer> balancer;  // null for BalancerKind::kNone
  /// Built from Scenario::crashes (null when empty); the engine config and
  /// any liveness-aware balancer borrow it, so it must outlive both.
  std::unique_ptr<core::LivenessSchedule> liveness;
};

/// Instantiates fresh model/balancer objects for `s` (stateful models make
/// reuse across runs unsound; always build a new runtime per run).
ScenarioRuntime build_runtime(const Scenario& s);

}  // namespace clb::testing
