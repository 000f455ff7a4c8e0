// The benchmark binary: runs one named workload of the paper's threshold
// protocol in lockstep through the public API of the executor under test,
// times every call into a layer from here, and prints one JSON document on
// stdout for benchmark/run.py to check and summarise.
//
//   clb_benchmark measure   --workload W --seed S --seconds T [--smoke]
//   clb_benchmark reference --workload W --seed S --steps N,N,.. [--smoke]
//   clb_benchmark traced    --workload W --seed S --spans FILE [--smoke]
//
// measure   untraced passes (construct, run in chunks, collect) until T
//           seconds are spent; the end-to-end numbers come from here.
// reference sim::Engine on the same inputs (the oracle), in a process of
//           its own so the measured process's peak RSS is the executor's;
//           --steps gives each sub-seed's step count as the executor ran it.
// traced    the per-layer run: telemetry on, an untraced twin pass for the
//           telemetry overhead, the layer-ladder rungs, the reference
//           check, and spans around every public call, written to FILE.
//
// A pass runs the workload's fixed step count on one sub-seed derived from
// --seed; a run cycles through the workload's fixed sub-seed list, so the
// exact protocol metrics of a run depend on --seed alone.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "core/threshold_balancer.hpp"
#include "dist/dist_balancer.hpp"
#include "models/burst.hpp"
#include "models/single.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "rng/splitmix64.hpp"
#include "rt/runtime.hpp"
#include "sim/engine.hpp"
#include "testing/oracle.hpp"
#include "transport/process_runtime.hpp"
#include "transport/shadow.hpp"

namespace {

using namespace clb;
using Clock = std::chrono::steady_clock;

// ---- workloads -------------------------------------------------------------

enum class Exec { kRt, kUds };

struct Workload {
  const char* name;
  std::uint64_t n;
  bool burst;              ///< Burst model (else Single(0.45, 0.1))
  std::uint32_t latency;   ///< 0 = instant fabric
  Exec exec;
  unsigned workers;        ///< worker threads or shard processes
  std::uint64_t steps;     ///< steps per pass
  std::uint64_t chunk;     ///< steps per timed run() call
  std::uint64_t sub_seeds; ///< distinct sub-seeds a run cycles through
  std::uint64_t warmup;    ///< steps of the untimed warm-up pass (0 = none)
};

// Why these four: benchmark/README.md.
constexpr Workload kWorkloads[] = {
    {"single-4k", 4096, false, 0, Exec::kRt, 2, 2048, 64, 4, 2048},
    {"burst-1m", std::uint64_t{1} << 20, true, 0, Exec::kRt, 2, 12, 1, 1, 0},
    {"burst-4k-uds", 4096, true, 0, Exec::kUds, 2, 1024, 64, 4, 1024},
    {"single-4k-lat1", 4096, false, 1, Exec::kRt, 2, 2048, 64, 4, 2048},
};

// --smoke: the same executors and checks on tiny inputs.
Workload smoke_of(Workload w) {
  w.n = w.burst && w.exec == Exec::kRt && w.n > 4096 ? 2048 : 256;
  w.steps = 96;
  w.chunk = 8;
  w.sub_seeds = 2;
  w.warmup = 16;
  return w;
}

models::BurstConfig burst_config() {
  models::BurstConfig bc;
  bc.period = 64;
  bc.burst_len = 16;
  bc.hot_fraction = 0.05;
  bc.burst_rate = 8;
  return bc;
}

std::unique_ptr<sim::LoadModel> make_model(const Workload& w) {
  if (w.burst) return std::make_unique<models::BurstModel>(burst_config(), w.n);
  return std::make_unique<models::SingleModel>(0.45, 0.1);
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  return rng::hash_combine(seed, k);
}

/// The workload's executor config: only n, seed, workers, policy, params,
/// latency and the wire are workload choices; track_sojourn / time_sojourn
/// (and telemetry in the traced pass) are the benchmark's measurement
/// switches. Every other field keeps its default.
///
/// time_sojourn stays off over UDS: each shard process stamps birth_us
/// against its own start time, so a task moved to a shard that started
/// later can read a negative sojourn, which wraps to ~2^32 us and sends the
/// shard into bad_alloc growing its value-indexed histogram (about one pass
/// in a hundred on a 4-core host). The UDS wall-clock sojourn is derived
/// instead (derive_sojourn_us).
rt::RtConfig rt_config(const Workload& w, std::uint64_t seed) {
  rt::RtConfig cfg;
  cfg.n = w.n;
  cfg.seed = seed;
  cfg.workers = w.workers;
  cfg.deterministic = true;
  cfg.policy = rt::RtPolicy::kThreshold;
  cfg.params = core::PhaseParams::from_n(w.n);
  cfg.latency = w.latency;
  cfg.transport = w.exec == Exec::kUds ? rt::Transport::kUds
                                       : rt::Transport::kInProc;
  cfg.track_sojourn = true;
  cfg.time_sojourn = w.exec != Exec::kUds;
  return cfg;
}

transport::ModelSpec model_spec(const Workload& w) {
  return w.burst ? transport::ModelSpec::bursty(burst_config())
                 : transport::ModelSpec::single(0.45, 0.1);
}

// ---- spans -----------------------------------------------------------------

/// Spans around calls into the layers, kept in memory and written once at
/// the end (Chrome trace-event format, one complete event per span).
class Spans {
 public:
  explicit Spans(bool on) : on_(on), t0_(Clock::now()) {}

  /// Opens a span under `parent` (0 = root); returns its id.
  std::uint64_t open(const std::string& name, std::uint64_t parent) {
    if (!on_) return 0;
    spans_.push_back({name, parent, now_ns(), 0, spans_.size() + 1});
    return spans_.back().id;
  }
  void close(std::uint64_t id) {
    if (id != 0) spans_[id - 1].end_ns = now_ns();
  }

  bool write(const std::string& path) const {
    obs::JsonWriter j;
    j.begin_object().key("traceEvents").begin_array();
    for (const Span& s : spans_) {
      j.begin_object()
          .member("name", s.name)
          .member("ph", "X")
          .member("pid", 1)
          .member("tid", 1)
          .member("ts", static_cast<double>(s.start_ns) / 1e3)
          .member("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3)
          .key("args")
          .begin_object()
          .member("id", s.id)
          .member("parent", s.parent)
          .end_object()
          .end_object();
    }
    j.end_array().end_object();
    std::ofstream out(path);
    out << j.str() << "\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    std::uint64_t parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t id;
  };
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0_)
            .count());
  }
  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---- outcome of one pass: what the reference must reproduce -----------------

/// FNV-1a over 64-bit words.
struct Fingerprint {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

/// p-quantile of an integer histogram, interpolated within the unit bin
/// [v, v+1): exact for a given run, yet it moves smoothly between seeds
/// where the plain integer quantile would jump by a whole step.
double interpolated_quantile(const stats::IntHistogram& h, double q) {
  if (h.total() == 0) return 0.0;
  const double target = q * static_cast<double>(h.total());
  double below = 0.0;
  const auto& c = h.counts();
  for (std::size_t v = 0; v < c.size(); ++v) {
    const double here = static_cast<double>(c[v]);
    if (here > 0 && below + here >= target) {
      return static_cast<double>(v) + (target - below) / here;
    }
    below += here;
  }
  return static_cast<double>(c.size());
}

struct PhaseRow {
  std::uint64_t start = 0, end = 0, heavy = 0, light = 0, matched = 0,
                unmatched = 0, requests = 0, rounds = 0, levels = 0;
  bool forced = false;
};

/// Everything the executor and the reference must agree on, bit for bit,
/// as read after a pass. Reduced at once to an Outcome, so the benchmark
/// keeps no ledger in memory between passes (a UDS shard, forked from this
/// process, would count it in its own RSS).
struct RunRecord {
  std::uint64_t steps = 0;
  std::uint64_t generated = 0;
  std::uint64_t consumed = 0;
  std::uint64_t queued = 0;
  std::uint64_t running_max = 0;
  std::uint64_t clamped = 0;
  sim::MessageCounters msg;
  std::vector<rt::LedgerEntry> ledger;
  std::vector<PhaseRow> phases;
  stats::IntHistogram sojourn_steps;
  std::uint64_t queue_hash = 0;  ///< per-queue task identity, FIFO order
  bool conserved = false;
};

/// A pass's checked result: its fingerprint, the exact metrics and the
/// totals the per-layer metrics are built from.
struct Outcome {
  std::uint64_t fingerprint = 0;
  std::uint64_t steps = 0;
  std::uint64_t generated = 0;
  std::uint64_t consumed = 0;
  std::uint64_t queued = 0;
  std::uint64_t running_max = 0;
  sim::MessageCounters msg;
  std::uint64_t phases = 0, heavy = 0, matched = 0, unmatched = 0,
                requests = 0, rounds = 0, forced = 0;
  double sojourn_p50_steps = 0;
  double sojourn_p99_steps = 0;
  std::uint64_t sojourn_samples = 0;
  bool conserved = false;

  [[nodiscard]] double msgs_per_task() const {
    return generated == 0 ? 0.0
                          : static_cast<double>(msg.protocol_total()) /
                                static_cast<double>(generated);
  }
  /// Tasks lost or duplicated: the conservation gap.
  [[nodiscard]] std::uint64_t task_gap() const {
    const std::uint64_t out = consumed + queued;
    return out > generated ? out - generated : generated - out;
  }
};

Outcome reduce(const RunRecord& r) {
  Outcome o;
  Fingerprint f;
  for (std::uint64_t v : {r.steps, r.generated, r.consumed, r.queued,
                          r.running_max, r.clamped, r.msg.queries,
                          r.msg.accepts, r.msg.id_messages, r.msg.control,
                          r.msg.transfers, r.msg.tasks_moved}) {
    f.add(v);
  }
  for (const rt::LedgerEntry& e : r.ledger) {
    f.add(e.step);
    f.add((std::uint64_t{e.from} << 32) | e.to);
    f.add(e.count);
  }
  for (const PhaseRow& p : r.phases) {
    for (std::uint64_t v : {p.start, p.end, p.heavy, p.light, p.matched,
                            p.unmatched, p.requests, p.rounds, p.levels,
                            std::uint64_t{p.forced}}) {
      f.add(v);
    }
    ++o.phases;
    o.heavy += p.heavy;
    o.matched += p.matched;
    o.unmatched += p.unmatched;
    o.requests += p.requests;
    o.rounds += p.rounds;
    o.forced += p.forced ? 1 : 0;
  }
  const auto& c = r.sojourn_steps.counts();
  for (std::size_t v = 0; v < c.size(); ++v) {
    if (c[v] != 0) {
      f.add(v);
      f.add(c[v]);
    }
  }
  f.add(r.queue_hash);
  o.fingerprint = f.h;
  o.steps = r.steps;
  o.generated = r.generated;
  o.consumed = r.consumed;
  o.queued = r.queued;
  o.running_max = r.running_max;
  o.msg = r.msg;
  o.sojourn_p50_steps = interpolated_quantile(r.sojourn_steps, 0.50);
  o.sojourn_p99_steps = interpolated_quantile(r.sojourn_steps, 0.99);
  o.sojourn_samples = r.sojourn_steps.total();
  o.conserved = r.conserved;
  return o;
}

void add_task(Fingerprint& f, std::uint64_t p, const sim::Task& t) {
  f.add((p << 32) | t.birth_step);
  f.add((std::uint64_t{t.origin} << 32) | t.weight);
}

/// Reads an Outcome from rt::Runtime or transport::ProcessRuntime (the two
/// share their inspection API). Phase fields an executor's fabric does not
/// produce are zeroed so the latency fabric compares like dist::'s log.
template <typename Executor>
Outcome outcome_of(Executor& ex, bool latency) {
  RunRecord o;
  o.steps = ex.step();
  o.generated = ex.total_generated();
  o.consumed = ex.total_consumed();
  o.queued = ex.total_load();
  o.running_max = ex.running_max_load();
  o.clamped = ex.clamped_transfers();
  o.msg = ex.messages();
  o.ledger = ex.ledger();
  for (const rt::RtPhaseSummary& ps : ex.phases()) {
    if (!ps.completed) continue;
    PhaseRow r;
    r.start = ps.start_step;
    r.heavy = ps.num_heavy;
    r.matched = ps.matched;
    r.unmatched = ps.unmatched;
    if (latency) {
      r.end = ps.end_step;
      r.forced = ps.forced;
    } else {
      r.light = ps.num_light;
      r.requests = ps.requests;
      r.rounds = ps.collision_rounds;
      r.levels = ps.levels_used;
    }
    o.phases.push_back(r);
  }
  o.sojourn_steps = ex.sojourn_steps();
  Fingerprint qf;
  for (std::uint64_t p = 0; p < ex.n(); ++p) {
    for (const rt::RtTask& t : ex.processor(p).queue) add_task(qf, p, t.task);
  }
  o.queue_hash = qf.h;
  o.conserved = ex.conservation_holds();
  return reduce(o);
}

/// sim::Engine on the same inputs: the threshold balancer on the instant
/// fabric, dist::'s balancer on the latency fabric.
Outcome reference_outcome(const Workload& w, std::uint64_t seed,
                          std::uint64_t steps, double* run_s, Spans& spans,
                          std::uint64_t parent) {
  auto model = make_model(w);
  const core::PhaseParams params = core::PhaseParams::from_n(w.n);
  std::unique_ptr<core::ThresholdBalancer> thr;
  std::unique_ptr<dist::DistThresholdBalancer> lat;
  sim::Balancer* inner = nullptr;
  if (w.latency == 0) {
    thr = std::make_unique<core::ThresholdBalancer>(
        core::ThresholdBalancerConfig{.params = params});
    inner = thr.get();
  } else {
    dist::DistConfig dc;
    dc.params = params;
    dc.latency = w.latency;
    lat = std::make_unique<dist::DistThresholdBalancer>(dc);
    inner = lat.get();
  }
  clb::testing::CaptureBalancer cap(inner);
  sim::Engine eng({.n = w.n, .seed = seed, .track_sojourn = true}, model.get(),
                  &cap);
  RunRecord o;
  cap.set_post_capture_hook([&](sim::Engine& e) {
    // After on_step, before apply_transfers: clamp like the engine will.
    for (const sim::Transfer& t : cap.captured()) {
      const std::uint64_t cnt =
          std::min<std::uint64_t>(t.count, e.load(t.from));
      o.ledger.push_back(
          {e.step(), t.from, t.to, static_cast<std::uint32_t>(cnt)});
    }
    if (thr && e.step() % params.phase_len == 0) {
      const core::PhaseStats& ps = thr->last_phase();
      PhaseRow r;
      r.start = ps.start_step;
      r.heavy = ps.num_heavy;
      r.light = ps.num_light;
      r.matched = ps.matched_heavy;
      r.unmatched = ps.unmatched_heavy;
      r.requests = ps.requests;
      r.rounds = ps.collision_rounds;
      r.levels = ps.levels_used;
      o.phases.push_back(r);
    }
  });
  const std::uint64_t id = spans.open("sim::Engine::run()", parent);
  const Clock::time_point t0 = Clock::now();
  eng.run(steps);
  *run_s = seconds_since(t0);
  spans.close(id);

  std::sort(o.ledger.begin(), o.ledger.end(),
            [](const rt::LedgerEntry& a, const rt::LedgerEntry& b) {
              if (a.step != b.step) return a.step < b.step;
              if (a.from != b.from) return a.from < b.from;
              return a.to < b.to;
            });
  if (lat) {
    for (const dist::DistPhaseRecord& pr : lat->stats().phase_log) {
      PhaseRow r;
      r.start = pr.start_step;
      r.end = pr.end_step;
      r.heavy = pr.num_heavy;
      r.matched = pr.matched;
      r.unmatched = pr.unmatched;
      r.forced = pr.forced;
      o.phases.push_back(r);
    }
  }
  o.steps = eng.step();
  o.generated = eng.total_generated();
  o.consumed = eng.total_consumed();
  o.queued = eng.total_load();
  o.running_max = eng.running_max_load();
  o.clamped = eng.clamped_transfers();
  o.msg = eng.messages();
  o.sojourn_steps = eng.sojourn_histogram();
  Fingerprint qf;
  for (std::uint64_t p = 0; p < w.n; ++p) {
    const sim::Processor& proc = eng.processor(p);
    for (std::uint64_t i = 0; i < proc.queue.size(); ++i) {
      add_task(qf, p, proc.queue.at(i));
    }
  }
  o.queue_hash = qf.h;
  o.conserved = eng.conservation_holds();
  return reduce(o);
}

// ---- one pass --------------------------------------------------------------

struct Pass {
  std::uint64_t seed = 0;
  double setup_s = 0;
  double run_s = 0;      ///< sum of the timed run() chunks
  double collect_s = 0;  ///< transport collect(); 0 in-proc
  std::vector<double> chunk_us_per_step;
  std::uint64_t sojourn_us_samples = 0;
  double sojourn_p50_us = 0;
  double sojourn_p99_us = 0;
  bool sojourn_us_derived = false;
  /// Throughput and sojourn quantiles per window: per timed run() chunk
  /// after the first on the chunked workloads (in-proc: the tasks executed
  /// in that chunk; UDS: derived from the chunk's time per step), else one
  /// window, the whole pass. A stall of a worker (a descheduled thread, a
  /// stolen vCPU) lifts the tail of every task waiting across it, so a
  /// pass-wide p99 reads the pass's worst stretch; run.py takes the fast
  /// quartile over windows instead.
  std::vector<double> window_tasks_per_sec, window_p50_us, window_p99_us;
  std::vector<double> window_read_us;  ///< time spent reading each window
  Outcome out;
  // Layer counters, from the executors' inspection accessors.
  std::uint64_t remote_pushes = 0, self_pushes = 0, arena_bytes = 0;
  std::uint64_t fabric_sent = 0;
  obs::WireStats wire;
  std::vector<obs::WorkerTelemetry> telemetry;  ///< per worker; empty if off
  std::optional<transport::ShadowReport> shadow;
};

/// A pass measured as a single window.
void pass_window(Pass& pass) {
  pass.window_tasks_per_sec = {static_cast<double>(pass.out.consumed) /
                               pass.run_s};
  pass.window_p50_us = {pass.sojourn_p50_us};
  pass.window_p99_us = {pass.sojourn_p99_us};
}

/// Wall-clock sojourn where the executor cannot measure it (UDS, see
/// rt_config): the step-sojourn quantiles at the pass's mean step time, and
/// per window at the chunk's. The window throughput is the pass's mean
/// tasks per step over the chunk's time per step: the per-shard counts are
/// read only by collect(). A chunk is one 64-step period of the Burst
/// model, so every window carries the same arrivals on average.
void derive_sojourn_us(Pass& pass) {
  const double steps = static_cast<double>(pass.out.steps);
  const double us_per_step = pass.run_s * 1e6 / steps;
  pass.sojourn_us_samples = pass.out.sojourn_samples;
  pass.sojourn_p50_us = pass.out.sojourn_p50_steps * us_per_step;
  pass.sojourn_p99_us = pass.out.sojourn_p99_steps * us_per_step;
  pass.sojourn_us_derived = true;
  const double tasks_per_step = static_cast<double>(pass.out.consumed) / steps;
  for (std::size_t k = 1; k < pass.chunk_us_per_step.size(); ++k) {
    const double us = pass.chunk_us_per_step[k];
    pass.window_tasks_per_sec.push_back(tasks_per_step * 1e6 / us);
    pass.window_p50_us.push_back(pass.out.sojourn_p50_steps * us);
    pass.window_p99_us.push_back(pass.out.sojourn_p99_steps * us);
  }
}

/// The q-quantile, interpolated like interpolated_quantile, of the
/// observations in `now` that are not in `before`, where `before` is an
/// earlier read of the same cumulative histogram.
double window_quantile(const stats::IntHistogram& now,
                       const stats::IntHistogram& before, double q) {
  const std::uint64_t total = now.total() - before.total();
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double below = 0.0;
  const auto& c = now.counts();
  for (std::size_t v = 0; v < c.size(); ++v) {
    const double here = static_cast<double>(c[v] - before.count_at(v));
    if (here > 0 && below + here >= target) {
      return static_cast<double>(v) + (target - below) / here;
    }
    below += here;
  }
  return static_cast<double>(c.size());
}

/// One timed run() call of k steps. Only the workload's own multi-step
/// chunks are per-step samples: a one-step call also times the
/// command-barrier round trip.
template <typename Executor>
void run_chunk(Executor& ex, std::uint64_t k, bool sample, Pass& pass,
               Spans& spans, std::uint64_t parent) {
  const std::uint64_t id = spans.open("run()", parent);
  const Clock::time_point t0 = Clock::now();
  ex.run(k);
  const double s = seconds_since(t0);
  spans.close(id);
  pass.run_s += s;
  if (sample) {
    pass.chunk_us_per_step.push_back(s * 1e6 / static_cast<double>(k));
  }
}

/// `windows`: read the consumed count and the sojourn histogram after every
/// chunk for the per-window numbers (the measured passes only; the read
/// pauses the executor between run() calls, outside the timed chunks).
Pass run_rt_pass(const Workload& w, std::uint64_t seed, bool telemetry,
                 bool windows, Spans& spans, std::uint64_t parent) {
  Pass pass;
  pass.seed = seed;
  auto model = make_model(w);
  rt::RtConfig cfg = rt_config(w, seed);
  cfg.telemetry = telemetry;
  const std::uint64_t root =
      spans.open(telemetry ? "rt pass, telemetry on" : "rt pass", parent);
  const std::uint64_t id = spans.open("rt::Runtime()", root);
  const Clock::time_point t0 = Clock::now();
  rt::Runtime ex(cfg, model.get());
  pass.setup_s = seconds_since(t0);
  spans.close(id);
  windows = windows && w.chunk > 1;
  stats::IntHistogram before;
  std::uint64_t consumed_before = 0;
  for (std::uint64_t done = 0; done < w.steps; done += w.chunk) {
    const double run_before = pass.run_s;
    run_chunk(ex, std::min(w.chunk, w.steps - done), true, pass, spans, root);
    if (!windows) continue;
    const Clock::time_point r0 = Clock::now();
    const std::uint64_t consumed = ex.total_consumed();
    stats::IntHistogram now = ex.sojourn_us();
    if (done != 0) {
      pass.window_tasks_per_sec.push_back(
          static_cast<double>(consumed - consumed_before) /
          (pass.run_s - run_before));
      pass.window_p50_us.push_back(window_quantile(now, before, 0.50));
      pass.window_p99_us.push_back(window_quantile(now, before, 0.99));
    }
    consumed_before = consumed;
    before = std::move(now);
    pass.window_read_us.push_back(seconds_since(r0) * 1e6);
  }
  // The latency fabric steps on to the end of the phase in flight, so every
  // task is queued or consumed when the pass is checked.
  for (std::uint64_t extra = 0; ex.fabric_in_flight() != 0 && extra < 4096;
       ++extra) {
    run_chunk(ex, 1, false, pass, spans, root);
  }
  pass.out = outcome_of(ex, w.latency != 0);
  const stats::IntHistogram sojourn_us = ex.sojourn_us();
  pass.sojourn_us_samples = sojourn_us.total();
  pass.sojourn_p50_us = static_cast<double>(sojourn_us.quantile(0.50));
  pass.sojourn_p99_us = static_cast<double>(sojourn_us.quantile(0.99));
  if (pass.window_p50_us.empty()) pass_window(pass);
  pass.remote_pushes = ex.remote_pushes();
  pass.self_pushes = ex.self_pushes();
  pass.arena_bytes = ex.arena_bytes_used();
  pass.fabric_sent = ex.fabric_sent();
  if (ex.telemetry_enabled()) {
    for (unsigned i = 0; i < ex.worker_count(); ++i) {
      pass.telemetry.push_back(ex.worker_telemetry(i));
    }
  }
  spans.close(root);
  return pass;
}

Pass run_uds_pass(const Workload& w, std::uint64_t seed, bool shadow,
                  Spans& spans, std::uint64_t parent) {
  Pass pass;
  pass.seed = seed;
  const std::uint64_t root = spans.open("transport pass", parent);
  std::uint64_t id = spans.open("transport::ProcessRuntime()", root);
  Clock::time_point t0 = Clock::now();
  transport::ProcessRuntime ex(rt_config(w, seed), model_spec(w));
  pass.setup_s = seconds_since(t0);
  spans.close(id);
  for (std::uint64_t done = 0; done < w.steps; done += w.chunk) {
    run_chunk(ex, std::min(w.chunk, w.steps - done), true, pass, spans, root);
  }
  id = spans.open("collect()", root);
  t0 = Clock::now();
  ex.collect();
  pass.collect_s = seconds_since(t0);
  spans.close(id);
  pass.out = outcome_of(ex, false);
  derive_sojourn_us(pass);
  if (pass.window_p50_us.empty()) pass_window(pass);
  pass.wire = ex.wire_stats();
  if (shadow) {
    id = spans.open("transport::shadow_check()", root);
    pass.shadow = transport::shadow_check(ex);
    spans.close(id);
  }
  spans.close(root);
  return pass;
}

// ---- JSON helpers ----------------------------------------------------------

double peak_rss_mb() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;
}

/// Largest peak RSS of any reaped child (the shard processes).
double child_peak_rss_mb() {
  rusage kids{};
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(kids.ru_maxrss) / 1024.0;
}

double quantile_of(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median_of(std::vector<double> v) {
  return quantile_of(std::move(v), 0.5);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

void write_outcome(obs::JsonWriter& j, const Outcome& o) {
  j.begin_object()
      .member("fingerprint", std::to_string(o.fingerprint))
      .member("steps", o.steps)
      .member("generated", o.generated)
      .member("consumed", o.consumed)
      .member("queued", o.queued)
      .member("task_gap", o.task_gap())
      .member("conserved", o.conserved)
      .member("max_load", o.running_max)
      .member("msgs_per_task", o.msgs_per_task())
      .member("sojourn_p99_steps", o.sojourn_p99_steps)
      .member("sojourn_samples", o.sojourn_samples)
      .end_object();
}

void write_pass(obs::JsonWriter& j, const Pass& p) {
  j.begin_object()
      .member("seed", std::to_string(p.seed))
      .member("setup_s", p.setup_s)
      .member("run_s", p.run_s)
      .member("collect_s", p.collect_s)
      .member("sojourn_p50_us", p.sojourn_p50_us)
      .member("sojourn_p99_us", p.sojourn_p99_us)
      .member("sojourn_us_samples", p.sojourn_us_samples)
      .member("sojourn_us_derived", p.sojourn_us_derived);
  const auto list = [&j](const char* key, const std::vector<double>& v) {
    j.key(key).begin_array();
    for (double x : v) j.value(x);
    j.end_array();
  };
  list("window_tasks_per_sec", p.window_tasks_per_sec);
  list("window_sojourn_p50_us", p.window_p50_us);
  list("window_sojourn_p99_us", p.window_p99_us);
  j.member("window_read_us", median_of(p.window_read_us));
  if (p.shadow) {
    j.member("shadow_ok", p.shadow->ok)
        .member("shadow_divergence", p.shadow->divergence);
  }
  j.key("outcome");
  write_outcome(j, p.out);
  j.end_object();
}

// Sanitizers requested through CLB_SANITIZE, or through compiler flags.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr const char* kSanitize = "address or thread (compiler flags)";
#else
constexpr const char* kSanitize = CLB_BENCH_SANITIZE;
#endif

/// The build and host shape every result is recorded with.
void write_build_and_host(obs::JsonWriter& j) {
  j.key("build")
      .begin_object()
      .member("build_type", CLB_BENCH_BUILD_TYPE)
      .member("telemetry_compiled", obs::kTelemetryCompiled)
      .member("sanitize", kSanitize)
#ifdef NDEBUG
      .member("ndebug", true)
#else
      .member("ndebug", false)
#endif
      .end_object();
  j.key("host")
      .begin_object()
      .member("hardware_concurrency", std::thread::hardware_concurrency())
      .member("l2_bytes_per_core",
              static_cast<std::int64_t>(sysconf(_SC_LEVEL2_CACHE_SIZE)))
      .member("l3_bytes",
              static_cast<std::int64_t>(sysconf(_SC_LEVEL3_CACHE_SIZE)))
      .end_object();
}

// ---- modes -----------------------------------------------------------------

/// An untimed pass on a sub-seed outside the run's list, so caches, the
/// allocator and thread start-up are warm before the first timed pass.
void warm_up(const Workload& w, std::uint64_t seed, Spans& spans) {
  if (w.warmup == 0) return;
  Workload warm = w;
  warm.steps = w.warmup;
  const std::uint64_t s = sub_seed(seed, w.sub_seeds);
  const std::uint64_t id = spans.open("warm-up", 0);
  if (w.exec == Exec::kUds) {
    run_uds_pass(warm, s, false, spans, id);
  } else {
    run_rt_pass(warm, s, false, false, spans, id);
  }
  spans.close(id);
}

/// Untimed warm-up, then timed passes cycling through the sub-seeds: every
/// sub-seed runs once (so the exact metrics are complete), and further
/// passes run while one more pass of average length fits in `seconds`.
/// run.py reduces the passes to the reported values.
int mode_measure(const Workload& w, std::uint64_t seed, double seconds) {
  Spans off(false);
  warm_up(w, seed, off);
  std::vector<Pass> passes;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t k = 0;
       k < w.sub_seeds || seconds_since(t0) * (k + 1) / k <= seconds; ++k) {
    const std::uint64_t s = sub_seed(seed, k % w.sub_seeds);
    passes.push_back(w.exec == Exec::kUds
                         ? run_uds_pass(w, s, false, off, 0)
                         : run_rt_pass(w, s, false, true, off, 0));
  }
  const double measured_s = seconds_since(t0);

  // Set-up is sampled at least kMinSetup times and, where it is cheap,
  // kCheapSetup times: construct-only rounds top up the timed passes.
  constexpr std::size_t kMinSetup = 9;
  constexpr std::size_t kCheapSetup = 41;
  constexpr double kSetupBudgetS = 2.0;
  std::vector<double> setup;
  for (const Pass& p : passes) setup.push_back(p.setup_s);
  auto model = make_model(w);
  const Clock::time_point s_start = Clock::now();
  while (setup.size() < kMinSetup ||
         (setup.size() < kCheapSetup &&
          seconds_since(s_start) < kSetupBudgetS)) {
    const Clock::time_point s0 = Clock::now();
    if (w.exec == Exec::kUds) {
      transport::ProcessRuntime ex(rt_config(w, seed), model_spec(w));
      setup.push_back(seconds_since(s0));
    } else {
      rt::Runtime ex(rt_config(w, seed), model.get());
      setup.push_back(seconds_since(s0));
    }
  }
  const double rss = peak_rss_mb();
  const double shard_rss = w.exec == Exec::kUds ? child_peak_rss_mb() : 0.0;

  obs::JsonWriter j;
  j.begin_object()
      .member("mode", "measure")
      .member("workload", w.name)
      .member("measured_s", measured_s)
      .member("setup_s", median_of(setup))
      .member("setup_samples", static_cast<std::uint64_t>(setup.size()))
      // Shards are forks of this process; each counts the pages it shares
      // with it, so the sum is an upper estimate.
      .member("peak_rss_mb", rss + w.workers * shard_rss)
      .member("coordinator_rss_mb", rss)
      .member("shard_rss_mb", shard_rss);
  write_build_and_host(j);
  j.key("passes").begin_array();
  for (const Pass& p : passes) write_pass(j, p);
  j.end_array().end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

/// `steps[k]` is the step count sub-seed k ran on the executor (the latency
/// fabric steps past the nominal count to the end of the phase in flight);
/// the step count is part of the fingerprint, so a wrong one fails.
int mode_reference(const Workload& w, std::uint64_t seed,
                   const std::vector<std::uint64_t>& steps) {
  Spans off(false);
  obs::JsonWriter j;
  j.begin_object()
      .member("mode", "reference")
      .member("workload", w.name)
      .key("passes")
      .begin_array();
  for (std::uint64_t k = 0; k < w.sub_seeds; ++k) {
    const std::uint64_t s = sub_seed(seed, k);
    double run_s = 0;
    const Outcome o = reference_outcome(
        w, s, k < steps.size() ? steps[k] : w.steps, &run_s, off, 0);
    j.begin_object()
        .member("seed", std::to_string(s))
        .member("run_s", run_s)
        .key("outcome");
    write_outcome(j, o);
    j.end_object();
  }
  j.end_array().end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

/// Per-layer numbers for the traced run, keyed by the names in
/// benchmark/README.md. A telemetry-derived metric is null (missing) in a
/// build with telemetry compiled out, never 0.
class LayerMetrics {
 public:
  void set(const std::string& name, double v) { values_.emplace_back(name, v); }
  void telemetry(const std::string& name, double v) {
    if (obs::kTelemetryCompiled) {
      set(name, v);
    } else {
      values_.emplace_back(name, std::nullopt);
    }
  }
  void write(obs::JsonWriter& j) const {
    j.key("metrics").begin_object();
    for (const auto& [name, v] : values_) {
      j.key(name);
      if (v) {
        j.value(*v);
      } else {
        j.null();
      }
    }
    j.end_object();
  }

 private:
  std::vector<std::pair<std::string, std::optional<double>>> values_;
};

/// One traced run: per sub-seed, the executor under test (in-proc: with
/// telemetry; UDS: with the shadow check), an untraced twin (UDS: the
/// in-proc rung at the same worker count, traced and untraced, because the
/// transport refuses telemetry) and the sim::Engine oracle rung, which is
/// also the reference every outcome is checked against.
int mode_traced(const Workload& w, std::uint64_t seed,
                const std::string& spans_path) {
  Spans spans(true);
  const bool uds = w.exec == Exec::kUds;
  Workload inproc = w;
  inproc.exec = Exec::kRt;
  std::vector<Pass> exec, tel, plain;
  std::vector<Outcome> ref;
  double sim_run_s = 0;
  std::uint64_t sim_consumed = 0;
  warm_up(inproc, seed, spans);
  const std::uint64_t top = spans.open(std::string("traced ") + w.name, 0);
  for (std::uint64_t k = 0; k < w.sub_seeds; ++k) {
    const std::uint64_t s = sub_seed(seed, k);
    const std::uint64_t sub = spans.open("sub-seed " + std::to_string(k), top);
    if (uds) {
      exec.push_back(run_uds_pass(w, s, true, spans, sub));
      tel.push_back(run_rt_pass(inproc, s, true, false, spans, sub));
    } else {
      exec.push_back(run_rt_pass(w, s, true, false, spans, sub));
      tel.push_back(exec.back());
    }
    plain.push_back(run_rt_pass(inproc, s, false, false, spans, sub));
    double run_s = 0;
    ref.push_back(
        reference_outcome(w, s, exec.back().out.steps, &run_s, spans, sub));
    sim_run_s += run_s;
    sim_consumed += ref.back().consumed;
    spans.close(sub);
  }
  spans.close(top);
  const bool spans_ok = spans_path.empty() || spans.write(spans_path);

  // Sums over the sub-seeds; ratios of sums.
  std::uint64_t steps = 0, generated = 0, protocol = 0, tasks_moved = 0,
                queries = 0, phases = 0, heavy = 0, matched = 0,
                unmatched = 0, requests = 0, rounds = 0, forced = 0,
                remote = 0, self = 0, arena = 0, fabric = 0, flight_sum = 0,
                flight_samples = 0, flight_max = 0;
  double exec_run_s = 0, tel_run_s = 0, plain_run_s = 0;
  std::vector<double> chunks, collect;
  obs::WireStats wire;
  obs::WorkerTelemetry tel_total;
  std::vector<obs::WorkerTelemetry> per_worker(w.workers);
  for (std::size_t k = 0; k < exec.size(); ++k) {
    const Outcome& o = exec[k].out;
    steps += o.steps;
    generated += o.generated;
    protocol += o.msg.protocol_total();
    tasks_moved += o.msg.tasks_moved;
    queries += o.msg.queries;
    phases += o.phases;
    heavy += o.heavy;
    matched += o.matched;
    unmatched += o.unmatched;
    requests += o.requests;
    rounds += o.rounds;
    forced += o.forced;
    exec_run_s += exec[k].run_s;
    collect.push_back(exec[k].collect_s);
    wire.merge(exec[k].wire);

    const Pass& t = tel[k];
    tel_run_s += t.run_s;
    remote += t.remote_pushes;
    self += t.self_pushes;
    arena = std::max(arena, t.arena_bytes);
    fabric += t.fabric_sent;
    for (std::size_t i = 0; i < t.telemetry.size(); ++i) {
      tel_total.merge(t.telemetry[i]);
      per_worker[i].merge(t.telemetry[i]);
    }
    if (!t.telemetry.empty()) {
      const obs::WorkerTelemetry& lead = t.telemetry[0];
      flight_sum += lead.fabric_flight_sum;
      flight_samples += lead.fabric_flight_samples;
      flight_max = std::max(flight_max, lead.fabric_max_in_flight);
    }
    plain_run_s += plain[k].run_s;
    chunks.insert(chunks.end(), plain[k].chunk_us_per_step.begin(),
                  plain[k].chunk_us_per_step.end());
  }
  double util_sum = 0;
  std::uint64_t max_consumed = 0, all_consumed = 0;
  for (const obs::WorkerTelemetry& t : per_worker) {
    util_sum += t.utilization();
    max_consumed = std::max(max_consumed, t.consumed);
    all_consumed += t.consumed;
  }
  const double workers = w.workers;
  const double worker_steps = workers * static_cast<double>(steps);

  LayerMetrics m;
  m.telemetry(
      "util.barriers_per_step",
      ratio(static_cast<double>(tel_total.barrier_waits), worker_steps));
  m.telemetry("util.barrier_stall_fraction", tel_total.stall_fraction());
  m.telemetry(
      "util.barrier_wait_p99_us",
      static_cast<double>(tel_total.stall_ns_hist.quantile(0.99)) / 1e3);
  m.set("rt.run_us_per_step_p50", quantile_of(chunks, 0.50));
  m.set("rt.run_us_per_step_p99", quantile_of(chunks, 0.99));
  m.set("rt.msgs_per_step", ratio(protocol, steps));
  m.set("rt.remote_push_fraction", ratio(remote, remote + self));
  m.telemetry("rt.drain_batch_mean", tel_total.drain_batch_hist.mean());
  m.telemetry("rt.utilization_mean", util_sum / workers);
  m.telemetry("rt.queue_imbalance",
              ratio(static_cast<double>(max_consumed),
                    static_cast<double>(all_consumed) / workers));
  m.set("rt.arena_mb", static_cast<double>(arena) / (1024.0 * 1024.0));
  m.set("rt.overhead_over_sim", ratio(plain_run_s, sim_run_s));
  m.set("core.heavy_per_phase", ratio(heavy, phases));
  m.set("core.match_rate", ratio(matched, matched + unmatched));
  m.set("core.tasks_moved_per_task", ratio(tasks_moved, generated));
  m.set("collision.rounds_per_phase", ratio(rounds, phases));
  m.set("collision.requests_per_phase", ratio(requests, phases));
  m.set("collision.queries_per_request", ratio(queries, requests));
  m.set("net.fabric_msgs_per_step", ratio(fabric, steps));
  m.telemetry("net.mean_in_flight", ratio(flight_sum, flight_samples));
  m.telemetry("net.max_in_flight", static_cast<double>(flight_max));
  m.telemetry("net.phase_steps_mean", tel_total.phase_steps_hist.mean());
  m.set("net.forced_phases",
        ratio(static_cast<double>(forced), static_cast<double>(exec.size())));
  m.set("transport.wire_kb_per_step",
        ratio(static_cast<double>(wire.bytes_sent) / 1024.0,
              static_cast<double>(steps)));
  m.set("transport.frames_per_step", ratio(wire.frames_sent, steps));
  m.set("transport.barriers_per_step",
        ratio(static_cast<double>(wire.barriers), worker_steps));
  m.set("transport.barrier_rtt_p50_us",
        static_cast<double>(wire.barrier_rtt_us.quantile(0.50)));
  m.set("transport.barrier_rtt_p99_us",
        static_cast<double>(wire.barrier_rtt_us.quantile(0.99)));
  m.set("transport.collect_s", median_of(collect));
  // In-proc workloads run on no transport: their own time over itself.
  m.set("transport.overhead_over_inproc",
        uds ? ratio(exec_run_s, plain_run_s) : 1.0);
  m.set("sim.tasks_per_sec",
        ratio(static_cast<double>(sim_consumed), sim_run_s));
  m.telemetry("obs.telemetry_overhead", ratio(tel_run_s, plain_run_s));

  obs::JsonWriter j;
  j.begin_object()
      .member("mode", "traced")
      .member("workload", w.name)
      .member("spans_written", spans_ok)
      .member("layer_source", uds ? "util.* and rt.* from the in-proc rung "
                                    "at the same worker count"
                                  : "the executor under test");
  write_build_and_host(j);
  m.write(j);
  j.key("passes").begin_array();
  for (const Pass& p : exec) write_pass(j, p);
  j.end_array();
  j.key("rung_passes").begin_array();
  for (const Pass& p : plain) write_pass(j, p);
  if (uds) {
    for (const Pass& p : tel) write_pass(j, p);
  }
  j.end_array();
  j.key("reference").begin_array();
  for (const Outcome& o : ref) write_outcome(j, o);
  j.end_array().end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  std::string workload;
  std::string spans_path;
  std::vector<std::uint64_t> steps;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool smoke = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "clb_benchmark: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      workload = next();
    } else if (a == "--seed") {
      seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(next().c_str(), nullptr);
    } else if (a == "--spans") {
      spans_path = next();
    } else if (a == "--steps") {
      const std::string list = next();
      for (std::size_t at = 0; at < list.size();) {
        std::size_t end = list.find(',', at);
        if (end == std::string::npos) end = list.size();
        steps.push_back(
            std::strtoull(list.substr(at, end - at).c_str(), nullptr, 10));
        at = end + 1;
      }
    } else if (a == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr, "clb_benchmark: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "clb_benchmark: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  const Workload w = smoke ? smoke_of(*found) : *found;
  if (mode == "measure") return mode_measure(w, seed, seconds);
  if (mode == "reference") return mode_reference(w, seed, steps);
  if (mode == "traced") return mode_traced(w, seed, spans_path);
  std::fprintf(stderr, "clb_benchmark: unknown mode '%s'\n", mode.c_str());
  return 2;
}
