// EXP-21 (extension) — the concurrent runtime: scaling and latency.
//
// rt::Runtime executes the paper's protocol on real worker threads
// (shared-nothing shards, lock-free MPSC mailboxes, barrier-separated
// supersteps). This bench free-runs it — no determinism sequencing, spin
// work attached to every consumed task so "consume" costs real CPU — and
// sweeps worker counts for Threshold vs NoBalancing vs AllInAir under the
// Single and Burst models. Measured: wall-clock throughput (tasks/sec),
// speedup over the 1-worker run of the same configuration, task sojourn
// latency (p50/p95/p99 in microseconds), and mailbox contention exposure
// (fraction of messages pushed into another worker's mailbox).
//
// tools/perfbench.py drives this binary once per worker count and distils
// the emitted metrics into BENCH_rt.json; run it directly for tables.
//
// EXP-22 (second section) — the latency fabric on real threads. With
// --latencies the runtime re-runs in deterministic mode with a message
// latency attached to every protocol send (the dist:: delay-queue policy,
// executed by worker threads), and the table reports per-phase durations:
// EXP-19's phase-duration ∝ latency result, reproduced on the concurrent
// runtime. tools/statcheck.py --exp22 gates the exp22.* gauges.
//
// EXP-24 (third section) — the link model on the same fabric. A loss ×
// bandwidth grid (heterogeneous jitter on every point) re-runs the
// deterministic latency sweep with lossy, shaped links: lost attempts are
// retransmitted after an RTO, ack losses schedule (suppressed) duplicates,
// and bandwidth caps serialize each link's sends. The table reports how
// phase durations stretch with the retransmit/queueing delay while the
// match rate holds. tools/statcheck.py --exp24 gates the exp24.* gauges.
//
// EXP-25 (--workload-grid) — the production workload zoo. Every zoo model
// (diurnal, flash-crowd, pareto, zipf, hetero) runs deterministically under
// four policies: unbalanced control, the stale-information shortest-queue
// baseline, Berenbrink–Kling local search, and the paper's threshold
// protocol. A crash/recovery pass re-runs the liveness-aware policies with
// processors dying mid-run. Deterministic mode makes every gauge an exact
// replayable constant; tools/statcheck.py --exp25 gates the exp25.* bands.
//
// EXP-27 (--scaling-grid) — million-processor scale. A throughput grid over
// n x workers x {arena, arena_steal}: the arena-backed SoA queue layout,
// plus a run with deterministic work stealing live (RtConfig::steal). Runs
// are deterministic and worker-count invariant, so the rows of one n and
// layout must agree on consumed and max load at every worker count — the
// bench FATALs if they diverge. perfbench.py --compare gates arena tasks/sec
// against a same-host baseline; tools/statcheck.py --exp27 bands the
// exp27.* gauges.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "obs/json.hpp"

namespace {

using namespace clb;

std::unique_ptr<sim::LoadModel> make_zoo_model(const std::string& name,
                                               std::uint64_t n) {
  if (name == "diurnal") {
    models::DiurnalConfig dc;
    dc.period = 64;
    dc.proc_skew = 1.0 / static_cast<double>(n);  // peak sweeps the machine
    return std::make_unique<models::DiurnalModel>(dc);
  }
  if (name == "flash-crowd") {
    return std::make_unique<models::FlashCrowdModel>(
        models::FlashCrowdConfig{}, n);
  }
  if (name == "pareto") {
    return std::make_unique<models::ParetoModel>(models::ParetoConfig{});
  }
  if (name == "zipf") {
    models::ZipfConfig zc;
    zc.rotate_period = 96;  // hot-shard migration
    return std::make_unique<models::ZipfModel>(zc, n);
  }
  return std::make_unique<models::HeteroModel>(models::HeteroConfig{});
}

rt::RtPolicy zoo_policy_of(const std::string& name) {
  if (name == "none") return rt::RtPolicy::kNone;
  if (name == "stale-sq") return rt::RtPolicy::kStaleSq;
  if (name == "local-search") return rt::RtPolicy::kLocalSearch;
  return rt::RtPolicy::kThreshold;
}

std::unique_ptr<sim::LoadModel> make_model(const std::string& name,
                                           std::uint64_t n) {
  if (name == "burst") {
    models::BurstConfig bc;
    bc.period = 64;
    bc.burst_len = 16;
    bc.hot_fraction = 0.05;
    bc.burst_rate = 8;
    return std::make_unique<models::BurstModel>(bc, n);
  }
  return std::make_unique<models::SingleModel>(0.45, 0.1);
}

rt::RtPolicy policy_of(const std::string& name) {
  if (name == "none") return rt::RtPolicy::kNone;
  if (name == "all-in-air") return rt::RtPolicy::kAllInAir;
  return rt::RtPolicy::kThreshold;
}

/// Worker counts to sweep: powers of two up to hardware_concurrency, plus
/// the concurrency itself when it is not a power of two. Always includes 2
/// so mailbox traffic is exercised even on a single-core host.
std::vector<unsigned> auto_workers() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  std::vector<unsigned> w;
  for (unsigned k = 1; k <= hw; k *= 2) w.push_back(k);
  if (w.back() != hw) w.push_back(hw);
  if (w.size() < 2) w.push_back(2);
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("EXP-21: concurrent runtime scaling (threads + mailboxes)");
  const auto n = cli.flag_u64("n", 1 << 12, "logical processors");
  const auto steps = cli.flag_u64("steps", 2000, "runtime steps per run");
  const auto seed = cli.flag_u64("seed", 1, "seed");
  const auto spin = cli.flag_u64(
      "spin", 64, "spin-work iterations per consumed task (free-running)");
  const auto workers_csv = cli.flag_str(
      "workers", "", "comma-separated worker counts (default: 1,2,4,..,hw)");
  const auto models_csv =
      cli.flag_str("models", "single,burst", "models: single,burst");
  const auto policies_csv = cli.flag_str(
      "policies", "threshold,none,all-in-air",
      "policies: threshold,none,all-in-air");
  const auto latencies_csv = cli.flag_str(
      "latencies", "1,2,4,8",
      "EXP-22 deterministic latency sweep (empty disables)");
  const auto lat_steps = cli.flag_u64(
      "lat-steps", 512, "runtime steps per latency-sweep run");
  const auto lat_workers =
      cli.flag_u64("lat-workers", 4, "worker threads in the latency sweep");
  const auto link_loss_csv = cli.flag_str(
      "link-loss-grid", "0,4096,16384",
      "EXP-24 loss grid, /65536 numerators (empty disables)");
  const auto link_bw_csv = cli.flag_str(
      "link-bw-grid", "0,1",
      "EXP-24 bandwidth-cap grid, msgs/step per link (0 = uncapped)");
  const auto link_jitter = cli.flag_u64(
      "link-jitter", 1, "EXP-24 per-link extra-delay span (heterogeneous)");
  const auto link_latency = cli.flag_u64(
      "link-latency", 2, "EXP-24 base fabric latency");
  const auto workload_grid = cli.flag_bool(
      "workload-grid", false,
      "EXP-25 production workload zoo: every zoo model under the "
      "unbalanced/stale-SQ/local-search/threshold policies, plus a "
      "crash/recovery pass (deterministic; statcheck --exp25)");
  const auto scaling_grid = cli.flag_bool(
      "scaling-grid", false,
      "EXP-27 million-processor scale: n x workers throughput grid "
      "(arena vs arena+steal, deterministic; perfbench --exp27 / "
      "statcheck --exp27)");
  const auto grid_n_csv = cli.flag_str(
      "grid-n", "65536,262144,1048576",
      "EXP-27 processor counts (default 2^16, 2^18, 2^20)");
  const auto grid_workers_csv =
      cli.flag_str("grid-workers", "1,2,4", "EXP-27 worker counts");
  const auto grid_steps =
      cli.flag_u64("grid-steps", 48, "steps per EXP-27 grid run");
  const auto zoo_steps =
      cli.flag_u64("zoo-steps", 384, "steps per workload-zoo run");
  const auto zoo_staleness = cli.flag_u64(
      "zoo-staleness", 8, "stale-SQ broadcast interval in the zoo grid");
  const auto telemetry = cli.flag_bool(
      "telemetry", false,
      "per-worker hot-path telemetry: utilization/stall/imbalance table, "
      "rt.*.telemetry.* gauges, snapshot timeline (--telemetry-jsonl)");
  const auto telemetry_interval = cli.flag_u64(
      "telemetry-interval", 64, "steps between telemetry snapshots");
  const auto telemetry_jsonl = cli.flag_str(
      "telemetry-jsonl", "",
      "write the snapshot timeline here (tools/rt_report.py reads it)");
  bench::SmokeFlag smoke(cli);
  bench::ObsFlags obs_flags(cli);
  cli.parse(argc, argv);
  smoke.apply();
  if (smoke.on()) {
    cli.override_str("workers", "1,2");
    cli.override_str("models", "single");
    cli.override_str("latencies", "1,4");
    cli.override_u64("lat-steps", 192);
    cli.override_str("link-loss-grid", "0,16384");
    cli.override_str("link-bw-grid", "0,1");
    cli.override_u64("zoo-steps", 128);
    cli.override_str("grid-n", "16384");
    cli.override_str("grid-workers", "1,2");
    cli.override_u64("grid-steps", 32);
  }

  obs::Recorder rec(obs_flags.config("bench_rt", argc, argv));
  rec.manifest().set_seed(*seed);
  rec.manifest().set_param("n", *n);
  rec.manifest().set_param("steps", *steps);
  rec.manifest().set_param("spin", *spin);

  std::vector<unsigned> workers;
  if (workers_csv->empty()) {
    workers = auto_workers();
  } else {
    for (std::uint64_t w : util::Cli::parse_u64_list(*workers_csv)) {
      workers.push_back(static_cast<unsigned>(w));
    }
  }

  std::vector<std::string> model_names;
  for (const std::string& m : {std::string("single"), std::string("burst")}) {
    if (models_csv->find(m) != std::string::npos) model_names.push_back(m);
  }
  std::vector<std::string> policy_names;
  for (const std::string& p :
       {std::string("threshold"), std::string("none"),
        std::string("all-in-air")}) {
    if (policies_csv->find(p) != std::string::npos) policy_names.push_back(p);
  }

  util::print_banner("EXP-21  runtime scaling: threads, mailboxes, supersteps");
  util::print_note("expect: tasks/sec grows with workers until the core "
                   "count; threshold holds p99 sojourn near the unbalanced "
                   "p50 at a few percent remote-message overhead");

  util::Table table({"model", "policy", "workers", "tasks/sec", "speedup",
                     "p50 us", "p95 us", "p99 us", "remote %", "msgs/task"});
  util::Table ttable({"model", "policy", "workers", "util mean", "stall %",
                      "imbalance", "drain mean", "barrier p99 us"});
  std::string telemetry_timeline;
  if (*telemetry && !obs::kTelemetryCompiled) {
    util::print_note("--telemetry requested but the binary was built with "
                     "-DCLB_TELEMETRY=OFF; telemetry output will be empty");
  }

  // Runs share one trace timeline; each gets its own step window so the
  // JSONL steps stay globally non-decreasing (same idiom as the sim benches).
  std::uint64_t trace_window = 0;

  for (const std::string& model_name : model_names) {
    for (const std::string& policy_name : policy_names) {
      double base_rate = 0;
      for (unsigned w : workers) {
        auto model = make_model(model_name, *n);
        rt::RtConfig cfg;
        cfg.n = *n;
        cfg.seed = *seed;
        cfg.workers = w;
        cfg.deterministic = false;  // free-running: arrival order wins
        cfg.policy = policy_of(policy_name);
        if (cfg.policy == rt::RtPolicy::kThreshold) {
          cfg.params = core::PhaseParams::from_n(*n);
        }
        cfg.spin_work = static_cast<std::uint32_t>(*spin);
        cfg.time_sojourn = true;
        cfg.telemetry = *telemetry;
        cfg.telemetry_interval = *telemetry ? *telemetry_interval : 0;
        cfg.telemetry_tag =
            model_name + "." + policy_name + ".w" + std::to_string(w);
        cfg.trace = rec.trace();
        rec.trace()->set_time_base(trace_window);
        trace_window += *steps + 16;
        rt::Runtime run(cfg, model.get());
        run.run(*steps);

        const double secs = std::max(run.wall_seconds(), 1e-9);
        const double rate =
            static_cast<double>(run.total_consumed()) / secs;
        if (w == workers.front()) base_rate = rate;
        const stats::IntHistogram soj = run.sojourn_us();
        const std::uint64_t remote = run.remote_pushes();
        const std::uint64_t self = run.self_pushes();
        const double remote_pct =
            remote + self > 0
                ? 100.0 * static_cast<double>(remote) /
                      static_cast<double>(remote + self)
                : 0.0;
        const double msgs_per_task =
            run.total_generated() > 0
                ? static_cast<double>(run.messages().protocol_total()) /
                      static_cast<double>(run.total_generated())
                : 0.0;

        table.row()
            .cell(model_name)
            .cell(policy_name)
            .cell(static_cast<std::uint64_t>(w))
            .cell(rate, 0)
            .cell(base_rate > 0 ? rate / base_rate : 1.0, 2)
            .cell(soj.quantile(0.50))
            .cell(soj.quantile(0.95))
            .cell(soj.quantile(0.99))
            .cell(remote_pct, 2)
            .cell(msgs_per_task, 4);

        const std::string prefix = "rt." + model_name + "." + policy_name +
                                   ".w" + std::to_string(w) + ".";
        rec.metrics().gauge(prefix + "tasks_per_sec") = rate;
        rec.metrics().gauge(prefix + "wall_seconds") = secs;
        rec.metrics().gauge(prefix + "sojourn_p50_us") =
            static_cast<double>(soj.quantile(0.50));
        rec.metrics().gauge(prefix + "sojourn_p95_us") =
            static_cast<double>(soj.quantile(0.95));
        rec.metrics().gauge(prefix + "sojourn_p99_us") =
            static_cast<double>(soj.quantile(0.99));
        rec.metrics().gauge(prefix + "remote_push_fraction") =
            remote_pct / 100.0;
        rec.metrics().gauge(prefix + "msgs_per_task") = msgs_per_task;
        rec.metrics().gauge(prefix + "consumed") =
            static_cast<double>(run.total_consumed());

        if (run.telemetry_enabled()) {
          run.export_telemetry(rec.metrics(), prefix + "telemetry.");
          telemetry_timeline += run.telemetry_jsonl();
          auto& m = rec.metrics();
          ttable.row()
              .cell(model_name)
              .cell(policy_name)
              .cell(static_cast<std::uint64_t>(w))
              .cell(m.gauge(prefix + "telemetry.utilization_mean"), 3)
              .cell(100.0 * m.gauge(prefix + "telemetry.barrier_stall_fraction"),
                    2)
              .cell(m.gauge(prefix + "telemetry.queue_imbalance"), 2)
              .cell(m.gauge(prefix + "telemetry.drain_batch_mean"), 2)
              .cell(m.gauge(prefix + "telemetry.barrier_wait_p99_ns") / 1000.0,
                    1);
        }

        if (!run.conservation_holds()) {
          std::fprintf(stderr, "FATAL: conservation violated (%s/%s/w%u)\n",
                       model_name.c_str(), policy_name.c_str(), w);
          return 1;
        }
      }
    }
  }
  clb::bench::emit(table, "rt_1");

  // ---- EXP-22: the latency fabric on real threads (deterministic) ----
  // Same protocol, but every send is delayed by the dist:: delivery policy;
  // phases span supersteps and their duration tracks the message latency
  // (EXP-19's result, executed by worker threads instead of the simulator).
  std::vector<std::uint32_t> latencies;
  for (std::uint64_t l : util::Cli::parse_u64_list(*latencies_csv)) {
    latencies.push_back(static_cast<std::uint32_t>(l));
  }
  if (!latencies.empty()) {
    util::print_banner(
        "EXP-22  latency fabric: phase duration on real threads");
    util::print_note("expect: mean phase duration grows ~linearly with the "
                     "message latency while the match rate holds; runs are "
                     "deterministic and worker-count invariant (lockstep "
                     "with dist/, see rt_latency_equivalence)");
    util::Table lt({"latency", "phases", "phase steps (mean)", "match %",
                    "forced", "max load"});
    core::Fractions lat_fr;
    lat_fr.t_min = 64;
    const core::PhaseParams lat_params = core::PhaseParams::from_n(*n, lat_fr);
    for (const std::uint32_t latency : latencies) {
      auto model = make_model("single", *n);
      rt::RtConfig cfg;
      cfg.n = *n;
      cfg.seed = *seed;
      cfg.workers = static_cast<unsigned>(*lat_workers);
      cfg.deterministic = true;
      cfg.policy = rt::RtPolicy::kThreshold;
      cfg.params = lat_params;
      cfg.latency = latency;
      cfg.telemetry = *telemetry;
      cfg.telemetry_interval = *telemetry ? *telemetry_interval : 0;
      cfg.telemetry_tag = "exp22.lat" + std::to_string(latency);
      cfg.trace = rec.trace();
      rec.trace()->set_time_base(trace_window);
      // Window must cover the bounded drain overrun below (<= 4096 steps).
      trace_window += *lat_steps + 4096 + 64;
      rt::Runtime run(cfg, model.get());

      // Periodic load spikes guarantee heavy processors, so every phase
      // does real matching work — the same pattern at every latency.
      std::uint64_t done = 0;
      for (std::uint64_t s = 0; s < *lat_steps; s += 37) {
        if (s > done) {
          run.run(s - done);
          done = s;
        }
        const std::uint32_t proc =
            static_cast<std::uint32_t>((*seed * 7 + s * 13) % *n);
        for (std::uint32_t i = 0; i < 48; ++i) {
          run.deposit(proc,
                      sim::Task{static_cast<std::uint32_t>(s), proc, 1});
        }
      }
      run.run(*lat_steps - done);
      // A phase may be mid-flight at the nominal end (task payloads riding
      // the fabric are neither queued nor consumed); step on to the next
      // phase boundary so the conservation check sees a drained fabric.
      for (std::uint64_t extra = 0;
           run.fabric_in_flight() != 0 && extra < 4096; ++extra) {
        run.run(1);
      }

      std::uint64_t phases = 0, duration = 0, matched = 0, unmatched = 0,
                    forced = 0;
      for (const rt::RtPhaseSummary& ps : run.phases()) {
        if (!ps.completed || ps.num_heavy == 0) continue;
        ++phases;
        duration += ps.end_step - ps.start_step;
        matched += ps.matched;
        unmatched += ps.unmatched;
        if (ps.forced) ++forced;
      }
      const double mean_dur =
          phases > 0
              ? static_cast<double>(duration) / static_cast<double>(phases)
              : 0.0;
      const double total_heavy = static_cast<double>(matched + unmatched);
      const double match_pct =
          total_heavy > 0
              ? 100.0 * static_cast<double>(matched) / total_heavy
              : 100.0;

      lt.row()
          .cell(static_cast<std::uint64_t>(latency))
          .cell(phases)
          .cell(mean_dur, 2)
          .cell(match_pct, 2)
          .cell(forced)
          .cell(run.running_max_load());

      const std::string prefix = "exp22.lat" + std::to_string(latency) + ".";
      rec.metrics().gauge(prefix + "phase_duration_mean") = mean_dur;
      rec.metrics().gauge(prefix + "phases") = static_cast<double>(phases);
      rec.metrics().gauge(prefix + "match_pct") = match_pct;
      rec.metrics().gauge(prefix + "forced") = static_cast<double>(forced);

      if (run.telemetry_enabled()) {
        run.export_telemetry(rec.metrics(), prefix + "telemetry.");
        telemetry_timeline += run.telemetry_jsonl();
      }

      if (!run.conservation_holds() || run.fabric_in_flight() != 0) {
        std::fprintf(stderr,
                     "FATAL: latency-sweep invariants violated (lat=%u)\n",
                     latency);
        return 1;
      }
    }
    clb::bench::emit(lt, "rt_2");
  }

  // ---- EXP-24: the link model (loss/retransmit, bandwidth, jitter) ----
  // Same deterministic driver as EXP-22 at a fixed base latency, sweeping a
  // loss × bandwidth grid with heterogeneous per-link jitter everywhere:
  // the single fabric absorbs retransmit and queueing delay as longer
  // phases, not lost work.
  std::vector<std::uint32_t> losses;
  for (std::uint64_t l : util::Cli::parse_u64_list(*link_loss_csv)) {
    losses.push_back(static_cast<std::uint32_t>(l));
  }
  std::vector<std::uint32_t> bws;
  for (std::uint64_t b : util::Cli::parse_u64_list(*link_bw_csv)) {
    bws.push_back(static_cast<std::uint32_t>(b));
  }
  if (!losses.empty() && !bws.empty()) {
    util::print_banner(
        "EXP-24  link model: loss/retransmit + bandwidth caps + jitter");
    util::print_note("expect: phase duration stretches with the loss rate "
                     "(retransmit RTOs) and with bandwidth caps (per-link "
                     "FIFO queueing) while the match rate holds; lossless "
                     "uncapped rows pay neither");
    util::Table kt({"loss/64k", "bw cap", "phases", "phase steps (mean)",
                    "match %", "forced", "retrans", "dups supp",
                    "queued delay"});
    core::Fractions link_fr;
    link_fr.t_min = 64;
    const core::PhaseParams link_params =
        core::PhaseParams::from_n(*n, link_fr);
    for (const std::uint32_t loss : losses) {
      for (const std::uint32_t bw : bws) {
        auto model = make_model("single", *n);
        rt::RtConfig cfg;
        cfg.n = *n;
        cfg.seed = *seed;
        cfg.workers = static_cast<unsigned>(*lat_workers);
        cfg.deterministic = true;
        cfg.policy = rt::RtPolicy::kThreshold;
        cfg.params = link_params;
        cfg.latency = static_cast<std::uint32_t>(*link_latency);
        cfg.link.jitter = static_cast<std::uint32_t>(*link_jitter);
        cfg.link.bandwidth = bw;
        cfg.link.loss_per_64k = loss;
        cfg.telemetry = *telemetry;
        cfg.telemetry_interval = *telemetry ? *telemetry_interval : 0;
        cfg.telemetry_tag =
            "exp24.loss" + std::to_string(loss) + ".bw" + std::to_string(bw);
        cfg.trace = rec.trace();
        rec.trace()->set_time_base(trace_window);
        trace_window += *lat_steps + 4096 + 64;
        rt::Runtime run(cfg, model.get());

        // The same periodic-spike pattern as EXP-22, so rows only differ in
        // their link model.
        std::uint64_t done = 0;
        for (std::uint64_t s = 0; s < *lat_steps; s += 37) {
          if (s > done) {
            run.run(s - done);
            done = s;
          }
          const std::uint32_t proc =
              static_cast<std::uint32_t>((*seed * 7 + s * 13) % *n);
          for (std::uint32_t i = 0; i < 48; ++i) {
            run.deposit(proc,
                        sim::Task{static_cast<std::uint32_t>(s), proc, 1});
          }
        }
        run.run(*lat_steps - done);
        for (std::uint64_t extra = 0;
             run.fabric_in_flight() != 0 && extra < 4096; ++extra) {
          run.run(1);
        }

        std::uint64_t phases = 0, duration = 0, matched = 0, unmatched = 0,
                      forced = 0;
        for (const rt::RtPhaseSummary& ps : run.phases()) {
          if (!ps.completed || ps.num_heavy == 0) continue;
          ++phases;
          duration += ps.end_step - ps.start_step;
          matched += ps.matched;
          unmatched += ps.unmatched;
          if (ps.forced) ++forced;
        }
        const double mean_dur =
            phases > 0
                ? static_cast<double>(duration) / static_cast<double>(phases)
                : 0.0;
        const double total_heavy = static_cast<double>(matched + unmatched);
        const double match_pct =
            total_heavy > 0
                ? 100.0 * static_cast<double>(matched) / total_heavy
                : 100.0;

        kt.row()
            .cell(static_cast<std::uint64_t>(loss))
            .cell(static_cast<std::uint64_t>(bw))
            .cell(phases)
            .cell(mean_dur, 2)
            .cell(match_pct, 2)
            .cell(forced)
            .cell(run.fabric_retransmits())
            .cell(run.fabric_dup_suppressed())
            .cell(run.fabric_queued_delay());

        const std::string prefix = "exp24.loss" + std::to_string(loss) +
                                   ".bw" + std::to_string(bw) + ".";
        rec.metrics().gauge(prefix + "phase_duration_mean") = mean_dur;
        rec.metrics().gauge(prefix + "phases") = static_cast<double>(phases);
        rec.metrics().gauge(prefix + "match_pct") = match_pct;
        rec.metrics().gauge(prefix + "forced") = static_cast<double>(forced);
        rec.metrics().gauge(prefix + "retransmits") =
            static_cast<double>(run.fabric_retransmits());
        rec.metrics().gauge(prefix + "dup_suppressed") =
            static_cast<double>(run.fabric_dup_suppressed());
        rec.metrics().gauge(prefix + "queued_delay") =
            static_cast<double>(run.fabric_queued_delay());

        if (run.telemetry_enabled()) {
          run.export_telemetry(rec.metrics(), prefix + "telemetry.");
          telemetry_timeline += run.telemetry_jsonl();
        }

        if (!run.conservation_holds() || run.fabric_in_flight() != 0) {
          std::fprintf(stderr,
                       "FATAL: link-sweep invariants violated "
                       "(loss=%u bw=%u)\n",
                       loss, bw);
          return 1;
        }
      }
    }
    clb::bench::emit(kt, "rt_3");
  }

  // ---- EXP-25: the production workload zoo (--workload-grid) ----
  // Deterministic runs, so every gauge is an exact replayable constant:
  // each zoo model under the unbalanced control, the stale-information
  // shortest-queue baseline, Berenbrink–Kling local search, and the paper's
  // threshold protocol; then a crash/recovery pass over the liveness-aware
  // policies with two processors dying mid-run.
  if (*workload_grid) {
    util::print_banner(
        "EXP-25  workload zoo: heavy tails, diurnal skew, crash/recovery");
    util::print_note("expect: the load-oblivious threshold protocol holds "
                     "max load within a small constant of the informed "
                     "baselines on every model without load broadcasts; "
                     "stale-SQ herds onto stale minima; crashes re-home "
                     "every task (conservation is FATAL-checked)");
    util::Table zt({"model", "policy", "max load", "final mean", "moved",
                    "msgs/task", "consumed", "rehomed"});
    // One zoo run -> one table row + one exp25.<prefix>.* gauge group.
    // Returns false on an invariant violation (caller aborts the bench).
    auto zoo_run = [&](const std::string& model_name,
                       const std::string& policy_name,
                       const std::vector<core::CrashEvent>& crashes,
                       const std::string& prefix) -> bool {
      auto model = make_zoo_model(model_name, *n);
      rt::RtConfig cfg;
      cfg.n = *n;
      cfg.seed = *seed;
      cfg.workers = static_cast<unsigned>(*lat_workers);
      cfg.deterministic = true;
      cfg.policy = zoo_policy_of(policy_name);
      if (cfg.policy == rt::RtPolicy::kThreshold) {
        cfg.params = core::PhaseParams::from_n(*n);
      }
      cfg.stale.staleness = *zoo_staleness;
      cfg.crashes = crashes;
      cfg.trace = rec.trace();
      rec.trace()->set_time_base(trace_window);
      trace_window += *zoo_steps + 16;
      rt::Runtime run(cfg, model.get());
      run.run(*zoo_steps);

      const double final_mean =
          static_cast<double>(run.total_load()) / static_cast<double>(*n);
      const std::uint64_t moved = run.messages().tasks_moved;
      const double msgs_per_task =
          run.total_generated() > 0
              ? static_cast<double>(run.messages().protocol_total()) /
                    static_cast<double>(run.total_generated())
              : 0.0;

      zt.row()
          .cell(model_name)
          .cell(policy_name)
          .cell(run.running_max_load())
          .cell(final_mean, 2)
          .cell(moved)
          .cell(msgs_per_task, 4)
          .cell(run.total_consumed())
          .cell(run.rehomed_tasks());

      const std::string gp = "exp25." + prefix + ".";
      rec.metrics().gauge(gp + "max_load") =
          static_cast<double>(run.running_max_load());
      rec.metrics().gauge(gp + "final_mean_load") = final_mean;
      rec.metrics().gauge(gp + "tasks_moved") = static_cast<double>(moved);
      rec.metrics().gauge(gp + "msgs_per_task") = msgs_per_task;
      rec.metrics().gauge(gp + "consumed") =
          static_cast<double>(run.total_consumed());
      if (!crashes.empty()) {
        rec.metrics().gauge(gp + "rehomed_tasks") =
            static_cast<double>(run.rehomed_tasks());
        rec.metrics().gauge(gp + "rehomed_events") =
            static_cast<double>(run.rehomed_events());
      }

      if (!run.conservation_holds()) {
        std::fprintf(stderr, "FATAL: zoo conservation violated (%s/%s)\n",
                     model_name.c_str(), policy_name.c_str());
        return false;
      }
      return true;
    };

    const std::vector<std::string> zoo_model_names = {
        "diurnal", "flash-crowd", "pareto", "zipf", "hetero"};
    const std::vector<std::string> zoo_policy_names = {
        "none", "stale-sq", "local-search", "threshold"};
    for (const std::string& mn : zoo_model_names) {
      for (const std::string& pn : zoo_policy_names) {
        if (!zoo_run(mn, pn, {}, mn + "." + pn)) return 1;
      }
    }

    // Crash/recovery pass: the diurnal model under the liveness-aware
    // policies (the threshold protocol predates liveness; see RtConfig),
    // two processors dying mid-run and recovering before the end.
    const std::uint64_t down = std::max<std::uint64_t>(*zoo_steps / 8, 1);
    const std::vector<core::CrashEvent> zoo_crashes = {
        {*zoo_steps / 3, static_cast<std::uint32_t>(*n / 3), down},
        {*zoo_steps / 2, static_cast<std::uint32_t>(2 * *n / 3), down}};
    for (const std::string& pn : {std::string("none"),
                                  std::string("stale-sq"),
                                  std::string("local-search")}) {
      if (!zoo_run("diurnal", pn, zoo_crashes, "crash." + pn)) return 1;
    }
    clb::bench::emit(zt, "rt_4");
  }

  // ---- EXP-27: million-processor scale (--scaling-grid) ----
  // Deterministic throughput grid over n x workers x {arena, arena_steal}:
  // the arena-backed SoA task queues, and the same with deterministic work
  // stealing live (RtConfig::steal). Spin work is off so the queue data path
  // dominates; determinism makes every counter an exact replayable constant
  // that must not depend on the worker count (any divergence is FATAL).
  if (*scaling_grid) {
    util::print_banner(
        "EXP-27  million-processor scale: arena queues, batched drains, "
        "stealing");
    util::print_note("expect: identical consumed/max-load counters for the "
                     "rows of one n and layout at every worker count "
                     "(deterministic and worker-count invariant); the steal "
                     "rows drain dry shards from the canonically-ordered "
                     "hottest victims");
    util::Table gt({"n", "workers", "layout", "tasks/sec", "consumed",
                    "max load", "steals", "arena MB"});
    struct GridSig {
      bool set = false;
      std::uint64_t consumed = 0;
      std::uint64_t max_load = 0;
      std::uint64_t total_load = 0;
    };
    const char* layout_names[2] = {"arena", "arena_steal"};
    for (std::uint64_t gn : util::Cli::parse_u64_list(*grid_n_csv)) {
      GridSig sigs[2];  // per layout, shared by every worker count
      for (std::uint64_t gw : util::Cli::parse_u64_list(*grid_workers_csv)) {
        for (int layout = 0; layout < 2; ++layout) {
          auto model = make_model("burst", gn);
          rt::RtConfig cfg;
          cfg.n = gn;
          cfg.seed = *seed;
          cfg.workers = static_cast<unsigned>(gw);
          cfg.deterministic = true;
          cfg.policy = rt::RtPolicy::kNone;
          cfg.spin_work = 0;  // measure the queue path, not the payload
          cfg.steal.enabled = layout == 1;
          cfg.trace = rec.trace();
          rec.trace()->set_time_base(trace_window);
          trace_window += *grid_steps + 16;
          rt::Runtime run(cfg, model.get());
          run.run(*grid_steps);

          const double secs = std::max(run.wall_seconds(), 1e-9);
          const double rate =
              static_cast<double>(run.total_consumed()) / secs;
          const double arena_mb =
              static_cast<double>(run.arena_bytes_used()) / (1024.0 * 1024.0);

          gt.row()
              .cell(gn)
              .cell(gw)
              .cell(layout_names[layout])
              .cell(rate, 0)
              .cell(run.total_consumed())
              .cell(run.running_max_load())
              .cell(run.steal_events())
              .cell(arena_mb, 1);

          const std::string prefix = "exp27.n" + std::to_string(gn) + ".w" +
                                     std::to_string(gw) + "." +
                                     layout_names[layout] + ".";
          rec.metrics().gauge(prefix + "tasks_per_sec") = rate;
          rec.metrics().gauge(prefix + "wall_seconds") = secs;
          rec.metrics().gauge(prefix + "consumed") =
              static_cast<double>(run.total_consumed());
          rec.metrics().gauge(prefix + "max_load") =
              static_cast<double>(run.running_max_load());
          rec.metrics().gauge(prefix + "arena_bytes") =
              static_cast<double>(run.arena_bytes_used());
          if (layout == 1) {
            rec.metrics().gauge(prefix + "steal_events") =
                static_cast<double>(run.steal_events());
            rec.metrics().gauge(prefix + "stolen_tasks") =
                static_cast<double>(run.stolen_tasks());
          }

          if (!run.conservation_holds()) {
            std::fprintf(stderr,
                         "FATAL: scaling-grid conservation violated "
                         "(n=%llu w=%llu %s)\n",
                         static_cast<unsigned long long>(gn),
                         static_cast<unsigned long long>(gw),
                         layout_names[layout]);
            return 1;
          }
          GridSig& sig = sigs[layout];
          if (!sig.set) {
            sig.set = true;
            sig.consumed = run.total_consumed();
            sig.max_load = run.running_max_load();
            sig.total_load = run.total_load();
          } else if (sig.consumed != run.total_consumed() ||
                     sig.max_load != run.running_max_load() ||
                     sig.total_load != run.total_load()) {
            std::fprintf(stderr,
                         "FATAL: scaling-grid worker counts diverged "
                         "(n=%llu w=%llu %s)\n",
                         static_cast<unsigned long long>(gn),
                         static_cast<unsigned long long>(gw),
                         layout_names[layout]);
            return 1;
          }
        }
      }
    }
    clb::bench::emit(gt, "rt_5");
  }

  if (*telemetry) {
    util::print_banner("telemetry  per-worker utilization / stall / imbalance");
    clb::bench::emit(ttable, "rt_telemetry");
    if (!telemetry_jsonl->empty()) {
      if (!obs::write_text_file(*telemetry_jsonl, telemetry_timeline)) {
        std::fprintf(stderr, "FATAL: cannot write %s\n",
                     telemetry_jsonl->c_str());
        return 1;
      }
      rec.manifest().add_output("rt_telemetry_snapshots", *telemetry_jsonl);
      util::print_note("snapshot timeline: " + *telemetry_jsonl +
                       " (feed to tools/rt_report.py --snapshots)");
    }
  }
  rec.metrics().gauge("rt.telemetry_compiled") =
      obs::kTelemetryCompiled ? 1.0 : 0.0;
  rec.metrics().gauge("rt.hardware_concurrency") =
      static_cast<double>(std::thread::hardware_concurrency());
  util::print_note("speedup is relative to the first worker count of the "
                   "same (model, policy) row group; on an oversubscribed "
                   "host expect flat or sub-linear curves.");
  rec.finish();
  return 0;
}
