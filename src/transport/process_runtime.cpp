#include "transport/process_runtime.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace clb::transport {

ProcessRuntime::ProcessRuntime(ShardRunConfig cfg, WireKind wire)
    : cfg_(std::move(cfg)),
      wire_(wire),
      map_(cfg_.n, std::max(1u, cfg_.workers)) {
  CLB_CHECK(cfg_.workers >= 1, "transport: need at least one shard process");
  CLB_CHECK(cfg_.workers <= rt::kMaxShardProcesses,
            "transport: shard-process fan-out capped at 64");
  CLB_CHECK(cfg_.workers <= cfg_.n, "transport: more shards than processors");
  spawn();
}

ProcessRuntime::ProcessRuntime(const rt::RtConfig& cfg, const ModelSpec& model)
    : ProcessRuntime(
          [&] {
            CLB_CHECK(cfg.transport != rt::Transport::kInProc,
                      "ProcessRuntime needs a socket transport "
                      "(RtConfig::transport kUds or kTcp)");
            CLB_CHECK(cfg.latency == 0,
                      "the cross-process transport runs the instant schedule");
            CLB_CHECK(cfg.crashes.empty() && cfg.drop_transfer_message == 0,
                      "rt fault hooks are not carried by this transport");
            CLB_CHECK(cfg.trace == nullptr && !cfg.telemetry,
                      "tracing/telemetry are in-proc runtime features");
            CLB_CHECK(!cfg.steal.enabled,
                      "work stealing is not carried by this transport yet");
            ShardRunConfig sc;
            sc.n = cfg.n;
            sc.seed = cfg.seed;
            sc.workers = rt::resolve_workers(cfg);
            sc.deterministic = cfg.deterministic;
            sc.policy = cfg.policy;
            sc.params = cfg.params;
            sc.game = cfg.game;
            sc.spin_work = cfg.spin_work;
            sc.track_sojourn = cfg.track_sojourn;
            sc.time_sojourn = cfg.time_sojourn;
            sc.model = model;
            return sc;
          }(),
          cfg.transport == rt::Transport::kTcp ? WireKind::kTcp
                                               : WireKind::kUds) {}

void ProcessRuntime::spawn() {
  const unsigned w = cfg_.workers;

  // Full pre-fork mesh: peer_ends[i][j] is child i's data link to child j.
  std::vector<std::vector<Endpoint>> peer_ends(w);
  for (unsigned i = 0; i < w; ++i) peer_ends[i].resize(w);
  for (unsigned i = 0; i < w; ++i) {
    for (unsigned j = i + 1; j < w; ++j) {
      auto [a, b] = make_stream_pair(wire_);
      peer_ends[i][j] = std::move(a);
      peer_ends[j][i] = std::move(b);
    }
  }
  std::vector<Endpoint> ctl_child(w);
  ctl_.resize(w);
  for (unsigned i = 0; i < w; ++i) {
    auto [parent, child] = make_stream_pair(wire_);
    ctl_[i] = std::move(parent);
    ctl_child[i] = std::move(child);
  }

  // One sojourn epoch for every shard, inherited across the fork.
  epoch_ = std::chrono::steady_clock::now();
  pids_.resize(w, -1);
  for (unsigned i = 0; i < w; ++i) {
    const pid_t pid = ::fork();
    CLB_CHECK(pid >= 0, "transport: fork failed");
    if (pid == 0) {
      // Child: keep only our own ends. Everything else is closed so a dead
      // peer surfaces as EOF instead of a hang.
      for (unsigned k = 0; k < w; ++k) {
        ctl_[k].close_fd();
        if (k == i) continue;
        ctl_child[k].close_fd();
        for (unsigned j = 0; j < w; ++j) peer_ends[k][j].close_fd();
      }
      shard_worker_main(std::move(ctl_child[i]), std::move(peer_ends[i]),
                        epoch_);
      ::_exit(0);
    }
    pids_[i] = pid;
  }
  // Coordinator: drop the child-side fds (peer_ends/ctl_child destructors
  // close them as these vectors go out of scope).

  for (unsigned i = 0; i < w; ++i) {
    ShardRunConfig child_cfg = cfg_;
    child_cfg.index = i;
    Writer payload;
    child_cfg.serialize(payload);
    ctl_[i].send_frame(FrameType::kConfig, payload.data());
  }
  for (unsigned i = 0; i < w; ++i) {
    const Frame f = ctl_[i].recv_frame();
    CLB_CHECK(f.type == FrameType::kConfigAck,
              "transport: expected kConfigAck from a shard worker");
  }
}

ProcessRuntime::~ProcessRuntime() {
  for (Endpoint& c : ctl_) {
    if (c.valid()) c.send_frame(FrameType::kShutdown, nullptr, 0);
  }
  for (std::size_t i = 0; i < pids_.size(); ++i) {
    if (pids_[i] < 0) continue;
    int status = 0;
    const pid_t r = ::waitpid(pids_[i], &status, 0);
    CLB_CHECK(r == pids_[i], "transport: waitpid failed");
    CLB_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0,
              "transport: a shard worker exited abnormally");
  }
}

void ProcessRuntime::run(std::uint64_t steps) {
  if (steps == 0) return;
  CLB_CHECK(!collected_, "transport: run() after collect()");
  const auto t0 = std::chrono::steady_clock::now();
  Writer w;
  w.u64(steps);
  for (Endpoint& c : ctl_) c.send_frame(FrameType::kRun, w.data());

  for (unsigned i = 0; i < cfg_.workers; ++i) {
    const std::optional<Frame> f = ctl_[i].try_recv_frame();
    if (!f) fail_run(i);
    CLB_CHECK(f->type == FrameType::kDone,
              "transport: expected kDone from a shard worker");
  }
  wall_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  step_base_ += steps;
  log_.push_back(Command{Command::Kind::kRun, steps, 0, {}});
}

void ProcessRuntime::fail_run(unsigned shard) {
  // The shard that saw the fault printed why before it aborted. Closing
  // the control links ends every shard still waiting for a command, and a
  // dead shard's data links end the peers waiting on it, so every waitpid
  // below returns.
  for (Endpoint& c : ctl_) c.close_fd();
  std::string msg = "transport: shard " + std::to_string(shard) +
                    " died during run(); reaped every shard:";
  for (std::size_t i = 0; i < pids_.size(); ++i) {
    if (pids_[i] < 0) continue;
    int status = 0;
    const pid_t r = ::waitpid(pids_[i], &status, 0);
    pids_[i] = -1;
    msg += ' ';
    msg += std::to_string(i);
    if (r < 0) {
      msg += "=lost";
    } else if (WIFSIGNALED(status)) {
      msg += "=signal ";
      msg += std::to_string(WTERMSIG(status));
    } else {
      msg += "=exit ";
      msg += std::to_string(WEXITSTATUS(status));
    }
  }
  util::check_failed("every shard finished the run", __FILE__, __LINE__,
                     msg.c_str());
}

void ProcessRuntime::deposit(std::uint32_t p, sim::Task t) {
  CLB_CHECK(!collected_, "transport: deposit() after collect()");
  CLB_CHECK(p < cfg_.n, "deposit target out of range");
  Writer w;
  w.u64(p);
  serialize_task(w, rt::RtTask{t, 0});
  ctl_[map_.owner_of(p)].send_frame(FrameType::kDeposit, w.data());
  log_.push_back(Command{Command::Kind::kDeposit, 0, p, t});
}

void ProcessRuntime::collect() {
  if (collected_) return;
  for (Endpoint& c : ctl_) c.send_frame(FrameType::kCollect, nullptr, 0);

  procs_.reserve(cfg_.n);
  for (unsigned i = 0; i < cfg_.workers; ++i) {
    const Frame f = ctl_[i].recv_frame();
    CLB_CHECK(f.type == FrameType::kState,
              "transport: expected kState from a shard worker");
    Reader r(f.payload);
    ShardState st = ShardState::deserialize(r);
    CLB_CHECK(r.exhausted(), "transport: trailing bytes after kState payload");
    const auto [b, e] = util::block_range(cfg_.n, cfg_.workers, i);
    CLB_CHECK(st.begin == b && st.end == e && st.procs.size() == e - b,
              "transport: shard state does not match the partition");
    // Shards arrive in processor order; their queues stay in the arena
    // they were rebuilt in, which lives as long as procs_.
    for (rt::RtProcessor& pr : st.procs) procs_.push_back(std::move(pr));
    arenas_.push_back(std::move(st.arena));
    msg_.queries += st.msg.queries;
    msg_.accepts += st.msg.accepts;
    msg_.id_messages += st.msg.id_messages;
    msg_.control += st.msg.control;
    msg_.transfers += st.msg.transfers;
    msg_.tasks_moved += st.msg.tasks_moved;
    clamped_ += st.clamped;
    deposited_ += st.deposited;
    ledger_.insert(ledger_.end(), st.ledger.begin(), st.ledger.end());
    sojourn_steps_.merge(st.sojourn_steps);
    sojourn_us_.merge(st.sojourn_us);
    wire_stats_.merge(st.data_wire);
    wire_stats_.merge(st.control_wire);
    shard_wire_.push_back(ShardWire{st.data_wire, ctl_[i].frames_received()});
    shard_epochs_.push_back(std::chrono::steady_clock::time_point(
        std::chrono::steady_clock::duration(st.epoch_ticks)));
    if (i == 0) {
      running_max_ = st.running_max;
      phases_ = std::move(st.phases);
    }
  }
  std::sort(ledger_.begin(), ledger_.end(),
            [](const rt::LedgerEntry& a, const rt::LedgerEntry& b) {
              if (a.step != b.step) return a.step < b.step;
              if (a.from != b.from) return a.from < b.from;
              return a.to < b.to;
            });
  collected_ = true;
}

const rt::RtProcessor& ProcessRuntime::processor(std::uint64_t p) {
  collect();
  return procs_[p];
}

std::uint64_t ProcessRuntime::load(std::uint64_t p) {
  collect();
  return procs_[p].queue.size();
}

std::uint64_t ProcessRuntime::total_load() {
  collect();
  std::uint64_t sum = 0;
  for (const rt::RtProcessor& pr : procs_) sum += pr.queue.size();
  return sum;
}

std::uint64_t ProcessRuntime::total_generated() {
  collect();
  std::uint64_t sum = 0;
  for (const rt::RtProcessor& pr : procs_) sum += pr.generated;
  return sum;
}

std::uint64_t ProcessRuntime::total_consumed() {
  collect();
  std::uint64_t sum = 0;
  for (const rt::RtProcessor& pr : procs_) sum += pr.consumed;
  return sum;
}

std::uint64_t ProcessRuntime::running_max_load() {
  collect();
  return running_max_;
}

bool ProcessRuntime::conservation_holds() {
  collect();
  return total_generated() + deposited_ == total_consumed() + total_load();
}

sim::MessageCounters ProcessRuntime::messages() {
  collect();
  return msg_;
}

std::uint64_t ProcessRuntime::clamped_transfers() {
  collect();
  return clamped_;
}

std::vector<rt::LedgerEntry> ProcessRuntime::ledger() {
  collect();
  return ledger_;
}

const std::vector<rt::RtPhaseSummary>& ProcessRuntime::phases() {
  collect();
  return phases_;
}

stats::IntHistogram ProcessRuntime::sojourn_steps() {
  collect();
  return sojourn_steps_;
}

stats::IntHistogram ProcessRuntime::sojourn_us() {
  collect();
  return sojourn_us_;
}

std::uint64_t ProcessRuntime::deposited() {
  collect();
  return deposited_;
}

const obs::WireStats& ProcessRuntime::wire_stats() {
  collect();
  return wire_stats_;
}

const std::vector<ProcessRuntime::ShardWire>& ProcessRuntime::shard_wire() {
  collect();
  return shard_wire_;
}

const std::vector<std::chrono::steady_clock::time_point>&
ProcessRuntime::shard_epochs() {
  collect();
  return shard_epochs_;
}

}  // namespace clb::transport
