#include "rt/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "analysis/bounds.hpp"
#include "rng/dist.hpp"
#include "rng/philox.hpp"
#include "rng/splitmix64.hpp"
#include "rt/outbox.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace clb::rt {

namespace {

// rt-only stream for all-in-air scatter targets (per processor, so the
// draw order is partition-invariant; the sim baseline draws from one global
// stream, which no sharded runtime can reproduce — documented non-goal).
constexpr std::uint64_t kScatterSalt = 0x727473636174ULL;  // "rtscat"

}  // namespace

const char* transport_name(Transport t) {
  switch (t) {
    case Transport::kInProc: return "inproc";
    case Transport::kUds: return "uds";
    case Transport::kTcp: return "tcp";
  }
  return "?";
}

const char* policy_name(RtPolicy p) {
  switch (p) {
    case RtPolicy::kNone: return "none";
    case RtPolicy::kThreshold: return "threshold";
    case RtPolicy::kAllInAir: return "all-in-air";
    case RtPolicy::kStaleSq: return "stale-sq";
    case RtPolicy::kLocalSearch: return "local-search";
  }
  return "?";
}

unsigned resolve_workers(const RtConfig& cfg) {
  unsigned w = cfg.workers;
  if (w == 0) {
    w = std::max(1u, std::thread::hardware_concurrency());
    if (cfg.transport != Transport::kInProc) {
      w = std::min(w, kMaxShardProcesses);
    }
  }
  return static_cast<unsigned>(std::min<std::uint64_t>(w, cfg.n));
}

/// State shared by the latency fabric (RtConfig::latency >= 1): the
/// delivery policy both fabrics derive timing from, the dist:: protocol
/// bounds, and the per-processor request state machines (each entry is
/// touched only by its shard's owner).
struct Runtime::LatencyShared {
  /// Mirrors dist::DistThresholdBalancer::Request field for field.
  struct LatReq {
    std::uint32_t targets[8] = {};
    std::uint32_t root = 0;
    std::uint64_t act_step = 0;
    std::uint64_t await_until = 0;
    std::uint8_t accepted_mask = 0;
    std::uint8_t accept_count = 0;
    std::uint8_t round = 1;
    std::uint8_t level = 1;
    std::uint32_t child[2] = {};
    bool child_applicative[2] = {false, false};
    bool active = false;
  };

  net::DeliveryPolicy policy;
  std::uint32_t round_budget = 0;
  std::uint64_t max_phase_steps = 0;
  std::vector<LatReq> req;

  explicit LatencyShared(net::DeliveryPolicy p) : policy(p) {}
};

/// One worker thread: a shard core plus the in-process side of its exchange
/// seam, and the state of the policies only this runtime carries.
struct alignas(64) Runtime::Worker final : ShardCore {
  Worker(Runtime& runtime, unsigned i)
      : ShardCore(runtime.cfg_, *runtime.model_, i, runtime.start_tp_),
        host(runtime),
        outboxes(runtime.cfg_.workers),
        cursors(runtime.cfg_.workers) {}

  using ShardCore::send;
  void send(std::uint32_t dest_proc, const Message& m,
            std::span<const RtTask> tasks) override;
  void drain(std::vector<Message>& out) override;
  const Blobs& allgather(std::span<const std::uint64_t> blob) override;
  /// A step_barrier_ crossing: allgather()'s, and the runtime's own
  /// shared-board supersteps' (crash re-homing, zoo and steal boards,
  /// scatter, the forced-phase discard). With telemetry on it uses the
  /// timed variant and books the wait into the worker's stall accounts.
  void barrier();
  /// A crossing that books nothing (the snapshot emitter's).
  void barrier_untimed();
  /// Seals every outbox for the crossing about to be made.
  void seal();
  /// Hands `f(message, tasks)` exactly the messages sent here before this
  /// worker's last crossing (see rt/outbox.hpp): sender by sender in shard
  /// order, each sender's in send order. Books the drain in telemetry and
  /// returns its size.
  template <typename F>
  std::uint64_t drain_outboxes(F&& f);

  Runtime& host;
  // outboxes[d]: this worker's messages for worker d; cursors[s]: where
  // this worker's drains stand in worker s's outboxes[index]. Both reset
  // at step start.
  std::vector<Outbox> outboxes;
  std::vector<Outbox::Cursor> cursors;
  // step_barrier_ crossings so far; every worker crosses the same sequence,
  // so a count names the same superstep everywhere.
  std::uint64_t crossings = 0;
  std::uint64_t step_start_crossings = 0;
  // allgather() buffers, double-buffered by parity: a worker rewrites its
  // parity-p blob only after crossing the next allgather's barrier, which
  // every reader of the previous parity-p exchange has reached by then.
  std::vector<std::uint64_t> blobs[2];
  unsigned parity = 0;
  Blobs views;

  // Latency fabric state (RtConfig::latency >= 1). Each worker owns one
  // shard of the unified substrate: a net::Fabric of the messages routed to
  // it and the net::LinkModel state of the links its processors send on
  // (every link (src, *) is planned by owner(src), in protocol order, so
  // the sharded link clocks replay the serial fabric's exactly).
  net::Fabric<Message> fabric;
  net::LinkModel links;
  std::vector<Message> due_batch;
  std::vector<const Message*> query_batch;
  std::vector<std::uint64_t> lat_classes;  // barrier B's classification blob
  std::vector<std::uint32_t> lat_active;  // own procs with live requests
  bool lat_running = false;               // replicated phase state
  std::uint64_t lat_phase_index = 0;
  std::uint64_t lat_phase_start = 0;
  std::uint64_t lat_next_phase = 0;
  std::uint64_t fab_sent = 0;       // protocol messages put on the fabric
  std::uint64_t fab_delivered = 0;  // ... matured or discarded
  std::uint64_t lat_failed = 0;     // requests that ran out of rounds
  std::uint64_t fab_lost_msgs = 0;  // link_loss_no_retransmit victims
  std::uint64_t dup_applied = 0;    // dup_delivery clones materialised
  net::SendStage seq_stage = net::SendStage::kDeliver;  // send context
  std::uint64_t seq_major = 0;
  std::uint32_t seq_minor = 0;

  // Snapshot emitter copies: the leader reads a consistent view while
  // `telem` keeps moving.
  obs::WorkerTelemetry snap;
  std::uint64_t snap_load = 0;

  // Outputs, merged by the main thread after runs.
  std::uint64_t steal_sends = 0;  // own-victim steal batches shipped
  std::uint64_t stolen = 0;       // tasks those batches carried
  std::uint64_t steal_dups = 0;   // steal_duplicate_task clones left behind
  std::uint64_t remote_pushes = 0;
  std::uint64_t self_pushes = 0;

  std::thread thread;

 protected:
  void before_step(std::uint64_t step) override {
    for (Outbox& o : outboxes) o.reset();
    for (Outbox::Cursor& c : cursors) c = Outbox::Cursor{};
    step_start_crossings = crossings;
    host.process_crashes(*this, step);
  }
  void balance(std::uint64_t step) override;
  void after_step(std::uint64_t step, std::uint64_t load) override;
};

Runtime::Runtime(RtConfig cfg, sim::LoadModel* model)
    : cfg_(cfg),
      model_(model),
      map_(cfg.n, std::max(1u, resolve_workers(cfg))),
      step_barrier_(resolve_workers(cfg)),
      cmd_barrier_(resolve_workers(cfg)),
      start_tp_(std::chrono::steady_clock::now()) {
  CLB_CHECK(model_ != nullptr, "runtime needs a load model");
  CLB_CHECK(!model_->serial_generation(),
            "runtime requires a parallel-safe (counter-RNG) model");
  CLB_CHECK(cfg_.n >= 1 && cfg_.n <= (1ULL << 31),
            "runtime processor ids must fit comfortably in 32 bits");
  CLB_CHECK(cfg_.transport == Transport::kInProc,
            "rt::Runtime executes the in-proc substrate only; for kUds/kTcp "
            "construct a transport::ProcessRuntime from this config");
  const unsigned w = resolve_workers(cfg_);
  cfg_.workers = w;
  if (cfg_.policy == RtPolicy::kAllInAir) {
    air_interval_ = cfg_.n >= 4
                        ? util::round_at_least(util::log2log2(cfg_.n), 1)
                        : 1;
  }
  if (cfg_.latency > 0) {
    CLB_CHECK(cfg_.policy == RtPolicy::kThreshold,
              "the latency fabric runs the threshold protocol only");
    CLB_CHECK(cfg_.game.a <= 8,
              "latency mode runs the dist protocol: a in [2, 8]");
    CLB_CHECK(static_cast<std::uint64_t>(cfg_.game.c) *
                      (cfg_.game.a - cfg_.game.b) >= 2,
              "latency mode: round bound needs c(a-b) >= 2");
    CLB_CHECK(cfg_.phase_gap >= 1, "latency mode: phase_gap must be >= 1");
    CLB_CHECK(!(cfg_.link_loss_no_retransmit || cfg_.dup_delivery) ||
                  cfg_.link.lossy(),
              "link mutations need a lossy link (link.loss_per_64k > 0)");
    lat_ = std::make_unique<LatencyShared>(
        cfg_.topology != nullptr
            ? net::DeliveryPolicy(cfg_.n, cfg_.latency, cfg_.topology,
                                  cfg_.link.jitter, cfg_.seed)
            : net::DeliveryPolicy(cfg_.n, cfg_.latency, cfg_.link.jitter,
                                  cfg_.seed));
    lat_->round_budget = static_cast<std::uint32_t>(
        std::ceil(analysis::collision_round_bound(cfg_.n, cfg_.game.a,
                                                  cfg_.game.b, cfg_.game.c)));
    lat_->max_phase_steps = cfg_.max_phase_steps;
    if (lat_->max_phase_steps == 0) {
      // The shared failsafe bound (dist:: derives the identical value).
      net::LinkModel probe;
      probe.configure(cfg_.link, cfg_.seed, lat_->policy.max_delay());
      lat_->max_phase_steps =
          net::phase_failsafe(cfg_.params.tree_depth, lat_->round_budget,
                              lat_->policy.max_delay(), probe.worst_extra());
    }
    lat_->req.assign(cfg_.n, LatencyShared::LatReq{});
  } else {
    CLB_CHECK(!cfg_.link.shaped(),
              "link-model knobs require the latency fabric (latency >= 1)");
    CLB_CHECK(!cfg_.link_loss_no_retransmit && !cfg_.dup_delivery,
              "link mutations require the latency fabric (latency >= 1)");
  }

  const bool zoo = cfg_.policy == RtPolicy::kStaleSq ||
                   cfg_.policy == RtPolicy::kLocalSearch;
  if (zoo) {
    CLB_CHECK(cfg_.latency == 0,
              "workload-zoo policies run on the instant fabric only");
    if (cfg_.policy == RtPolicy::kStaleSq) {
      CLB_CHECK(cfg_.stale.staleness >= 1, "stale-sq: staleness must be >= 1");
    }
    board_.resize(cfg_.n, 0);
    stale_board_.resize(cfg_.n, 0);
    alive_board_.resize(cfg_.n, 1);
  }
  CLB_CHECK(!cfg_.stale_read_fresh || cfg_.policy == RtPolicy::kStaleSq,
            "stale_read_fresh mutates the stale-sq policy only");
  if (!cfg_.crashes.empty()) {
    CLB_CHECK(cfg_.policy == RtPolicy::kNone || zoo,
              "a crash schedule requires a liveness-aware policy "
              "(none, stale-sq or local-search)");
    CLB_CHECK(cfg_.latency == 0,
              "crash/recovery runs on the instant fabric only");
    liveness_ = core::LivenessSchedule(cfg_.n, cfg_.crashes);
  }
  CLB_CHECK(!cfg_.crash_lose_queue || !cfg_.crashes.empty(),
            "crash_lose_queue needs a crash schedule");

  if (cfg_.steal.enabled) {
    CLB_CHECK(cfg_.latency == 0,
              "work stealing runs on the instant fabric only");
    steal_board_.resize(cfg_.n, 0);
    steal_dry_board_.resize(cfg_.n, 0);
    steal_alive_board_.resize(cfg_.n, 1);
  }
  CLB_CHECK(!cfg_.steal_duplicate_task || cfg_.steal.enabled,
            "steal_duplicate_task mutates the steal pass only");

  // All processors in one zeroed allocation, made (and, by member order,
  // freed) around the workers' own: the malloc heap then keeps reusing its
  // pages from one runtime to the next instead of trimming and re-faulting
  // them at every construction.
  procs_.resize(cfg_.n);
  workers_.reserve(w);
  for (unsigned i = 0; i < w; ++i) {
    auto worker = std::make_unique<Worker>(*this, i);
    if (lat_) {
      worker->fabric.init(lat_->policy.max_delay());
      worker->links.configure(cfg_.link, cfg_.seed, lat_->policy.max_delay());
    }
    if (!liveness_.empty()) worker->liveness = &liveness_;
    if (cfg_.steal.enabled) worker->dry_board = steal_dry_board_.data();
    workers_.push_back(std::move(worker));
  }
  for (const auto& wk : workers_) {
    wk->procs = std::span(procs_).subspan(wk->begin, wk->end - wk->begin);
  }
  // The caller of run() is worker 0; the others get threads of their own.
  for (unsigned i = 1; i < w; ++i) {
    Worker* wp = workers_[i].get();
    wp->thread = std::thread([this, wp] {
      // Adopt the shard index as this thread's worker ID so trace events
      // and telemetry emitted from here carry the right lane.
      util::ThreadPool::bind_worker_index(wp->index);
      worker_main(*wp);
    });
  }
}

Runtime::~Runtime() {
  cmd_stop_ = true;
  cmd_barrier_.arrive_and_wait();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void Runtime::run(std::uint64_t steps) {
  if (steps == 0) return;
  cmd_steps_ = steps;
  const auto t0 = std::chrono::steady_clock::now();
  cmd_barrier_.arrive_and_wait();  // release the workers
  const unsigned caller_index = util::ThreadPool::worker_index();
  util::ThreadPool::bind_worker_index(0);
  run_steps(*workers_[0]);
  util::ThreadPool::bind_worker_index(caller_index);
  cmd_barrier_.arrive_and_wait();  // wait for completion
  wall_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  step_base_ += steps;
}

void Runtime::worker_main(Worker& w) {
  for (;;) {
    cmd_barrier_.arrive_and_wait();
    if (cmd_stop_) return;
    run_steps(w);
    cmd_barrier_.arrive_and_wait();
  }
}

void Runtime::run_steps(Worker& w) {
  for (std::uint64_t s = 0; s < cmd_steps_; ++s) w.step_once(step_base_ + s);
}

// ---- the in-process exchange seam ----

void Runtime::Worker::send(std::uint32_t dest_proc, const Message& m,
                           std::span<const RtTask> tasks) {
  if (m.kind == MsgKind::kTransfer && cfg.link_loss_no_retransmit &&
      links.mutation_lose_first_attempt(m.a, m.b)) {
    // The lossy wire without retransmit: the payload evaporates mid-flight
    // and NOTHING books the loss — the tasks are gone from every account,
    // which is exactly what the conservation oracle must convict.
    ++fab_lost_msgs;
    return;
  }
  const unsigned dst = owner_of(dest_proc);
  if (dst == index) {
    ++self_pushes;
#if CLB_TELEMETRY_ENABLED
    if (telemetry) ++telem.enq_self;
#endif
  } else {
    ++remote_pushes;
#if CLB_TELEMETRY_ENABLED
    if (telemetry) ++telem.enq_remote;
#endif
  }
  outboxes[dst].push(m, tasks);
}

void Runtime::Worker::seal() {
  ++crossings;
  for (Outbox& o : outboxes) o.seal(crossings);
}

void Runtime::Worker::barrier() {
  seal();
#if CLB_TELEMETRY_ENABLED
  if (telemetry) {
    const std::uint64_t ns = host.step_barrier_.arrive_and_wait_timed();
    ++telem.barrier_waits;
    telem.stall_ns += ns;
    telem.stall_ns_hist.add(ns);
    step_stall_ns += ns;
    CLB_TRACE_EVENT(cfg.trace, obs::EventKind::kBarrierWait, cur_step, 0, 0,
                    ns);
    return;
  }
#endif
  host.step_barrier_.arrive_and_wait();
}

void Runtime::Worker::barrier_untimed() {
  seal();
  host.step_barrier_.arrive_and_wait();
}

const Blobs& Runtime::Worker::allgather(std::span<const std::uint64_t> blob) {
  blobs[parity].assign(blob.begin(), blob.end());
  barrier();
  views.clear();
  for (const auto& other : host.workers_) views.emplace_back(other->blobs[parity]);
  parity ^= 1;
  return views;
}

template <typename F>
std::uint64_t Runtime::Worker::drain_outboxes(F&& f) {
  CLB_DCHECK(crossings > step_start_crossings,
             "a drain must follow a crossing of its own step");
  std::uint64_t n_drained = 0;
  for (const auto& sender : host.workers_) {
    n_drained += sender->outboxes[index].drain(cursors[sender->index],
                                               crossings, f);
  }
#if CLB_TELEMETRY_ENABLED
  if (telemetry) {
    ++telem.drains;
    telem.deq += n_drained;
    telem.drain_batch_hist.add(n_drained);
    CLB_TRACE_EVENT(cfg.trace, obs::EventKind::kMailboxDrain, cur_step, 0, 0,
                    n_drained);
  }
#endif
  return n_drained;
}

void Runtime::Worker::drain(std::vector<Message>& out) {
  out.clear();
  // Arrival order is canonical here: senders in shard (= processor) order,
  // each in send order. The task-carrying kinds rely on it — a threshold
  // light receives at most one transfer per phase, but a zoo receiver may
  // take several (in ascending-sender order, as the decision lists are
  // sorted), and scatters land in (source, sequence) order.
  drain_outboxes([&](const Message& m, std::span<const RtTask> tasks) {
    if (carries_tasks(m.kind)) {
      apply_tasks(m, tasks);
    } else {
      out.push_back(m);
    }
  });
}

// ---- the runtime's own policies around the core's step ----

void Runtime::Worker::balance(std::uint64_t step) {
  // Work stealing runs before the policy (mirrors Engine::apply_steals).
  if (cfg.steal.enabled) host.run_steal(*this, step);
  if (host.lat_) {
    host.run_lat_protocol(*this, step);
  } else if (cfg.policy == RtPolicy::kThreshold) {
    ShardCore::balance(step);
  } else if (cfg.policy == RtPolicy::kAllInAir &&
             step % host.air_interval_ == 0) {
    host.run_scatter(*this, step);
  } else if (cfg.policy == RtPolicy::kStaleSq ||
             cfg.policy == RtPolicy::kLocalSearch) {
    host.run_zoo(*this, step);
  }
}

void Runtime::Worker::after_step(std::uint64_t step, std::uint64_t load) {
  // Snapshot emitter: publish a consistent copy behind a barrier, let the
  // leader serialise all workers, and fence the read with a second barrier
  // so no worker can overwrite its copy (at the next snapshot) while the
  // leader is still reading. Plain barriers on purpose: the emitter is
  // telemetry overhead, not a protocol stall.
  if (!telemetry || cfg.telemetry_interval == 0 ||
      (step + 1) % cfg.telemetry_interval != 0) {
    return;
  }
  snap = telem;
  snap_load = load;
  barrier_untimed();
  if (index == 0) host.append_snapshots(step);
  barrier_untimed();
}

void Runtime::process_crashes(Worker& w, std::uint64_t step) {
  if (liveness_.empty() || !liveness_.crash_step(step)) return;
  // Without the entry barrier a fast worker could already be generating
  // into this step's queues while the leader moves them; the exit barrier
  // publishes the moves before anyone reads the re-homed queues.
  w.barrier();
  if (w.index == 0) {
    for (const std::uint32_t c : liveness_.crashes_at(step)) {
      RtProcessor& src = procs_[c];
      if (cfg_.crash_lose_queue) {
        // Mutation: the orphaned queue vanishes, booked nowhere — the
        // conservation oracle's job to notice.
        crash_lost_tasks_ += src.queue.size();
        src.queue.clear();
        continue;
      }
      const std::uint32_t to = liveness_.rehome_target(c, step);
      RtProcessor& dst = procs_[to];
      TaskArena& dst_arena = workers_[map_.owner_of(to)]->arena;
      while (!src.queue.empty()) {
        dst.queue.push_back(src.queue.front(), dst_arena);
        src.queue.pop_front();
        ++rehomed_tasks_;
      }
      ++rehomed_events_;
    }
  }
  w.barrier();
}

void Runtime::run_scatter(Worker& w, std::uint64_t step) {
  // Pop every task in the shard front-to-back and throw it at an i.u.a.r.
  // processor. Targets come from a per-processor counter stream keyed by
  // (proc, step) so the draw sequence is partition-invariant.
  std::uint64_t scattered = 0;
  for (std::uint64_t p = w.begin; p < w.end; ++p) {
    RtProcessor& pr = w.proc(p);
    rng::CounterRng rng(cfg_.seed, rng::hash_combine(kScatterSalt, p), step);
    std::uint64_t seq = 0;
    while (!pr.queue.empty()) {
      RtTask t = pr.queue.front();
      pr.queue.pop_front();
      const auto target = static_cast<std::uint32_t>(rng::bounded(rng, cfg_.n));
      Message m;
      m.kind = MsgKind::kScatter;
      m.key = (p << 32) | seq;
      m.a = static_cast<std::uint32_t>(p);
      m.b = target;
      w.send(target, m, {&t, 1});
      ++seq;
    }
    scattered += seq;
  }
  w.msg.control += scattered;     // one routing message per task (as in sim)
  w.msg.tasks_moved += scattered;
  w.barrier();
  // The drain lands the scatters in (source, sequence) = key order.
  w.drain(w.batch);
  CLB_DCHECK(w.batch.empty(), "unexpected message in scatter");
  // The closing reduction sums this so the leader can count the one global
  // balancing action.
  w.balanced = scattered;
}

void Runtime::run_zoo(Worker& w, std::uint64_t step) {
  // Publish the fresh shard board: post-generation loads and liveness,
  // disjoint writes sealed by the barrier.
  for (std::uint64_t p = w.begin; p < w.end; ++p) {
    board_[p] = static_cast<std::uint32_t>(w.proc(p).queue.size());
    alive_board_[p] = liveness_.alive(p, step) ? 1 : 0;
  }
  w.barrier();
  if (cfg_.policy == RtPolicy::kStaleSq &&
      step % cfg_.stale.staleness == 0) {
    // Broadcast step: refresh own shard of the stale board; the leader
    // books the n control messages, as the serial balancer does. Every
    // worker takes this branch or none does, so the barrier count matches.
    std::copy(board_.begin() + static_cast<std::ptrdiff_t>(w.begin),
              board_.begin() + static_cast<std::ptrdiff_t>(w.end),
              stale_board_.begin() + static_cast<std::ptrdiff_t>(w.begin));
    if (w.index == 0) w.msg.control += cfg_.n;
    w.barrier();
  }

  // Replicated decisions: every worker evaluates the same pure rule on the
  // same sealed boards, so the list — and the canonical ascending-sender
  // transfer numbering derived from it — is identical everywhere with no
  // leader scan.
  std::vector<sim::Transfer> ds;
  if (cfg_.policy == RtPolicy::kStaleSq) {
    ds = baselines::stale_sq_decisions(
        cfg_.n, board_, cfg_.stale_read_fresh ? board_ : stale_board_,
        alive_board_, cfg_.stale);
    if (cfg_.stale_read_fresh && w.index == 0) {
      // Mutation probe: count the steps on which the free lunch actually
      // changed the decisions (the fuzzer's mutation_applied witness).
      const std::vector<sim::Transfer> honest = baselines::stale_sq_decisions(
          cfg_.n, board_, stale_board_, alive_board_, cfg_.stale);
      bool same = honest.size() == ds.size();
      for (std::size_t i = 0; same && i < ds.size(); ++i) {
        same = honest[i].from == ds[i].from && honest[i].to == ds[i].to &&
               honest[i].count == ds[i].count;
      }
      if (!same) ++stale_cheat_divergence_;
    }
  } else {
    std::vector<std::uint32_t> probed;
    ds = baselines::local_search_decisions(cfg_.n, cfg_.seed, step, board_,
                                           alive_board_, cfg_.ls, &probed);
    if (w.index == 0) w.msg.queries += probed.size();
  }

  // Own-shard sends under the global numbering (list order == ascending
  // sender; shards are contiguous, so filtering by ownership keeps it).
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const sim::Transfer& d = ds[i];
    if (d.from < w.begin || d.from >= w.end) continue;
    ++w.proc(d.from).balance_initiations;
    w.send_transfer(step, d.from, d.to, w.transfer_seen + i + 1, d.count);
  }
  w.transfer_seen += ds.size();
  w.barrier();

  // Arrivals in ascending-sender order: several senders may target one
  // receiver, and the drain hands them over sender shard by sender shard,
  // each shard's in its list order. The decision rule's suppression (no
  // sender is also a receiver) makes send-time pops and these pushes
  // reproduce the engine's schedule-order application exactly.
  w.drain(w.batch);
  CLB_DCHECK(w.batch.empty(), "unexpected message in zoo step");
}

void Runtime::run_steal(Worker& w, std::uint64_t step) {
  // Publish the post-consume load and liveness boards; the dry board was
  // already written in place by this worker's consume loop. The barrier
  // seals all three before anyone evaluates the rule.
  for (std::uint64_t p = w.begin; p < w.end; ++p) {
    steal_board_[p] = static_cast<std::uint32_t>(w.proc(p).queue.size());
    steal_alive_board_[p] = liveness_.alive(p, step) ? 1 : 0;
  }
  w.barrier();

  // Replicated decisions over sealed boards — the run_zoo discipline. The
  // list, and therefore the canonical transfer numbering derived from its
  // order, is identical on every worker for every worker count (the same
  // ordinal stream drop_transfer_message victims are chosen from).
  const std::vector<sim::Transfer> ds = sim::steal_decisions(
      cfg_.n, steal_board_, steal_dry_board_, steal_alive_board_, cfg_.steal);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const sim::Transfer& d = ds[i];
    // The thief initiated this move (mirrors the engine's booking).
    if (d.to >= w.begin && d.to < w.end) ++w.proc(d.to).balance_initiations;
    if (d.from < w.begin || d.from >= w.end) continue;
    RtProcessor& src = w.proc(d.from);
    RtTask dup{};
    if (cfg_.steal_duplicate_task) {
      // Mutation: remember the newest task about to ship...
      dup = src.queue[src.queue.size() - 1];
    }
    w.send_transfer(step, d.from, d.to, w.transfer_seen + i + 1, d.count);
    if (cfg_.steal_duplicate_task) {
      // ... and clone it back onto the victim — the steal that copies
      // instead of moving. Conservation breaks by one task per steal;
      // nothing books it. The oracle's job to convict.
      src.queue.push_back(dup, w.arena);
      ++w.steal_dups;
    }
    ++w.steal_sends;
    w.stolen += d.count;
#if CLB_TELEMETRY_ENABLED
    if (w.telemetry) {
      ++w.telem.steals;
      w.telem.stolen_tasks += d.count;
    }
#endif
  }
  w.transfer_seen += ds.size();
  w.barrier();

  // Arrivals in ascending-victim order, exactly like the zoo policies (a
  // thief receives at most one batch anyway). The balancing policy's first
  // sends (all-in-air scatters at once) may already reach a slower
  // worker's outbox: they lie past this drain's seal and wait for the next.
  w.drain(w.batch);
  CLB_DCHECK(w.batch.empty(), "unexpected message in steal step");
}

// ===========================================================================
// Latency fabric (RtConfig::latency >= 1): the dist:: threshold protocol on
// real threads. Every protocol message is stamped with its delivery step
// (due = LinkModel::plan over the DeliveryPolicy wire delay) and its
// canonical net::SeqKey; the recipient's owner files it into its shard of
// the unified net::Fabric and only processes it once its step matures — so
// phases take real time and their duration scales with the latency (and
// the link model's queueing and retransmit schedules), exactly as in dist::.
//
// One latency step (mirrors dist::DistThresholdBalancer::on_step against
// sim::Engine's step schedule; barriers marked):
//
//   S1  process own ring slot due == step (handle_deliveries): queries are
//       batched per recipient, accepts/ids/forwards handled inline, transfer
//       commands staged. Sends stamped (kDeliver, recipient, k).
//   S2  evaluate own outstanding requests (timeouts, retries, forwards),
//       stamped (kEvaluate, (activation step, proc), k).
//       publish {active, fab_sent, fab_delivered, staged, matched}.
//   --- barrier A ---
//   S3  replicated phase decision: finish when drained (no active requests,
//       nothing in flight) or overdue (forced: every worker discards its
//       undelivered messages — dist's net reset — behind an extra barrier).
//   S4  start a phase when idle and past the gap: classify own shard from
//       current queue sizes (pre-transfer, as the engine's balancer sees
//       them), stamp lights, launch requests for own heavy processors.
//   S5  apply staged transfers in canonical (step, source) order via the
//       published prefix counts; payload messages (due = step) carry the
//       tasks to the partner's owner.
//   --- barrier B ---   (carries the S4 classification; the leader
//                        assembles the phase-start summary from it)
//   S6  drain the outboxes: apply due-now payloads, file everything else
//       into the fabric by due step.
//
// The shard core's closing reduction seals the step: messages
// sent in S1/S2/S4 were all filed by their owner in S6, so the next step's
// S1 sees a complete, quiescent fabric.
// ===========================================================================

void Runtime::lat_send(Worker& w, std::uint64_t step, Message m) {
  m.seq = net::SeqKey{step, w.seq_stage, w.seq_major, w.seq_minor++};
  // The link model decides when the send matures (wire delay plus queueing
  // and retransmit schedule); `m.from` is always owned by this worker, so
  // the sharded per-link clocks replay the serial fabric's exactly.
  const net::SendPlan plan =
      w.links.plan(m.from, m.to, step, lat_->policy.delay(m.from, m.to));
  std::uint64_t due = plan.due;
  if (cfg_.delay_skew_message != 0) {
    const std::uint64_t ord =
        skew_send_ordinal_.fetch_add(1, std::memory_order_relaxed) + 1;
    // The skewed fabric: one message matures a superstep early.
    if (ord == cfg_.delay_skew_message && due > step + 1) --due;
  }
  m.due = due;
  ++w.fab_sent;
  // Transfer commands are staged (and popped) at the source's owner; every
  // other kind goes to its protocol recipient.
  const std::uint32_t route = m.kind == MsgKind::kTransferCmd ? m.from : m.to;
  if (plan.dup && cfg_.dup_delivery && m.kind == MsgKind::kTransferCmd) {
    // The dup-delivery mutation: materialise the ack-loss duplicate the
    // clean fabric suppresses. The clone matures one rto later, stages the
    // same transfer a second time, and the ledger diverges from the shadow.
    Message d = m;
    d.due = plan.dup_due;
    ++w.fab_sent;  // the clone matures too; drain detection stays exact
    ++w.dup_applied;
    w.send(route, d);
  }
  w.send(route, m);
}

void Runtime::lat_send_pending_queries(Worker& w, std::uint64_t step,
                                       std::uint32_t proc) {
  auto& r = lat_->req[proc];
  // The round ends when the slowest outstanding target could have replied.
  std::uint64_t worst_delay = 1;
  for (std::uint32_t j = 0; j < cfg_.game.a; ++j) {
    if (r.accepted_mask & (1u << j)) continue;
    Message m;
    m.kind = MsgKind::kQuery;
    m.from = proc;
    m.to = r.targets[j];
    m.a = r.root;
    m.b = r.level;
    lat_send(w, step, m);
    ++w.msg.queries;
    worst_delay = std::max(worst_delay, lat_->policy.delay(proc, r.targets[j]));
  }
  r.await_until = step + 2ULL * worst_delay;
}

void Runtime::lat_start_request(Worker& w, std::uint64_t step,
                                std::uint32_t proc, std::uint32_t root,
                                std::uint32_t level) {
  auto& r = lat_->req[proc];
  CLB_DCHECK(!r.active, "processor already runs a request this phase");
  r = LatencyShared::LatReq{};
  r.root = root;
  r.act_step = step;
  r.level = static_cast<std::uint8_t>(level);
  r.active = true;
  // Fixed i.u.a.r. target set, excluding self — the same counter stream as
  // dist::DistThresholdBalancer::start_request, draw for draw.
  rng::CounterRng rng(cfg_.seed,
                      rng::hash_combine(net::kDistTargetSalt,
                                        rng::hash_combine(proc, level)),
                      w.lat_phase_index);
  for (std::uint32_t j = 0; j < cfg_.game.a; ++j) {
    for (;;) {
      const auto cand = static_cast<std::uint32_t>(rng::bounded(rng, cfg_.n));
      if (cand == proc) continue;
      bool dup = false;
      for (std::uint32_t k = 0; k < j; ++k) {
        if (r.targets[k] == cand) {
          dup = true;
          break;
        }
      }
      if (!dup) {
        r.targets[j] = cand;
        break;
      }
    }
  }
  w.lat_active.push_back(proc);
  lat_send_pending_queries(w, step, proc);
}

void Runtime::lat_process_due(Worker& w, std::uint64_t step) {
  w.due_batch.clear();
  w.fabric.take_due(step, w.due_batch);
  auto& due = w.due_batch;
  w.fab_delivered += due.size();
  // Group by the processor whose state the message updates (the source for
  // staged transfer commands, the recipient otherwise); the canonical seq
  // stamp orders processing within a group in deterministic mode — the
  // exact sort dist::Network::deliver runs.
  const auto group_of = [](const Message& m) {
    return m.kind == MsgKind::kTransferCmd ? m.from : m.to;
  };
  net::sort_due_batch(
      due, group_of,
      [](const Message& m) -> const net::SeqKey& { return m.seq; },
      cfg_.deterministic);
  std::size_t i = 0;
  while (i < due.size()) {
    const std::uint32_t recipient = group_of(due[i]);
    w.seq_stage = net::SendStage::kDeliver;
    w.seq_major = recipient;
    w.seq_minor = 0;
    w.query_batch.clear();
    std::size_t j = i;
    for (; j < due.size() && group_of(due[j]) == recipient; ++j) {
      const Message* m = &due[j];
      CLB_DCHECK(m->due == step, "ring slot held a message for another step");
      switch (m->kind) {
        case MsgKind::kQuery:
          w.query_batch.push_back(m);
          break;
        case MsgKind::kAccept: {
          auto& r = lat_->req[recipient];
          if (!r.active) break;  // stale accept after request resolved
          for (std::uint32_t t = 0; t < cfg_.game.a; ++t) {
            if (r.targets[t] == m->from && !(r.accepted_mask & (1u << t))) {
              r.accepted_mask = static_cast<std::uint8_t>(
                  r.accepted_mask | (1u << t));
              if (r.accept_count < 2) {
                r.child[r.accept_count] = m->from;
                r.child_applicative[r.accept_count] = m->b != 0;
              }
              ++r.accept_count;
              break;
            }
          }
          break;
        }
        case MsgKind::kId: {
          RtProcessor& root = w.proc(recipient);
          if (root.matched_epoch != w.phase_epoch) {
            root.matched_epoch = w.phase_epoch;
            root.matched_partner = m->from;
            // Ship the block: the command matures delay(root, partner)
            // steps from now at this same owner, which then pops the tasks.
            Message cmd;
            cmd.kind = MsgKind::kTransferCmd;
            cmd.from = recipient;
            cmd.to = m->from;
            lat_send(w, step, cmd);
          }
          break;
        }
        case MsgKind::kForward:
          if (!lat_->req[recipient].active) {
            lat_start_request(w, step, recipient, m->a, m->b);
          }
          ++w.msg.control;
          break;
        case MsgKind::kTransferCmd:
          w.staged.push_back(ShardCore::StagedTransfer{m->from, m->to});
          break;
        default:
          CLB_DCHECK(false, "unexpected message kind in latency drain");
          break;
      }
    }
    if (!w.query_batch.empty()) {
      // Collision rule: answer all queries of this step iff they fit within
      // the remaining per-phase capacity c; otherwise answer none (the
      // requesters time out and retry).
      RtProcessor& tp = w.proc(recipient);
      const std::uint32_t already =
          tp.accept_epoch == w.phase_epoch ? tp.accepted_total : 0;
      const std::size_t count = w.query_batch.size();
      if (count <= cfg_.game.c && already + count <= cfg_.game.c) {
        tp.accept_epoch = w.phase_epoch;
        tp.accepted_total = already + static_cast<std::uint32_t>(count);
        for (const Message* q : w.query_batch) {
          bool applicative = false;
          if (tp.light_epoch == w.phase_epoch &&
              tp.assigned_epoch != w.phase_epoch) {
            applicative = true;
            tp.assigned_epoch = w.phase_epoch;
            // Announce directly to the boss (its id rode in the query).
            Message id;
            id.kind = MsgKind::kId;
            id.from = recipient;
            id.to = q->a;
            lat_send(w, step, id);
            ++w.msg.id_messages;
          }
          Message ac;
          ac.kind = MsgKind::kAccept;
          ac.from = recipient;
          ac.to = q->from;
          ac.a = q->a;
          ac.b = applicative ? 1u : 0u;
          lat_send(w, step, ac);
          ++w.msg.accepts;
        }
      }
    }
    i = j;
  }
}

void Runtime::lat_evaluate(Worker& w, std::uint64_t step) {
  std::size_t wr = 0;
  for (std::size_t idx = 0; idx < w.lat_active.size(); ++idx) {
    const std::uint32_t proc = w.lat_active[idx];
    auto& r = lat_->req[proc];
    if (!r.active) continue;  // resolved elsewhere (defensive)
    if (step < r.await_until) {
      w.lat_active[wr++] = proc;
      continue;
    }
    w.seq_stage = net::SendStage::kEvaluate;
    w.seq_major = net::evaluate_major(r.act_step, proc);
    w.seq_minor = 0;
    if (r.accept_count >= cfg_.game.b) {
      // Request complete. Applicative children already announced
      // themselves; a fully non-applicative pair forwards the search.
      const std::uint32_t kids = std::min<std::uint32_t>(r.accept_count, 2);
      bool any_applicative = false;
      for (std::uint32_t k = 0; k < kids; ++k) {
        any_applicative |= r.child_applicative[k];
      }
      if (!any_applicative && r.level < cfg_.params.tree_depth) {
        for (std::uint32_t k = 0; k < kids; ++k) {
          Message m;
          m.kind = MsgKind::kForward;
          m.from = proc;
          m.to = r.child[k];
          m.a = r.root;
          m.b = static_cast<std::uint32_t>(r.level + 1);
          lat_send(w, step, m);
        }
      }
      r.active = false;
    } else if (r.round < lat_->round_budget) {
      ++r.round;
      lat_send_pending_queries(w, step, proc);
      w.lat_active[wr++] = proc;
    } else {
      ++w.lat_failed;
      r.active = false;
    }
  }
  w.lat_active.resize(wr);
}

void Runtime::lat_discard_undelivered(Worker& w) {
  // dist's forced net reset, shard by shard: every undelivered message is
  // either in its owner's fabric or still in an outbox (sent this step,
  // not yet filed); the owner discards both and books them as delivered so
  // the fabric reads as drained everywhere. The link clocks reset with it
  // — a forced end abandons the wire (dist::Network::reset does the same).
  w.fabric.discard_pending([&](const Message&) { ++w.fab_delivered; });
  w.links.reset();
  // The drain books the discards in telemetry, so enqueue == dequeue stays
  // an invariant.
  w.fab_delivered += w.drain_outboxes(
      []([[maybe_unused]] const Message& m, std::span<const RtTask>) {
        CLB_DCHECK(m.kind != MsgKind::kTransfer,
                   "payloads cannot be in flight at the phase decision");
      });
}

void Runtime::lat_drain_and_file(Worker& w, std::uint64_t step) {
  w.drain_outboxes([&](const Message& m, std::span<const RtTask> tasks) {
    if (m.kind == MsgKind::kTransfer) {
      // Due-now payload: the partner's owner appends the tasks, closing the
      // move the source's owner started in S5 this step.
      CLB_DCHECK(m.due == step, "stale transfer payload");
      w.apply_tasks(m, tasks);
      return;
    }
    // Fabric::file DCHECKs due > now — the deterministic-replay guarantee.
    w.fabric.file(step, m.due, m);
  });
}

void Runtime::run_lat_protocol(Worker& w, std::uint64_t step) {
  // S1 + S2: deliveries, then request evaluation (dist's on_step order).
  lat_process_due(w, step);
  lat_evaluate(w, step);

  // Barrier A publishes the replicated decision inputs and per-phase
  // tallies: [active requests, fabric sent, fabric delivered, staged
  // transfers, matched heavy].
  std::uint64_t matched_local = 0;
  for (const std::uint32_t h : w.heavy_local) {
    if (w.proc(h).matched_epoch == w.phase_epoch) ++matched_local;
  }
  const std::uint64_t mine[5] = {w.lat_active.size(), w.fab_sent,
                                 w.fab_delivered, w.staged.size(),
                                 matched_local};
  const Blobs& flight = w.allgather(mine);  // barrier A

  // S3: the replicated phase decision — every worker computes the same
  // totals from the published blobs, so every worker takes the same branch.
  std::uint64_t active_total = 0, sent = 0, delivered = 0;
  std::uint64_t staged_total = 0, staged_base = w.transfer_seen;
  std::uint64_t matched_total = 0;
  for (unsigned i = 0; i < worker_count(); ++i) {
    active_total += flight[i][0];
    sent += flight[i][1];
    delivered += flight[i][2];
    staged_total += flight[i][3];
    if (i < w.index) staged_base += flight[i][3];
    matched_total += flight[i][4];
  }
#if CLB_TELEMETRY_ENABLED
  // Fabric depth sampling. The totals are replicated (every worker computes
  // the same sums), so only the leader records them — merging would multiply
  // the sums by the worker count.
  if (w.telemetry && w.index == 0) {
    const std::uint64_t in_flight = sent - delivered;
    if (in_flight > w.telem.fabric_max_in_flight) {
      w.telem.fabric_max_in_flight = in_flight;
    }
    w.telem.fabric_flight_sum += in_flight;
    ++w.telem.fabric_flight_samples;
  }
#endif
  if (w.lat_running) {
    const bool drained = active_total == 0 && sent == delivered;
    const bool overdue = step - w.lat_phase_start >= lat_->max_phase_steps;
    if (drained || overdue) {
      const bool forced = overdue && !drained;
#if CLB_TELEMETRY_ENABLED
      // Replicated branch: every worker records the (identical) phase
      // duration, keeping `phases` a lockstep per-worker count.
      if (w.telemetry) {
        ++w.telem.phases;
        w.telem.phase_steps_hist.add(step - w.lat_phase_start);
      }
#endif
      if (forced) {
        for (const std::uint32_t proc : w.lat_active) {
          lat_->req[proc].active = false;
        }
        w.lat_active.clear();
        lat_discard_undelivered(w);
      }
      if (w.index == 0) {
        RtPhaseSummary& ps = w.phases.back();
        ps.end_step = step;
        ps.matched = matched_total;
        ps.unmatched = ps.num_heavy - matched_total;
        ps.forced = forced;
        ps.completed = true;
        CLB_TRACE_EVENT(cfg_.trace, obs::EventKind::kPhaseEnd, step, 0, 0,
                        ps.phase_index, ps.matched, ps.unmatched);
      }
      w.lat_running = false;
      w.lat_next_phase = step + cfg_.phase_gap;
      if (forced) {
        // Fence the discards from the payload sends of S5: a replicated
        // branch, so either every worker arrives here or none does.
        w.barrier();
      }
    }
  }

  // S4: start a phase. Classification reads the queues before this step's
  // transfers are applied — the engine's balancer sees exactly that state.
  // Barrier B carries [light count, heavy procs...] on a phase-start step.
  std::vector<std::uint64_t>& classes = w.lat_classes;
  classes.clear();
  const bool phase_start = !w.lat_running && step >= w.lat_next_phase;
  if (phase_start) {
    ++w.phase_epoch;
    ++w.lat_phase_index;
    w.lat_running = true;
    w.lat_phase_start = step;
    const core::PhaseParams& pp = cfg_.params;
    w.heavy_local.clear();
    std::uint64_t light_count = 0;
    for (std::uint64_t p = w.begin; p < w.end; ++p) {
      RtProcessor& pr = w.proc(p);
      const std::uint64_t load = pr.queue.size();
      if (load >= pp.heavy_threshold) {
        w.heavy_local.push_back(static_cast<std::uint32_t>(p));
        ++pr.balance_initiations;
      } else if (load <= pp.light_threshold) {
        pr.light_epoch = w.phase_epoch;
        ++light_count;
      }
    }
    classes.push_back(light_count);
    classes.insert(classes.end(), w.heavy_local.begin(), w.heavy_local.end());
    for (const std::uint32_t h : w.heavy_local) {
      w.seq_stage = net::SendStage::kPhaseStart;
      w.seq_major = h;
      w.seq_minor = 0;
      lat_start_request(w, step, h, h, 1);
    }
  }

  // S5: apply this step's staged transfers under the canonical numbering.
  w.apply_staged_transfers(step, staged_base, staged_total);
  const Blobs& started = w.allgather(classes);  // barrier B

  if (w.index == 0 && phase_start) {
    // Leader assembles the phase-start summary from the classification
    // blobs.
    RtPhaseSummary ps;
    ps.phase_index = w.lat_phase_index;
    ps.start_step = step;
    for (const std::span<const std::uint64_t> b : started) {
      ps.num_light += b[0];
      ps.heavy_procs.insert(ps.heavy_procs.end(), b.begin() + 1, b.end());
    }
    ps.num_heavy = ps.heavy_procs.size();
    CLB_TRACE_EVENT(cfg_.trace, obs::EventKind::kPhaseBegin, step, 0, 0,
                    ps.phase_index, ps.num_heavy, ps.num_light);
    w.phases.push_back(std::move(ps));
  }

  // S6: drain the outboxes — apply due-now payloads, file the rest.
  lat_drain_and_file(w, step);
}

// ---- main-thread aggregation ----

std::uint64_t Runtime::running_max_load() const {
  return workers_[0]->running_max;
}

const std::vector<RtPhaseSummary>& Runtime::phases() const {
  return workers_[0]->phases;
}

std::uint64_t Runtime::total_load() const {
  std::uint64_t s = 0;
  for (const auto& p : procs_) s += p.queue.size();
  return s;
}

std::uint64_t Runtime::total_generated() const {
  std::uint64_t s = 0;
  for (const auto& p : procs_) s += p.generated;
  return s;
}

std::uint64_t Runtime::total_consumed() const {
  std::uint64_t s = 0;
  for (const auto& p : procs_) s += p.consumed;
  return s;
}

bool Runtime::conservation_holds() const {
  return total_generated() + deposited_ ==
         total_consumed() + total_load() + dropped_tasks();
}

std::uint64_t Runtime::dropped_messages() const {
  std::uint64_t s = 0;
  for (const auto& w : workers_) s += w->dropped_msgs;
  return s;
}

std::uint64_t Runtime::dropped_tasks() const {
  std::uint64_t s = 0;
  for (const auto& w : workers_) s += w->dropped_task_count;
  return s;
}

std::vector<LedgerEntry> Runtime::dropped_log() const {
  std::vector<LedgerEntry> all;
  for (const auto& w : workers_) {
    all.insert(all.end(), w->dropped.begin(), w->dropped.end());
  }
  std::sort(all.begin(), all.end(),
            [](const LedgerEntry& a, const LedgerEntry& b) {
              if (a.step != b.step) return a.step < b.step;
              return a.from < b.from;
            });
  return all;
}

std::uint64_t Runtime::fabric_sent() const {
  std::uint64_t s = 0;
  for (const auto& w : workers_) s += w->fab_sent;
  return s;
}

std::uint64_t Runtime::fabric_in_flight() const {
  std::uint64_t sent = 0, delivered = 0;
  for (const auto& w : workers_) {
    sent += w->fab_sent;
    delivered += w->fab_delivered;
  }
  return sent - delivered;
}

std::uint64_t Runtime::fabric_retransmits() const {
  std::uint64_t s = 0;
  for (const auto& w : workers_) s += w->links.retransmits();
  return s;
}

std::uint64_t Runtime::fabric_dup_suppressed() const {
  std::uint64_t s = 0;
  for (const auto& w : workers_) s += w->links.dup_suppressed();
  return s;
}

std::uint64_t Runtime::fabric_queued_delay() const {
  std::uint64_t s = 0;
  for (const auto& w : workers_) s += w->links.queued_delay();
  return s;
}

std::uint64_t Runtime::link_lost_messages() const {
  std::uint64_t s = 0;
  for (const auto& w : workers_) s += w->fab_lost_msgs;
  return s;
}

std::uint64_t Runtime::dup_delivered() const {
  std::uint64_t s = 0;
  for (const auto& w : workers_) s += w->dup_applied;
  return s;
}

std::uint64_t Runtime::steal_events() const {
  std::uint64_t s = 0;
  for (const auto& w : workers_) s += w->steal_sends;
  return s;
}

std::uint64_t Runtime::stolen_tasks() const {
  std::uint64_t s = 0;
  for (const auto& w : workers_) s += w->stolen;
  return s;
}

std::uint64_t Runtime::steal_dup_tasks() const {
  std::uint64_t s = 0;
  for (const auto& w : workers_) s += w->steal_dups;
  return s;
}

std::uint64_t Runtime::arena_bytes_used() const {
  std::uint64_t s = 0;
  for (const auto& w : workers_) s += w->arena.bytes_used();
  return s;
}

void Runtime::append_snapshots(std::uint64_t step) {
  for (const auto& worker : workers_) {
    obs::append_telemetry_snapshot(telemetry_jsonl_, cfg_.telemetry_tag, step,
                                   worker->index, worker_count(),
                                   worker->snap_load, worker->snap);
  }
}

const obs::WorkerTelemetry& Runtime::worker_telemetry(unsigned i) const {
  return workers_[i]->telem;
}

obs::WorkerTelemetry Runtime::telemetry_total() const {
  obs::WorkerTelemetry total;
  for (const auto& w : workers_) total.merge(w->telem);
  return total;
}

void Runtime::export_telemetry(obs::MetricsRegistry& m,
                               const std::string& prefix) const {
  const obs::WorkerTelemetry total = telemetry_total();
  obs::merge_worker_telemetry(m, total, prefix);
  double util_sum = 0.0;
  std::uint64_t max_consumed = 0;
  for (const auto& w : workers_) {
    obs::merge_worker_telemetry(
        m, w->telem, prefix + "w" + std::to_string(w->index) + ".");
    util_sum += w->telem.utilization();
    if (w->telem.consumed > max_consumed) max_consumed = w->telem.consumed;
  }
  const auto workers = static_cast<double>(worker_count());
  const double mean_consumed = static_cast<double>(total.consumed) / workers;
  m.gauge(prefix + "workers") = workers;
  m.gauge(prefix + "utilization_mean") = util_sum / workers;
  m.gauge(prefix + "barrier_stall_fraction") = total.stall_fraction();
  // max/mean consumed tasks over workers; 1.0 = perfectly even shards.
  m.gauge(prefix + "queue_imbalance") =
      mean_consumed > 0.0 ? static_cast<double>(max_consumed) / mean_consumed
                          : 0.0;
  if (lat_) {
    // Leader-sampled fabric depth, named like the dist.net.* gauges so the
    // two execution models export comparable telemetry.
    const obs::WorkerTelemetry& lead = workers_[0]->telem;
    m.gauge(prefix + "fabric_max_in_flight") =
        static_cast<double>(lead.fabric_max_in_flight);
    m.gauge(prefix + "fabric_mean_in_flight") =
        lead.fabric_flight_samples == 0
            ? 0.0
            : static_cast<double>(lead.fabric_flight_sum) /
                  static_cast<double>(lead.fabric_flight_samples);
  }
}

sim::MessageCounters Runtime::messages() const {
  sim::MessageCounters total;
  for (const auto& w : workers_) {
    total.queries += w->msg.queries;
    total.accepts += w->msg.accepts;
    total.id_messages += w->msg.id_messages;
    total.control += w->msg.control;
    total.transfers += w->msg.transfers;
    total.tasks_moved += w->msg.tasks_moved;
  }
  return total;
}

std::uint64_t Runtime::clamped_transfers() const {
  std::uint64_t s = 0;
  for (const auto& w : workers_) s += w->clamped;
  return s;
}

std::vector<LedgerEntry> Runtime::ledger() const {
  std::vector<LedgerEntry> all;
  for (const auto& w : workers_) {
    all.insert(all.end(), w->ledger.begin(), w->ledger.end());
  }
  std::sort(all.begin(), all.end(),
            [](const LedgerEntry& a, const LedgerEntry& b) {
              if (a.step != b.step) return a.step < b.step;
              if (a.from != b.from) return a.from < b.from;
              if (a.to != b.to) return a.to < b.to;
              // A steal and a phase transfer may share (step, from, to);
              // count keeps the canonical order total.
              return a.count < b.count;
            });
  return all;
}

stats::IntHistogram Runtime::sojourn_steps() const {
  stats::IntHistogram h;
  for (const auto& w : workers_) h.merge(w->sojourn_steps);
  return h;
}

stats::IntHistogram Runtime::sojourn_us() const {
  stats::IntHistogram h;
  for (const auto& w : workers_) h.merge(w->sojourn_us);
  return h;
}

std::uint64_t Runtime::remote_pushes() const {
  std::uint64_t s = 0;
  for (const auto& w : workers_) s += w->remote_pushes;
  return s;
}

std::uint64_t Runtime::self_pushes() const {
  std::uint64_t s = 0;
  for (const auto& w : workers_) s += w->self_pushes;
  return s;
}

void Runtime::deposit(std::uint32_t p, sim::Task t) {
  CLB_CHECK(p < cfg_.n, "deposit target out of range");
  Worker& owner = *workers_[map_.owner_of(p)];
  procs_[p].queue.push_back(RtTask{t, cfg_.time_sojourn ? owner.now_us() : 0},
                            owner.arena);
  ++deposited_;
}

}  // namespace clb::rt
