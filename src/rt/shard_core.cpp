#include "rt/shard_core.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace clb::rt {

namespace {

/// Busy work standing in for a task's compute cost. The asm constraint keeps
/// the loop from being optimised away without touching memory.
inline void spin(std::uint32_t iters) {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint32_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
#if defined(__GNUC__) || defined(__clang__)
    asm volatile("" : "+r"(x));
#endif
  }
}

/// The node with global slot `slot` (nodes are kept sorted by slot).
ShardCore::Node& node_at(std::vector<ShardCore::Node>& nodes,
                         std::uint64_t slot) {
  auto it = std::lower_bound(
      nodes.begin(), nodes.end(), slot,
      [](const ShardCore::Node& n, std::uint64_t s) { return n.slot < s; });
  CLB_DCHECK(it != nodes.end() && it->slot == slot, "message for unknown node");
  return *it;
}

}  // namespace

bool key_less(const Message& a, const Message& b) {
  if (a.key != b.key) return a.key < b.key;
  return static_cast<int>(a.kind) < static_cast<int>(b.kind);
}

ShardCore::ShardCore(const RtConfig& config, sim::LoadModel& load_model,
                     unsigned shard, std::chrono::steady_clock::time_point epoch)
    : cfg(config),
      model(load_model),
      index(shard),
      begin(util::block_range(config.n, config.workers, shard).first),
      end(util::block_range(config.n, config.workers, shard).second),
      telemetry(config.telemetry && obs::kTelemetryCompiled),
      map_(config.n, config.workers),
      epoch_(epoch) {
  CLB_CHECK(cfg.workers >= 1 && index < cfg.workers,
            "shard index out of range");
  CLB_CHECK(cfg.n >= 1 && cfg.n <= (1ULL << 31),
            "processor ids must fit comfortably in 32 bits");
  CLB_CHECK(cfg.workers <= cfg.n, "more shards than processors");
  if (cfg.policy == RtPolicy::kThreshold) {
    CLB_CHECK(cfg.params.n == cfg.n,
              "phase params must be realised for this n (PhaseParams::from_n)");
    CLB_CHECK(cfg.game.b >= 1 && cfg.game.b <= 2,
              "query trees are binary: b must be 1 or 2");
    CLB_CHECK(cfg.game.a >= 2 && cfg.game.a <= kMaxA &&
                  static_cast<std::uint64_t>(cfg.game.a) < cfg.n,
              "collision fan-out a out of range");
    CLB_CHECK(cfg.game.c >= 1, "collision capacity c must be >= 1");
  }
}

std::uint32_t ShardCore::now_us() const {
  return static_cast<std::uint32_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void ShardCore::apply_tasks(const Message& m, std::span<const RtTask> tasks) {
  CLB_DCHECK(carries_tasks(m.kind), "only transfers and scatters carry tasks");
  RtProcessor& dst = proc(m.b);
  if (m.kind == MsgKind::kTransfer) dst.tasks_received += tasks.size();
  for (const RtTask& t : tasks) dst.queue.push_back(t, arena);
}

void ShardCore::send_transfer(std::uint64_t step, std::uint32_t root,
                              std::uint32_t partner, std::uint64_t ordinal,
                              std::uint64_t count) {
  RtProcessor& src = proc(root);
  if (count == 0) return;
  if (count > src.queue.size()) {
    count = src.queue.size();
    ++clamped;
  }
  Message m;
  m.kind = MsgKind::kTransfer;
  m.key = root;
  m.a = root;
  m.b = partner;
  m.due = step;  // latency mode: payload hops mature the same step
  transfer_tasks_.clear();
  src.queue.extract_back(count, transfer_tasks_);
  src.tasks_sent += count;
  ++msg.transfers;
  msg.tasks_moved += count;
  ledger.push_back(LedgerEntry{step, root, partner,
                               static_cast<std::uint32_t>(count)});
  CLB_TRACE_EVENT(cfg.trace, obs::EventKind::kTransfer, step, root, partner,
                  count);
  if (ordinal != 0 && ordinal == cfg.drop_transfer_message) {
    // The broken exchange: the sender's books all say the transfer
    // happened, the receiver never sees it.
    ++dropped_msgs;
    dropped_task_count += count;
    dropped.push_back(LedgerEntry{step, root, partner,
                                  static_cast<std::uint32_t>(count)});
    return;
  }
  send(partner, m, transfer_tasks_);
}

void ShardCore::apply_staged_transfers(std::uint64_t step, std::uint64_t base,
                                       std::uint64_t total) {
  // Canonical order: ascending source processor. Shards are contiguous, so
  // base + local index is the transfer's global (step, source) ordinal.
  std::sort(staged.begin(), staged.end(),
            [](const StagedTransfer& a, const StagedTransfer& b) {
              return a.from < b.from;
            });
  std::uint64_t k = 0;
  for (const StagedTransfer& st : staged) {
    send_transfer(step, st.from, st.to, base + (++k),
                  cfg.params.transfer_amount);
  }
  staged.clear();
  transfer_seen += total;
}

void ShardCore::step_once(std::uint64_t step) {
  cur_step = step;
#if CLB_TELEMETRY_ENABLED
  std::chrono::steady_clock::time_point step_t0;
  if (telemetry) {
    step_t0 = std::chrono::steady_clock::now();
    step_stall_ns = 0;
  }
#endif
  // Tracked unconditionally (two register adds per processor); folded into
  // the telemetry struct once per step below.
  std::uint64_t gen_total = 0, cons_total = 0;

  before_step(step);

  // ---- generate / consume (mirrors Engine::generate_consume_block) ----
  const std::uint64_t system_load = sys_load;
  for (std::uint64_t p = begin; p < end; ++p) {
    if (dry_board != nullptr) dry_board[p] = 0;  // dead procs are never dry
    if (liveness != nullptr && !liveness->alive(p, step)) continue;
    RtProcessor& pr = procs[p - begin];
    const sim::StepAction act =
        model.step_action(cfg.seed, p, step, pr.queue.size(), system_load);
    for (std::uint32_t i = 0; i < act.generate; ++i) {
      pr.queue.push_back(
          RtTask{sim::Task{static_cast<std::uint32_t>(step),
                           static_cast<std::uint32_t>(p), act.weight},
                 cfg.time_sojourn ? now_us() : 0},
          arena);
    }
    pr.generated += act.generate;
    gen_total += act.generate;
    std::uint32_t c = act.consume;
    while (c > 0 && !pr.queue.empty()) {
      const RtTask t = pr.queue.front();
      pr.queue.pop_front();
      ++pr.consumed;
      ++cons_total;
      if (t.task.origin == p) ++pr.consumed_on_origin;
      if (cfg.track_sojourn) sojourn_steps.add(step - t.task.birth_step);
      if (cfg.time_sojourn) sojourn_us.add(now_us() - t.birth_us);
      if (cfg.spin_work != 0) spin(cfg.spin_work);
      --c;
    }
    // Dry = leftover consume budget (the loop invariant makes c > 0 imply
    // an emptied queue): this processor is a steal thief this step.
    if (dry_board != nullptr && c > 0) dry_board[p] = 1;
  }

  // ---- balancing policy ----
  balanced = 0;
  phase_ran = false;
  balance(step);

  // ---- end-of-step reduction (the engine's refresh_load_aggregates) ----
  std::uint64_t local_load = 0, local_max = 0;
  for (const RtProcessor& pr : procs) {
    const std::uint64_t l = pr.queue.size();
    local_load += l;
    if (l > local_max) local_max = l;
  }
  const std::uint64_t mine[3] = {local_load, local_max, balanced};
  std::uint64_t sys = 0, mx = 0, tally = 0;
  for (const std::span<const std::uint64_t> b : allgather(mine)) {
    sys += b[0];
    if (b[1] > mx) mx = b[1];
    tally += b[2];
  }
  sys_load = sys;
  if (index == 0) {
    if (mx > running_max) running_max = mx;
    if (cfg.policy == RtPolicy::kAllInAir && tally > 0) {
      ++msg.transfers;  // the sim baseline's one global action
    }
    if (phase_ran) {
      // Complete the summary run_phase opened from the classification
      // blobs; the matched counts rode this reduction.
      RtPhaseSummary& ps = phases.back();
      ps.matched = tally;
      ps.unmatched = ps.num_heavy - tally;
      ps.requests = ph_requests;
      ps.levels_used = ph_levels;
      ps.collision_rounds = ph_rounds;
      ps.completed = true;
      CLB_TRACE_EVENT(cfg.trace, obs::EventKind::kPhaseEnd, step, 0, 0,
                      ps.phase_index, ps.matched, ps.unmatched);
    }
  }

#if CLB_TELEMETRY_ENABLED
  if (telemetry) {
    telem.generated += gen_total;
    telem.consumed += cons_total;
    if (phase_ran) {
      // Instant fabric: the phase resolved within this step (0 extra steps
      // to drain). Latency mode records its real durations instead.
      ++telem.phases;
      telem.phase_steps_hist.add(0);
    }
    const auto step_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - step_t0)
            .count());
    ++telem.steps;
    telem.step_ns += step_ns;
    telem.step_ns_hist.add(step_ns);
    CLB_TRACE_EVENT(cfg.trace, obs::EventKind::kWorkerStep, step, 0, 0,
                    step_ns,
                    step_ns >= step_stall_ns ? step_ns - step_stall_ns : 0);
  }
#else
  (void)gen_total;
  (void)cons_total;
#endif
  after_step(step, local_load);
}

void ShardCore::balance(std::uint64_t step) {
  if (cfg.policy == RtPolicy::kThreshold && step % cfg.params.phase_len == 0) {
    run_phase(step);
  }
}

void ShardCore::run_phase(std::uint64_t step) {
  phase_ran = true;
  ++phase_epoch;
  const std::uint64_t phase_index = phase_count++;
  const core::PhaseParams& pp = cfg.params;
  ph_requests = 0;
  ph_levels = 0;
  ph_rounds = 0;

  // Classification from post-generation loads — the balancer's begin_phase.
  heavy_local.clear();
  std::uint64_t light_count = 0;
  for (std::uint64_t p = begin; p < end; ++p) {
    RtProcessor& pr = procs[p - begin];
    const std::uint64_t load = pr.queue.size();
    if (load >= pp.heavy_threshold) {
      heavy_local.push_back(static_cast<std::uint32_t>(p));
      ++pr.balance_initiations;
    } else if (load <= pp.light_threshold) {
      pr.light_epoch = phase_epoch;
      ++light_count;
    }
  }
  // Classification blob: [heavy count, light count, heavy procs...]. Every
  // shard takes the heavy prefix for its level-1 slots; shard 0 also opens
  // the phase summary from the heavy lists.
  blob_.clear();
  blob_.push_back(heavy_local.size());
  blob_.push_back(light_count);
  blob_.insert(blob_.end(), heavy_local.begin(), heavy_local.end());
  const Blobs& all = allgather(blob_);

  std::uint64_t heavy_base = 0, total_heavy = 0;
  for (unsigned i = 0; i < cfg.workers; ++i) {
    if (i < index) heavy_base += all[i][0];
    total_heavy += all[i][0];
  }
  if (index == 0) {
    RtPhaseSummary ps;
    ps.phase_index = phase_index;
    ps.start_step = step;
    ps.end_step = step;  // instant-fabric phases resolve within the step
    for (const std::span<const std::uint64_t> b : all) {
      ps.num_light += b[1];
      ps.heavy_procs.insert(ps.heavy_procs.end(), b.begin() + 2, b.end());
    }
    ps.num_heavy = total_heavy;
    CLB_TRACE_EVENT(cfg.trace, obs::EventKind::kPhaseBegin, step, 0, 0,
                    phase_index, ps.num_heavy, ps.num_light);
    phases.push_back(std::move(ps));
  }

  // Level-1 nodes: the heavy processors themselves, slots in ascending
  // processor order (shard order = processor order by construction).
  nodes.clear();
  for (std::size_t i = 0; i < heavy_local.size(); ++i) {
    Node node;
    node.slot = heavy_base + i;
    node.proc = heavy_local[i];
    node.root = heavy_local[i];
    nodes.push_back(node);
  }

  std::uint64_t node_count = total_heavy;
  std::uint32_t level = 0;
  while (level < pp.tree_depth && node_count > 0) {
    ++level;
    node_count = run_level(step, phase_index, level, node_count);
  }

  for (const std::uint32_t h : heavy_local) {
    if (proc(h).matched_epoch == phase_epoch) ++balanced;
  }
}

std::uint64_t ShardCore::run_level(std::uint64_t step,
                                   std::uint64_t phase_index,
                                   std::uint32_t level,
                                   std::uint64_t node_count) {
  const collision::CollisionConfig& game = cfg.game;
  const std::uint64_t game_seed =
      collision::phase_game_seed(cfg.seed, phase_index, level);
  ++level_epoch;
  ph_levels = level;
  ph_requests += node_count;

  for (Node& node : nodes) {
    collision::draw_targets(cfg.n, game_seed, node.slot, node.proc, game.a,
                            node.targets);
    node.accepted_mask = 0;
    node.accept_count = 0;
    node.round_replies = 0;
    node.active = true;
    node.pending_children = 0;
    node.status_nonapp = 0;
  }

  // ---- collision rounds (Figure 1) as 3-superstep exchanges ----
  const std::uint32_t max_rounds = collision::round_bound(cfg.n, game);
  std::uint64_t active_total = node_count;
  std::uint32_t round = 0;
  while (round < max_rounds && active_total > 0) {
    ++round;
    ++round_epoch;

    // R1: active requests query their not-yet-accepted targets.
    for (const Node& node : nodes) {
      if (!node.active) continue;
      for (std::uint32_t j = 0; j < game.a; ++j) {
        if (node.accepted_mask & (1u << j)) continue;
        Message m;
        m.kind = MsgKind::kQuery;
        m.key = (node.slot << 4) | j;
        m.a = node.targets[j];
        m.b = node.proc;
        send(node.targets[j], m);
        ++msg.queries;
      }
    }
    allgather({});

    // R2: each queried processor counts arrivals, then accepts all or none
    // (count-based, so no sort is needed for determinism), replying per
    // accepted query. The replies may go out while a slower shard is still
    // draining: drain() is exact (see the seam), so they wait for R3.
    drain(batch);
    for (const Message& m : batch) {
      CLB_DCHECK(m.kind == MsgKind::kQuery, "unexpected message in R2");
      RtProcessor& t = proc(m.a);
      if (t.incoming_epoch != round_epoch) {
        t.incoming_epoch = round_epoch;
        t.incoming = 0;
      }
      ++t.incoming;
    }
    for (const Message& m : batch) {
      RtProcessor& t = proc(m.a);
      if (t.decide_epoch != round_epoch) {
        t.decide_epoch = round_epoch;
        const std::uint32_t prior =
            t.accept_epoch == level_epoch ? t.accepted_total : 0;
        t.accepts_round =
            t.incoming <= game.c && prior + t.incoming <= game.c;
        if (t.accepts_round) {
          t.accept_epoch = level_epoch;
          t.accepted_total = prior + t.incoming;
          msg.accepts += t.incoming;
        }
      }
      if (t.accepts_round) {
        Message r;
        r.kind = MsgKind::kAccept;
        r.key = m.key;
        r.a = m.b;  // route back to the requesting node's processor
        send(m.b, r);
      }
    }
    allgather({});

    // R3: requests collect accepts — mark reply bits first, then append in
    // j order (the simulator's pass-3 order); >= b accepts leaves the game.
    drain(batch);
    for (const Message& m : batch) {
      CLB_DCHECK(m.kind == MsgKind::kAccept, "unexpected message in R3");
      node_at(nodes, m.key >> 4).round_replies |= 1u << (m.key & 15);
    }
    std::uint64_t local_active = 0;
    for (Node& node : nodes) {
      if (!node.active) continue;
      if (node.round_replies != 0) {
        for (std::uint32_t j = 0; j < game.a; ++j) {
          if (node.round_replies & (1u << j)) {
            node.accepted_mask |= 1u << j;
            node.accepted[node.accept_count++] = node.targets[j];
          }
        }
        node.round_replies = 0;
      }
      if (node.accept_count >= game.b) node.active = false;
      if (node.active) ++local_active;
    }
    active_total = 0;
    for (const std::span<const std::uint64_t> b :
         allgather({&local_active, 1})) {
      active_total += b[0];
    }
  }
  ph_rounds += round;

  // ---- children announcement (first two accepts become tree children) ----
  for (Node& node : nodes) {
    const auto k = static_cast<std::uint8_t>(
        std::min<std::uint32_t>(node.accept_count, 2));
    node.pending_children = k;
    for (std::uint8_t s = 0; s < k; ++s) {
      Message m;
      m.kind = MsgKind::kChild;
      m.key = (node.slot << 1) | s;
      m.a = node.accepted[s];
      m.b = node.root;
      m.c = node.proc;
      send(node.accepted[s], m);
    }
  }
  allgather({});

  // ---- L2: applicative decision at the children (the balancer's
  // set_assigned walk). Sorted by (g, s): the first edge in global
  // (request, child) order reserves a still-light, still-unassigned
  // processor — exactly the simulator's iteration order.
  drain(batch);
  if (cfg.deterministic) std::sort(batch.begin(), batch.end(), key_less);
  for (const Message& m : batch) {
    CLB_DCHECK(m.kind == MsgKind::kChild, "unexpected message in L2");
    const std::uint32_t q = m.a;
    RtProcessor& qp = proc(q);
    const bool applicative =
        qp.light_epoch == phase_epoch && qp.assigned_epoch != phase_epoch;
    if (applicative) {
      qp.assigned_epoch = phase_epoch;
      Message id;
      id.kind = MsgKind::kId;
      id.key = m.key;
      id.a = m.b;  // root
      id.b = q;
      send(m.b, id);
      ++msg.id_messages;
    }
    Message st;
    st.kind = MsgKind::kChildStatus;
    st.key = m.key;
    st.a = m.c;  // parent
    st.b = applicative ? 1 : 0;
    send(m.c, st);
  }
  allgather({});

  // ---- L3: roots match on the first id (sorted: lowest (g, s) edge wins,
  // as in the simulator) and stage the task move; parents apply the sibling
  // rule and stage forwards.
  drain(batch);
  if (cfg.deterministic) std::sort(batch.begin(), batch.end(), key_less);
  for (const Message& m : batch) {
    if (m.kind == MsgKind::kId) {
      RtProcessor& root = proc(m.a);
      if (root.matched_epoch != phase_epoch) {
        root.matched_epoch = phase_epoch;
        root.matched_partner = m.b;
        staged.push_back(StagedTransfer{m.a, m.b});
      }
    } else {
      CLB_DCHECK(m.kind == MsgKind::kChildStatus, "unexpected message in L3");
      if (m.b == 0) ++node_at(nodes, m.key >> 1).status_nonapp;
    }
  }
  scan.clear();
  for (Node& node : nodes) {
    const std::uint8_t k = node.pending_children;
    std::uint32_t forward = 0;
    if (k == 2 && node.status_nonapp == 2) {
      // Sibling rule: both children learn (two control messages) that
      // neither was applicative and carry the search down.
      msg.control += 2;
      forward = 2;
    } else if (k == 1 && node.status_nonapp == 1) {
      forward = 1;
    }
    if (forward != 0) {
      ScanEntry e;
      e.g = node.slot;
      e.root = node.root;
      e.count = forward;
      e.child[0] = node.accepted[0];
      if (forward == 2) e.child[1] = node.accepted[1];
      scan.push_back(e);
    }
  }

  // Staged-count blob: [staged count, scan count, (g, count) pairs...].
  // Carries both the transfer prefix and the scan lists, so every shard
  // replays the same merge and the global child numbering needs no
  // leader-owned memory.
  blob_.clear();
  blob_.push_back(staged.size());
  blob_.push_back(scan.size());
  for (const ScanEntry& e : scan) {
    blob_.push_back(e.g);
    blob_.push_back(e.count);
  }
  const Blobs& all = allgather(blob_);

  std::uint64_t staged_base = transfer_seen;
  std::uint64_t staged_total = 0;
  for (unsigned i = 0; i < cfg.workers; ++i) {
    if (i < index) staged_base += all[i][0];
    staged_total += all[i][0];
  }

  // Replicated scan: dense global numbering for next-level nodes, merging
  // the per-shard (g, count) lists by parent slot g — identical for every
  // shard count.
  std::vector<std::size_t>& pos = scan_pos_;
  pos.assign(cfg.workers, 0);
  std::uint64_t next_node_count = 0;
  for (;;) {
    unsigned best = cfg.workers;
    std::uint64_t best_g = 0;
    for (unsigned i = 0; i < cfg.workers; ++i) {
      if (pos[i] >= all[i][1]) continue;
      const std::uint64_t g = all[i][2 + 2 * pos[i]];
      if (best == cfg.workers || g < best_g) {
        best = i;
        best_g = g;
      }
    }
    if (best == cfg.workers) break;
    if (best == index) scan[pos[best]].base = next_node_count;
    next_node_count += all[best][3 + 2 * pos[best]];
    ++pos[best];
  }

  // ---- staged transfers under the replicated (step, source) numbering;
  // the drain after the next reduction applies them on arrival.
  apply_staged_transfers(step, staged_base, staged_total);
  allgather({});
  drain(batch);
  CLB_CHECK(batch.empty(), "only transfers may be in flight after L3");

  // ---- forward children into next-level nodes ----
  for (const ScanEntry& e : scan) {
    for (std::uint32_t s = 0; s < e.count; ++s) {
      Message m;
      m.kind = MsgKind::kForward;
      m.key = e.base + s;
      m.a = e.child[s];
      m.b = e.root;
      send(e.child[s], m);
    }
  }
  allgather({});

  drain(batch);
  next_nodes.clear();
  for (const Message& m : batch) {
    CLB_DCHECK(m.kind == MsgKind::kForward, "unexpected message in L5");
    Node node;
    node.slot = m.key;
    node.proc = m.a;
    node.root = m.b;
    next_nodes.push_back(node);
  }
  std::sort(next_nodes.begin(), next_nodes.end(),
            [](const Node& a, const Node& b) { return a.slot < b.slot; });
  nodes.swap(next_nodes);
  return next_node_count;
}

}  // namespace clb::rt
