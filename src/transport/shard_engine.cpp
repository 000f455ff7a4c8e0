#include "transport/shard_engine.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "rt/shard_core.hpp"
#include "util/check.hpp"

namespace clb::transport {

namespace {

void serialize_hist(Writer& w, const stats::IntHistogram& h) {
  // Sparse (value, count) pairs: sojourn_us values can reach the run's
  // wall-clock in microseconds, so a dense dump would dwarf the frame cap.
  const std::vector<std::uint64_t>& counts = h.counts();
  std::uint64_t pairs = 0;
  for (const std::uint64_t c : counts) {
    if (c != 0) ++pairs;
  }
  w.u64(pairs);
  for (std::uint64_t v = 0; v < counts.size(); ++v) {
    if (counts[v] != 0) {
      w.u64(v);
      w.u64(counts[v]);
    }
  }
}

stats::IntHistogram deserialize_hist(Reader& r) {
  stats::IntHistogram h;
  const std::uint64_t pairs = r.u64();
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const std::uint64_t v = r.u64();
    const std::uint64_t c = r.u64();
    h.add(v, c);
  }
  return h;
}

void serialize_wire(Writer& w, const obs::WireStats& s) {
  w.u64(s.bytes_sent);
  w.u64(s.bytes_received);
  w.u64(s.frames_sent);
  w.u64(s.frames_received);
  w.u64(s.barriers);
  serialize_hist(w, s.barrier_rtt_us);
}

obs::WireStats deserialize_wire(Reader& r) {
  obs::WireStats s;
  s.bytes_sent = r.u64();
  s.bytes_received = r.u64();
  s.frames_sent = r.u64();
  s.frames_received = r.u64();
  s.barriers = r.u64();
  s.barrier_rtt_us = deserialize_hist(r);
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardRunConfig / ShardState wire codecs
// ---------------------------------------------------------------------------

void ShardRunConfig::serialize(Writer& w) const {
  w.u64(n);
  w.u64(seed);
  w.u32(workers);
  w.u32(index);
  w.u8(deterministic ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(policy));
  serialize_params(w, params);
  serialize_game(w, game);
  w.u32(spin_work);
  w.u8(track_sojourn ? 1 : 0);
  w.u8(time_sojourn ? 1 : 0);
  w.u64(corrupt_transfer_frame);
  w.u64(extra_crossing_step);
  model.serialize(w);
}

rt::RtConfig ShardRunConfig::rt_config() const {
  rt::RtConfig rc;
  rc.n = n;
  rc.seed = seed;
  rc.workers = workers;
  rc.deterministic = deterministic;
  rc.policy = policy;
  rc.params = params;
  rc.game = game;
  rc.spin_work = spin_work;
  rc.track_sojourn = track_sojourn;
  rc.time_sojourn = time_sojourn;
  return rc;
}

ShardRunConfig ShardRunConfig::deserialize(Reader& r) {
  ShardRunConfig c;
  c.n = r.u64();
  c.seed = r.u64();
  c.workers = r.u32();
  c.index = r.u32();
  c.deterministic = r.u8() != 0;
  c.policy = static_cast<rt::RtPolicy>(r.u8());
  c.params = deserialize_params(r);
  c.game = deserialize_game(r);
  c.spin_work = r.u32();
  c.track_sojourn = r.u8() != 0;
  c.time_sojourn = r.u8() != 0;
  c.corrupt_transfer_frame = r.u64();
  c.extra_crossing_step = r.u64();
  c.model = ModelSpec::deserialize(r);
  return c;
}

void ShardState::serialize(Writer& w) const {
  w.u64(begin);
  w.u64(end);
  w.u32(static_cast<std::uint32_t>(procs.size()));
  for (const rt::RtProcessor& p : procs) {
    w.u32(static_cast<std::uint32_t>(p.queue.size()));
    for (const rt::RtTask& t : p.queue) serialize_task(w, t);
    w.u64(p.generated);
    w.u64(p.consumed);
    w.u64(p.consumed_on_origin);
    w.u64(p.tasks_sent);
    w.u64(p.tasks_received);
    w.u64(p.balance_initiations);
  }
  w.u64(msg.queries);
  w.u64(msg.accepts);
  w.u64(msg.id_messages);
  w.u64(msg.control);
  w.u64(msg.transfers);
  w.u64(msg.tasks_moved);
  w.u64(clamped);
  w.u64(deposited);
  w.u32(static_cast<std::uint32_t>(ledger.size()));
  for (const rt::LedgerEntry& e : ledger) {
    w.u64(e.step);
    w.u32(e.from);
    w.u32(e.to);
    w.u32(e.count);
  }
  serialize_hist(w, sojourn_steps);
  serialize_hist(w, sojourn_us);
  w.u64(static_cast<std::uint64_t>(epoch_ticks));
  w.u64(running_max);
  w.u32(static_cast<std::uint32_t>(phases.size()));
  for (const rt::RtPhaseSummary& ps : phases) {
    w.u64(ps.phase_index);
    w.u64(ps.start_step);
    w.u64(ps.end_step);
    w.u64(ps.num_heavy);
    w.u64(ps.num_light);
    w.u64(ps.matched);
    w.u64(ps.unmatched);
    w.u64(ps.requests);
    w.u32(ps.levels_used);
    w.u32(ps.collision_rounds);
    w.u8(ps.forced ? 1 : 0);
    w.u8(ps.completed ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(ps.heavy_procs.size()));
    for (const std::uint32_t h : ps.heavy_procs) w.u32(h);
  }
  serialize_wire(w, data_wire);
  serialize_wire(w, control_wire);
}

ShardState ShardState::deserialize(Reader& r) {
  ShardState s;
  s.begin = r.u64();
  s.end = r.u64();
  const std::uint32_t np = r.u32();
  s.procs.resize(np);
  for (rt::RtProcessor& p : s.procs) {
    const std::uint32_t q = r.u32();
    for (std::uint32_t i = 0; i < q; ++i) {
      p.queue.push_back(deserialize_task(r), *s.arena);
    }
    p.generated = r.u64();
    p.consumed = r.u64();
    p.consumed_on_origin = r.u64();
    p.tasks_sent = r.u64();
    p.tasks_received = r.u64();
    p.balance_initiations = r.u64();
  }
  s.msg.queries = r.u64();
  s.msg.accepts = r.u64();
  s.msg.id_messages = r.u64();
  s.msg.control = r.u64();
  s.msg.transfers = r.u64();
  s.msg.tasks_moved = r.u64();
  s.clamped = r.u64();
  s.deposited = r.u64();
  const std::uint32_t nl = r.u32();
  s.ledger.resize(nl);
  for (rt::LedgerEntry& e : s.ledger) {
    e.step = r.u64();
    e.from = r.u32();
    e.to = r.u32();
    e.count = r.u32();
  }
  s.sojourn_steps = deserialize_hist(r);
  s.sojourn_us = deserialize_hist(r);
  s.epoch_ticks = static_cast<std::int64_t>(r.u64());
  s.running_max = r.u64();
  const std::uint32_t nph = r.u32();
  s.phases.resize(nph);
  for (rt::RtPhaseSummary& ps : s.phases) {
    ps.phase_index = r.u64();
    ps.start_step = r.u64();
    ps.end_step = r.u64();
    ps.num_heavy = r.u64();
    ps.num_light = r.u64();
    ps.matched = r.u64();
    ps.unmatched = r.u64();
    ps.requests = r.u64();
    ps.levels_used = r.u32();
    ps.collision_rounds = r.u32();
    ps.forced = r.u8() != 0;
    ps.completed = r.u8() != 0;
    const std::uint32_t nh = r.u32();
    ps.heavy_procs.resize(nh);
    for (std::uint32_t& h : ps.heavy_procs) h = r.u32();
  }
  s.data_wire = deserialize_wire(r);
  s.control_wire = deserialize_wire(r);
  return s;
}

// ---------------------------------------------------------------------------
// ShardEngine: the socket side of the shard core's exchange seam
// ---------------------------------------------------------------------------

namespace {

class ShardEngine final : public rt::ShardCore {
 public:
  ShardEngine(const ShardRunConfig& run, sim::LoadModel& load_model,
              Endpoint control, std::vector<Endpoint> peers,
              std::chrono::steady_clock::time_point epoch);

  /// Sends kConfigAck, then blocks serving coordinator commands until
  /// kShutdown arrives.
  void serve();

  using rt::ShardCore::send;
  void send(std::uint32_t dest_proc, const rt::Message& m,
            std::span<const rt::RtTask> tasks) override;
  void drain(std::vector<rt::Message>& out) override;
  /// Sends each peer one kBatch (blob, crossing ordinal, pending batch),
  /// receives one from each and returns all shards' blobs.
  const rt::Blobs& allgather(std::span<const std::uint64_t> blob) override;

 private:
  /// A received kBatch with messages for the next drain(); `at` is the
  /// offset of its u32 message count.
  struct Inbound {
    Frame frame;
    std::size_t at = 0;
  };
  struct PeerChannel {
    Endpoint ep;
    Writer batch;  // messages sent to this peer since the last allgather
    std::uint32_t batch_count = 0;
    std::vector<Inbound> inbox;  // oldest first
  };

  /// Sends each peer this shard's end-of-run mark and checks theirs.
  void end_run();
  /// Aborts: `what` arrived from `peer` where this shard's schedule has
  /// something else.
  [[noreturn]] void diverged(unsigned peer, const std::string& what) const;
  void collect_state();

  std::vector<rt::RtProcessor> shard_;  // the core's processors
  Endpoint control_;
  std::vector<PeerChannel> peers_;
  std::uint64_t crossings_ = 0;  // allgathers crossed so far
  Writer out_;                   // the data-link payload being assembled
  // Messages to this shard's own processors, with the tasks they carry
  // in send order.
  std::vector<rt::Message> self_pending_;
  std::vector<rt::RtTask> self_tasks_;
  std::vector<rt::RtTask> rx_tasks_;  // the tasks of the message decoded last
  std::vector<rt::RtTask> corrupted_;  // corrupt_transfer_frame's victim
  std::vector<std::vector<std::uint64_t>> blobs_;
  rt::Blobs views_;
  std::uint64_t step_base_ = 0;
  std::uint64_t deposited_ = 0;
  const std::uint64_t corrupt_transfer_frame_;
  std::uint64_t transfers_serialised_ = 0;
  const std::uint64_t extra_crossing_step_;  // 0 but on the last shard
  obs::WireStats wire_;  // barriers and their RTTs
};

ShardEngine::ShardEngine(const ShardRunConfig& run, sim::LoadModel& load_model,
                         Endpoint control, std::vector<Endpoint> peers,
                         std::chrono::steady_clock::time_point epoch)
    : rt::ShardCore(run.rt_config(), load_model, run.index, epoch),
      control_(std::move(control)),
      blobs_(run.workers),
      corrupt_transfer_frame_(run.corrupt_transfer_frame),
      extra_crossing_step_(run.index + 1 == run.workers
                               ? run.extra_crossing_step
                               : 0) {
  CLB_CHECK(cfg.policy == rt::RtPolicy::kThreshold ||
                cfg.policy == rt::RtPolicy::kNone,
            "the cross-process transport runs policies none and threshold");
  CLB_CHECK(!model.serial_generation(),
            "transport requires a parallel-safe (counter-RNG) model");
  shard_.resize(end - begin);
  procs = shard_;
  peers_.reserve(peers.size());
  for (Endpoint& ep : peers) {
    PeerChannel ch;
    ch.ep = std::move(ep);
    peers_.push_back(std::move(ch));
  }
  for (unsigned i = 0; i < cfg.workers; ++i) {
    if (i == index) continue;
    CLB_CHECK(i < peers_.size() && peers_[i].ep.valid(),
              "transport: missing data link to a peer shard");
  }
}

void ShardEngine::serve() {
  control_.send_frame(FrameType::kConfigAck, nullptr, 0);
  for (;;) {
    Frame f = control_.recv_frame();
    switch (f.type) {
      case FrameType::kRun: {
        Reader r(f.payload);
        const std::uint64_t steps = r.u64();
        CLB_CHECK(r.exhausted(), "transport: malformed kRun payload");
        for (std::uint64_t s = 0; s < steps; ++s) {
          step_once(step_base_ + s);
          if (step_base_ + s + 1 == extra_crossing_step_) allgather({});
        }
        step_base_ += steps;
        end_run();
        control_.send_frame(FrameType::kDone, nullptr, 0);
        break;
      }
      case FrameType::kDeposit: {
        Reader r(f.payload);
        const std::uint64_t p = r.u64();
        rt::RtTask t = deserialize_task(r);
        CLB_CHECK(r.exhausted(), "transport: malformed kDeposit payload");
        CLB_CHECK(owner_of(p) == index,
                  "transport: deposit routed to the wrong shard");
        t.birth_us = cfg.time_sojourn ? now_us() : 0;
        proc(p).queue.push_back(t, arena);
        ++deposited_;
        break;
      }
      case FrameType::kCollect:
        collect_state();
        break;
      case FrameType::kShutdown:
        return;
      default:
        CLB_CHECK(false, "transport: unexpected control frame in worker");
    }
  }
}

void ShardEngine::collect_state() {
  ShardState st;
  st.begin = begin;
  st.end = end;
  st.procs = std::move(shard_);  // borrowed for serialisation, returned below
  st.msg = msg;
  st.clamped = clamped;
  st.deposited = deposited_;
  st.ledger = ledger;
  st.sojourn_steps = sojourn_steps;
  st.sojourn_us = sojourn_us;
  st.epoch_ticks = epoch().time_since_epoch().count();
  st.running_max = running_max;
  st.phases = phases;
  st.data_wire = wire_;
  for (const PeerChannel& ch : peers_) {
    if (ch.ep.valid()) ch.ep.account_into(st.data_wire);
  }
  control_.account_into(st.control_wire);
  Writer w;
  st.serialize(w);
  shard_ = std::move(st.procs);  // same buffer, so `procs` stays valid
  control_.send_frame(FrameType::kState, w.data());
}

void ShardEngine::diverged(unsigned peer, const std::string& what) const {
  const std::string text =
      "transport: superstep schedules diverge: shard " +
      std::to_string(index) + " at crossing " + std::to_string(crossings_) +
      " received from shard " + std::to_string(peer) + " " + what;
  util::check_failed("the shards cross one schedule", __FILE__, __LINE__,
                     text.c_str());
}

const rt::Blobs& ShardEngine::allgather(std::span<const std::uint64_t> blob) {
  ++crossings_;
  const auto t0 = std::chrono::steady_clock::now();
  // Exactly one kBatch per peer per crossing, whatever the policy:
  // [u32 blob_len, u64 blob..., u64 crossing, u32 msg_count, messages...].
  for (unsigned i = 0; i < cfg.workers; ++i) {
    if (i == index) continue;
    PeerChannel& ch = peers_[i];
    out_.clear();
    out_.u32(static_cast<std::uint32_t>(blob.size()));
    for (const std::uint64_t v : blob) out_.u64(v);
    out_.u64(crossings_);
    out_.u32(ch.batch_count);
    out_.bytes(ch.batch.data().data(), ch.batch.size());
    ch.ep.send_frame(FrameType::kBatch, out_.data());
    ch.batch.clear();
    ch.batch_count = 0;
  }
  // One frame from every peer is the barrier: each carries all that peer
  // sent here since its previous crossing.
  views_.clear();
  for (unsigned i = 0; i < cfg.workers; ++i) {
    std::vector<std::uint64_t>& b = blobs_[i];
    if (i == index) {
      b.assign(blob.begin(), blob.end());
      views_.emplace_back(b);
      continue;
    }
    Frame f = peers_[i].ep.recv_frame();
    Reader r(f.payload);
    if (f.type == FrameType::kRunEnd) {
      diverged(i, "an end-of-run mark after " + std::to_string(r.u64()) +
                      " crossings where a kBatch was due");
    }
    if (f.type != FrameType::kBatch) {
      diverged(i, "a frame of type " +
                      std::to_string(static_cast<unsigned>(f.type)) +
                      " where a kBatch was due");
    }
    const std::uint32_t len = r.u32();
    CLB_CHECK(len <= r.remaining() / 8,
              "transport: kBatch blob longer than its frame");
    b.resize(len);
    for (std::uint64_t& v : b) v = r.u64();
    const std::uint64_t ordinal = r.u64();
    if (ordinal != crossings_) {
      diverged(i, "a kBatch for crossing " + std::to_string(ordinal));
    }
    const std::size_t at = f.payload.size() - r.remaining();
    if (r.u32() != 0) {
      peers_[i].inbox.push_back(Inbound{std::move(f), at});
    } else {
      CLB_CHECK(r.exhausted(), "transport: trailing bytes in a kBatch frame");
    }
    views_.emplace_back(b);
  }
  const auto rtt = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  wire_.barrier_rtt_us.add(std::min<std::uint64_t>(rtt, 1000000));
  ++wire_.barriers;
  return views_;
}

void ShardEngine::end_run() {
  out_.clear();
  out_.u64(crossings_);
  for (unsigned i = 0; i < cfg.workers; ++i) {
    if (i != index) peers_[i].ep.send_frame(FrameType::kRunEnd, out_.data());
  }
  for (unsigned i = 0; i < cfg.workers; ++i) {
    if (i == index) continue;
    const Frame f = peers_[i].ep.recv_frame();
    Reader r(f.payload);
    if (f.type == FrameType::kBatch) {
      for (std::uint32_t k = r.u32(); k > 0; --k) (void)r.u64();  // the blob
      diverged(i, "a kBatch for crossing " + std::to_string(r.u64()) +
                      " where its end-of-run mark was due");
    }
    if (f.type != FrameType::kRunEnd) {
      diverged(i, "a frame of type " +
                      std::to_string(static_cast<unsigned>(f.type)) +
                      " where its end-of-run mark was due");
    }
    const std::uint64_t theirs = r.u64();
    if (theirs != crossings_) {
      diverged(i, "an end-of-run mark after " + std::to_string(theirs) +
                      " crossings");
    }
  }
}

void ShardEngine::send(std::uint32_t dest_proc, const rt::Message& m,
                       std::span<const rt::RtTask> tasks) {
  const unsigned owner = owner_of(dest_proc);
  if (owner == index) {
    self_pending_.push_back(m);
    self_pending_.back().task_count = static_cast<std::uint32_t>(tasks.size());
    self_tasks_.insert(self_tasks_.end(), tasks.begin(), tasks.end());
    return;
  }
  if (m.kind == rt::MsgKind::kTransfer) {
    ++transfers_serialised_;
    if (transfers_serialised_ == corrupt_transfer_frame_ && !tasks.empty()) {
      // The frame-corrupt mutation: flipped BEFORE the frame is signed, so
      // the CRC vouches for the corrupted bytes and every counter stays
      // self-consistent. Only the shadow fabric can tell.
      corrupted_.assign(tasks.begin(), tasks.end());
      corrupted_[0].task.birth_step ^= 1u;
      tasks = corrupted_;
    }
  }
  PeerChannel& ch = peers_[owner];
  serialize_msg(ch.batch, m, tasks);
  ++ch.batch_count;
}

void ShardEngine::drain(std::vector<rt::Message>& out) {
  out.clear();
  const auto take = [&](const rt::Message& m,
                        std::span<const rt::RtTask> tasks) {
    if (rt::carries_tasks(m.kind)) {
      apply_tasks(m, tasks);
    } else {
      out.push_back(m);
    }
  };
  std::size_t first_task = 0;
  for (const rt::Message& m : self_pending_) {
    take(m, std::span(self_tasks_).subspan(first_task, m.task_count));
    first_task += m.task_count;
  }
  self_pending_.clear();
  self_tasks_.clear();
  // The peers' messages up to this shard's last allgather, which received
  // them: frames without messages were not kept.
  for (unsigned i = 0; i < cfg.workers; ++i) {
    if (i == index) continue;
    std::vector<Inbound>& inbox = peers_[i].inbox;
    for (const Inbound& in : inbox) {
      Reader r(in.frame.payload.data() + in.at,
               in.frame.payload.size() - in.at);
      const std::uint32_t count = r.u32();
      for (std::uint32_t k = 0; k < count; ++k) {
        const rt::Message m = deserialize_msg(r, rx_tasks_);
        take(m, rx_tasks_);
      }
      CLB_CHECK(r.exhausted(), "transport: trailing bytes in a kBatch frame");
    }
    inbox.clear();
  }
}

}  // namespace

void shard_worker_main(Endpoint control, std::vector<Endpoint> peers,
                       std::chrono::steady_clock::time_point epoch) {
  Frame f = control.recv_frame();
  CLB_CHECK(f.type == FrameType::kConfig,
            "transport: worker expected kConfig as the first control frame");
  Reader r(f.payload);
  const ShardRunConfig cfg = ShardRunConfig::deserialize(r);
  CLB_CHECK(r.exhausted(), "transport: trailing bytes after kConfig payload");
  const std::unique_ptr<sim::LoadModel> model = cfg.model.make(cfg.n);
  ShardEngine engine(cfg, *model, std::move(control), std::move(peers),
                     epoch);
  engine.serve();
}

}  // namespace clb::transport
