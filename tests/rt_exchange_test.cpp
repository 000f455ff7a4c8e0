// The in-process exchange (rt/outbox.hpp): the exactness contract under
// real concurrency, and what a threshold run allocates once the outboxes
// have grown. This binary replaces the global operator new with a counting
// one, so it must stay a binary of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "core/params.hpp"
#include "models/burst.hpp"
#include "rng/splitmix64.hpp"
#include "rt/outbox.hpp"
#include "rt/runtime.hpp"
#include "util/thread_pool.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace clb {
namespace {

// ---------------------------------------------------------------------------
// Exactness: a drain after crossing k takes exactly superstep k's messages
// ---------------------------------------------------------------------------

constexpr unsigned kSenders = 2;
constexpr std::uint64_t kSteps = 40;
constexpr std::uint64_t kSupersteps = 6;  // message supersteps per step

std::uint64_t tag(unsigned s, std::uint64_t step, std::uint64_t k,
                  std::uint64_t i) {
  return rng::hash_combine(rng::hash_combine(s, step),
                           rng::hash_combine(k, i));
}

/// Messages sender `s` sends in superstep k of `step`: 0 now and then,
/// often more than a chunk holds.
std::uint64_t count_of(unsigned s, std::uint64_t step, std::uint64_t k) {
  const std::uint64_t h = tag(s, step, k, ~std::uint64_t{0});
  return h % 7 == 0 ? 0 : h % 700;
}

/// Tasks message i carries: mostly none, some short runs, and now and then
/// a run longer than a task chunk.
std::uint32_t tasks_of(std::uint64_t t, std::uint64_t i) {
  if (i % 211 == 5) return 5000;
  return t % 3 == 0 ? static_cast<std::uint32_t>(t % 40) : 0;
}

/// Every field is a function of the tag, so a torn or misplaced message
/// cannot pass for another.
rt::Message make(std::uint64_t t, std::uint32_t task_count) {
  rt::Message m;
  m.key = t;
  m.due = t >> 3;
  m.seq = net::SeqKey{t >> 5, net::SendStage::kEvaluate, t * 3,
                      static_cast<std::uint32_t>(t >> 7)};
  m.a = static_cast<std::uint32_t>(t);
  m.b = static_cast<std::uint32_t>(t >> 32);
  m.c = static_cast<std::uint32_t>(t * 5);
  m.from = static_cast<std::uint32_t>(t >> 11);
  m.to = static_cast<std::uint32_t>(t >> 13);
  m.task_count = task_count;
  m.kind = task_count != 0 ? rt::MsgKind::kTransfer : rt::MsgKind::kQuery;
  return m;
}

rt::RtTask task(std::uint64_t t, std::uint32_t j) {
  return rt::RtTask{sim::Task{static_cast<std::uint32_t>(t) + j,
                              static_cast<std::uint32_t>(t >> 32) ^ j, j},
                    static_cast<std::uint32_t>(t >> 17) + j};
}

bool same(const rt::Message& x, const rt::Message& y) {
  return x.key == y.key && x.due == y.due && x.seq == y.seq && x.a == y.a &&
         x.b == y.b && x.c == y.c && x.from == y.from && x.to == y.to &&
         x.task_count == y.task_count && x.kind == y.kind;
}

bool same(const rt::RtTask& x, const rt::RtTask& y) {
  return x.task.birth_step == y.task.birth_step &&
         x.task.origin == y.task.origin && x.task.weight == y.task.weight &&
         x.birth_us == y.birth_us;
}

TEST(Outbox, DrainTakesExactlyTheSealedSuperstepWhileSendersRunAhead) {
  // Two senders and a drainer cross one barrier. After each crossing the
  // senders at once append the next superstep's messages while the drainer
  // takes the previous one; each step ends with a crossing that carries no
  // messages (the closing allgather), after which everyone resets.
  util::PhaseBarrier barrier(kSenders + 1);
  std::vector<rt::Outbox> boxes(kSenders);  // sender s's box for the drainer

  std::vector<std::thread> senders;
  for (unsigned s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      std::vector<rt::RtTask> tasks;
      std::uint64_t crossing = 0;
      for (std::uint64_t step = 0; step < kSteps; ++step) {
        boxes[s].reset();
        for (std::uint64_t k = 0; k <= kSupersteps; ++k) {
          const std::uint64_t n = k < kSupersteps ? count_of(s, step, k) : 0;
          for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint64_t t = tag(s, step, k, i);
            const std::uint32_t task_count = tasks_of(t, i);
            tasks.clear();
            for (std::uint32_t j = 0; j < task_count; ++j) {
              tasks.push_back(task(t, j));
            }
            boxes[s].push(make(t, task_count), tasks);
          }
          boxes[s].seal(++crossing);
          barrier.arrive_and_wait();
        }
      }
    });
  }

  std::uint64_t wrong_counts = 0, wrong_messages = 0, wrong_tasks = 0;
  std::uint64_t drained = 0;
  std::uint64_t crossing = 0;
  std::vector<rt::Outbox::Cursor> cursors(kSenders);
  for (std::uint64_t step = 0; step < kSteps; ++step) {
    for (rt::Outbox::Cursor& c : cursors) c = rt::Outbox::Cursor{};
    for (std::uint64_t k = 0; k <= kSupersteps; ++k) {
      barrier.arrive_and_wait();
      ++crossing;
      for (unsigned s = 0; s < kSenders; ++s) {
        std::uint64_t i = 0;
        const std::uint64_t n = boxes[s].drain(
            cursors[s], crossing,
            [&](const rt::Message& m, std::span<const rt::RtTask> got) {
              const std::uint64_t t = tag(s, step, k, i);
              const std::uint32_t want_tasks = tasks_of(t, i);
              if (!same(m, make(t, want_tasks))) ++wrong_messages;
              if (got.size() != want_tasks) {
                ++wrong_tasks;
              } else {
                for (std::uint32_t j = 0; j < want_tasks; ++j) {
                  if (!same(got[j], task(t, j))) ++wrong_tasks;
                }
              }
              ++i;
            });
        const std::uint64_t want = k < kSupersteps ? count_of(s, step, k) : 0;
        if (n != want || i != want) ++wrong_counts;
        drained += n;
      }
    }
  }
  for (std::thread& t : senders) t.join();

  EXPECT_EQ(wrong_counts, 0u);
  EXPECT_EQ(wrong_messages, 0u);
  EXPECT_EQ(wrong_tasks, 0u);
  EXPECT_GT(drained, kSteps * kSupersteps * kSenders * 100);
}

TEST(Outbox, RunsNeverStraddleChunksAndRewindReusesThem) {
  // Single-threaded placement check: runs of every size, across rewinds,
  // read back at the slots they were written to.
  rt::ChunkStream<std::uint64_t> stream;
  for (int round = 0; round < 3; ++round) {
    stream.rewind();
    std::vector<const std::uint64_t*> where;
    std::vector<std::size_t> sizes;
    std::uint64_t v = 0;
    const std::size_t runs[] = {1, 63, 2, 64, 5000, 1, 4096, 4097, 7, 300};
    for (const std::size_t n : runs) {
      std::uint64_t* p = stream.append(n);
      for (std::size_t j = 0; j < n; ++j) p[j] = v++;
      where.push_back(p);
      sizes.push_back(n);
    }
    rt::ChunkStream<std::uint64_t>::Cursor c;
    std::uint64_t want = 0;
    for (std::size_t r = 0; r < sizes.size(); ++r) {
      const std::uint64_t* p = stream.read(c, sizes[r]);
      EXPECT_EQ(p, where[r]) << "run " << r << " round " << round;
      for (std::size_t j = 0; j < sizes[r]; ++j) {
        if (p[j] != want) ADD_FAILURE() << "slot " << want << " of " << round;
        ++want;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Allocations: once warm, a threshold step allocates (almost) nothing
// ---------------------------------------------------------------------------

TEST(ExchangeAllocations, WarmThresholdStepsAllocateUnderOnePercentOfMessages) {
  // An instant-fabric threshold run on the Burst model at n = 4096 on two
  // workers. After a warm-up of four burst periods, 256 more steps may
  // allocate for phase summaries, ledger and histogram growth, but not per
  // message.
  constexpr std::uint64_t kN = 4096;
  models::BurstConfig bc;
  bc.period = 64;
  bc.burst_len = 16;
  bc.hot_fraction = 0.05;
  bc.burst_rate = 8;
  models::BurstModel model(bc, kN);
  rt::RtConfig cfg;
  cfg.n = kN;
  cfg.seed = 1;
  cfg.workers = 2;
  cfg.policy = rt::RtPolicy::kThreshold;
  cfg.params = core::PhaseParams::from_n(kN);
  rt::Runtime runtime(cfg, &model);
  runtime.run(256);

  const std::uint64_t msgs0 = runtime.remote_pushes() + runtime.self_pushes();
  const std::uint64_t allocs0 = g_allocations.load();
  runtime.run(256);
  const std::uint64_t allocs = g_allocations.load() - allocs0;
  const std::uint64_t msgs =
      runtime.remote_pushes() + runtime.self_pushes() - msgs0;

  ASSERT_GT(msgs, 10000u) << "the counted steps must exchange messages";
  EXPECT_LT(allocs * 100, msgs)
      << allocs << " allocations for " << msgs << " messages";
  EXPECT_TRUE(runtime.conservation_holds());
}

}  // namespace
}  // namespace clb
