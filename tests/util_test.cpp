// Unit tests for clb::util — math helpers, tables, CLI, thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <numeric>
#include <set>
#include <thread>

#include "util/cli.hpp"
#include "util/math.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace clb::util {
namespace {

TEST(Math, Ilog2ExactPowers) {
  EXPECT_EQ(ilog2(1), 0u);
  EXPECT_EQ(ilog2(2), 1u);
  EXPECT_EQ(ilog2(1024), 10u);
  EXPECT_EQ(ilog2(1ULL << 63), 63u);
}

TEST(Math, Ilog2Floors) {
  EXPECT_EQ(ilog2(3), 1u);
  EXPECT_EQ(ilog2(1023), 9u);
  EXPECT_EQ(ilog2(1025), 10u);
}

TEST(Math, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(65));
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
}

TEST(Math, Log2Log2KnownValues) {
  EXPECT_NEAR(log2log2(16), 2.0, 1e-12);        // log2(4)
  EXPECT_NEAR(log2log2(65536), 4.0, 1e-12);     // log2(16)
  EXPECT_NEAR(log2log2(1ULL << 32), 5.0, 1e-12);
}

TEST(Math, RoundAtLeast) {
  EXPECT_EQ(round_at_least(3.4, 1), 3u);
  EXPECT_EQ(round_at_least(3.6, 1), 4u);
  EXPECT_EQ(round_at_least(0.2, 5), 5u);
  EXPECT_EQ(round_at_least(-1.0, 2), 2u);
}

TEST(Math, SatSub) {
  EXPECT_EQ(sat_sub(5, 3), 2u);
  EXPECT_EQ(sat_sub(3, 5), 0u);
}

TEST(Table, AlignsColumnsAndCountsRows) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(std::uint64_t{42});
  t.row().cell("b").cell(3.14159, 2);
  EXPECT_EQ(t.num_rows(), 2u);
  const std::string s = t.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_NE(s.find("value"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.row().cell(std::uint64_t{1}).cell(std::uint64_t{2});
  EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(Table, FormatDoublePrecision) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(Cli, ParsesTypedFlags) {
  Cli cli("test");
  auto n = cli.flag_u64("n", 7, "count");
  auto x = cli.flag_f64("x", 0.5, "ratio");
  auto s = cli.flag_str("s", "dflt", "label");
  auto b = cli.flag_bool("b", false, "toggle");
  const char* argv[] = {"prog", "--n=123", "--x", "2.5", "--s=hello", "--b"};
  cli.parse(6, const_cast<char**>(argv));
  EXPECT_EQ(*n, 123u);
  EXPECT_DOUBLE_EQ(*x, 2.5);
  EXPECT_EQ(*s, "hello");
  EXPECT_TRUE(*b);
}

TEST(Cli, DefaultsSurviveEmptyArgv) {
  Cli cli("test");
  auto n = cli.flag_u64("n", 7, "count");
  const char* argv[] = {"prog"};
  cli.parse(1, const_cast<char**>(argv));
  EXPECT_EQ(*n, 7u);
}

TEST(Cli, ParseU64List) {
  const auto v = Cli::parse_u64_list("1,16,256");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1u);
  EXPECT_EQ(v[2], 256u);
  EXPECT_TRUE(Cli::parse_u64_list("").empty());
}

TEST(ThreadPool, CoversFullRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(0, [&](std::uint64_t, std::uint64_t) { sum += 1; });
  EXPECT_EQ(sum.load(), 0u);
  pool.parallel_for(3, [&](std::uint64_t b, std::uint64_t e) {
    sum += e - b;
  });
  EXPECT_EQ(sum.load(), 3u);
}

TEST(BlockRange, PartitionsInOrderWithBalancedSizes) {
  // Concatenating blocks 0..parts-1 must walk [0, count) in order, with
  // sizes differing by at most one and larger blocks first — the property
  // the rt shard layout relies on for "worker order = processor order".
  for (std::uint64_t count : {0ull, 1ull, 7ull, 64ull, 97ull, 1000ull}) {
    for (unsigned parts : {1u, 2u, 3u, 8u, 13u}) {
      std::uint64_t expect_begin = 0;
      std::uint64_t prev_size = ~0ull;
      for (unsigned i = 0; i < parts; ++i) {
        const auto [b, e] = block_range(count, parts, i);
        EXPECT_EQ(b, expect_begin) << count << "/" << parts << " blk " << i;
        EXPECT_GE(e, b);
        EXPECT_LE(e - b, prev_size);
        EXPECT_LE(prev_size - (e - b), prev_size == ~0ull ? ~0ull : 1ull);
        prev_size = e - b;
        expect_begin = e;
      }
      EXPECT_EQ(expect_begin, count);
    }
  }
}

TEST(PhaseBarrier, SinglePartyNeverBlocks) {
  PhaseBarrier b(1);
  for (int i = 0; i < 10; ++i) b.arrive_and_wait();
  EXPECT_EQ(b.generation(), 10u);
}

TEST(PhaseBarrier, SeparatesWritePhasesAcrossThreads) {
  // Each of 4 threads increments a plain (non-atomic) counter once per
  // cycle; the barrier's happens-before must make every increment of cycle
  // k visible before any thread starts cycle k+1.
  constexpr unsigned kParties = 4;
  constexpr int kCycles = 200;
  PhaseBarrier barrier(kParties);
  std::uint64_t slots[kParties] = {};
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (unsigned t = 0; t < kParties; ++t) {
    threads.emplace_back([&, t] {
      for (int cycle = 1; cycle <= kCycles; ++cycle) {
        slots[t] += 1;
        barrier.arrive_and_wait();
        std::uint64_t sum = 0;
        for (const std::uint64_t s : slots) sum += s;
        if (sum != static_cast<std::uint64_t>(cycle) * kParties)
          mismatches.fetch_add(1);
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(barrier.generation(), 2u * kCycles);
}

TEST(PhaseBarrier, ParkPathLosesNoWakeup) {
  // Arrivals land on both sides of the spin budget: most within it, some
  // after a few microseconds of busy delay, some after sleeping a few
  // milliseconds — long past the budget, so the others have parked and
  // must be woken. A lost wakeup hangs the test; a torn cycle shows as a
  // mismatched sum or a wrong generation count.
  constexpr unsigned kParties = 4;
  constexpr int kCycles = 1000;
  PhaseBarrier barrier(kParties);
  std::uint64_t slots[kParties] = {};
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (unsigned t = 0; t < kParties; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t rng = 0x9E3779B97F4A7C15ULL * (t + 1);
      const auto delay = [&] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        const std::uint64_t r = rng % 100;
        if (r < 4) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1 + r % 3));
        } else if (r < 30) {
          const auto until = std::chrono::steady_clock::now() +
                             std::chrono::microseconds(1 + r);
          while (std::chrono::steady_clock::now() < until) {
          }
        }
      };
      for (int cycle = 1; cycle <= kCycles; ++cycle) {
        delay();
        slots[t] += 1;
        barrier.arrive_and_wait();
        std::uint64_t sum = 0;
        for (const std::uint64_t s : slots) sum += s;
        if (sum != static_cast<std::uint64_t>(cycle) * kParties)
          mismatches.fetch_add(1);
        delay();
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(barrier.generation(), 2u * kCycles);
}

TEST(PhaseBarrier, OversubscribedParksInsteadOfSpinning) {
  // More parties than CPUs: no waiter spins (the thread it waits for may
  // need its CPU), so 200 cycles finish at futex speed.
  const unsigned parties =
      4 * std::max(1u, std::thread::hardware_concurrency());
  constexpr int kCycles = 200;
  PhaseBarrier barrier(parties);
  EXPECT_FALSE(barrier.spins());
  std::vector<std::uint64_t> slots(parties, 0);
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned t = 0; t < parties; ++t) {
    threads.emplace_back([&, t] {
      for (int cycle = 1; cycle <= kCycles; ++cycle) {
        slots[t] += 1;
        barrier.arrive_and_wait();
        std::uint64_t sum = 0;
        for (const std::uint64_t s : slots) sum += s;
        if (sum != static_cast<std::uint64_t>(cycle) * parties)
          mismatches.fetch_add(1);
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(barrier.generation(), 2u * kCycles);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(60));
}

TEST(ThreadPool, WorkerIndexIsStableAndCoversAllWorkers) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.worker_count(), 4u);
  // The caller is worker 0, pool threads are 1..3, and a given thread must
  // report the same index on every job (IDs pinned at spawn).
  std::mutex mu;
  std::map<std::thread::id, std::set<unsigned>> seen;
  for (int round = 0; round < 20; ++round) {
    // count >= 2 * workers, or the small-range fast path runs inline on the
    // caller and no pool thread ever participates.
    pool.parallel_for(64, [&](std::uint64_t, std::uint64_t) {
      std::lock_guard lock(mu);
      seen[std::this_thread::get_id()].insert(ThreadPool::worker_index());
    });
  }
  std::set<unsigned> indices;
  for (const auto& [tid, idx] : seen) {
    EXPECT_EQ(idx.size(), 1u) << "a thread changed its worker index";
    indices.insert(*idx.begin());
  }
  EXPECT_EQ(indices, (std::set<unsigned>{0, 1, 2, 3}));
  EXPECT_EQ(ThreadPool::worker_index(), 0u);  // main thread = worker 0
}

TEST(ThreadPool, WorkerIndexMatchesBlockIndex) {
  ThreadPool pool(3);
  std::vector<std::atomic<unsigned>> owner(300);
  pool.parallel_for(300, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i)
      owner[i].store(ThreadPool::worker_index());
  });
  for (unsigned i = 0; i < 3; ++i) {
    const auto [b, e] = block_range(300, 3, i);
    for (std::uint64_t j = b; j < e; ++j) {
      EXPECT_EQ(owner[j].load(), i) << "index " << j;
    }
  }
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> total{0};
    pool.parallel_for(128, [&](std::uint64_t b, std::uint64_t e) {
      std::uint64_t local = 0;
      for (std::uint64_t i = b; i < e; ++i) local += i;
      total += local;
    });
    EXPECT_EQ(total.load(), 128u * 127u / 2);
  }
}

}  // namespace
}  // namespace clb::util
