// Unit tests for src/util: RNG determinism and distributions, union-find
// invariants, timers, and descriptive statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "util/union_find.hpp"

namespace ssp {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
  EXPECT_THROW((void)rng.uniform(2.0, 1.0), std::invalid_argument);
}

TEST(Rng, UniformIntCoversRangeUniformly) {
  Rng rng(11);
  std::vector<int> counts(6, 0);
  const int draws = 60000;
  for (int i = 0; i < draws; ++i) {
    const auto v = rng.uniform_int(0, 5);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 5);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), draws / 6.0, 0.05 * draws / 6.0);
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(17, 17), 17);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, RademacherBalanced) {
  Rng rng(17);
  int pos = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.rademacher();
    ASSERT_TRUE(x == 1.0 || x == -1.0);
    if (x > 0) ++pos;
  }
  EXPECT_NEAR(static_cast<double>(pos) / n, 0.5, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
  EXPECT_THROW((void)rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, VectorHelpersHaveRequestedLength) {
  Rng rng(23);
  EXPECT_EQ(rng.rademacher_vector(100).size(), 100u);
  EXPECT_EQ(rng.normal_vector(64).size(), 64u);
  EXPECT_TRUE(rng.rademacher_vector(0).empty());
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(29);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto w = v;
  rng.shuffle(w);
  EXPECT_FALSE(std::equal(v.begin(), v.end(), w.begin()));  // overwhelmingly
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, SplitIsDeterministicAndDoesNotAdvanceParent) {
  Rng parent_a(7);
  Rng parent_b(7);
  // Same parent state + same stream id => identical child sequences.
  Rng child_a = parent_a.split(3);
  Rng child_b = parent_b.split(3);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(child_a(), child_b());
  // The parent's own sequence is untouched by split().
  for (int i = 0; i < 32; ++i) EXPECT_EQ(parent_a(), parent_b());
}

TEST(Rng, SplitStreamsAreDecorrelated) {
  Rng parent(42);
  Rng s0 = parent.split(0);
  Rng s1 = parent.split(1);
  int agree = 0;
  for (int i = 0; i < 64; ++i) {
    if (s0() == s1()) ++agree;
  }
  EXPECT_EQ(agree, 0);  // adjacent ids must not collide
  // A different parent state yields different streams for the same id.
  (void)parent();
  Rng s0_shifted = parent.split(0);
  Rng s0_again = Rng(42).split(0);
  EXPECT_NE(s0_shifted(), s0_again());
}

TEST(Parallel, DefaultThreadsResolution) {
  EXPECT_GE(hardware_threads(), 1);
  set_default_threads(3);
  EXPECT_EQ(default_threads(), 3);
  EXPECT_EQ(resolve_threads(0), 3);
  EXPECT_EQ(resolve_threads(7), 7);
  set_default_threads(0);  // restore env/hardware default
  EXPECT_GE(default_threads(), 1);
}

TEST(Parallel, ParallelForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 9}) {
    std::vector<int> hits(1000, 0);
    parallel_for(0, 1000, threads,
                 [&](Index i) { ++hits[static_cast<std::size_t>(i)]; });
    EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                            [](int h) { return h == 1; }))
        << "threads=" << threads;
  }
  // Empty and tiny ranges are fine.
  parallel_for(5, 5, 4, [](Index) { FAIL() << "empty range ran a body"; });
  int tiny = 0;
  parallel_for(0, 1, 8, [&](Index) { ++tiny; });
  EXPECT_EQ(tiny, 1);
}

TEST(Parallel, ChunkDecompositionIsAPureFunctionOfRangeAndCount) {
  // Chunk boundaries must not depend on scheduling: record them twice and
  // compare. Contiguity + coverage is also pinned here.
  const auto record = [](Index n, int chunks) {
    std::vector<std::pair<Index, Index>> bounds(
        static_cast<std::size_t>(chunks), {-1, -1});
    parallel_for_chunks(0, n, chunks, [&](int c, Index b, Index e) {
      bounds[static_cast<std::size_t>(c)] = {b, e};
    });
    return bounds;
  };
  for (int chunks : {1, 3, 4, 7}) {
    const auto a = record(101, chunks);
    const auto b = record(101, chunks);
    EXPECT_EQ(a, b);
    Index expected_begin = 0;
    for (const auto& [lo, hi] : a) {
      EXPECT_EQ(lo, expected_begin);  // contiguous, in chunk order
      EXPECT_GT(hi, lo);              // no empty chunks
      expected_begin = hi;
    }
    EXPECT_EQ(expected_begin, 101);  // full coverage
  }
}

TEST(Parallel, NestedRegionsRunInlineWithoutDeadlock) {
  std::vector<int> hits(64, 0);
  parallel_for(0, 8, 4, [&](Index outer) {
    parallel_for(0, 8, 4, [&](Index inner) {
      ++hits[static_cast<std::size_t>(outer * 8 + inner)];
    });
  });
  EXPECT_TRUE(
      std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }));
}

TEST(Parallel, LowestIndexedChunkExceptionWins) {
  try {
    parallel_for_chunks(0, 100, 4, [](int chunk, Index, Index) {
      if (chunk >= 1) {
        throw std::runtime_error("chunk " + std::to_string(chunk));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 1");  // deterministic: lowest index
  }
}

TEST(Parallel, ThreadPoolRejectsBadConfig) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
  ThreadPool pool(2);
  EXPECT_EQ(pool.workers(), 2);
  EXPECT_THROW(
      pool.run_chunks(0, 4, 0, [](int, Index, Index) {}),
      std::invalid_argument);
}

std::uint64_t counter_value(const char* name) {
  std::uint64_t value = 0;
  obs::for_each_metric([&](const obs::MetricEntry& e) {
    if (e.kind == obs::MetricKind::kCounter && std::string(e.name) == name) {
      value = e.counter;
    }
  });
  return value;
}

TEST(Parallel, BackToBackTinyRegionsCoverEveryIndexOnce) {
  // Regions issued inside the spin window: the hand-off must neither
  // drop nor repeat a chunk when workers attach to consecutive regions
  // without parking in between.
  ThreadPool pool(3);
  constexpr int kRegions = 100000;
  constexpr Index kWidth = 4;
  std::vector<unsigned char> hits(static_cast<std::size_t>(kRegions * kWidth),
                                  0);
  for (int r = 0; r < kRegions; ++r) {
    const int chunks = 2 + r % 3;  // 2, 3, 4 chunks over 4 indices
    pool.run_chunks(0, kWidth, chunks, [&](int, Index b, Index e) {
      for (Index i = b; i < e; ++i) {
        ++hits[static_cast<std::size_t>(r * kWidth + i)];
      }
    });
  }
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](unsigned char h) { return h == 1; }));
}

TEST(Parallel, RegionsAfterTheSpinWindowWakeParkedWorkers) {
  // Sleeps longer than the spin budget make every worker (and the
  // submitter, while a worker holds a slow chunk) park on its condition
  // variable; each region must still run all chunks, on the workers too.
  obs::reset_metrics_for_tests();
  obs::set_metrics_enabled(true);
  ThreadPool pool(3);
  std::set<std::thread::id> runners;
  for (int r = 0; r < 20; ++r) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::vector<int> hits(64, 0);
    std::vector<std::thread::id> ids(3);
    pool.run_chunks(0, 64, 3, [&](int c, Index b, Index e) {
      ids[static_cast<std::size_t>(c)] = std::this_thread::get_id();
      // Long enough for a woken worker to arrive while chunks remain.
      std::this_thread::sleep_for(std::chrono::microseconds(c == 2 ? 1300
                                                                   : 300));
      for (Index i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
    });
    EXPECT_TRUE(
        std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }))
        << "region " << r;
    runners.insert(ids.begin(), ids.end());
  }
  EXPECT_GE(counter_value("pool.parks"), 20u);
  EXPECT_EQ(counter_value("pool.regions"), 20u);
  EXPECT_GT(runners.size(), 1u);  // parked workers did take chunks
  obs::set_metrics_enabled(false);
  obs::reset_metrics_for_tests();
}

TEST(Parallel, LowestIndexedExceptionWinsWhenEveryWorkerThrows) {
  ThreadPool pool(3);
  for (int rep = 0; rep < 200; ++rep) {
    try {
      pool.run_chunks(0, 3, 3, [](int chunk, Index, Index) {
        throw std::runtime_error("chunk " + std::to_string(chunk));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk 0") << "rep " << rep;
    }
    try {
      // Chunk 0 finishes late and cleanly; 1 and 2 both throw.
      pool.run_chunks(0, 3, 3, [](int chunk, Index, Index) {
        if (chunk == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          return;
        }
        throw std::runtime_error("chunk " + std::to_string(chunk));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk 1") << "rep " << rep;
    }
  }
}

TEST(Parallel, PoolIsDestructibleWhileWorkersSpinOrPark) {
  std::atomic<int> ran{0};
  const auto body = [&ran](int, Index b, Index e) {
    ran.fetch_add(static_cast<int>(e - b));
  };
  {
    ThreadPool idle(4);  // never ran a region
  }
  {
    ThreadPool spinning(4);
    spinning.run_chunks(0, 8, 4, body);  // workers still in the spin window
  }
  {
    ThreadPool parked(4);
    parked.run_chunks(0, 8, 4, body);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));  // past it
  }
  EXPECT_EQ(ran.load(), 16);
}

TEST(Parallel, NestedRegionsOnAPoolWorkerStayOnThatThread) {
  ThreadPool pool(3);
  std::vector<int> hits(48, 0);
  std::vector<int> nested_off_thread(3, 0);
  pool.run_chunks(0, 3, 3, [&](int outer, Index, Index) {
    EXPECT_TRUE(ThreadPool::on_worker_thread());
    const std::thread::id self = std::this_thread::get_id();
    pool.run_chunks(0, 16, 4, [&](int, Index b, Index e) {
      if (std::this_thread::get_id() != self) {
        ++nested_off_thread[static_cast<std::size_t>(outer)];
      }
      for (Index i = b; i < e; ++i) {
        ++hits[static_cast<std::size_t>(outer * 16 + i)];
      }
    });
  });
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  EXPECT_TRUE(
      std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }));
  EXPECT_EQ(nested_off_thread, std::vector<int>(3, 0));
}

TEST(UnionFind, SingletonsAtStart) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5);
  for (Index i = 0; i < 5; ++i) {
    EXPECT_EQ(uf.find(i), i);
    EXPECT_EQ(uf.size_of(i), 1);
  }
}

TEST(UnionFind, UniteMergesAndCounts) {
  UnionFind uf(6);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_FALSE(uf.unite(1, 0));  // already merged
  EXPECT_EQ(uf.num_sets(), 4);
  EXPECT_TRUE(uf.same(0, 1));
  EXPECT_FALSE(uf.same(0, 2));
  EXPECT_TRUE(uf.unite(0, 2));
  EXPECT_TRUE(uf.same(1, 3));
  EXPECT_EQ(uf.size_of(3), 4);
  EXPECT_EQ(uf.num_sets(), 3);
}

TEST(UnionFind, TransitivityProperty) {
  // Property: after uniting chains, all chain members share a root.
  UnionFind uf(100);
  for (Index i = 0; i + 1 < 100; i += 2) uf.unite(i, i + 1);
  for (Index i = 0; i + 3 < 100; i += 4) uf.unite(i, i + 2);
  for (Index i = 0; i + 3 < 100; i += 4) {
    EXPECT_TRUE(uf.same(i, i + 3));
  }
}

TEST(UnionFind, OutOfRangeThrows) {
  UnionFind uf(3);
  EXPECT_THROW((void)uf.find(3), std::invalid_argument);
  EXPECT_THROW((void)uf.find(-1), std::invalid_argument);
}

TEST(UnionFind, ResetRestoresSingletonsAndResizes) {
  UnionFind uf(4);
  uf.unite(0, 1);
  uf.unite(2, 3);
  uf.reset(4);  // same size: storage reused, state cleared
  EXPECT_EQ(uf.num_sets(), 4);
  for (Index i = 0; i < 4; ++i) {
    EXPECT_EQ(uf.find(i), i);
    EXPECT_EQ(uf.size_of(i), 1);
  }
  uf.reset(6);  // growing re-seeds the new tail as singletons too
  EXPECT_EQ(uf.num_sets(), 6);
  EXPECT_TRUE(uf.unite(4, 5));
  EXPECT_FALSE(uf.same(0, 4));
  uf.reset(2);
  EXPECT_EQ(uf.num_elements(), 2);
  EXPECT_THROW((void)uf.find(2), std::invalid_argument);
  EXPECT_THROW(uf.reset(-1), std::invalid_argument);
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  volatile double x = 0.0;
  for (int i = 0; i < 1000000; ++i) x = x + 1.0;
  EXPECT_GE(t.seconds(), 0.0);
  const double first = t.milliseconds();
  EXPECT_GE(t.milliseconds(), first);  // monotone non-decreasing
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(Stats, SummaryBasics) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
}

TEST(Stats, SummaryEmpty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 2.5);
  EXPECT_THROW((void)percentile(xs, 1.5), std::invalid_argument);
  EXPECT_THROW((void)percentile({}, 0.5), std::invalid_argument);
}

TEST(Stats, SortedSeriesEndpoints) {
  std::vector<double> xs(100);
  std::iota(xs.begin(), xs.end(), 0.0);
  const auto series = sorted_series(xs, 5);
  ASSERT_EQ(series.size(), 5u);
  EXPECT_DOUBLE_EQ(series.front(), 99.0);  // descending series
  EXPECT_DOUBLE_EQ(series.back(), 0.0);
  EXPECT_TRUE(std::is_sorted(series.rbegin(), series.rend()));
}

TEST(Assert, RequireThrowsInvalidArgument) {
  EXPECT_THROW(SSP_REQUIRE(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(SSP_REQUIRE(true, "fine"));
}

TEST(Assert, AssertThrowsInternalError) {
  EXPECT_THROW(SSP_ASSERT(false, "bug"), InternalError);
  EXPECT_NO_THROW(SSP_ASSERT(true, "fine"));
}

}  // namespace
}  // namespace ssp
