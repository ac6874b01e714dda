// support::parallel pool tests: exact index coverage, thread-count-
// independent chunk layout, exception propagation, nested-call inlining.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/parallel.hpp"

namespace topomap::support {
namespace {

class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { set_num_threads(1); }
};

TEST_F(ParallelTest, ChunkCountMatchesCeilDiv) {
  EXPECT_EQ(parallel_chunk_count(0, 8), 0);
  EXPECT_EQ(parallel_chunk_count(1, 8), 1);
  EXPECT_EQ(parallel_chunk_count(8, 8), 1);
  EXPECT_EQ(parallel_chunk_count(9, 8), 2);
  EXPECT_EQ(parallel_chunk_count(100, 1), 100);
  EXPECT_EQ(parallel_chunk_count(5, 0), 5);  // grain clamps to 1
}

TEST_F(ParallelTest, CoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4}) {
    set_num_threads(threads);
    for (const int n : {1, 7, 64, 1000}) {
      std::vector<int> hits(static_cast<std::size_t>(n), 0);
      parallel_for(n, 13, [&](int begin, int end) {
        for (int i = begin; i < end; ++i) ++hits[static_cast<std::size_t>(i)];
      });
      EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), n);
      for (int h : hits) EXPECT_EQ(h, 1);
    }
  }
}

TEST_F(ParallelTest, ChunkBoundariesIndependentOfThreadCount) {
  std::vector<std::vector<int>> layouts;
  for (const int threads : {1, 3}) {
    set_num_threads(threads);
    std::vector<int> bounds(static_cast<std::size_t>(
                                parallel_chunk_count(100, 7) * 2),
                            -1);
    parallel_for_chunks(100, 7, [&](int chunk, int begin, int end) {
      bounds[static_cast<std::size_t>(2 * chunk)] = begin;
      bounds[static_cast<std::size_t>(2 * chunk + 1)] = end;
    });
    layouts.push_back(bounds);
  }
  EXPECT_EQ(layouts[0], layouts[1]);
}

TEST_F(ParallelTest, PropagatesFirstException) {
  set_num_threads(2);
  EXPECT_THROW(parallel_for(100, 4,
                            [&](int begin, int) {
                              if (begin >= 48) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> sum{0};
  parallel_for(10, 2, [&](int begin, int end) { sum += end - begin; });
  EXPECT_EQ(sum.load(), 10);
}

TEST_F(ParallelTest, NestedCallsRunInline) {
  set_num_threads(4);
  std::vector<int> hits(64, 0);
  parallel_for(8, 1, [&](int outer_begin, int outer_end) {
    for (int o = outer_begin; o < outer_end; ++o) {
      parallel_for(8, 1, [&](int begin, int end) {
        for (int i = begin; i < end; ++i)
          ++hits[static_cast<std::size_t>(o * 8 + i)];
      });
    }
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST_F(ParallelTest, SetNumThreadsValidatesAndApplies) {
  EXPECT_THROW(set_num_threads(0), precondition_error);
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3);
  set_num_threads(1);
  EXPECT_EQ(num_threads(), 1);
}

// The TOPOMAP_THREADS parse alone; no pool is started at these values.
TEST(ThreadCountParse, AcceptsOneToTheCapAndNamesTheVariableOtherwise) {
  EXPECT_EQ(parse_thread_count("1"), 1);
  EXPECT_EQ(parse_thread_count("4"), 4);
  EXPECT_EQ(parse_thread_count(std::to_string(kMaxThreads)), kMaxThreads);
  for (const std::string& bad : std::vector<std::string>{
           "abc", "4x", "", "0", "-2", std::to_string(kMaxThreads + 1),
           "99999999999999999999"}) {
    try {
      (void)parse_thread_count(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const precondition_error& e) {
      EXPECT_NE(std::string(e.what()).find("TOPOMAP_THREADS"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace topomap::support
