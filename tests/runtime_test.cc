// Tests of the shared parallel runtime: chunk coverage, nested-call
// safety, exception propagation, and the determinism contract (identical
// Project / walk-sampling results at 1 vs N threads).

#include "runtime/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "graph/neighbor_finder.h"
#include "graph/walks.h"
#include "tensor/autograd.h"
#include "tensor/numeric.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace benchtemp {
namespace {

/// Restores the global pool size on scope exit so tests stay independent.
class PoolSizeGuard {
 public:
  explicit PoolSizeGuard(int threads) {
    runtime::ThreadPool::Global().SetNumThreads(threads);
  }
  ~PoolSizeGuard() {
    runtime::ThreadPool::Global().SetNumThreads(
        runtime::DefaultNumThreads());
  }
};

TEST(ThreadPoolTest, CoversFullRangeExactlyOnce) {
  PoolSizeGuard guard(4);
  constexpr int64_t kRange = 10'000;
  std::vector<std::atomic<int>> hits(kRange);
  runtime::ParallelFor(0, kRange, /*grain=*/64,
                       [&](int64_t lo, int64_t hi) {
                         for (int64_t i = lo; i < hi; ++i)
                           hits[static_cast<size_t>(i)].fetch_add(1);
                       });
  for (int64_t i = 0; i < kRange; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, EmptyAndSingleChunkRanges) {
  PoolSizeGuard guard(4);
  int calls = 0;
  runtime::ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // A range that fits one chunk runs inline on the caller.
  std::atomic<int64_t> sum{0};
  runtime::ParallelFor(0, 10, 100, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, NestedCallsRunInline) {
  PoolSizeGuard guard(4);
  std::vector<std::atomic<int>> hits(256);
  runtime::ParallelFor(0, 16, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t outer = lo; outer < hi; ++outer) {
      // Nested ParallelFor from (potentially) a pool worker must not
      // deadlock; it executes serially on the current thread.
      runtime::ParallelFor(0, 16, 1, [&](int64_t ilo, int64_t ihi) {
        for (int64_t inner = ilo; inner < ihi; ++inner)
          hits[static_cast<size_t>(outer * 16 + inner)].fetch_add(1);
      });
    }
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, PropagatesChunkException) {
  PoolSizeGuard guard(4);
  EXPECT_THROW(
      runtime::ParallelFor(0, 1000, 1,
                           [&](int64_t lo, int64_t) {
                             if (lo == 500)
                               throw std::runtime_error("chunk 500 failed");
                           }),
      std::runtime_error);
  // The pool must stay usable after an exceptional job.
  std::atomic<int64_t> sum{0};
  runtime::ParallelFor(0, 100, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) sum.fetch_add(1);
  });
  EXPECT_EQ(sum.load(), 100);
}

TEST(ThreadPoolTest, SetNumThreadsResizes) {
  PoolSizeGuard guard(1);
  EXPECT_EQ(runtime::ThreadPool::Global().num_threads(), 1);
  runtime::ThreadPool::Global().SetNumThreads(3);
  EXPECT_EQ(runtime::ThreadPool::Global().num_threads(), 3);
  std::atomic<int64_t> sum{0};
  runtime::ParallelFor(0, 1000, 10, [&](int64_t lo, int64_t hi) {
    sum.fetch_add(hi - lo);
  });
  EXPECT_EQ(sum.load(), 1000);
}

TEST(ThreadPoolTest, DefaultNumThreadsParsesStrictly) {
  const char* saved = std::getenv("BENCHTEMP_NUM_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::setenv("BENCHTEMP_NUM_THREADS", "3", 1);
  EXPECT_EQ(runtime::DefaultNumThreads(), 3);
  // Unset, empty and non-positive values mean hardware concurrency.
  ::unsetenv("BENCHTEMP_NUM_THREADS");
  const int hw = runtime::DefaultNumThreads();
  EXPECT_GE(hw, 1);
  ::setenv("BENCHTEMP_NUM_THREADS", "", 1);
  EXPECT_EQ(runtime::DefaultNumThreads(), hw);
  ::setenv("BENCHTEMP_NUM_THREADS", "0", 1);
  EXPECT_EQ(runtime::DefaultNumThreads(), hw);
  ::setenv("BENCHTEMP_NUM_THREADS", "four", 1);
  EXPECT_DEATH(runtime::DefaultNumThreads(),
               "BENCHTEMP_NUM_THREADS=four is not an integer");
  if (saved != nullptr) {
    ::setenv("BENCHTEMP_NUM_THREADS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("BENCHTEMP_NUM_THREADS");
  }
}

/// Forward value and every gradient of a bias-carrying Project over a
/// trainable dense block, a constant dense block and a trainable table's
/// gathered rows, at `threads` threads.
std::vector<tensor::Tensor> ProjectAt(int threads) {
  PoolSizeGuard guard(threads);
  tensor::Rng rng(11);
  const int64_t n = 67;
  tensor::Var a = tensor::Parameter(tensor::Tensor::Randn({n, 13}, rng));
  tensor::Var c = tensor::Constant(tensor::Tensor::Randn({n, 11}, rng));
  tensor::Var table = tensor::Parameter(tensor::Tensor::Randn({20, 19}, rng));
  tensor::Var w =
      tensor::Parameter(tensor::Tensor::Randn({13 + 11 + 19, 29}, rng));
  tensor::Var b = tensor::Parameter(tensor::Tensor::Randn({1, 29}, rng));
  std::vector<int32_t> slot(static_cast<size_t>(n));
  for (int32_t& s : slot) s = tensor::NarrowId(rng.UniformInt(20), "slot");
  tensor::Var out =
      tensor::Project({a, c, tensor::RowsOf(table, slot)}, w, b);
  tensor::Backward(tensor::Sum(tensor::Sigmoid(out)));
  return {out->value, a->grad, table->grad, w->grad, b->grad};
}

TEST(DeterminismTest, ProjectBitIdenticalAcrossThreadCounts) {
  const std::vector<tensor::Tensor> one = ProjectAt(1);
  const std::vector<tensor::Tensor> four = ProjectAt(4);
  const char* names[] = {"forward", "dA", "dTable", "dW", "dBias"};
  ASSERT_EQ(one.size(), four.size());
  for (size_t t = 0; t < one.size(); ++t) {
    ASSERT_EQ(one[t].size(), four[t].size()) << names[t];
    for (int64_t i = 0; i < one[t].size(); ++i) {
      ASSERT_EQ(one[t].at(i), four[t].at(i)) << names[t] << " entry " << i;
    }
  }
}

std::vector<std::vector<graph::TemporalWalk>> SampleAt(
    int threads, const graph::TemporalGraph& g,
    const graph::NeighborFinder& finder) {
  PoolSizeGuard guard(threads);
  graph::TemporalWalkSampler sampler(graph::WalkBias::kExponential, 1e-4);
  std::vector<int32_t> nodes;
  std::vector<double> ts;
  for (int32_t i = 0; i < 40; ++i) {
    nodes.push_back(i % tensor::NarrowId(g.num_nodes(), "test: node count"));
    ts.push_back(900.0 - i);
  }
  return sampler.SampleWalkBatch(finder, nodes, ts, /*count=*/5,
                                 /*length=*/3, /*seed=*/77);
}

TEST(DeterminismTest, WalkBatchIdenticalAcrossThreadCounts) {
  datagen::SyntheticConfig cfg;
  cfg.num_users = 80;
  cfg.num_items = 40;
  cfg.num_edges = 2000;
  cfg.seed = 5;
  const graph::TemporalGraph g(datagen::Generate(cfg));
  const graph::NeighborFinder finder(g);
  const auto walks1 = SampleAt(1, g, finder);
  const auto walksN = SampleAt(4, g, finder);
  ASSERT_EQ(walks1.size(), walksN.size());
  for (size_t r = 0; r < walks1.size(); ++r) {
    ASSERT_EQ(walks1[r].size(), walksN[r].size()) << "root " << r;
    for (size_t w = 0; w < walks1[r].size(); ++w) {
      const graph::TemporalWalk& lhs = walks1[r][w];
      const graph::TemporalWalk& rhs = walksN[r][w];
      ASSERT_EQ(lhs.size(), rhs.size()) << "root " << r << " walk " << w;
      for (size_t s = 0; s < lhs.size(); ++s) {
        ASSERT_EQ(lhs[s].node, rhs[s].node);
        ASSERT_EQ(lhs[s].ts, rhs[s].ts);
        ASSERT_EQ(lhs[s].edge_idx, rhs[s].edge_idx);
      }
    }
  }
}

}  // namespace
}  // namespace benchtemp
