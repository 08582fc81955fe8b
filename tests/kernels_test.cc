// Tests for the kernel layer (src/tensor/kernels/): numerical correctness
// against naive references (bit-exact for the GEMM family, the elementwise
// primitives and the lane-tree reductions), the thread-count bit-identity
// contract, the tape-scoped arena's lifetime rules (including the
// BENCHTEMP_CHECK NaN poison), the {threads} x {arena} and {threads} x
// {pipeline depth} digest matrices over small end-to-end training runs,
// and each model's pinned AUC/AP bits and flop count.

#include "tensor/kernels/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/fault_injector.h"
#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "models/factory.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "tensor/autograd.h"
#include "tensor/debug_check.h"
#include "tensor/kernels/arena.h"
#include "tensor/numeric.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace benchtemp {
namespace {

using tensor::Tensor;
namespace kernels = tensor::kernels;

uint32_t BitsOf(float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::vector<uint32_t> BitsOf(const std::vector<float>& v) {
  std::vector<uint32_t> bits(v.size());
  // memcpy's pointers must be non-null even for zero bytes.
  if (!v.empty()) std::memcpy(bits.data(), v.data(), v.size() * sizeof(float));
  return bits;
}

std::vector<float> RandomVec(int64_t n, uint64_t seed) {
  tensor::Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = rng.Normal(0.0f, 1.0f);
  return v;
}

/// Restores arena/debug-check overrides, the thread count, and the
/// metric registry no matter how a test exits.
class KernelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    original_threads_ = runtime::ThreadPool::Global().num_threads();
  }
  void TearDown() override {
    kernels::SetArenaEnabledForTest(true);
    tensor::debug_check::SetEnabledForTest(false);
    obs::MetricRegistry::OverrideEnabledForTest(-1);
    obs::MetricRegistry::Global().Reset();
    runtime::ThreadPool::Global().SetNumThreads(original_threads_);
    base::FaultInjector::Global().DisarmAll();
  }
  int original_threads_ = 1;
};

// ---------------------------------------------------------------------------
// Correctness against naive references.
// ---------------------------------------------------------------------------

// Bit-exact GEMM oracles. Every output element of the GEMM family has one
// fixed reduction order, whatever the tiling: Gemm and GemmTN add their
// products to the prior output value one at a time in ascending inner
// index; GemmNT adds to the prior value one Dot-style 8-lane tree
// (lane j % 8 accumulates in ascending j, lanes combine pairwise). The
// references below spell those orders out; the kernels must match them
// bit for bit on a grid that hits every tile and sample-block remainder.

/// C[n,m] += A[n,k] * B[k,m], ascending p from C's prior value.
void GemmReference(const float* a, const float* b, float* c, int64_t n,
                   int64_t k, int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      float acc = c[i * m + j];
      for (int64_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * m + j];
      c[i * m + j] = acc;
    }
  }
}

/// dA[n,k] += dC[n,m] * B[k,m]^T, each entry one 8-lane dot tree.
void GemmNTReference(const float* dc, const float* b, float* da, int64_t n,
                     int64_t k, int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t l = 0; l < k; ++l) {
      float lanes[8] = {};
      for (int64_t j = 0; j < m; ++j) {
        lanes[j % 8] += dc[i * m + j] * b[l * m + j];
      }
      da[i * k + l] += ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
                       ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    }
  }
}

/// dB[k,m] += A[n,k]^T * dC[n,m], ascending i from dB's prior value.
void GemmTNReference(const float* a, const float* dc, float* db, int64_t n,
                     int64_t k, int64_t m) {
  for (int64_t l = 0; l < k; ++l) {
    for (int64_t j = 0; j < m; ++j) {
      float acc = db[l * m + j];
      for (int64_t i = 0; i < n; ++i) acc += a[i * k + l] * dc[i * m + j];
      db[l * m + j] = acc;
    }
  }
}

struct GemmShape {
  int64_t n, k, m;
};

std::vector<GemmShape> OracleShapes() {
  std::vector<GemmShape> shapes;
  for (const int64_t n : {1, 5, 300, 7500}) {
    for (const int64_t k : {1, 16, 40, 131}) {
      for (const int64_t m : {1, 3, 8, 9, 24, 64}) shapes.push_back({n, k, m});
    }
  }
  return shapes;
}

/// Index of the first element whose bits differ, or -1 when all match
/// (a failure then names one element instead of printing both outputs).
int64_t FirstBitMismatch(const std::vector<float>& got,
                         const std::vector<float>& want) {
  const std::vector<uint32_t> g = BitsOf(got);
  const std::vector<uint32_t> w = BitsOf(want);
  const auto it = std::mismatch(g.begin(), g.end(), w.begin()).first;
  return it == g.end() ? -1 : it - g.begin();
}

std::string ShapeName(const GemmShape& s) {
  return "n=" + std::to_string(s.n) + " k=" + std::to_string(s.k) +
         " m=" + std::to_string(s.m);
}

TEST_F(KernelsTest, GemmMatchesNaiveReference) {
  uint64_t seed = 100;
  for (const GemmShape& s : OracleShapes()) {
    const std::vector<float> a = RandomVec(s.n * s.k, ++seed);
    const std::vector<float> b = RandomVec(s.k * s.m, ++seed);
    // A nonzero prior C checks the accumulate-into contract too.
    std::vector<float> c = RandomVec(s.n * s.m, ++seed);
    std::vector<float> want = c;
    kernels::Gemm(a.data(), b.data(), c.data(), s.n, s.k, s.m);
    GemmReference(a.data(), b.data(), want.data(), s.n, s.k, s.m);
    EXPECT_EQ(FirstBitMismatch(c, want), -1) << "Gemm " << ShapeName(s);
  }
}

TEST_F(KernelsTest, GemmBackwardsMatchNaiveReferences) {
  uint64_t seed = 500;
  for (const GemmShape& s : OracleShapes()) {
    const std::vector<float> a = RandomVec(s.n * s.k, ++seed);
    const std::vector<float> b = RandomVec(s.k * s.m, ++seed);
    const std::vector<float> dc = RandomVec(s.n * s.m, ++seed);
    std::vector<float> da = RandomVec(s.n * s.k, ++seed);
    std::vector<float> db = RandomVec(s.k * s.m, ++seed);
    std::vector<float> want_da = da;
    std::vector<float> want_db = db;
    kernels::GemmNT(dc.data(), b.data(), da.data(), s.n, s.k, s.m);
    kernels::GemmTN(a.data(), dc.data(), db.data(), s.n, s.k, s.m);
    GemmNTReference(dc.data(), b.data(), want_da.data(), s.n, s.k, s.m);
    GemmTNReference(a.data(), dc.data(), want_db.data(), s.n, s.k, s.m);
    EXPECT_EQ(FirstBitMismatch(da, want_da), -1) << "GemmNT " << ShapeName(s);
    EXPECT_EQ(FirstBitMismatch(db, want_db), -1) << "GemmTN " << ShapeName(s);
  }
}

// Project against loops that spell out its order. Forward: the dense
// blocks continue one increasing-k sum per output element, in block order;
// each gathered block's table row is projected from zero and added to the
// rows naming it, in block order; the bias comes last. Backward, bias then
// block by block: a dense block's dW slice and dX are GemmTN and GemmNT; a
// gathered block first sums dOut per slot in ascending rows (dU), then
// projects dU the same way onto its table.

using tensor::ColBlock;
using tensor::Var;

/// Project's value and gradients computed with plain loops, for
/// dOut = `g`. `grads` maps each trainable block value, then the weight,
/// then the bias, to its gradient; a `run` passed in continues its
/// gradients, as a second Project node over the same values would.
struct ProjectReferenceRun {
  Tensor out;
  std::vector<std::pair<const tensor::VarNode*, Tensor>> grads;

  Tensor& GradOf(const Var& v) {
    for (auto& [node, grad] : grads) {
      if (node == v.get()) return grad;
    }
    grads.emplace_back(v.get(), Tensor(v->value.shape()));
    return grads.back().second;
  }
};

ProjectReferenceRun ProjectReference(const std::vector<ColBlock>& blocks,
                                     const Var& w, const Var& bias,
                                     const Tensor& g,
                                     ProjectReferenceRun run = {}) {
  const int64_t n = blocks[0].rows(), m = w->value.cols();
  const float* wp = w->value.data();
  run.out = Tensor({n, m});
  float* out = run.out.data();
  int64_t offset = 0;
  for (const ColBlock& b : blocks) {
    if (b.dense != nullptr) {
      GemmReference(b.dense->value.data(), wp + offset * m, out, n, b.cols(),
                    m);
    }
    offset += b.cols();
  }
  offset = 0;
  for (const ColBlock& b : blocks) {
    const int64_t k = b.cols();
    if (b.gathered != nullptr) {
      const float* table = b.gathered->table->value.data();
      for (int64_t r = 0; r < n; ++r) {
        const int64_t u = b.gathered->slot[static_cast<size_t>(r)];
        for (int64_t j = 0; j < m; ++j) {
          float projected = 0.0f;
          for (int64_t p = 0; p < k; ++p) {
            projected += table[u * k + p] * wp[(offset + p) * m + j];
          }
          out[r * m + j] += projected;
        }
      }
    }
    offset += k;
  }
  if (bias != nullptr) {
    float* gb = run.GradOf(bias).data();
    for (int64_t r = 0; r < n; ++r) {
      for (int64_t j = 0; j < m; ++j) {
        out[r * m + j] += bias->value.data()[j];
        gb[j] += g.data()[r * m + j];
      }
    }
  }
  float* gw = run.GradOf(w).data();
  offset = 0;
  for (const ColBlock& b : blocks) {
    const int64_t k = b.cols();
    const Var& x = b.dense != nullptr ? b.dense : b.gathered->table;
    const int64_t rows = x->value.rows();
    Tensor du = g;
    if (b.gathered != nullptr) {
      du = Tensor({rows, m});
      for (int64_t r = 0; r < n; ++r) {
        const int64_t u = b.gathered->slot[static_cast<size_t>(r)];
        for (int64_t j = 0; j < m; ++j) {
          du.data()[u * m + j] += g.data()[r * m + j];
        }
      }
    }
    GemmTNReference(x->value.data(), du.data(), gw + offset * m, rows, k, m);
    if (x->requires_grad) {
      GemmNTReference(du.data(), wp + offset * m, run.GradOf(x).data(), rows,
                      k, m);
    }
    offset += k;
  }
  return run;
}

/// Runs Project(blocks, w, bias) forward and backward under dOut = a
/// random g, every gradient starting from a random prior, and expects its
/// value and the gradients of w, the bias (its last parent) and every
/// `trainable` block value to match ProjectReference bit for bit.
void ExpectProjectMatchesReference(const std::vector<ColBlock>& blocks,
                                   const Var& w, const Var& bias,
                                   const std::vector<Var>& trainable,
                                   tensor::Rng& rng, const std::string& where) {
  const Tensor g = Tensor::Randn({blocks[0].rows(), w->value.cols()}, rng);
  std::vector<Var> grads = trainable;
  grads.push_back(w);
  if (bias != nullptr) grads.push_back(bias);
  ProjectReferenceRun prior;
  for (const Var& v : grads) {
    v->grad = Tensor::Randn(v->value.shape(), rng);
    prior.grads.emplace_back(v.get(), v->grad);
  }
  Var out = tensor::Project(blocks, w, bias);
  if (bias != nullptr) {
    EXPECT_EQ(out->parents.back(), bias) << where;
  }
  // Sum(out * g) hands Project exactly g as its output gradient.
  tensor::Backward(tensor::Sum(tensor::Mul(out, tensor::Constant(g))));
  ProjectReferenceRun want =
      ProjectReference(blocks, w, bias, g, std::move(prior));
  const auto bits = [](const Tensor& t) {
    return BitsOf(std::vector<float>(t.data(), t.data() + t.size()));
  };
  EXPECT_EQ(bits(out->value), bits(want.out)) << where << " forward";
  for (size_t i = 0; i < grads.size(); ++i) {
    EXPECT_EQ(bits(grads[i]->grad), bits(want.GradOf(grads[i])))
        << where << " grad " << i;
  }
}

TEST_F(KernelsTest, ProjectMatchesPlainLoopsBitwise) {
  for (const int64_t n : {1, 5, 300}) {
    tensor::Rng rng(static_cast<uint64_t>(70 + n));
    // Table rows 0 and 9 are named by no slot; slots repeat.
    std::vector<int32_t> slot(static_cast<size_t>(n));
    for (int32_t& s : slot) {
      s = tensor::NarrowId(1 + rng.UniformInt(8), "slot");
    }
    Var a = tensor::Parameter(Tensor::Randn({n, 13}, rng));
    Var c = tensor::Constant(Tensor::Randn({n, 5}, rng));
    Var table = tensor::Parameter(Tensor::Randn({10, 6}, rng));
    const auto consts = tensor::Rows(Tensor::Randn({12, 3}, rng), slot);
    const auto learned = tensor::RowsOf(table, slot);
    const struct {
      const char* name;
      std::vector<ColBlock> blocks;
      std::vector<Var> trainable;
    } cases[] = {
        {"dense", {a, c}, {a}},
        {"gathered", {learned, consts}, {table}},
        {"mixed", {a, learned, c, consts, learned}, {a, table}},
        // Ten terms: a row sum resolves eight term rows a pass, so the
        // second pass continues the stored partial sums.
        {"many",
         {a, learned, consts, learned, consts, learned, consts, learned,
          consts, learned},
         {a, table}},
    };
    for (const auto& [name, blocks, trainable] : cases) {
      int64_t width = 0;
      for (const ColBlock& b : blocks) width += b.cols();
      // Output widths with and without a scalar column tail (1 is the
      // predictor's fc2), each with and without a bias; the dense case
      // without one skips the row pass.
      for (const int64_t m : {24, 7, 1}) {
        for (const bool with_bias : {true, false}) {
          Var w = tensor::Parameter(Tensor::Randn({width, m}, rng, 0.3f));
          Var bias = with_bias ? tensor::Parameter(Tensor::Randn({1, m}, rng))
                               : nullptr;
          ExpectProjectMatchesReference(
              blocks, w, bias, trainable, rng,
              std::string(name) + " n=" + std::to_string(n) +
                  " m=" + std::to_string(m) +
                  (with_bias ? " bias" : " no bias"));
          EXPECT_EQ(c->grad.size(), 0) << name;
        }
      }
    }
  }
}

/// The determinism contract's reduction tree, written out: lane l sums
/// terms l, l + 8, l + 16, ... in order; the lanes combine pairwise.
float LaneTreeSum(const std::vector<float>& terms) {
  float lane[8] = {};
  for (size_t i = 0; i < terms.size(); ++i) lane[i % 8] += terms[i];
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

// The attention node over summed rows (ProjectRows) sums each key's whole
// K and V rows from their terms once for all heads, and scatters each
// key's gradients straight into the terms' table rows. The oracle is the
// dense path spelled out: key and value rows built by ProjectReference
// (zero row, dense terms, gathered terms, bias), each head as plain loops
// over its columns of those rows (a Dot lane tree per score, the scale,
// the masked softmax, one weighted add per key), the gradients through
// the same steps backward, each starting at +0, and the row gradients fed
// back through ProjectReference's backward.

/// Every bit of `t`.
std::vector<uint32_t> TensorBits(const Tensor& t) {
  return BitsOf(std::vector<float>(t.data(), t.data() + t.size()));
}

/// The lane-tree dot of a[0..n) and b[0..n).
float LaneTreeDot(const float* a, const float* b, int64_t n) {
  std::vector<float> prod(static_cast<size_t>(n));
  for (int64_t x = 0; x < n; ++x) prod[static_cast<size_t>(x)] = a[x] * b[x];
  return LaneTreeSum(prod);
}

TEST_F(KernelsTest, AttentionOverSummedRowsMatchesPlainLoopsBitwise) {
  // Two 11-column head windows: each Dot has a main lane block and a
  // tail, and each row sum one eight-column group and a tail per head.
  const int64_t num_keys = 3, heads = 2, d = 11, m = heads * d;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  for (const int threads : {1, 4}) {
    runtime::ThreadPool::Global().SetNumThreads(threads);
    for (const int64_t n : {1, 5, 300}) {
      const std::string where = "threads=" + std::to_string(threads) +
                                " n=" + std::to_string(n);
      const int64_t keys = n * num_keys;
      tensor::Rng rng(static_cast<uint64_t>(90 + n));
      // Table row 0 is named by no slot; slots repeat.
      std::vector<int32_t> slot(static_cast<size_t>(keys));
      for (int32_t& s : slot) {
        s = tensor::NarrowId(1 + rng.UniformInt(5), "slot");
      }
      std::vector<int32_t> idx(static_cast<size_t>(keys));
      for (int32_t& i : idx) i = tensor::NarrowId(rng.UniformInt(4), "row");
      Var table = tensor::Parameter(Tensor::Randn({6, 4}, rng));
      Var dense = tensor::Parameter(Tensor::Randn({keys, 3}, rng));
      const auto consts = tensor::Rows(Tensor::Randn({4, 2}, rng), idx);
      // The dense block sits between the gathered ones: its term still
      // comes first.
      const std::vector<ColBlock> blocks = {tensor::RowsOf(table, slot), dense,
                                            consts};
      Var wk = tensor::Parameter(Tensor::Randn({4 + 3 + 2, m}, rng, 0.4f));
      Var bk = tensor::Parameter(Tensor::Randn({1, m}, rng));
      Var wv = tensor::Parameter(Tensor::Randn({4 + 3 + 2, m}, rng, 0.4f));
      Var bv = tensor::Parameter(Tensor::Randn({1, m}, rng));
      Var q = tensor::Parameter(Tensor::Randn({n, m}, rng));
      // Query row 0 is all masked, and some single keys are masked too.
      Tensor mask = Tensor::Ones({n, num_keys});
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t k = 0; k < num_keys; ++k) {
          if (i == 0 || rng.UniformInt(4) == 0) mask.at(i, k) = 0.0f;
        }
      }
      const Tensor go = Tensor::Randn({n, m}, rng);

      // The node, keys and values as MultiHeadAttention lays them: two
      // ProjectRows nodes over the same blocks.
      for (const Var& v : {table, dense, wk, bk, wv, bv, q}) {
        v->grad = Tensor();
      }
      Tensor got_out;
      {
        const tensor::SummedRows k_rows = tensor::ProjectRows(blocks, wk, bk);
        const tensor::SummedRows v_rows = tensor::ProjectRows(blocks, wv, bv);
        Var out = tensor::Attention(q, k_rows, v_rows, mask, num_keys, heads);
        got_out = out->value;
        tensor::Backward(
            tensor::Sum(tensor::Mul(out, tensor::Constant(go))));
      }

      // The oracle: the dense rows, the heads over them, and each side's
      // row gradient.
      const Tensor zeros({keys, m});
      const Tensor k_dense = ProjectReference(blocks, wk, bk, zeros).out;
      const Tensor v_dense = ProjectReference(blocks, wv, bv, zeros).out;
      Tensor out({n, m}), gq({n, m}), gk({keys, m}), gv({keys, m});
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t h = 0; h < heads; ++h) {
          const int64_t c = h * d;
          const float* qi = q->value.data() + i * m + c;
          const float* goi = go.data() + i * m + c;
          const float* kr = k_dense.data() + i * num_keys * m + c;
          const float* vr = v_dense.data() + i * num_keys * m + c;
          std::vector<float> w(num_keys, 0.0f), gw(num_keys, 0.0f);
          // Scale, then the masked softmax: max, exp, lane-tree normalizer.
          float max_val = -1e30f;
          bool any = false;
          for (int64_t k = 0; k < num_keys; ++k) {
            if (tensor::IsExactlyZero(mask.at(i, k))) continue;
            w[k] = scale * LaneTreeDot(qi, kr + k * m, d);
            max_val = std::max(max_val, w[k]);
            any = true;
          }
          for (int64_t k = 0; k < num_keys; ++k) {
            w[k] = tensor::IsExactlyZero(mask.at(i, k))
                       ? 0.0f
                       : std::exp(w[k] - max_val);
          }
          const float total = LaneTreeSum(w);
          for (int64_t k = 0; k < num_keys && any; ++k) w[k] /= total;
          for (int64_t k = 0; k < num_keys; ++k) {
            const int64_t r = i * num_keys + k;
            for (int64_t x = 0; x < d && !tensor::IsExactlyZero(w[k]); ++x) {
              out.at(i, c + x) += w[k] * vr[k * m + x];
              gv.at(r, c + x) += w[k] * goi[x];
            }
            gw[k] += LaneTreeDot(goi, vr + k * m, d);
          }
          // Backward through the softmax and the scale.
          const float dot = LaneTreeDot(gw.data(), w.data(), num_keys);
          for (int64_t k = 0; k < num_keys; ++k) {
            const int64_t r = i * num_keys + k;
            float gs = 0.0f;
            gs += w[k] * (gw[k] - dot);
            float gd = 0.0f;
            gd += scale * gs;
            for (int64_t x = 0; x < d && !tensor::IsExactlyZero(gd); ++x) {
              gq.at(i, c + x) += gd * kr[k * m + x];
              gk.at(r, c + x) += gd * qi[x];
            }
          }
        }
      }
      EXPECT_EQ(TensorBits(got_out), TensorBits(out)) << where << " outputs";
      EXPECT_EQ(TensorBits(q->grad), TensorBits(gq)) << where << " q grad";
      // The values' Project backward runs first on the tape, then the
      // keys' continues the blocks' gradients.
      ProjectReferenceRun back = ProjectReference(
          blocks, wk, bk, gk, ProjectReference(blocks, wv, bv, gv));
      const std::pair<const char*, Var> params[] = {
          {"table", table}, {"dense", dense}, {"wk", wk},
          {"bk", bk},       {"wv", wv},       {"bv", bv}};
      for (const auto& [name, v] : params) {
        EXPECT_EQ(TensorBits(v->grad), TensorBits(back.GradOf(v)))
            << where << " " << name << " grad";
      }
      for (int64_t x = 0; x < table->grad.cols(); ++x) {
        EXPECT_TRUE(tensor::IsExactlyZero(table->grad.at(0, x))) << where;
      }
    }
  }
}

struct IndexPattern {
  const char* name;
  std::vector<int32_t> idx;
};

class ProjectPatternTest : public KernelsTest,
                           public ::testing::WithParamInterface<IndexPattern> {
};

TEST_P(ProjectPatternTest, MatchesPlainLoopsBitwise) {
  // Blocks {a, rows, c, rows}: a trainable dense block, the table's rows
  // at the pattern (used twice, sharing one index) and a constant block.
  const std::vector<int32_t>& idx = GetParam().idx;
  const int64_t n = static_cast<int64_t>(idx.size());
  tensor::Rng rng(50);
  Var a = tensor::Parameter(Tensor::Randn({n, 3}, rng));
  Var c = tensor::Constant(Tensor::Randn({n, 2}, rng));
  const auto rows = tensor::Rows(Tensor::Randn({12, 5}, rng), idx);
  Var w = tensor::Parameter(Tensor::Randn({3 + 2 + 2 * 5, 4}, rng, 0.3f));
  ExpectProjectMatchesReference({a, rows, c, rows}, w, nullptr, {a}, rng,
                                GetParam().name);
}

std::vector<int32_t> HeavyDuplicates() {
  tensor::Rng rng(51);
  std::vector<int32_t> idx(40);
  for (int32_t& i : idx) i = tensor::NarrowId(2 + 3 * rng.UniformInt(3), "row");
  return idx;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, ProjectPatternTest,
    ::testing::Values(
        IndexPattern{"AllDistinct", {3, 7, 1, 11, 0, 5, 9, 2}},
        IndexPattern{"HeavyDuplicates", HeavyDuplicates()},
        IndexPattern{"OneRepeatedRow", std::vector<int32_t>(9, 4)},
        IndexPattern{"PaddingZero", {0, 6, 0, 0, 3, 0, 6, 0}},
        IndexPattern{"ZeroRows", {}}),
    [](const ::testing::TestParamInfo<IndexPattern>& info) {
      return std::string(info.param.name);
    });

TEST_F(KernelsTest, SoftmaxRowNormalizesAndMasks) {
  const int64_t d = 11;
  const std::vector<float> in = RandomVec(d, 7);
  std::vector<float> mask(static_cast<size_t>(d), 1.0f);
  mask[3] = 0.0f;
  mask[8] = 0.0f;
  std::vector<float> out(static_cast<size_t>(d), -1.0f);
  kernels::SoftmaxRow(in.data(), mask.data(), d, out.data());
  float total = 0.0f;
  for (int64_t i = 0; i < d; ++i) total += out[static_cast<size_t>(i)];
  EXPECT_NEAR(total, 1.0f, 1e-5);
  EXPECT_EQ(BitsOf(out[3]), BitsOf(0.0f));  // masked: exact +0
  EXPECT_EQ(BitsOf(out[8]), BitsOf(0.0f));
  // Fully masked row collapses to all zeros, not NaN.
  std::fill(mask.begin(), mask.end(), 0.0f);
  kernels::SoftmaxRow(in.data(), mask.data(), d, out.data());
  for (float v : out) EXPECT_EQ(BitsOf(v), BitsOf(0.0f));
}

TEST_F(KernelsTest, BceMatchesStableFormula) {
  const int64_t n = 23;
  const std::vector<float> logits = RandomVec(n, 9);
  std::vector<float> targets(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    targets[static_cast<size_t>(i)] = i % 2 == 0 ? 1.0f : 0.0f;
  }
  const float mean = kernels::BceForwardMean(logits.data(), targets.data(), n);
  double want = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double x = logits[static_cast<size_t>(i)];
    const double t = targets[static_cast<size_t>(i)];
    const double p = 1.0 / (1.0 + std::exp(-x));
    want += -(t * std::log(p) + (1.0 - t) * std::log(1.0 - p));
  }
  EXPECT_NEAR(mean, want / static_cast<double>(n), 1e-4);
}

float ReferenceSigmoid(float x) {
  return x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                   : std::exp(x) / (1.0f + std::exp(x));
}

TEST_F(KernelsTest, ElementwiseMatchNaiveReferences) {
  // Lengths around the 8-lane block width exercise the empty,
  // remainder-only, exact-block and block-plus-remainder shapes; several
  // draws per length make a misordered reduction tree show in the bits.
  for (const int64_t n : {0, 1, 7, 8, 9, 1000}) {
    for (const uint64_t seed : {31, 32, 33, 34}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed));
      const std::vector<float> x = RandomVec(n, seed);
      const std::vector<float> a = RandomVec(n, seed + 100);
      const std::vector<float> b = RandomVec(n, seed + 200);
      const float s = 0.37f;

      // Every primitive runs over a copy of x; its reference loop updates
      // another copy, and the two must agree bit for bit.
      std::vector<float> got, want;
      auto reset = [&] {
        got = x;
        want = x;
      };
      reset();
      kernels::Add(got.data(), a.data(), n);
      for (size_t i = 0; i < x.size(); ++i) want[i] += a[i];
      EXPECT_EQ(BitsOf(got), BitsOf(want)) << "Add";

      reset();
      kernels::MulAdd(got.data(), a.data(), b.data(), n);
      for (size_t i = 0; i < x.size(); ++i) want[i] += a[i] * b[i];
      EXPECT_EQ(BitsOf(got), BitsOf(want)) << "MulAdd";

      reset();
      kernels::Axpy(got.data(), s, a.data(), n);
      for (size_t i = 0; i < x.size(); ++i) want[i] += s * a[i];
      EXPECT_EQ(BitsOf(got), BitsOf(want)) << "Axpy";

      reset();
      kernels::AddScalar(got.data(), s, n);
      for (size_t i = 0; i < x.size(); ++i) want[i] += s;
      EXPECT_EQ(BitsOf(got), BitsOf(want)) << "AddScalar";

      reset();
      kernels::Set(got.data(), a.data(), n);
      for (size_t i = 0; i < x.size(); ++i) want[i] = a[i];
      EXPECT_EQ(BitsOf(got), BitsOf(want)) << "Set";

      reset();
      kernels::FillOut(got.data(), s, n);
      for (size_t i = 0; i < x.size(); ++i) want[i] = s;
      EXPECT_EQ(BitsOf(got), BitsOf(want)) << "FillOut";

      reset();
      kernels::AddOut(got.data(), a.data(), b.data(), n);
      for (size_t i = 0; i < x.size(); ++i) want[i] = a[i] + b[i];
      EXPECT_EQ(BitsOf(got), BitsOf(want)) << "AddOut";

      reset();
      kernels::MulOut(got.data(), a.data(), b.data(), n);
      for (size_t i = 0; i < x.size(); ++i) want[i] = a[i] * b[i];
      EXPECT_EQ(BitsOf(got), BitsOf(want)) << "MulOut";

      reset();
      kernels::ScaleOut(got.data(), s, a.data(), n);
      for (size_t i = 0; i < x.size(); ++i) want[i] = s * a[i];
      EXPECT_EQ(BitsOf(got), BitsOf(want)) << "ScaleOut";

      reset();
      kernels::SigmoidForward(a.data(), got.data(), n);
      for (size_t i = 0; i < x.size(); ++i) want[i] = ReferenceSigmoid(a[i]);
      EXPECT_EQ(BitsOf(got), BitsOf(want)) << "SigmoidForward";

      std::vector<float> sig(b.size());
      for (size_t i = 0; i < b.size(); ++i) sig[i] = ReferenceSigmoid(b[i]);
      reset();
      kernels::SigmoidBackward(got.data(), a.data(), sig.data(), n);
      for (size_t i = 0; i < x.size(); ++i) {
        want[i] += a[i] * sig[i] * (1.0f - sig[i]);
      }
      EXPECT_EQ(BitsOf(got), BitsOf(want)) << "SigmoidBackward";

      reset();
      kernels::ReluForward(a.data(), got.data(), n);
      for (size_t i = 0; i < x.size(); ++i) want[i] = a[i] > 0.0f ? a[i] : 0.0f;
      EXPECT_EQ(BitsOf(got), BitsOf(want)) << "ReluForward";

      reset();
      kernels::ReluBackward(got.data(), a.data(), b.data(), n);
      for (size_t i = 0; i < x.size(); ++i) {
        want[i] += a[i] * (b[i] > 0.0f ? 1.0f : 0.0f);
      }
      EXPECT_EQ(BitsOf(got), BitsOf(want)) << "ReluBackward";

      // Lerp's weights lie in (0, 1), as a gate's do.
      std::vector<float> w(x.size());
      for (size_t i = 0; i < w.size(); ++i) w[i] = ReferenceSigmoid(b[i]);
      reset();
      kernels::LerpOut(got.data(), a.data(), b.data(), w.data(), n);
      for (size_t i = 0; i < x.size(); ++i) {
        want[i] = (1.0f - w[i]) * a[i] + w[i] * b[i];
      }
      EXPECT_EQ(BitsOf(got), BitsOf(want)) << "LerpOut";

      reset();
      kernels::LerpOut(got.data(), a.data(), b.data(), s, n);
      for (size_t i = 0; i < x.size(); ++i) {
        want[i] = (1.0f - s) * a[i] + s * b[i];
      }
      EXPECT_EQ(BitsOf(got), BitsOf(want)) << "LerpOut column weight";

      // The three gradients, and then one buffer serving as both ga and gb
      // and as gw: every entry sees the loops' order.
      std::vector<float> ga = a, gb = b, gw = w;
      std::vector<float> want_ga = a, want_gb = b, want_gw = w;
      reset();
      kernels::LerpBackward(gw.data(), ga.data(), gb.data(), x.data(),
                            a.data(), b.data(), w.data(), n);
      kernels::LerpBackward(got.data(), got.data(), got.data(), x.data(),
                            a.data(), b.data(), w.data(), n);
      for (size_t i = 0; i < x.size(); ++i) {
        want_gw[i] += x[i] * b[i];
        want_gb[i] += x[i] * w[i];
        want_ga[i] += x[i] * (1.0f - w[i]);
        want_gw[i] += (x[i] * a[i]) * -1.0f;
        want[i] += x[i] * b[i];
        want[i] += x[i] * w[i];
        want[i] += x[i] * (1.0f - w[i]);
        want[i] += (x[i] * a[i]) * -1.0f;
      }
      EXPECT_EQ(BitsOf(gw), BitsOf(want_gw)) << "LerpBackward gw";
      EXPECT_EQ(BitsOf(ga), BitsOf(want_ga)) << "LerpBackward ga";
      EXPECT_EQ(BitsOf(gb), BitsOf(want_gb)) << "LerpBackward gb";
      EXPECT_EQ(BitsOf(got), BitsOf(want)) << "LerpBackward aliased";

      // Reductions: bit-exact against the written-out lane tree, and close
      // to a double-precision sum — relative to the sum of magnitudes, the
      // scale of float summation error.
      std::vector<float> products(a.size());
      double sum = 0.0, sum_abs = 0.0, dot = 0.0, dot_abs = 0.0;
      for (size_t i = 0; i < a.size(); ++i) {
        products[i] = a[i] * b[i];
        const double term = static_cast<double>(a[i]) * b[i];
        sum += a[i];
        sum_abs += std::fabs(a[i]);
        dot += term;
        dot_abs += std::fabs(term);
      }
      const float reduce_sum = kernels::ReduceSum(a.data(), n);
      const float dot_product = kernels::Dot(a.data(), b.data(), n);
      EXPECT_EQ(BitsOf(reduce_sum), BitsOf(LaneTreeSum(a))) << "ReduceSum";
      EXPECT_EQ(BitsOf(dot_product), BitsOf(LaneTreeSum(products))) << "Dot";
      EXPECT_NEAR(reduce_sum, sum, 1e-5 * sum_abs) << "ReduceSum";
      EXPECT_NEAR(dot_product, dot, 1e-5 * dot_abs) << "Dot";
    }
  }
}

// ---------------------------------------------------------------------------
// Bit-identity: 1 vs 8 threads.
// ---------------------------------------------------------------------------

TEST_F(KernelsTest, GemmBitIdenticalAcrossThreadCounts) {
  // n=300 splits every kernel into chunks; n=7500 is the model shape where
  // GemmTN's row grain alone would be a single dB row per chunk.
  const GemmShape shapes[] = {{300, 40, 24}, {7500, 40, 24}};
  for (const GemmShape& s : shapes) {
    const std::vector<float> a = RandomVec(s.n * s.k, 21);
    const std::vector<float> b = RandomVec(s.k * s.m, 22);
    std::vector<std::vector<uint32_t>> per_thread_bits;
    for (const int threads : {1, 8}) {
      runtime::ThreadPool::Global().SetNumThreads(threads);
      std::vector<float> c(static_cast<size_t>(s.n * s.m), 0.0f);
      kernels::Gemm(a.data(), b.data(), c.data(), s.n, s.k, s.m);
      std::vector<float> da(static_cast<size_t>(s.n * s.k), 0.0f);
      kernels::GemmNT(c.data(), b.data(), da.data(), s.n, s.k, s.m);
      std::vector<float> db(static_cast<size_t>(s.k * s.m), 0.0f);
      kernels::GemmTN(a.data(), c.data(), db.data(), s.n, s.k, s.m);
      c.insert(c.end(), da.begin(), da.end());
      c.insert(c.end(), db.begin(), db.end());
      per_thread_bits.push_back(BitsOf(c));
    }
    EXPECT_EQ(per_thread_bits[0], per_thread_bits[1]) << ShapeName(s);
  }
}

// ---------------------------------------------------------------------------
// Arena lifetime.
// ---------------------------------------------------------------------------

TEST_F(KernelsTest, NewTensorUsesArenaOnlyInsideScope) {
  kernels::SetArenaEnabledForTest(true);
  Tensor outside = kernels::NewTensor({4, 4});
  EXPECT_FALSE(outside.arena_backed());
  {
    kernels::TapeScope scope;
    Tensor inside = kernels::NewTensor({4, 4});
    EXPECT_TRUE(inside.arena_backed());
    EXPECT_GT(kernels::Arena::ThreadLocal().LiveFloats(), 0);
    for (int64_t i = 0; i < 16; ++i) {
      EXPECT_EQ(BitsOf(inside.at(i)), BitsOf(0.0f));  // zero-filled
    }
  }
  EXPECT_EQ(kernels::Arena::ThreadLocal().LiveFloats(), 0);
  // Arena off: heap even inside a scope.
  kernels::SetArenaEnabledForTest(false);
  kernels::TapeScope scope;
  Tensor disabled = kernels::NewTensor({4, 4});
  EXPECT_FALSE(disabled.arena_backed());
}

TEST_F(KernelsTest, ScopesNestAndRewindToTheirOwnMark) {
  kernels::SetArenaEnabledForTest(true);
  kernels::TapeScope outer;
  Tensor a = kernels::NewTensor({8});
  const int64_t after_outer = kernels::Arena::ThreadLocal().LiveFloats();
  {
    kernels::TapeScope inner;
    Tensor b = kernels::NewTensor({1024});
    EXPECT_GT(kernels::Arena::ThreadLocal().LiveFloats(), after_outer);
  }
  EXPECT_EQ(kernels::Arena::ThreadLocal().LiveFloats(), after_outer);
  a.at(0) = 3.0f;  // outer-scope storage survives the inner rewind
  EXPECT_EQ(BitsOf(a.at(0)), BitsOf(3.0f));
}

TEST_F(KernelsTest, RewindPoisonsFreedSpanUnderCheck) {
  kernels::SetArenaEnabledForTest(true);
  tensor::debug_check::SetEnabledForTest(true);
  float* span = nullptr;
  {
    kernels::TapeScope scope;
    span = kernels::Arena::ThreadLocal().Alloc(32);
    ASSERT_NE(span, nullptr);
    for (int i = 0; i < 32; ++i) span[i] = 1.0f;
  }
  // The span outlived its scope: every read must be a loud NaN, not the
  // stale (or silently recycled) payload.
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(std::isnan(span[i])) << "offset " << i;
  }
}

TEST_F(KernelsTest, CopiesOfArenaTensorsDetachToHeap) {
  kernels::SetArenaEnabledForTest(true);
  Tensor copy;
  {
    kernels::TapeScope scope;
    Tensor t = kernels::NewTensor({3});
    t.at(0) = 1.0f;
    t.at(1) = 2.0f;
    t.at(2) = 3.0f;
    copy = t;  // deep-copies to heap, as Constant copies and snapshots need
    EXPECT_TRUE(t.arena_backed());
    EXPECT_FALSE(copy.arena_backed());
  }
  EXPECT_EQ(BitsOf(copy.at(0)), BitsOf(1.0f));
  EXPECT_EQ(BitsOf(copy.at(1)), BitsOf(2.0f));
  EXPECT_EQ(BitsOf(copy.at(2)), BitsOf(3.0f));
}

// ---------------------------------------------------------------------------
// End-to-end runs: digest matrices and per-model goldens.
// ---------------------------------------------------------------------------

graph::TemporalGraph MatrixGraph() {
  datagen::SyntheticConfig cfg;
  cfg.num_users = 40;
  cfg.num_items = 15;
  cfg.num_edges = 400;
  cfg.edge_feature_dim = 4;
  cfg.seed = 5;
  graph::TemporalGraph g = datagen::Generate(cfg);
  g.InitNodeFeatures(8);
  return g;
}

core::LinkPredictionJob MatrixJob(const graph::TemporalGraph* g,
                                  models::ModelKind kind) {
  core::LinkPredictionJob job;
  job.graph = g;
  job.num_users = 40;
  job.kind = kind;
  job.model_config.embedding_dim = 8;
  job.model_config.time_dim = 8;
  job.model_config.num_neighbors = 4;
  job.model_config.num_layers = 1;
  job.model_config.num_heads = 2;
  job.train_config.max_epochs = 2;
  job.train_config.batch_size = 100;
  job.train_config.seed = 5;
  return job;
}

TEST_F(KernelsTest, TrainingBitIdenticalAcrossThreadsAndArena) {
  obs::MetricRegistry::OverrideEnabledForTest(1);
  auto& registry = obs::MetricRegistry::Global();
  const graph::TemporalGraph g = MatrixGraph();
  for (const models::ModelKind kind :
       {models::ModelKind::kTgn, models::ModelKind::kTgat}) {
    std::vector<uint64_t> auc_bits;
    // Counter digests are compared within the same arena setting: the
    // arena.bytes/arena.resets counters legitimately differ when the
    // arena is off.
    std::vector<std::string> digests_arena_on;
    std::vector<std::string> digests_arena_off;
    for (const int threads : {1, 8}) {
      for (const bool arena : {false, true}) {
        runtime::ThreadPool::Global().SetNumThreads(threads);
        kernels::SetArenaEnabledForTest(arena);
        registry.Reset();
        const core::LinkPredictionResult result =
            core::RunLinkPrediction(MatrixJob(&g, kind));
        ASSERT_EQ(result.status, models::ModelStatus::kOk)
            << models::ModelKindName(kind) << " threads=" << threads
            << " arena=" << arena;
        auc_bits.push_back(BitsOf(result.val_transductive.auc));
        auc_bits.push_back(BitsOf(result.test[0].auc));
        (arena ? digests_arena_on : digests_arena_off)
            .push_back(registry.CountersDigest());
      }
    }
    for (size_t i = 2; i < auc_bits.size(); i += 2) {
      EXPECT_EQ(auc_bits[i], auc_bits[0])
          << models::ModelKindName(kind) << " config " << i / 2;
      EXPECT_EQ(auc_bits[i + 1], auc_bits[1])
          << models::ModelKindName(kind) << " config " << i / 2;
    }
    for (size_t i = 1; i < digests_arena_on.size(); ++i) {
      EXPECT_EQ(digests_arena_on[i], digests_arena_on[0])
          << models::ModelKindName(kind);
    }
    for (size_t i = 1; i < digests_arena_off.size(); ++i) {
      EXPECT_EQ(digests_arena_off[i], digests_arena_off[0])
          << models::ModelKindName(kind);
    }
  }
}

/// The nine trainable models (every ModelKind but the EdgeBank baseline).
const std::vector<models::ModelKind>& TrainableKinds() {
  static const std::vector<models::ModelKind> kinds = {
      models::ModelKind::kJodie,      models::ModelKind::kDyRep,
      models::ModelKind::kTgn,        models::ModelKind::kTgat,
      models::ModelKind::kCawn,       models::ModelKind::kNeurTw,
      models::ModelKind::kNat,        models::ModelKind::kTemp,
      models::ModelKind::kMotifJoint};
  return kinds;
}

TEST_F(KernelsTest, TrainingBitIdenticalAcrossThreadsAndDepth) {
  // Neither the thread count nor the async pipeline may move a single
  // training bit or counter: AUC/AP bits and counter digests are compared
  // across all four configurations.
  obs::MetricRegistry::OverrideEnabledForTest(1);
  auto& registry = obs::MetricRegistry::Global();
  const graph::TemporalGraph g = MatrixGraph();
  for (const models::ModelKind kind : TrainableKinds()) {
    std::vector<uint64_t> auc_bits;
    std::vector<std::string> digests;
    for (const int threads : {1, 8}) {
      for (const int depth : {0, 2}) {
        runtime::ThreadPool::Global().SetNumThreads(threads);
        registry.Reset();
        core::LinkPredictionJob job = MatrixJob(&g, kind);
        job.train_config.pipeline_depth = depth;
        const core::LinkPredictionResult result = core::RunLinkPrediction(job);
        ASSERT_EQ(result.status, models::ModelStatus::kOk)
            << models::ModelKindName(kind) << " threads=" << threads
            << " depth=" << depth;
        auc_bits.push_back(BitsOf(result.val_transductive.auc));
        auc_bits.push_back(BitsOf(result.test[0].auc));
        auc_bits.push_back(BitsOf(result.test[0].ap));
        digests.push_back(registry.CountersDigest());
      }
    }
    for (size_t i = 3; i < auc_bits.size(); i += 3) {
      EXPECT_EQ(auc_bits[i], auc_bits[0])
          << models::ModelKindName(kind) << " config " << i / 3;
      EXPECT_EQ(auc_bits[i + 1], auc_bits[1])
          << models::ModelKindName(kind) << " config " << i / 3;
      EXPECT_EQ(auc_bits[i + 2], auc_bits[2])
          << models::ModelKindName(kind) << " config " << i / 3;
    }
    for (size_t i = 1; i < digests.size(); ++i) {
      EXPECT_EQ(digests[i], digests[0])
          << models::ModelKindName(kind) << " config " << i;
    }
  }
}

TEST_F(KernelsTest, TrainingGoldenAucApAndFlopsPerModel) {
  // Pins each model's validation and transductive-test AUC/AP bits and
  // its kernels.flops count. The values were recorded with every
  // elementwise op applied one at a time as its own tape node, on the
  // smallest graph tried (2,400 events, one epoch) at which the former
  // fused elementwise evaluator moved CAWN's bits. Lerp and the bias
  // operand must reproduce them exactly. The five MergeLayer rows
  // (JODIE, DyRep, TGN, TGAT, TeMP) embed each batch's sources once
  // (TgnnModel::SourceEmbeddings); TGN and TGAT also draw fewer
  // neighbour samples, so their AUC/AP bits moved with their flops. The
  // pair-feature rows do not use it and kept their bits and flops.
  // Memory reads are one gather: live-row gradients sum in one
  // scatter-add, which moved JODIE's test bits in the last place. TeMP
  // projects its message channel's edge rows once per distinct row,
  // which cut its flops and kept its bits. TGAT embeds each distinct
  // (node, time) query once per layer (Tgat::Plan): duplicates within a
  // layer share one neighbourhood draw, so its sampling stream, its flops
  // and its AUC/AP bits moved. TGN, TGAT, DyRep and TeMP project their
  // attention keys once per distinct row (memory rows, TGAT's previous-layer
  // rows, time deltas), which cut their flops; each such block now enters
  // the key sum as one precomputed term, a reassociation that left their
  // AUC/AP bits where they were. TGN and TGAT project their attention
  // queries and their layer outputs the same way (memory rows, the previous
  // layer's self rows, time_enc(0) as one row), which cut their flops and
  // again left their AUC/AP bits unchanged. Linear's bias inside Project
  // and the heads' column windows changed no row. Every layer input is now
  // a list of column blocks (messages, walk steps, the scorers' pair
  // features), so Project runs the input-gradient GEMM only over the blocks
  // that take a gradient, not over the whole concatenation: the flops of
  // every row but TGAT's (whose inputs were already blocks) fell, and no
  // AUC/AP bit moved. The walk models (CAWN, NeurTW, MotifJoint) pass each
  // walk step's edge rows and deltas as gathered blocks, projected once per
  // distinct row, and run the first step's GRU from the zero state, with no
  // h-side GEMMs and no reset gate: their flops fell by 20-30%. The zero
  // state alone, over dense blocks, kept every AUC/AP bit. Each gathered
  // term enters a step's sum as one precomputed term, a reassociation that
  // moved some of their AUC/AP bits in the last places. NeurTW's Euler
  // steps multiply by step sizes built at the hidden width, a same-size
  // Mul that counts its n·d multiplies; the former [n, 1] column form
  // counted none of them. Only its flops rose; no AUC/AP bit moved.
#if defined(__FMA__)
  // Library code outside the kernel layer may contract a*b+c into an FMA
  // on such targets, which rounds differently from these recorded bits.
  GTEST_SKIP() << "golden bits assume no FMA contraction";
#endif
  struct Golden {
    models::ModelKind kind;
    uint64_t val_auc, val_ap, test_auc, test_ap;
    int64_t flops;
  };
  const Golden goldens[] = {
      {models::ModelKind::kJodie, 0x3fdd9f39c619896bull, 0x3fddd8507d77f9b9ull,
       0x3fdc8153d0f8cb48ull, 0x3fddf2d4a1f49c34ull, 8170320},
      {models::ModelKind::kDyRep, 0x3fe0526cf94cbc9eull, 0x3fdfe6eb56eae291ull,
       0x3fe02a08d971254bull, 0x3fe03d3072e5a4a3ull, 10529456},
      {models::ModelKind::kTgn, 0x3fddc98359a1b0dcull, 0x3fde7b4c14011300ull,
       0x3fe0413373ed4a35ull, 0x3fe079303dda1244ull, 30941888},
      {models::ModelKind::kTgat, 0x3fe029367ca65e4full, 0x3fe02007745fa801ull,
       0x3fdfe1275108f9ceull, 0x3fdfbe3e69a7a4e1ull, 27249968},
      {models::ModelKind::kCawn, 0x3fdf19b9f6a51aadull, 0x3fdf20ca450548a5ull,
       0x3fe0f35ba781948bull, 0x3fe0e505d0c9553aull, 194123312},
      {models::ModelKind::kNeurTw, 0x3fdeb0cc4b589ec9ull, 0x3fe041956e2c90e6ull,
       0x3fde40692e65637eull, 0x3fdf8ec9e772d768ull, 340831840},
      {models::ModelKind::kNat, 0x3fe2ca04cdcfb529ull, 0x3fe2711d9845a2d6ull,
       0x3fe1de8fdd9d23c7ull, 0x3fe0c7bd27fdd09eull, 9660672},
      {models::ModelKind::kTemp, 0x3fe0503eb4464a15ull, 0x3fe05c7d84200273ull,
       0x3fde061172283394ull, 0x3fdf056a47ea5626ull, 15603600},
      {models::ModelKind::kMotifJoint, 0x3fe8471c71c71c72ull,
       0x3fe7b83fcce71e80ull, 0x3fe76d72a9a7c24full, 0x3fe6d2df2a6122e4ull,
       194871888},
  };
  obs::MetricRegistry::OverrideEnabledForTest(1);
  auto& registry = obs::MetricRegistry::Global();
  datagen::SyntheticConfig cfg;
  cfg.num_users = 40;
  cfg.num_items = 15;
  cfg.num_edges = 2400;
  cfg.edge_feature_dim = 4;
  cfg.seed = 5;
  graph::TemporalGraph g = datagen::Generate(cfg);
  g.InitNodeFeatures(8);
  ASSERT_EQ(std::size(goldens), TrainableKinds().size());
  for (const Golden& golden : goldens) {
    core::LinkPredictionJob job = MatrixJob(&g, golden.kind);
    job.train_config.max_epochs = 1;
    registry.Reset();
    const core::LinkPredictionResult result = core::RunLinkPrediction(job);
    const char* name = models::ModelKindName(golden.kind);
    ASSERT_EQ(result.status, models::ModelStatus::kOk) << name;
    EXPECT_EQ(BitsOf(result.val_transductive.auc), golden.val_auc) << name;
    EXPECT_EQ(BitsOf(result.val_transductive.ap), golden.val_ap) << name;
    EXPECT_EQ(BitsOf(result.test[0].auc), golden.test_auc) << name;
    EXPECT_EQ(BitsOf(result.test[0].ap), golden.test_ap) << name;
    EXPECT_EQ(registry.value(obs::Counter::kKernelFlops), golden.flops)
        << name;
  }
}

TEST_F(KernelsTest, CheckpointResumeByteIdenticalWithArenaAndCheck) {
  // Arena on + tape validator on: a crash/resume cycle must still replay
  // the exact trajectory (parameter grads are created with the parameters
  // on the heap, so no arena span outlives a batch).
  kernels::SetArenaEnabledForTest(true);
  tensor::debug_check::SetEnabledForTest(true);
  const graph::TemporalGraph g = MatrixGraph();
  const std::string path =
      ::testing::TempDir() + "/kernels_arena_resume.ckpt";
  std::remove(path.c_str());

  core::LinkPredictionJob job = MatrixJob(&g, models::ModelKind::kTgn);
  const core::LinkPredictionResult reference = core::RunLinkPrediction(job);
  ASSERT_EQ(reference.status, models::ModelStatus::kOk);

  job.train_config.checkpoint_path = path;
  base::FaultSpec spec;
  spec.at_step = 4;  // mid-epoch-2 (~3 train batches per epoch)
  base::FaultInjector::Global().Arm(base::FaultSite::kThrowForward,
                                          spec);
  EXPECT_THROW(core::RunLinkPrediction(job), std::runtime_error);
  base::FaultInjector::Global().DisarmAll();

  const core::LinkPredictionResult resumed = core::RunLinkPrediction(job);
  EXPECT_TRUE(resumed.resumed);
  ASSERT_EQ(resumed.status, models::ModelStatus::kOk);
  EXPECT_EQ(BitsOf(resumed.val_transductive.auc),
            BitsOf(reference.val_transductive.auc));
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(BitsOf(resumed.test[s].auc), BitsOf(reference.test[s].auc));
    EXPECT_EQ(BitsOf(resumed.test[s].ap), BitsOf(reference.test[s].ap));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace benchtemp
