#include "tensor/autograd.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "obs/metrics.h"
#include "runtime/grain.h"
#include "runtime/thread_pool.h"
#include "tensor/debug_check.h"
#include "tensor/distinct.h"
#include "tensor/kernels/arena.h"
#include "tensor/kernels/kernels.h"
#include "tensor/numeric.h"

namespace benchtemp::tensor {

namespace {

using runtime::kElementwiseGrain;
using runtime::RowGrain;

Var MakeNode(const char* op, Tensor value, std::vector<Var> parents,
             std::function<void(VarNode&)> backward_fn) {
  auto node = std::make_shared<VarNode>();
  node->op = op;
  node->value = std::move(value);
  node->parents = std::move(parents);
  bool any_grad = false;
  for (const Var& p : node->parents) any_grad = any_grad || p->requires_grad;
  node->requires_grad = any_grad;
  if (any_grad) node->backward_fn = std::move(backward_fn);
  if (debug_check::Enabled()) debug_check::OnRecord(*node);
  return node;
}

void TopoSort(const Var& root, std::vector<VarNode*>& order) {
  // Iterative post-order DFS; the graph can be deep (RNN over long batches).
  std::unordered_set<VarNode*> visited;
  struct Frame {
    VarNode* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({root.get(), 0});
  visited.insert(root.get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      VarNode* parent = frame.node->parents[frame.next_parent++].get();
      if (parent->requires_grad && visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }
}

/// True when `b` can be row-broadcast across `a`: b is [1, d] or rank-1 [d]
/// while a is [n, d].
bool IsRowBroadcast(const Tensor& a, const Tensor& b) {
  return b.size() == a.cols() && b.rows() <= 1;
}

/// True when `b` can be column-broadcast across `a`: b is [n, 1] or rank-1
/// [n] while a is [n, d].
bool IsColBroadcast(const Tensor& a, const Tensor& b) {
  return b.size() == a.rows() && a.cols() > 1;
}

/// p + offset; an empty tensor's null data stays null.
template <typename T>
T* Offset(T* p, int64_t offset) {
  return p == nullptr ? p : p + offset;
}

}  // namespace

VarNode::~VarNode() {
  // A parent this node alone owns hands its own parents to the stack before
  // it dies, so its destructor finds none to release.
  std::vector<std::shared_ptr<VarNode>> stack = std::move(parents);
  while (!stack.empty()) {
    std::shared_ptr<VarNode> node = std::move(stack.back());
    stack.pop_back();
    if (node.use_count() == 1) {
      for (auto& p : node->parents) stack.push_back(std::move(p));
      node->parents.clear();
    }
  }
}

Tensor& VarNode::EnsureGrad() {
  if (grad.size() != value.size()) {
    // Interior grads die with the batch's tape, so they come from the
    // tape-scoped arena. A parameter's grad outlives every batch, so it is
    // heap-backed: Parameter() creates it, and a leaf whose grad was
    // dropped gets a heap buffer again.
    grad = parents.empty() ? Tensor(value.shape())
                           : kernels::NewTensor(value.shape());
  }
  return grad;
}

Var Constant(Tensor value) {
  auto node = std::make_shared<VarNode>();
  node->value = std::move(value);
  node->requires_grad = false;
  return node;
}

Var Parameter(Tensor value) {
  auto node = std::make_shared<VarNode>();
  node->value = std::move(value);
  node->requires_grad = true;
  node->grad = Tensor(node->value.shape());
  return node;
}

void Backward(const Var& root) {
  CheckOrDie(root != nullptr, "Backward: null root");
  CheckOrDie(root->value.size() == 1, "Backward: root must be scalar");
  if (!root->requires_grad) return;
  root->EnsureGrad().at(0) = 1.0f;
  std::vector<VarNode*> order;
  TopoSort(root, order);
  const bool check = debug_check::Enabled();
  // Post-order yields parents before children; reverse for backprop.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    VarNode* node = *it;
    if (node->backward_fn && node->grad.size() == node->value.size()) {
      if (check) debug_check::OnBackwardNode(*node);
      node->backward_fn(*node);
      if (check) debug_check::ReleaseNode(*node);
    }
  }
}

void ZeroGrad(const std::vector<Var>& params) {
  for (const Var& p : params) p->grad.Fill(0.0f);
}

// ---------------------------------------------------------------------------
// Arithmetic.
// ---------------------------------------------------------------------------

Var Add(const Var& a, const Var& b) {
  const Tensor& av = a->value;
  const Tensor& bv = b->value;
  CheckOrDie(av.size() == bv.size(), "Add: incompatible shapes");
  Tensor out = kernels::NewTensor(av.shape());
  const float* ap = av.data();
  const float* bp = bv.data();
  float* op = out.data();
  kernels::CountFlops(out.size());
  runtime::ParallelFor(0, out.size(), kElementwiseGrain,
                       [&](int64_t lo, int64_t hi) {
                         kernels::AddOut(op + lo, ap + lo, bp + lo, hi - lo);
                       });
  return MakeNode("Add", std::move(out), {a, b}, [](VarNode& self) {
    for (int i = 0; i < 2; ++i) {
      VarNode& p = *self.parents[i];
      if (!p.requires_grad) continue;
      float* gp = p.EnsureGrad().data();
      const float* sg = self.grad.data();
      runtime::ParallelFor(0, self.grad.size(), kElementwiseGrain,
                           [&](int64_t lo, int64_t hi) {
                             kernels::Add(gp + lo, sg + lo, hi - lo);
                           });
    }
  });
}

Var Mul(const Var& a, const Var& b) {
  const Tensor& av = a->value;
  const Tensor& bv = b->value;
  CheckOrDie(av.size() == bv.size(), "Mul: incompatible shapes");
  Tensor out = kernels::NewTensor(av.shape());
  const float* ap = av.data();
  const float* bp = bv.data();
  float* op = out.data();
  kernels::CountFlops(out.size());
  runtime::ParallelFor(0, out.size(), kElementwiseGrain,
                       [&](int64_t lo, int64_t hi) {
                         kernels::MulOut(op + lo, ap + lo, bp + lo, hi - lo);
                       });
  return MakeNode("Mul", std::move(out), {a, b}, [](VarNode& self) {
    VarNode& pa = *self.parents[0];
    VarNode& pb = *self.parents[1];
    const float* sg = self.grad.data();
    if (pa.requires_grad) {
      float* g = pa.EnsureGrad().data();
      const float* other = pb.value.data();
      runtime::ParallelFor(0, self.grad.size(), kElementwiseGrain,
                           [&](int64_t lo, int64_t hi) {
                             kernels::MulAdd(g + lo, sg + lo, other + lo,
                                             hi - lo);
                           });
    }
    if (pb.requires_grad) {
      float* g = pb.EnsureGrad().data();
      const float* other = pa.value.data();
      runtime::ParallelFor(0, self.grad.size(), kElementwiseGrain,
                           [&](int64_t lo, int64_t hi) {
                             kernels::MulAdd(g + lo, sg + lo, other + lo,
                                             hi - lo);
                           });
    }
  });
}

Var ScalarMul(const Var& a, float s) {
  Tensor out = kernels::NewTensor(a->value.shape());
  kernels::ScaleOut(out.data(), s, a->value.data(), out.size());
  return MakeNode("ScalarMul", std::move(out), {a}, [s](VarNode& self) {
    VarNode& p = *self.parents[0];
    if (!p.requires_grad) return;
    kernels::Axpy(p.EnsureGrad().data(), s, self.grad.data(),
                  self.grad.size());
  });
}

Var Lerp(const Var& a, const Var& b, const Var& w) {
  const Tensor& av = a->value;
  const Tensor& wv = w->value;
  CheckOrDie(av.size() == b->value.size(), "Lerp: a and b differ in size");
  const bool full = wv.size() == av.size();
  CheckOrDie(full || (IsColBroadcast(av, wv) && !w->requires_grad),
             "Lerp: w must be a's shape or an [n, 1] constant");
  // Row r of d entries shares the weight w[r]; a full-shape w is d == 1.
  const int64_t d = full ? 1 : av.cols();
  const int64_t rows = av.size() / d;
  Tensor out = kernels::NewTensor(av.shape());
  {
    const float* ap = av.data();
    const float* bp = b->value.data();
    const float* wp = wv.data();
    float* op = out.data();
    // The eager composition counts its flat Mul/Add passes only.
    kernels::CountFlops((full ? 3 : 1) * out.size());
    runtime::ParallelFor(0, rows, RowGrain(3 * d), [&](int64_t r0, int64_t r1) {
      if (full) {
        kernels::LerpOut(op + r0, ap + r0, bp + r0, wp + r0, r1 - r0);
        return;
      }
      for (int64_t r = r0; r < r1; ++r) {
        kernels::LerpOut(op + r * d, ap + r * d, bp + r * d, wp[r], d);
      }
    });
  }
  return MakeNode("Lerp", std::move(out), {w, a, b}, [d, rows](VarNode& self) {
    VarNode& pw = *self.parents[0];
    VarNode& pa = *self.parents[1];
    VarNode& pb = *self.parents[2];
    // Only a full-shape w takes a gradient, so gw[r] is entry r's.
    float* gw = pw.requires_grad ? pw.EnsureGrad().data() : nullptr;
    float* ga = pa.requires_grad ? pa.EnsureGrad().data() : nullptr;
    float* gb = pb.requires_grad ? pb.EnsureGrad().data() : nullptr;
    const float* sg = self.grad.data();
    const float* ap = pa.value.data();
    const float* bp = pb.value.data();
    const float* wp = pw.value.data();
    // Per entry, the eager tape's order: Mul(b, w)'s two gradients, then
    // Mul(a, 1 - w)'s, then the -1 that 1 - w passes back to w.
    runtime::ParallelFor(0, rows, RowGrain(6 * d), [&](int64_t r0, int64_t r1) {
      if (d == 1) {
        kernels::LerpBackward(Offset(gw, r0), Offset(ga, r0), Offset(gb, r0),
                              sg + r0, ap + r0, bp + r0, wp + r0, r1 - r0);
        return;
      }
      for (int64_t r = r0; r < r1; ++r) {
        const float wr = wp[r];
        if (gb != nullptr) kernels::Axpy(gb + r * d, wr, sg + r * d, d);
        if (ga != nullptr) {
          kernels::Axpy(ga + r * d, 1.0f - wr, sg + r * d, d);
        }
      }
    });
  });
}

// ---------------------------------------------------------------------------
// Shape ops.
// ---------------------------------------------------------------------------

Var ConcatRows(const std::vector<Var>& parts) {
  CheckOrDie(!parts.empty(), "ConcatRows: empty input");
  const int64_t d = parts[0]->value.cols();
  int64_t total = 0;
  for (const Var& p : parts) {
    CheckOrDie(p->value.cols() == d, "ConcatRows: column count mismatch");
    total += p->value.rows();
  }
  Tensor out = kernels::NewTensor({total, d});
  int64_t offset = 0;
  std::vector<int64_t> heights;
  for (const Var& p : parts) {
    const int64_t h = p->value.rows();
    heights.push_back(h);
    kernels::Set(out.data() + offset * d, p->value.data(), h * d);
    offset += h;
  }
  std::vector<Var> parents(parts.begin(), parts.end());
  return MakeNode("ConcatRows", std::move(out), std::move(parents),
                  [d, heights](VarNode& self) {
                    int64_t offset = 0;
                    const float* sg = self.grad.data();
                    for (size_t i = 0; i < self.parents.size(); ++i) {
                      VarNode& p = *self.parents[i];
                      const int64_t h = heights[i];
                      if (p.requires_grad) {
                        kernels::Add(p.EnsureGrad().data(), sg + offset * d,
                                     h * d);
                      }
                      offset += h;
                    }
                  });
}

Var GatherRows(const Var& table, const std::vector<int32_t>& indices) {
  const Tensor& tv = table->value;
  CheckOrDie(tv.rank() == 2, "GatherRows: rank-2 table required");
  const int64_t d = tv.shape()[1];
  const int64_t n = static_cast<int64_t>(indices.size());
  Tensor out = kernels::NewTensor({n, d});
  {
    const float* tp = tv.data();
    float* op = out.data();
    for (int64_t r = 0; r < n; ++r) {
      const int64_t idx = indices[static_cast<size_t>(r)];
      CheckOrDie(idx >= 0 && idx < tv.shape()[0], "GatherRows: index range");
      kernels::Set(op + r * d, tp + idx * d, d);
    }
  }
  return MakeNode("GatherRows", std::move(out), {table},
                  [indices, d, n](VarNode& self) {
                    VarNode& p = *self.parents[0];
                    if (!p.requires_grad) return;
                    // Scatter-add; duplicate indices accumulate in fixed
                    // ascending r order.
                    float* g = p.EnsureGrad().data();
                    const float* sg = self.grad.data();
                    for (int64_t r = 0; r < n; ++r) {
                      const int64_t idx = indices[static_cast<size_t>(r)];
                      kernels::Add(g + idx * d, sg + r * d, d);
                    }
                  });
}

// ---------------------------------------------------------------------------
// Projection over column blocks.
// ---------------------------------------------------------------------------

std::shared_ptr<const GatheredRows> Rows(
    const Tensor& table, const std::vector<int32_t>& indices) {
  CheckOrDie(table.rank() == 2 || table.empty(),
             "Rows: rank-2 table required");
  const int64_t w = table.rank() == 2 ? table.cols() : 0;
  for (const int32_t idx : indices) {
    CheckOrDie(idx >= -1 && (w == 0 || idx < table.rows()),
               "Rows: index range");
  }
  Distinct<int32_t> rows = Dedup(indices);
  const int64_t u = static_cast<int64_t>(rows.values.size());
  // NewTensor is zero-filled, so the row of a -1 is left as it is.
  Tensor unique = kernels::NewTensor({u, w});
  for (int64_t i = 0; i < u && w > 0; ++i) {
    const int64_t idx = rows.values[static_cast<size_t>(i)];
    if (idx >= 0) {
      kernels::Set(unique.data() + i * w, table.data() + idx * w, w);
    }
  }
  return RowsOf(Constant(std::move(unique)), std::move(rows.slot));
}

std::shared_ptr<const GatheredRows> RowsOf(Var table,
                                           std::vector<int32_t> slot) {
  CheckOrDie(table != nullptr && table->value.rank() == 2,
             "RowsOf: rank-2 table required");
  const int64_t u = table->value.rows();
  for (const int32_t s : slot) {
    CheckOrDie(s >= 0 && s < u, "RowsOf: slot range");
  }
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry.Add(obs::Counter::kProjectRows, static_cast<int64_t>(slot.size()));
  registry.Add(obs::Counter::kProjectUniqueRows, u);
  return std::make_shared<const GatheredRows>(
      GatheredRows{std::move(table), std::move(slot)});
}

int64_t ColBlock::rows() const {
  return dense != nullptr ? dense->value.rows()
                          : static_cast<int64_t>(gathered->slot.size());
}

int64_t ColBlock::cols() const {
  return (dense != nullptr ? dense : gathered->table)->value.cols();
}

namespace {

/// Checks Project's blocks against `wv` and returns their row count.
int64_t BlockRows(const std::vector<ColBlock>& blocks, const Tensor& wv) {
  CheckOrDie(!blocks.empty() && wv.rank() == 2,
             "Project: need blocks and a rank-2 weight");
  const int64_t n = blocks[0].rows();
  int64_t width = 0;
  for (const ColBlock& b : blocks) {
    CheckOrDie(b.rows() == n, "Project: block row count mismatch");
    width += b.cols();
  }
  CheckOrDie(wv.rows() == width,
             "Project: weight rows must equal the summed block width");
  return n;
}

/// Project's products. Each block multiplies its row slice of `wv`: the
/// dense blocks accumulate into `dense` ([n, m]) in block order, each Gemm
/// continuing every element's increasing-k sum, and each gathered block's
/// table is projected once into its own rows of `tables`, stacked in block
/// order. Appends each block's tape value to `parents`.
void MultiplyBlocks(const std::vector<ColBlock>& blocks, const Tensor& wv,
                    float* dense, float* tables, std::vector<Var>& parents) {
  const int64_t n = blocks[0].rows(), m = wv.cols();
  int64_t offset = 0, first = 0;
  for (const ColBlock& b : blocks) {
    const int64_t w = b.cols();
    const float* wp = wv.data() + offset * m;
    offset += w;
    if (b.dense != nullptr) {
      kernels::Gemm(b.dense->value.data(), wp, dense, n, w, m);
      parents.push_back(b.dense);
      continue;
    }
    const Tensor& table = b.gathered->table->value;
    kernels::Gemm(table.data(), wp, Offset(tables, first * m), table.rows(),
                  w, m);
    first += table.rows();
    parents.push_back(b.gathered->table);
  }
}

/// MultiplyBlocks' backward from the gradients of its outputs: `ddense`
/// for the dense blocks and `dtables` for the gathered tables' rows. Block
/// i (self.parents[i + 1]; `gathered[i]` is null when it is dense) adds
/// its dW slice and, when it requires one, its input gradient.
void MultiplyBlocksBackward(
    VarNode& self,
    const std::vector<std::shared_ptr<const GatheredRows>>& gathered,
    const float* ddense, const float* dtables, int64_t n, int64_t m) {
  VarNode& pw = *self.parents[0];
  float* gw = pw.requires_grad ? pw.EnsureGrad().data() : nullptr;
  int64_t offset = 0, first = 0;
  for (size_t i = 0; i < gathered.size(); ++i) {
    VarNode& pa = *self.parents[i + 1];
    const int64_t w = pa.value.cols();
    const float* wp = pw.value.data() + offset * m;
    float* gws = gw != nullptr ? gw + offset * m : nullptr;
    offset += w;
    const int64_t rows = gathered[i] == nullptr ? n : pa.value.rows();
    const float* dout =
        gathered[i] == nullptr ? ddense : Offset(dtables, first * m);
    if (gathered[i] != nullptr) first += rows;
    if (gws != nullptr) kernels::GemmTN(pa.value.data(), dout, gws, rows, w, m);
    if (pa.requires_grad) {
      kernels::GemmNT(dout, wp, pa.EnsureGrad().data(), rows, w, m);
    }
  }
}

/// The gathered blocks of `blocks` (null for a dense one), and their
/// total table rows.
std::vector<std::shared_ptr<const GatheredRows>> GatheredOf(
    const std::vector<ColBlock>& blocks, int64_t& table_rows) {
  std::vector<std::shared_ptr<const GatheredRows>> gathered;
  table_rows = 0;
  for (const ColBlock& b : blocks) {
    gathered.push_back(b.gathered);
    if (b.gathered != nullptr) table_rows += b.gathered->table->value.rows();
  }
  return gathered;
}

}  // namespace

Var Project(const std::vector<ColBlock>& blocks, const Var& weight,
            const Var& bias) {
  const Tensor& wv = weight->value;
  const int64_t n = BlockRows(blocks, wv), m = wv.cols();
  int64_t table_rows = 0;
  auto gathered = GatheredOf(blocks, table_rows);
  Tensor out = kernels::NewTensor({n, m});
  Tensor projected = kernels::NewTensor({table_rows, m});
  std::vector<Var> parents = {weight};
  MultiplyBlocks(blocks, wv, out.data(), projected.data(), parents);
  const float* bp = nullptr;
  if (bias != nullptr) {
    CheckOrDie(IsRowBroadcast(out, bias->value),
               "Project: bias must be [1, m]");
    bp = bias->value.data();
    parents.push_back(bias);
  }
  // One pass sums each output row in place: the dense product (when any
  // block is dense), each gathered block's projected row in block order,
  // then the bias. With neither a gathered term nor a bias it adds nothing.
  float* op = out.data();
  std::vector<kernels::RowTerm> terms;
  if (std::count(gathered.begin(), gathered.end(), nullptr) > 0) {
    terms.push_back({op, nullptr});
  }
  int64_t t = 0, first = 0;  // t: the gathered terms
  for (const auto& g : gathered) {
    if (g == nullptr) continue;
    terms.push_back({projected.data() + first * m, g->slot.data()});
    first += g->table->value.rows();
    ++t;
  }
  if (t > 0 || bp != nullptr) {
    kernels::CountFlops(t * n * m);
    runtime::ParallelFor(
        0, n, RowGrain((t + 1) * m), [&](int64_t r0, int64_t r1) {
          kernels::SumRowTerms(op + r0 * m, terms.data(),
                               static_cast<int64_t>(terms.size()), bp, r0,
                               r1 - r0, m);
        });
  }
  return MakeNode(
      "Project", std::move(out), std::move(parents),
      [n, m, table_rows, gathered](VarNode& self) {
        // parents[i + 1] is block i's value (its table when gathered); a
        // bias is the last parent. dU sums dOut over the rows sharing a
        // table row and the bias over all rows, in ascending row order; the
        // dW slice is tableᵀ · dU and the table's gradient dU · W_sliceᵀ.
        const float* sg = self.grad.data();
        Tensor du = kernels::NewTensor({table_rows, m});
        const bool dw = self.parents[0]->requires_grad;
        std::vector<kernels::GradRowTerm> terms;
        int64_t first = 0;
        for (size_t i = 0; i < gathered.size(); ++i) {
          if (gathered[i] == nullptr) continue;
          if (dw || self.parents[i + 1]->requires_grad) {
            kernels::CountFlops(n * m);
            terms.push_back({du.data() + first * m, gathered[i]->slot.data()});
          }
          first += gathered[i]->table->value.rows();
        }
        float* gb = nullptr;
        if (self.parents.size() > gathered.size() + 1 &&
            self.parents.back()->requires_grad) {
          gb = self.parents.back()->EnsureGrad().data();
        }
        if (!terms.empty() || gb != nullptr) {
          const float one = 1.0f;
          for (int64_t r = 0; r < n; ++r) {
            kernels::ScatterRowTerms(terms.data(),
                                     static_cast<int64_t>(terms.size()), gb,
                                     &one, 1, sg + r * m, r, 1, m);
          }
        }
        MultiplyBlocksBackward(self, gathered, sg, du.data(), n, m);
      });
}

SummedRows ProjectRows(const std::vector<ColBlock>& blocks, const Var& weight,
                       const Var& bias) {
  const Tensor& wv = weight->value;
  const int64_t n = BlockRows(blocks, wv), m = wv.cols();
  int64_t table_rows = 0;
  auto gathered = GatheredOf(blocks, table_rows);
  const bool any_dense = std::count(gathered.begin(), gathered.end(),
                                    nullptr) > 0;
  const int64_t dense_rows = any_dense ? n : 0;
  SummedRows rows;
  rows.rows = n;
  rows.bias = bias;
  if (any_dense) rows.terms.push_back({0, nullptr});
  int64_t first = dense_rows;
  for (const auto& g : gathered) {
    if (g == nullptr) continue;
    rows.terms.push_back({first, g});
    first += g->table->value.rows();
  }
  Tensor tables = kernels::NewTensor({dense_rows + table_rows, m});
  if (bias != nullptr) {
    CheckOrDie(IsRowBroadcast(tables, bias->value),
               "Project: bias must be [1, m]");
  }
  std::vector<Var> parents = {weight};
  MultiplyBlocks(blocks, wv, tables.data(),
                 Offset(tables.data(), dense_rows * m), parents);
  rows.tables = MakeNode(
      "ProjectRows", std::move(tables), std::move(parents),
      [n, m, dense_rows, gathered](VarNode& self) {
        const float* sg = self.grad.data();
        MultiplyBlocksBackward(self, gathered, sg, Offset(sg, dense_rows * m),
                               n, m);
      });
  return rows;
}

// ---------------------------------------------------------------------------
// Nonlinearities.
// ---------------------------------------------------------------------------

namespace {

/// Shared scaffold for elementwise unary ops, run per ParallelFor chunk:
/// fwd(x, y, n) writes y = f(x), and bwd(gx, gy, y, x, n) adds gy·f'(x)
/// to gx, given the op's output y and input x.
template <typename Fwd, typename Bwd>
Var Unary(const char* op_name, const Var& a, int64_t flops_per_entry,
          Fwd fwd, Bwd bwd) {
  Tensor out = kernels::NewTensor(a->value.shape());
  const float* ap = a->value.data();
  float* op = out.data();
  kernels::CountFlops(flops_per_entry * out.size());
  runtime::ParallelFor(0, out.size(), kElementwiseGrain,
                       [&](int64_t lo, int64_t hi) {
                         fwd(ap + lo, op + lo, hi - lo);
                       });
  return MakeNode(op_name, std::move(out), {a}, [bwd](VarNode& self) {
    VarNode& p = *self.parents[0];
    if (!p.requires_grad) return;
    float* g = p.EnsureGrad().data();
    const float* sg = self.grad.data();
    const float* sv = self.value.data();
    const float* pv = p.value.data();
    runtime::ParallelFor(0, self.grad.size(), kElementwiseGrain,
                         [&](int64_t lo, int64_t hi) {
                           bwd(g + lo, sg + lo, sv + lo, pv + lo, hi - lo);
                         });
  });
}

}  // namespace

Var Sigmoid(const Var& a) {
  return Unary(
      "Sigmoid", a, 4, kernels::SigmoidForward,
      [](float* gx, const float* gy, const float* y, const float*, int64_t n) {
        kernels::SigmoidBackward(gx, gy, y, n);
      });
}

Var Tanh(const Var& a) {
  return Unary(
      "Tanh", a, 0,
      [](const float* x, float* y, int64_t n) {
        for (int64_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
      },
      [](float* gx, const float* gy, const float* y, const float*, int64_t n) {
        for (int64_t i = 0; i < n; ++i) gx[i] += gy[i] * (1.0f - y[i] * y[i]);
      });
}

Var Relu(const Var& a) {
  return Unary(
      "Relu", a, 0, kernels::ReluForward,
      [](float* gx, const float* gy, const float*, const float* x, int64_t n) {
        kernels::ReluBackward(gx, gy, x, n);
      });
}

Var Cos(const Var& a) {
  return Unary(
      "Cos", a, 0,
      [](const float* x, float* y, int64_t n) {
        for (int64_t i = 0; i < n; ++i) y[i] = std::cos(x[i]);
      },
      [](float* gx, const float* gy, const float*, const float* x, int64_t n) {
        for (int64_t i = 0; i < n; ++i) gx[i] += gy[i] * -std::sin(x[i]);
      });
}

// ---------------------------------------------------------------------------
// Reductions and losses.
// ---------------------------------------------------------------------------

Var Sum(const Var& a) {
  kernels::CountFlops(a->value.size());
  Tensor out = kernels::NewTensor({1});
  out.at(0) = kernels::ReduceSum(a->value.data(), a->value.size());
  return MakeNode("Sum", std::move(out), {a}, [](VarNode& self) {
    VarNode& p = *self.parents[0];
    if (!p.requires_grad) return;
    Tensor& g = p.EnsureGrad();
    const float s = self.grad.at(0);
    float* gp = g.data();
    runtime::ParallelFor(0, g.size(), kElementwiseGrain,
                         [&](int64_t lo, int64_t hi) {
                           kernels::AddScalar(gp + lo, s, hi - lo);
                         });
  });
}

Var BceWithLogits(const Var& logits, const Tensor& targets) {
  const Tensor& lv = logits->value;
  CheckOrDie(lv.size() == targets.size(), "BceWithLogits: size mismatch");
  const int64_t n = lv.size();
  CheckOrDie(n > 0, "BceWithLogits: empty input");
  kernels::CountFlops(8 * n);
  Tensor out = kernels::NewTensor({1});
  out.at(0) = kernels::BceForwardMean(lv.data(), targets.data(), n);
  Tensor saved_targets = targets;
  return MakeNode("BceWithLogits", std::move(out), {logits},
                  [n, saved_targets](VarNode& self) {
                    VarNode& p = *self.parents[0];
                    if (!p.requires_grad) return;
                    const float seed = self.grad.at(0) / static_cast<float>(n);
                    kernels::BceBackward(p.EnsureGrad().data(),
                                         p.value.data(), saved_targets.data(),
                                         seed, n);
                  });
}

Var SoftmaxCrossEntropy(const Var& logits,
                        const std::vector<int64_t>& labels) {
  const Tensor& lv = logits->value;
  CheckOrDie(lv.rank() == 2, "SoftmaxCrossEntropy: rank-2 logits required");
  const int64_t n = lv.shape()[0], c_dim = lv.shape()[1];
  CheckOrDie(static_cast<int64_t>(labels.size()) == n,
             "SoftmaxCrossEntropy: label count");
  // `probs` is captured by the backward closure, so it must be heap-backed
  // (a plain Tensor), never arena storage.
  Tensor probs({n, c_dim});
  for (int64_t r = 0; r < n; ++r) {
    kernels::SoftmaxRow(lv.data() + r * c_dim, nullptr, c_dim,
                        probs.data() + r * c_dim);
  }
  float total = 0.0f;
  for (int64_t r = 0; r < n; ++r) {
    const int64_t y = labels[static_cast<size_t>(r)];
    CheckOrDie(y >= 0 && y < c_dim, "SoftmaxCrossEntropy: label range");
    total -= std::log(std::max(probs.at(r, y), 1e-12f));
  }
  Tensor out = kernels::NewTensor({1});
  out.at(0) = total / static_cast<float>(n);
  return MakeNode(
      "SoftmaxCrossEntropy", std::move(out), {logits},
      [n, c_dim, labels, probs](VarNode& self) {
        VarNode& p = *self.parents[0];
        if (!p.requires_grad) return;
        float* g = p.EnsureGrad().data();
        const float* pp = probs.data();
        const float seed = self.grad.at(0) / static_cast<float>(n);
        for (int64_t r = 0; r < n; ++r) {
          const int64_t y = labels[static_cast<size_t>(r)];
          float* grow = g + r * c_dim;
          const float* prow = pp + r * c_dim;
          kernels::Axpy(grow, seed, prow, c_dim);
          grow[y] -= seed;
        }
      });
}

// ---------------------------------------------------------------------------
// Attention over summed rows.
// ---------------------------------------------------------------------------

namespace {

/// Summed rows read a query at a time: query i's num_keys keys are rows
/// [i * num_keys, (i + 1) * num_keys), each summed whole from its terms.
class SummedKeys {
 public:
  SummedKeys(const SummedRows& s, int64_t num_keys)
      : held_(s.terms), num_keys_(num_keys), m_(s.tables->value.cols()) {
    for (const SummedRows::Term& t : s.terms) {
      const int32_t* slot =
          t.gathered != nullptr ? t.gathered->slot.data() : nullptr;
      terms_.push_back({Offset(s.tables->value.data(), t.first * m_), slot});
      gathered_terms_ += slot != nullptr ? 1 : 0;
    }
    if (s.bias != nullptr) bias_ = s.bias->value.data();
  }

  int64_t terms() const { return static_cast<int64_t>(terms_.size()); }

  /// The adds Project's row pass counted for the keys of `queries`
  /// queries: one per gathered term and column.
  int64_t SumFlops(int64_t queries) const {
    return gathered_terms_ * queries * num_keys_ * m_;
  }

  /// Query i's keys, summed into y ([num_keys, m]).
  void Sum(int64_t i, float* y) const {
    kernels::SumRowTerms(y, terms_.data(),
                         static_cast<int64_t>(terms_.size()), bias_,
                         i * num_keys_, num_keys_, m_);
  }

  /// The transpose of the sum for b queries into the tables' gradient
  /// `gt` and the bias gradient `gb` (either null: not wanted). Query i's
  /// keys add, per head h, scale * x_i over the head's columns, with the
  /// [heads, num_keys] scales at scale + i * heads * num_keys and the m
  /// floats x_i at x + i * m. One thread runs the keys in ascending order,
  /// as Project's backward runs its rows.
  void Scatter(float* gt, float* gb, int64_t b, const float* scale,
               int64_t heads, const float* x) const {
    std::vector<kernels::GradRowTerm> terms;
    if (gt != nullptr) {
      for (size_t j = 0; j < terms_.size(); ++j) {
        terms.push_back({gt + held_[j].first * m_, terms_[j].slot});
      }
      kernels::CountFlops(SumFlops(b));
    }
    if (terms.empty() && gb == nullptr) return;
    for (int64_t i = 0; i < b; ++i) {
      kernels::ScatterRowTerms(terms.data(),
                               static_cast<int64_t>(terms.size()), gb,
                               scale + i * heads * num_keys_, heads,
                               x + i * m_, i * num_keys_, num_keys_, m_);
    }
  }

 private:
  std::vector<SummedRows::Term> held_;  // keeps the slots alive
  int64_t num_keys_;
  int64_t m_;
  std::vector<kernels::RowTerm> terms_;
  const float* bias_ = nullptr;
  int64_t gathered_terms_ = 0;
};

/// `s`'s tape parents: its tables, then its bias when it has one.
void AppendParents(const SummedRows& s, std::vector<Var>& parents) {
  parents.push_back(s.tables);
  if (s.bias != nullptr) parents.push_back(s.bias);
}

/// The gradient buffer of `p` when it takes one, else null.
float* GradOrNull(VarNode* p) {
  return p != nullptr && p->requires_grad ? p->EnsureGrad().data() : nullptr;
}

}  // namespace

Var Attention(const Var& q, const SummedRows& keys, const SummedRows& values,
              const Tensor& mask, int64_t num_keys, int64_t num_heads) {
  const Tensor& qv = q->value;
  CheckOrDie(qv.rank() == 2 && keys.tables != nullptr &&
                 values.tables != nullptr,
             "Attention: rank-2 required");
  const int64_t b = qv.rows(), m = qv.cols();
  CheckOrDie(num_heads > 0 && m % num_heads == 0,
             "Attention: num_heads must divide the query width");
  CheckOrDie(keys.rows == b * num_keys && keys.tables->value.cols() == m,
             "Attention: key block shape");
  CheckOrDie(values.rows == b * num_keys && values.tables->value.cols() == m,
             "Attention: value block shape");
  CheckOrDie(mask.size() == b * num_keys, "Attention: mask shape");
  const int64_t d = m / num_heads, kh = num_heads * num_keys;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  auto k = std::make_shared<const SummedKeys>(keys, num_keys);
  auto v = std::make_shared<const SummedKeys>(values, num_keys);
  // Per query: both sums, and each head's Dot and Axpy over its columns.
  const int64_t grain =
      RowGrain(num_keys * m * (k->terms() + v->terms() + 4));
  std::vector<Var> parents = {q};
  AppendParents(keys, parents);
  AppendParents(values, parents);
  const bool any_grad =
      std::any_of(parents.begin(), parents.end(),
                  [](const Var& p) { return p->requires_grad; });
  Tensor out = kernels::NewTensor({b, m});
  // The softmax weights, [b, heads, num_keys], kept for the backward pass.
  Tensor weights;
  if (any_grad) weights = kernels::NewTensor({b, kh});
  {
    const float* qp = qv.data();
    const float* mp = mask.data();
    float* op = out.data();
    float* wp = weights.data();
    kernels::CountFlops(4 * b * num_keys * m + 4 * b * kh + k->SumFlops(b) +
                        v->SumFlops(b));
    runtime::ParallelFor(
        0, b, grain, [&](int64_t b0, int64_t b1) {
          std::vector<float> buf(
              static_cast<size_t>(2 * num_keys * m + 2 * num_keys));
          float* kr = buf.data();
          float* vr = kr + num_keys * m;
          float* scores = vr + num_keys * m;
          float* scratch = scores + num_keys;
          for (int64_t i = b0; i < b1; ++i) {
            k->Sum(i, kr);
            v->Sum(i, vr);
            for (int64_t h = 0; h < num_heads; ++h) {
              const int64_t c = h * d;
              for (int64_t j = 0; j < num_keys; ++j) {
                scores[j] = scale * kernels::Dot(qp + i * m + c,
                                                 kr + j * m + c, d);
              }
              float* w = wp != nullptr ? wp + (i * num_heads + h) * num_keys
                                       : scratch;
              kernels::SoftmaxRow(scores, mp + i * num_keys, num_keys, w);
              for (int64_t j = 0; j < num_keys; ++j) {
                if (IsExactlyZero(w[j])) continue;
                kernels::Axpy(op + i * m + c, w[j], vr + j * m + c, d);
              }
            }
          }
        });
  }
  return MakeNode(
      "Attention", std::move(out), std::move(parents),
      [b, m, d, num_keys, num_heads, scale, grain, k, v,
       has_kbias = keys.bias != nullptr,
       weights = std::move(weights)](VarNode& self) {
        VarNode& pq = *self.parents[0];
        VarNode& pk = *self.parents[1];
        VarNode* pkb = has_kbias ? self.parents[2].get() : nullptr;
        VarNode* pv = self.parents[has_kbias ? 3 : 2].get();
        VarNode* pvb = self.parents.size() > (has_kbias ? 4u : 3u)
                           ? self.parents.back().get()
                           : nullptr;
        const float* sg = self.grad.data();
        const float* wp = weights.data();
        // The scores take a gradient when q or the keys do. gd holds each
        // raw score's, [b, heads, num_keys]; every step starts its
        // gradient at +0, as the separate ops' zero-filled buffers did.
        const bool scores_grad = pq.requires_grad || pk.requires_grad ||
                                 (pkb != nullptr && pkb->requires_grad);
        Tensor gd;
        if (scores_grad) {
          gd = kernels::NewTensor({b, num_heads * num_keys});
          float* gdp = gd.data();
          float* gq = GradOrNull(&pq);
          runtime::ParallelFor(
              0, b, grain, [&](int64_t b0, int64_t b1) {
                std::vector<float> buf(
                    static_cast<size_t>(2 * num_keys * m + num_keys));
                float* kr = buf.data();
                float* vr = kr + num_keys * m;
                float* gw = vr + num_keys * m;
                for (int64_t i = b0; i < b1; ++i) {
                  v->Sum(i, vr);
                  if (gq != nullptr) k->Sum(i, kr);
                  for (int64_t h = 0; h < num_heads; ++h) {
                    const int64_t c = h * d;
                    const float* w = wp + (i * num_heads + h) * num_keys;
                    float* g = gdp + (i * num_heads + h) * num_keys;
                    for (int64_t j = 0; j < num_keys; ++j) {
                      gw[j] = 0.0f;
                      gw[j] += kernels::Dot(sg + i * m + c, vr + j * m + c, d);
                    }
                    // Softmax, then the scale.
                    const float dot = kernels::Dot(gw, w, num_keys);
                    for (int64_t j = 0; j < num_keys; ++j) {
                      float gs = 0.0f;
                      gs += w[j] * (gw[j] - dot);
                      g[j] += scale * gs;
                    }
                    if (gq == nullptr) continue;
                    for (int64_t j = 0; j < num_keys; ++j) {
                      if (IsExactlyZero(g[j])) continue;
                      kernels::Axpy(gq + i * m + c, g[j], kr + j * m + c, d);
                    }
                  }
                }
              });
        }
        v->Scatter(GradOrNull(pv), GradOrNull(pvb), b, wp, num_heads, sg);
        if (scores_grad) {
          k->Scatter(GradOrNull(&pk), GradOrNull(pkb), b, gd.data(),
                     num_heads, pq.value.data());
        }
      });
}

Var BatchWeightedSum(const Tensor& w, const Var& values, int64_t num_keys) {
  const Tensor& vv = values->value;
  CheckOrDie(w.rank() == 2 && vv.rank() == 2,
             "BatchWeightedSum: rank-2 required");
  const int64_t b = w.rows(), m = vv.cols();
  CheckOrDie(w.cols() == num_keys, "BatchWeightedSum: weight shape");
  CheckOrDie(vv.rows() == b * num_keys, "BatchWeightedSum: value shape");
  const int64_t grain = RowGrain(3 * num_keys * m);
  Tensor out = kernels::NewTensor({b, m});
  {
    const float* wp = w.data();
    const float* vp = vv.data();
    float* op = out.data();
    kernels::CountFlops(2 * b * num_keys * m);
    runtime::ParallelFor(0, b, grain, [&](int64_t b0, int64_t b1) {
      for (int64_t i = b0; i < b1; ++i) {
        for (int64_t j = 0; j < num_keys; ++j) {
          const float weight = wp[i * num_keys + j];
          if (IsExactlyZero(weight)) continue;
          kernels::Axpy(op + i * m, weight, vp + (i * num_keys + j) * m, m);
        }
      }
    });
  }
  // The backward pass reads the weights only when the values take a
  // gradient.
  Tensor weights = values->requires_grad ? w : Tensor();
  return MakeNode(
      "BatchWeightedSum", std::move(out), {values},
      [b, m, num_keys, weights = std::move(weights)](VarNode& self) {
        VarNode& pv = *self.parents[0];
        if (!pv.requires_grad) return;
        // Each key's row adds weight * dOut, in ascending key order.
        const float* sg = self.grad.data();
        const float* wp = weights.data();
        float* gv = pv.EnsureGrad().data();
        for (int64_t r = 0; r < b * num_keys; ++r) {
          if (IsExactlyZero(wp[r])) continue;
          kernels::Axpy(gv + r * m, wp[r], sg + r / num_keys * m, m);
        }
      });
}

}  // namespace benchtemp::tensor
