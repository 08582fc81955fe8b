#include "tensor/expr.h"

#include <atomic>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "base/mutex.h"
#include "tensor/kernels/arena.h"

namespace benchtemp::tensor::expr {

namespace {

using kernels::fused::Bcast;
using kernels::fused::Instr;
using kernels::fused::OpKind;
using kernels::fused::Program;

// btlint: allow(mutable-static) — atomic test hook, relaxed loads only.
std::atomic<bool> g_fusion_enabled{true};

/// Fused op names live on tape nodes (`VarNode::op` is a `const char*`),
/// so composed names are interned once and never freed.
const char* InternOpName(const std::string& name) {
  // btlint: allow(mutable-static) — process-lifetime intern pool.
  static base::Mutex mutex;
  // btlint: allow(mutable-static)
  static std::unordered_set<std::string> pool;
  base::MutexLock lock(mutex);
  return pool.insert(name).first->c_str();
}

int64_t SizeOf(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t s : shape) n *= s;
  return shape.empty() ? 0 : n;
}

/// Mirrors Tensor::rows() / cols() so composition-time checks agree with
/// the eager ops' runtime predicates.
int64_t RowsOf(const std::vector<int64_t>& shape) {
  return shape.empty() ? 0 : shape[0];
}

int64_t ColsOf(const std::vector<int64_t>& shape) {
  if (shape.size() < 2) return shape.empty() ? 0 : 1;
  int64_t c = 1;
  for (size_t i = 1; i < shape.size(); ++i) c *= shape[i];
  return c;
}

using NodePtr = std::shared_ptr<const Ex::Node>;

NodePtr MakeLeaf(const Var& v) {
  CheckOrDie(v != nullptr, "expr: null Var leaf");
  auto node = std::make_shared<Ex::Node>();
  node->is_leaf = true;
  node->leaf = v;
  node->shape = v->value.shape();
  return node;
}

NodePtr MakeUnary(OpKind op, const Ex& a, float scalar = 0.0f) {
  auto node = std::make_shared<Ex::Node>();
  node->op = op;
  node->a = a.node();
  node->scalar = scalar;
  node->shape = a.shape();
  return node;
}

NodePtr MakeBinary(OpKind op, const Ex& a, const Ex& b, Bcast bcast) {
  auto node = std::make_shared<Ex::Node>();
  node->op = op;
  node->bcast = bcast;
  node->a = a.node();
  node->b = b.node();
  node->shape = a.shape();
  return node;
}

/// Broadcast classification of operand `b` against `a`, mirroring the
/// eager IsRowBroadcast / IsColBroadcast predicates. Broadcast operands
/// must be leaves (the simple-tensor idiom): a lazy subexpression may not
/// broadcast, so the shape error surfaces at composition time rather than
/// deep inside a fused pass.
Bcast ClassifyBinary(const char* mismatch_message, const Ex& a, const Ex& b,
                     bool allow_row, bool allow_col) {
  const std::vector<int64_t>& as = a.shape();
  const std::vector<int64_t>& bs = b.shape();
  if (SizeOf(as) == SizeOf(bs)) return Bcast::kNone;
  const bool row = SizeOf(bs) == ColsOf(as) && RowsOf(bs) <= 1;
  const bool col = SizeOf(bs) == RowsOf(as) && ColsOf(as) > 1;
  if (allow_row && row) {
    CheckOrDie(b.node()->is_leaf,
               "expr: broadcast operand must be a materialized Var");
    return Bcast::kRow;
  }
  if (allow_col && col) {
    CheckOrDie(b.node()->is_leaf,
               "expr: broadcast operand must be a materialized Var");
    return Bcast::kCol;
  }
  CheckOrDie(false, mismatch_message);
  return Bcast::kNone;
}

// ---------------------------------------------------------------------------
// Eager replay (fusion off): reproduces the per-op tape exactly.
// ---------------------------------------------------------------------------

Var Replay(const Ex::Node* n, std::unordered_map<const Ex::Node*, Var>& memo) {
  if (n->is_leaf) return n->leaf;
  auto it = memo.find(n);
  if (it != memo.end()) return it->second;
  Var a = Replay(n->a.get(), memo);
  Var result;
  switch (n->op) {
    case OpKind::kAdd:
      result = tensor::Add(a, Replay(n->b.get(), memo));
      break;
    case OpKind::kSub:
      result = tensor::Sub(a, Replay(n->b.get(), memo));
      break;
    case OpKind::kMul:
      result = tensor::Mul(a, Replay(n->b.get(), memo));
      break;
    case OpKind::kScalarMul:
      result = tensor::ScalarMul(a, n->scalar);
      break;
    case OpKind::kScalarAdd:
      result = tensor::ScalarAdd(a, n->scalar);
      break;
    case OpKind::kSigmoid:
      result = tensor::Sigmoid(a);
      break;
    case OpKind::kTanh:
      result = tensor::Tanh(a);
      break;
    case OpKind::kRelu:
      result = tensor::Relu(a);
      break;
    case OpKind::kExp:
      result = tensor::Exp(a);
      break;
    case OpKind::kCos:
      result = tensor::Cos(a);
      break;
    case OpKind::kSin:
      result = tensor::Sin(a);
      break;
  }
  memo.emplace(n, result);
  return result;
}

// ---------------------------------------------------------------------------
// Fused compilation.
// ---------------------------------------------------------------------------

struct Compiled {
  std::shared_ptr<Program> program;
  std::vector<Var> leaves;  // one per input slot, in DFS-encounter order
  const char* name = nullptr;
};

/// Linearizes the DAG with the same iterative post-order DFS the eager
/// tape's TopoSort uses (visited marked at push, operands explored in
/// a-then-b order), so the fused backward replays contributions to shared
/// leaves in exactly the eager reverse-topological order.
Compiled Compile(const NodePtr& root) {
  Compiled c;
  c.program = std::make_shared<Program>();
  Program& p = *c.program;
  p.rows = RowsOf(root->shape);
  p.cols = ColsOf(root->shape);

  std::unordered_map<const VarNode*, int32_t> leaf_slot;
  std::unordered_map<const Ex::Node*, int32_t> node_slot;
  std::vector<const Ex::Node*> order;
  struct Frame {
    const Ex::Node* node;
    int next_child;
  };
  std::unordered_set<const Ex::Node*> visited;
  std::vector<Frame> stack;
  stack.push_back({root.get(), 0});
  visited.insert(root.get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const Ex::Node* child = nullptr;
    if (frame.next_child == 0) {
      frame.next_child = 1;
      child = frame.node->is_leaf ? nullptr : frame.node->a.get();
    } else if (frame.next_child == 1) {
      frame.next_child = 2;
      child = frame.node->is_leaf ? nullptr : frame.node->b.get();
    } else {
      order.push_back(frame.node);
      stack.pop_back();
      continue;
    }
    if (child != nullptr && visited.insert(child).second) {
      stack.push_back({child, 0});
    }
  }

  // Assign leaf slots in post-order encounter order (identical to the
  // first-visit order for leaves), then instruction slots.
  for (const Ex::Node* n : order) {
    if (!n->is_leaf) continue;
    const VarNode* key = n->leaf.get();
    if (leaf_slot.find(key) != leaf_slot.end()) {
      node_slot[n] = leaf_slot[key];
      continue;
    }
    const int32_t slot = static_cast<int32_t>(c.leaves.size());
    leaf_slot[key] = slot;
    node_slot[n] = slot;
    c.leaves.push_back(n->leaf);
    p.input_bcast.push_back(Bcast::kNone);
  }
  p.num_inputs = static_cast<int32_t>(c.leaves.size());

  std::string name = "fused[";
  for (const Ex::Node* n : order) {
    if (n->is_leaf) continue;
    Instr ins;
    ins.op = n->op;
    ins.bcast = n->bcast;
    ins.scalar = n->scalar;
    ins.a = node_slot.at(n->a.get());
    if (n->b != nullptr) ins.b = node_slot.at(n->b.get());
    if (ins.bcast != Bcast::kNone && ins.b < p.num_inputs) {
      // The slot's broadcast mode is fixed at composition time; a leaf
      // cannot be consumed under two different modes within one chain
      // (the shapes would be inconsistent).
      Bcast& slot_bcast = p.input_bcast[static_cast<size_t>(ins.b)];
      CheckOrDie(slot_bcast == Bcast::kNone || slot_bcast == ins.bcast,
                 "expr: leaf consumed under conflicting broadcast modes");
      slot_bcast = ins.bcast;
    }
    node_slot[n] =
        p.num_inputs + static_cast<int32_t>(p.instrs.size());
    // Flop accounting with eager parity: only the flat Add/Mul paths and
    // Sigmoid report flops in the eager ops.
    const int64_t volume = p.rows * p.cols;
    if (n->op == OpKind::kSigmoid) {
      p.flops += 4 * volume;
    } else if ((n->op == OpKind::kAdd || n->op == OpKind::kMul) &&
               n->bcast == Bcast::kNone) {
      p.flops += volume;
    }
    if (!p.instrs.empty()) name += "|";
    name += kernels::fused::OpName(n->op);
    p.instrs.push_back(ins);
  }
  name += "]";
  c.name = InternOpName(name);
  return c;
}

Var Fuse(const NodePtr& root) {
  Compiled c = Compile(root);
  const std::shared_ptr<Program>& prog = c.program;
  Tensor out = kernels::NewTensor(root->shape);
  std::vector<const float*> inputs(c.leaves.size());
  bool any_grad = false;
  for (size_t i = 0; i < c.leaves.size(); ++i) {
    inputs[i] = c.leaves[i]->value.data();
    any_grad = any_grad || c.leaves[i]->requires_grad;
  }
  // The checkpoint tensors live in the same tape arena as `out`, so they
  // stay valid exactly as long as the tape node whose backward reads them.
  auto stash = std::make_shared<kernels::fused::Stash>();
  kernels::fused::Forward(*prog, inputs.data(), out.data(),
                          any_grad ? stash.get() : nullptr);
  std::vector<Var> parents(c.leaves.begin(), c.leaves.end());
  return MakeOpNode(
      c.name, std::move(out), std::move(parents),
      [prog, stash](VarNode& self) {
        const size_t n = static_cast<size_t>(prog->num_inputs);
        std::vector<const float*> in(n);
        std::vector<float*> grads(n);
        for (size_t i = 0; i < n; ++i) {
          VarNode& parent = *self.parents[i];
          in[i] = parent.value.data();
          grads[i] =
              parent.requires_grad ? parent.EnsureGrad().data() : nullptr;
        }
        kernels::fused::Backward(*prog, in.data(), self.grad.data(),
                                 grads.data(), stash.get());
      });
}

}  // namespace

bool FusionEnabled() {
  return g_fusion_enabled.load(std::memory_order_relaxed);
}

void SetFusionEnabledForTest(bool enabled) {
  g_fusion_enabled.store(enabled, std::memory_order_relaxed);
}

Ex::Ex(const Var& v) : node_(MakeLeaf(v)) {}

Var Ex::Materialize() const {
  if (node_->is_leaf) return node_->leaf;
  if (!FusionEnabled()) {
    std::unordered_map<const Ex::Node*, Var> memo;
    return Replay(node_.get(), memo);
  }
  return Fuse(node_);
}

Ex Add(const Ex& a, const Ex& b) {
  const Bcast bcast =
      ClassifyBinary("expr::Add: incompatible shapes", a, b,
                     /*allow_row=*/true, /*allow_col=*/false);
  return Ex(MakeBinary(OpKind::kAdd, a, b, bcast));
}

Ex Sub(const Ex& a, const Ex& b) {
  CheckOrDie(SizeOf(a.shape()) == SizeOf(b.shape()),
             "expr::Sub: shape mismatch");
  return Ex(MakeBinary(OpKind::kSub, a, b, Bcast::kNone));
}

Ex Mul(const Ex& a, const Ex& b) {
  const Bcast bcast =
      ClassifyBinary("expr::Mul: incompatible shapes", a, b,
                     /*allow_row=*/true, /*allow_col=*/true);
  return Ex(MakeBinary(OpKind::kMul, a, b, bcast));
}

Ex ScalarMul(const Ex& a, float s) {
  return Ex(MakeUnary(OpKind::kScalarMul, a, s));
}

Ex ScalarAdd(const Ex& a, float s) {
  return Ex(MakeUnary(OpKind::kScalarAdd, a, s));
}

Ex Sigmoid(const Ex& a) { return Ex(MakeUnary(OpKind::kSigmoid, a)); }
Ex Tanh(const Ex& a) { return Ex(MakeUnary(OpKind::kTanh, a)); }
Ex Relu(const Ex& a) { return Ex(MakeUnary(OpKind::kRelu, a)); }
Ex Exp(const Ex& a) { return Ex(MakeUnary(OpKind::kExp, a)); }
Ex Cos(const Ex& a) { return Ex(MakeUnary(OpKind::kCos, a)); }
Ex Sin(const Ex& a) { return Ex(MakeUnary(OpKind::kSin, a)); }

}  // namespace benchtemp::tensor::expr
