#include "tensor/debug_check.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "tensor/autograd.h"
#include "tensor/tensor.h"

namespace benchtemp::tensor::debug_check {

namespace {

bool ReadEnv() {
  const char* env = std::getenv("BENCHTEMP_CHECK");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

/// Cached enable flag. Mutable process state is deliberate and test-only:
/// the flag is written before any tape exists (static init / test setup)
/// and only read afterwards.
// btlint: allow(mutable-static)
bool g_enabled = ReadEnv();

[[noreturn]] void Die(const char* op, const char* what) {
  std::fprintf(stderr, "BENCHTEMP_CHECK: autograd op '%s': %s\n",
               op == nullptr ? "?" : op, what);
  std::abort();
}

int64_t Volume(const Tensor& t) {
  int64_t v = 1;
  for (int64_t d : t.shape()) v *= d;
  return t.rank() == 0 ? t.size() : v;
}

}  // namespace

bool Enabled() { return g_enabled; }

void SetEnabledForTest(bool enabled) { g_enabled = enabled; }

void OnRecord(const VarNode& node) {
  if (Volume(node.value) != node.value.size()) {
    Die(node.op, "recorded value volume disagrees with its shape");
  }
  for (const Var& parent : node.parents) {
    if (parent == nullptr) Die(node.op, "null parent at record time");
    if (parent->tape_released) {
      Die(node.op,
          "use-after-backward: a parent's tape was already consumed by "
          "Backward(); wrap a copy of the value in Constant() or rebuild "
          "the graph");
    }
    if (Volume(parent->value) != parent->value.size()) {
      Die(node.op, "parent value volume disagrees with its shape");
    }
  }
}

void OnBackwardNode(const VarNode& node) {
  if (node.tape_released) {
    Die(node.op, "Backward() reached a node whose tape was already released "
                 "(double backward over the same graph)");
  }
  if (node.grad.size() != node.value.size()) {
    Die(node.op, "gradient shape disagrees with value shape at backward "
                 "time");
  }
}

void ReleaseNode(VarNode& node) {
  // Leaves (parameters / constants) keep their gradients: the optimizer
  // reads them after Backward. Only interior nodes are retired.
  if (node.parents.empty()) return;
  if (node.grad.size() > 0) {
    node.grad.Fill(std::numeric_limits<float>::quiet_NaN());
  }
  node.tape_released = true;
}

}  // namespace benchtemp::tensor::debug_check
