#ifndef BENCHTEMP_TENSOR_EXPR_H_
#define BENCHTEMP_TENSOR_EXPR_H_

#include "tensor/autograd.h"

// Spellings perfbench/bench_perf.cc still uses for its loss: `expr::Ex`
// is a plain Var and the ops are the eager ones. Delete this header
// together with ReplayJob, perfbench's hand-copied trainer (ROADMAP
// item 4).
// btlint: allow-file(orphan-header) — its one includer, perfbench/, is
// outside the linted tree.
namespace benchtemp::tensor::expr {
using Ex = Var;
using tensor::Add;
using tensor::ScalarMul;
}  // namespace benchtemp::tensor::expr

#endif  // BENCHTEMP_TENSOR_EXPR_H_
