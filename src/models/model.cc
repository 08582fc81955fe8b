#include "models/model.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

#include "tensor/kernels/arena.h"
#include "tensor/numeric.h"

namespace benchtemp::models {

using tensor::Tensor;
using tensor::Var;

namespace {

/// Element-wise bit equality: 0.0 and -0.0 differ, so a match never
/// changes a single bit of what the times feed.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) {
                      return std::bit_cast<uint64_t>(x) ==
                             std::bit_cast<uint64_t>(y);
                    });
}

}  // namespace

TgnnModel::TgnnModel(const graph::TemporalGraph* graph, ModelConfig config)
    : graph_(graph), config_(config), rng_(config.seed) {
  tensor::CheckOrDie(graph != nullptr, "TgnnModel: null graph");
}

void TgnnModel::InitPredictor(int64_t dim_src, int64_t dim_dst,
                              tensor::Rng& rng) {
  predictor_ = std::make_unique<tensor::Mlp>(
      std::vector<int64_t>{dim_src + dim_dst, config_.embedding_dim, 1}, rng);
  Own(*predictor_);
}

const PreparedCall* TgnnModel::NextPreparedCall(
    const std::vector<int32_t>& nodes, const std::vector<double>& ts) {
  if (prepared_ == nullptr) return nullptr;
  const auto where = [this] {
    return " (cursor " + std::to_string(prepared_cursor_) + " of " +
           std::to_string(prepared_->calls.size()) + ")";
  };
  if (prepared_cursor_ >= prepared_->calls.size()) {
    const std::string message =
        name() + ": prepared calls exhausted" + where();
    tensor::CheckOrDie(false, message.c_str());
  }
  const PreparedCall& call = *prepared_->calls[prepared_cursor_];
  if (call.nodes != nodes || !SameBits(call.ts, ts)) {
    const std::string message =
        name() + ": prepared call built for other queries" + where();
    tensor::CheckOrDie(false, message.c_str());
  }
  ++prepared_cursor_;
  return &call;
}

Var TgnnModel::ScoreEdges(const std::vector<int32_t>& srcs,
                          const std::vector<int32_t>& dsts,
                          const std::vector<double>& ts) {
  tensor::CheckOrDie(predictor_ != nullptr,
                     "ScoreEdges: predictor not initialized");
  Var src_emb = SourceEmbeddings(srcs, ts);
  Var dst_emb = ComputeEmbeddings(dsts, ts);
  return predictor_->Forward({src_emb, dst_emb});
}

Var TgnnModel::SourceEmbeddings(const std::vector<int32_t>& srcs,
                                const std::vector<double>& ts) {
  const tensor::kernels::Arena& arena = tensor::kernels::Arena::ThreadLocal();
  SourceMemo& memo = source_memo_;
  // ts is compared bit for bit (SameBits), so a hit never changes a single
  // bit of the embeddings.
  if (memo.embeddings != nullptr && memo.arena == &arena &&
      memo.generation == arena.Generation() && memo.srcs == srcs &&
      SameBits(memo.ts, ts)) {
    return memo.embeddings;
  }
  memo.embeddings = ComputeEmbeddings(srcs, ts);
  memo.srcs = srcs;
  memo.ts = ts;
  memo.arena = &arena;
  memo.generation = arena.Generation();
  return memo.embeddings;
}

Var TgnnModel::ScoreCandidates(const std::vector<int32_t>& srcs,
                               const std::vector<int32_t>& candidates,
                               const std::vector<double>& ts, int k) {
  tensor::CheckOrDie(k >= 1, "ScoreCandidates: k must be >= 1");
  tensor::CheckOrDie(
      candidates.size() == srcs.size() * static_cast<size_t>(k),
      "ScoreCandidates: candidate row shape mismatch");
  // Every candidate of row i is scored at the positive's timestamp ts[i].
  std::vector<double> cand_ts(candidates.size());
  for (size_t i = 0; i < srcs.size(); ++i) {
    for (int j = 0; j < k; ++j) {
      cand_ts[i * static_cast<size_t>(k) + static_cast<size_t>(j)] = ts[i];
    }
  }
  if (predictor_ != nullptr) {
    // Fused path: one [n, d] source embedding, one [n * k, d] candidate
    // embedding, one predictor forward over all n * k rows. Row r of the
    // source block is source r / k, so each source's half of the first
    // layer is projected once rather than k times.
    Var src_emb = SourceEmbeddings(srcs, ts);
    Var cand_emb = ComputeEmbeddings(candidates, cand_ts);
    std::vector<int32_t> tile(candidates.size());
    for (size_t i = 0; i < srcs.size(); ++i) {
      std::fill_n(tile.begin() + static_cast<std::ptrdiff_t>(i) * k, k,
                  tensor::NarrowId(static_cast<int64_t>(i),
                                   "ScoreCandidates: sources"));
    }
    return predictor_->Forward(
        {tensor::RowsOf(src_emb, std::move(tile)), cand_emb});
  }
  // Pair-feature models: one flat ScoreEdges call over the n * k pairs.
  std::vector<int32_t> src_rep(candidates.size());
  for (size_t i = 0; i < srcs.size(); ++i) {
    for (int j = 0; j < k; ++j) {
      src_rep[i * static_cast<size_t>(k) + static_cast<size_t>(j)] = srcs[i];
    }
  }
  return ScoreEdges(src_rep, candidates, cand_ts);
}

}  // namespace benchtemp::models
