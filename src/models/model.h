#ifndef BENCHTEMP_MODELS_MODEL_H_
#define BENCHTEMP_MODELS_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/neighbor_finder.h"
#include "graph/temporal_graph.h"
#include "graph/walks.h"
#include "tensor/autograd.h"
#include "tensor/modules.h"
#include "tensor/random.h"

namespace benchtemp::tensor::kernels {
class Arena;
}  // namespace benchtemp::tensor::kernels

namespace benchtemp::models {

/// Hyperparameters shared by the TGNN implementations. The defaults mirror
/// the reference configurations at CPU scale (see DESIGN.md substitution 1).
struct ModelConfig {
  /// Memory / node embedding width.
  int64_t embedding_dim = 32;
  /// Time-encoding width.
  int64_t time_dim = 32;
  /// Neighbors sampled per attention query (K).
  int64_t num_neighbors = 10;
  /// Attention layers (TGAT stacks several).
  int64_t num_layers = 2;
  /// Attention heads; constrained by the paper's Formula (1).
  int64_t num_heads = 2;
  /// Walks per endpoint for CAWN / NeurTW (M).
  int64_t num_walks = 4;
  /// Walk length (L).
  int64_t walk_length = 2;
  /// TGAT-only: restrict neighbor lookups to (t - window, t); 0 = no limit.
  /// A window below the dataset's time granularity reproduces the paper's
  /// UNTrade runtime error.
  double tgat_time_window = 0.0;
  /// Walk-step weighting for the temporal walk models.
  graph::WalkBias walk_bias = graph::WalkBias::kExponential;
  /// NeurTW: enable the neural-ODE continuous evolution module
  /// (Table 23's ablation switches this off).
  bool use_nodes = true;
  /// TeMP: quantile of a node's history timestamps used as the subgraph
  /// reference timestamp. Negative = the mean timestamp (the paper's
  /// choice, found best across quantiles in Appendix E).
  double temp_reference_quantile = -1.0;
  uint64_t seed = 42;
};

/// Runtime status of a model; kRuntimeError reproduces the paper's "*"
/// annotation (e.g. TGAT on UNTrade).
enum class ModelStatus { kOk, kRuntimeError };

/// One chronological mini-batch of observed interactions.
struct Batch {
  std::vector<int32_t> srcs;
  std::vector<int32_t> dsts;
  std::vector<double> ts;
  std::vector<int32_t> edge_idxs;

  int64_t size() const { return static_cast<int64_t>(srcs.size()); }
};

/// The precomputed inputs of one scoring call (a TGAT plan, a walk pair
/// set), tagged with the `nodes` and `ts` it was built for so the consuming
/// call can check it was handed its own inputs.
struct PreparedCall {
  PreparedCall() = default;
  PreparedCall(PreparedCall&&) = default;
  PreparedCall& operator=(PreparedCall&&) = default;
  virtual ~PreparedCall() = default;
  std::vector<int32_t> nodes;
  std::vector<double> ts;
};

/// Precomputed batch inputs produced by TgnnModel::PrepareBatch on a
/// prefetch thread and consumed by the same model's ScoreEdges calls on the
/// training thread: one PreparedCall per sampling call, in call order. The
/// trainer only moves it around.
struct PreparedInputs {
  std::vector<std::unique_ptr<PreparedCall>> calls;
};

/// Common interface of the benchmark's TGNN implementations. A model is a
/// module: its constructors own its modules (see tensor::Module), the base
/// class's first and the predictor last.
///
/// The pipeline drives a model through chronological batches:
///   1. `ScoreEdges(pos)` / `ScoreEdges(neg)` — edge logits, with gradients
///      when `set_training(true)`; predictor models embed the shared
///      sources once per batch (see SourceEmbeddings);
///   2. `UpdateState(pos)` — the observed events advance the model's
///      internal temporal state (memory, caches);
/// and evaluates node classification through `ComputeEmbeddings`.
class TgnnModel : public tensor::Module {
 public:
  TgnnModel(const graph::TemporalGraph* graph, ModelConfig config);

  TgnnModel(const TgnnModel&) = delete;
  TgnnModel& operator=(const TgnnModel&) = delete;

  virtual std::string name() const = 0;

  /// Clears all non-parameter state (memory, caches, pending events).
  void Reset() {
    DropSourceMemo();
    ResetImpl();
  }

  /// Temporal embeddings of `nodes` at times `ts` -> [n, embedding_dim].
  virtual tensor::Var ComputeEmbeddings(const std::vector<int32_t>& nodes,
                                        const std::vector<double>& ts) = 0;

  /// Edge logits [n, 1] for the candidate pairs. The default merges the
  /// endpoint embeddings through the model's predictor, taking the
  /// sources from SourceEmbeddings; pair-feature models (CAWN, NeurTW, NAT,
  /// EdgeBank, MotifJoint) override this.
  virtual tensor::Var ScoreEdges(const std::vector<int32_t>& srcs,
                                 const std::vector<int32_t>& dsts,
                                 const std::vector<double>& ts);

  /// Scores the k-way ranking candidate sets of one batch through ONE fused
  /// forward: `candidates` is row-major [srcs.size() * k], the result is
  /// flat logits [srcs.size() * k, 1] in the same order. Predictor models
  /// embed each source once and tile the [n, d] block against the
  /// [n * k, d] candidate embeddings (the GEMM shape the kernel layer is
  /// fast at), reusing the batch's ScoreEdges source embeddings when they
  /// are still live; pair-feature models fall back to a single flat
  /// ScoreEdges call over the n * k pairs — still one forward per batch.
  tensor::Var ScoreCandidates(const std::vector<int32_t>& srcs,
                              const std::vector<int32_t>& candidates,
                              const std::vector<double>& ts, int k);

  /// Advances internal temporal state with observed (positive) events.
  void UpdateState(const Batch& batch) {
    DropSourceMemo();
    UpdateStateImpl(batch);
  }

  /// Precomputes the stochastic sampling work of one training batch (walk
  /// trees, windowed neighborhoods) as a pure function of the arguments and
  /// the model's *temporal state as of the previous batch* — no member RNG
  /// is touched, so this may run on a prefetch thread while the training
  /// thread works on the preceding batch. `seed` is the per-batch SplitMix64
  /// stream seed assigned by the trainer. Returns nullptr when the model has
  /// no sampling stage to hoist (memory-only models like TGN/JODIE).
  virtual std::unique_ptr<PreparedInputs> PrepareBatch(
      const Batch& batch, const std::vector<int32_t>& negatives,
      uint64_t seed) const {
    (void)batch;
    (void)negatives;
    (void)seed;
    return nullptr;
  }

  /// Installs prepared inputs for the *next* ScoreEdges calls (borrowed, not
  /// owned; pass nullptr to clear) and rewinds their cursor. When set, the
  /// model consumes the precomputed calls in order instead of drawing from
  /// its member RNG (see NextPreparedCall), and the draws match what the
  /// synchronous path would have produced because both are keyed off the
  /// same per-batch seed.
  void SetPreparedInputs(const PreparedInputs* prepared) {
    DropSourceMemo();
    prepared_ = prepared;
    prepared_cursor_ = 0;
  }

  /// Bytes of non-parameter runtime state (memory tables, caches) — the
  /// CPU stand-in for the paper's "GPU memory" column.
  virtual int64_t StateBytes() const { return 0; }

  /// Neighbor index used for message passing / walks. The trainer installs
  /// the masked training index during training and the full index for
  /// evaluation.
  void SetNeighborFinder(const graph::NeighborFinder* finder) {
    DropSourceMemo();
    finder_ = finder;
  }

  /// Training mode: gradients flow through ScoreEdges and state updates.
  void set_training(bool training) {
    DropSourceMemo();
    training_ = training;
  }
  bool training() const { return training_; }

  ModelStatus status() const { return status_; }
  void ClearStatus() { status_ = ModelStatus::kOk; }

  /// False for non-learned heuristics (EdgeBank).
  virtual bool trainable() const { return true; }

  int64_t embedding_dim() const { return config_.embedding_dim; }
  const ModelConfig& config() const { return config_; }

  /// Serialized neighbor-sampling RNG state for job checkpointing: a
  /// resumed job replays the exact draws an uninterrupted run would make.
  std::string SaveRngState() const { return rng_.SaveState(); }
  bool LoadRngState(const std::string& state) {
    DropSourceMemo();
    return rng_.LoadState(state);
  }

 protected:
  /// Model-specific part of Reset.
  virtual void ResetImpl() = 0;

  /// Model-specific part of UpdateState; the default keeps no state.
  virtual void UpdateStateImpl(const Batch& batch) { (void)batch; }

  /// Creates and owns the edge scorer once the embedding width is known:
  /// fc2(relu(fc1([src | dst]))), an Mlp over the two embeddings' column
  /// blocks whose hidden width is the embedding width.
  void InitPredictor(int64_t dim_src, int64_t dim_dst, tensor::Rng& rng);

  /// The next prepared call for a sampling call over (nodes, ts), or nullptr
  /// when no inputs are installed (the caller then draws inline). With
  /// inputs installed, running past the last call or reaching a call built
  /// for other queries (compared bit for bit) is fatal: drawing inline
  /// instead would make prefetched and synchronous training disagree.
  const PreparedCall* NextPreparedCall(const std::vector<int32_t>& nodes,
                                       const std::vector<double>& ts);

  const graph::TemporalGraph* graph_;
  const graph::NeighborFinder* finder_ = nullptr;
  ModelConfig config_;
  tensor::Rng rng_;
  bool training_ = false;
  ModelStatus status_ = ModelStatus::kOk;
  std::unique_ptr<tensor::Mlp> predictor_;

 private:
  /// Borrowed prepared inputs for the in-flight batch (see PrepareBatch);
  /// nullptr outside the pipelined scoring window. `prepared_cursor_` is
  /// the index of the next call NextPreparedCall hands out.
  const PreparedInputs* prepared_ = nullptr;
  size_t prepared_cursor_ = 0;

  /// ComputeEmbeddings(srcs, ts), computed once per batch: a repeat call
  /// with the same srcs and bit-identical ts on the same tape returns the
  /// same Var, so autograd sums the positive and negative gradients at one
  /// node and the source subgraph runs once forward and once backward. A
  /// TapeScope entry or exit, UpdateState, Reset, SetPreparedInputs,
  /// SetNeighborFinder, set_training and LoadRngState each end the batch.
  tensor::Var SourceEmbeddings(const std::vector<int32_t>& srcs,
                               const std::vector<double>& ts);

  /// The last SourceEmbeddings result and its key; empty when
  /// `embeddings` is null. `arena` and `generation` name the thread and
  /// tape it was recorded on.
  struct SourceMemo {
    std::vector<int32_t> srcs;
    std::vector<double> ts;
    const tensor::kernels::Arena* arena = nullptr;
    uint64_t generation = 0;
    tensor::Var embeddings;
  };

  void DropSourceMemo() { source_memo_.embeddings.reset(); }

  SourceMemo source_memo_;
};

}  // namespace benchtemp::models

#endif  // BENCHTEMP_MODELS_MODEL_H_
