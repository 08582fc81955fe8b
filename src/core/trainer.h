#ifndef BENCHTEMP_CORE_TRAINER_H_
#define BENCHTEMP_CORE_TRAINER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/data_loader.h"
#include "core/edge_sampler.h"
#include "core/mrr_evaluator.h"
#include "graph/temporal_graph.h"
#include "models/factory.h"
#include "models/model.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"

namespace benchtemp::core {

/// Training-loop configuration (Section 4.1 Protocol: BCE loss, Adam with
/// lr 1e-4, EarlyStopMonitor with patience 3 / tolerance 1e-3, timeout).
struct TrainConfig {
  int max_epochs = 12;
  int batch_size = 200;
  float learning_rate = 1e-4f;
  int patience = 3;
  double tolerance = 1e-3;
  NegativeSampling negative_sampling = NegativeSampling::kRandom;
  uint64_t seed = 0;
  /// Absolute job deadline on the obs::NowSeconds() clock; 0 = none.
  /// Checked at each batch boundary, each epoch end, each decoder epoch
  /// and while waiting on a prefetched batch; a job that passes it winds
  /// down annotated "x" (the paper's cannot-converge marker) and reports
  /// no test metrics.
  double deadline = 0.0;
  float grad_clip_norm = 5.0f;

  // --- Robustness layer (see DESIGN.md "Failure model") ---
  //
  // NaN/Inf sentinel, fixed in trainer.cc: when the loss, a gradient, or a
  // parameter goes non-finite, the trainer rolls back to the last epoch
  // boundary, halves the learning rate, and retries the epoch. After 3
  // failed recoveries the job is annotated "x" (non-convergence) instead
  // of aborting the sweep.

  /// Job checkpoint base path; "" disables on-disk checkpointing. When a
  /// valid generation exists and matches this job's seed, training resumes
  /// from it and replays the exact trajectory an uninterrupted run would
  /// have taken. Generations (`<path>.g<seq>` plus a `<path>.lineage`
  /// manifest) are written atomically at every epoch boundary and all
  /// removed when the job completes; a corrupt newest generation falls
  /// back to the next one (losing at most that epoch of progress).
  std::string checkpoint_path;
  /// Checkpoint generations retained per job (>= 1). More generations
  /// survive more independent corruption events at the cost of disk.
  int checkpoint_generations = 3;

  // --- Pipelined training (see DESIGN.md "Pipelined training") ---

  /// Prefetch depth of the producer/consumer training pipeline: 0 runs
  /// batch preparation synchronously, k > 0 prepares up to k batches ahead
  /// on the shared thread pool. -1 (the default) resolves the depth from
  /// BENCHTEMP_PIPELINE. Any depth produces bit-identical results — batch
  /// preparation is a pure function of (batch index, seed).
  int pipeline_depth = -1;

  // --- Ranking evaluation (see DESIGN.md "Ranking evaluation") ---

  /// Candidate negatives per positive for the TGB-style MRR/Hits@k ranking
  /// pass. 0 (the default) disables ranking (AUC/AP only). Values above
  /// the destination-range size are clamped so candidate sets stay
  /// collision-free.
  int mrr_k = 0;
  /// Target share of ranking candidates drawn from the source's training
  /// history (TGB's "historical negatives"); the remainder — and any
  /// thin-history shortfall, counted in sampler.pool_fallbacks — is
  /// uniform over the destination range.
  double mrr_historical_fraction = 0.5;
  /// Tie handling of the ranking metrics (see core::TiePolicy).
  TiePolicy mrr_tie_policy = TiePolicy::kMeanRank;
};

/// Efficiency measurements — the CPU stand-ins for the paper's Table 4/12
/// columns (see DESIGN.md substitution 1):
///   Runtime  -> seconds_per_epoch (same meaning),
///   Epoch    -> epochs to convergence / "x",
///   RAM      -> process max RSS,
///   GPU Mem  -> model state + parameter bytes,
///   GPU Util -> training throughput (events/second).
struct EfficiencyStats {
  /// Mean wall-time of *kept* epochs; epochs rolled back by the NaN-retry
  /// path are excluded and accounted in retried_epoch_seconds instead.
  double seconds_per_epoch = 0.0;
  int epochs_run = 0;
  int best_epoch = -1;
  bool converged = false;
  double max_rss_gb = 0.0;
  int64_t state_bytes = 0;
  int64_t parameter_bytes = 0;
  double train_events_per_second = 0.0;
  double inference_seconds_per_100k = 0.0;
  /// Edge scores produced per second by the final test pass — 2 pairs per
  /// positive, plus the k ranking candidates per positive when the MRR
  /// evaluator is on. The number the k-way fused-scoring perf gate
  /// watches: one ScoreCandidates forward per batch keeps it in the same
  /// band as the one-negative pass.
  double eval_events_per_second = 0.0;
  /// Total wall-time spent in epochs that were rolled back and retried.
  double retried_epoch_seconds = 0.0;
  /// Bytes of the last committed on-disk job checkpoint (0 when disabled).
  int64_t checkpoint_bytes = 0;
  /// Per-phase wall-time attributed to this run while metrics collection
  /// was enabled (all-zero otherwise). Indexed by static_cast<int>(Phase).
  std::array<double, obs::kNumPhases> phase_seconds{};

  // --- Pipelined-training accounting (always collected; cheap) ---

  /// Resolved prefetch depth the job ran with (0 = synchronous).
  int pipeline_depth = 0;
  /// The training prefetchers' accounting, summed over the job's epochs.
  pipeline::PipelineStats pipeline_stats;
  /// 1 - wait/prepare over the whole job, clamped to [0, 1]; 0 when
  /// synchronous.
  double pipeline_overlap_ratio = 0.0;
};

/// Metrics of one evaluation setting.
struct SettingMetrics {
  double auc = 0.5;
  double ap = 0.5;
  int64_t count = 0;
};

/// Result of one link-prediction job (one model x one dataset).
struct LinkPredictionResult {
  models::ModelStatus status = models::ModelStatus::kOk;
  /// "" ok; "*" runtime error (paper Table 3); "x" no convergence (the
  /// deadline passed or the NaN-retry budget was spent).
  std::string annotation;
  /// Indexed by static_cast<int>(Setting).
  std::array<SettingMetrics, 4> test;
  SettingMetrics val_transductive;
  /// TGB-style ranking metrics (MRR / Hits@{1,10}); count == 0 when the
  /// ranking evaluator is off (TrainConfig::mrr_k resolves to 0). Indexed
  /// by static_cast<int>(Setting) like `test`.
  std::array<RankingMetrics, 4> test_ranking;
  /// Ranking metrics of the last validation pass (refreshed every epoch).
  RankingMetrics val_ranking;
  /// Effective candidates per positive the job ranked against (after the
  /// destination-range clamp); 0 when ranking was off.
  int mrr_k = 0;
  EfficiencyStats efficiency;
  /// NaN/Inf recovery events consumed during training (rollback + LR
  /// backoff); > 0 means the job diverged at least once and recovered.
  int nan_retries = 0;
  /// True when the job restarted from an on-disk checkpoint.
  bool resumed = false;
};

/// One link-prediction job description.
struct LinkPredictionJob {
  const graph::TemporalGraph* graph = nullptr;
  /// Number of user (source-side) nodes for bipartite graphs; 0 for
  /// homogeneous. Controls the negative-sampling destination range and
  /// JODIE's RNN routing.
  int32_t num_users = 0;
  models::ModelKind kind = models::ModelKind::kTgn;
  models::ModelConfig model_config;
  TrainConfig train_config;
  SplitConfig split_config;
};

/// Runs the full link-prediction pipeline: DataLoader split, seeded
/// EdgeSampler, training with early stopping, a state-replay pass, and one
/// chronological test pass scored under all four settings.
LinkPredictionResult RunLinkPrediction(const LinkPredictionJob& job);

/// Result of one node-classification job.
struct NodeClassificationResult {
  models::ModelStatus status = models::ModelStatus::kOk;
  std::string annotation;
  /// Binary task (positive class = 1).
  double test_auc = 0.5;
  /// Multi-class task (Appendix G metrics); also filled for binary.
  double accuracy = 0.0;
  double precision_weighted = 0.0;
  double recall_weighted = 0.0;
  double f1_weighted = 0.0;
  EfficiencyStats efficiency;
  /// Pretraining NaN/Inf recovery events, as on LinkPredictionResult.
  int nan_retries = 0;
  /// True when pretraining restarted from an on-disk checkpoint.
  bool resumed = false;
};

struct NodeClassificationJob {
  const graph::TemporalGraph* graph = nullptr;
  int32_t num_users = 0;
  models::ModelKind kind = models::ModelKind::kTgn;
  models::ModelConfig model_config;
  TrainConfig train_config;
  SplitConfig split_config;
  /// Epochs of self-supervised link-prediction pre-training before the
  /// decoder is fitted on frozen embeddings.
  int pretrain_epochs = 3;
  int decoder_epochs = 80;
};

/// Runs the node-classification pipeline (Section 3.2.2): LP pre-training
/// through the same epoch loop as RunLinkPrediction (NaN rollback,
/// checkpoint resume, deadline), frozen-embedding extraction over the
/// stream, then a 2-layer MLP decoder trained on the train window and
/// early-stopped on validation AUC (accuracy when multi-class).
NodeClassificationResult RunNodeClassification(
    const NodeClassificationJob& job);

/// Current process peak RSS in GB (Linux VmHWM).
double MaxRssGb();

/// Splits `events` into chronological batches of `batch_size` positives.
std::vector<models::Batch> MakeBatches(const graph::TemporalGraph& graph,
                                       const std::vector<int64_t>& events,
                                       int batch_size);

}  // namespace benchtemp::core

#endif  // BENCHTEMP_CORE_TRAINER_H_
