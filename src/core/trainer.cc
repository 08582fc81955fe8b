#include "core/trainer.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "base/check.h"
#include "base/fault_injector.h"
#include "core/early_stop.h"
#include "core/evaluator.h"
#include "graph/neighbor_finder.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "robustness/checkpoint.h"
#include "robustness/lineage.h"
#include "tensor/kernels/arena.h"
#include "tensor/optimizer.h"
#include "tensor/random.h"
#include "tensor/serialize.h"

namespace benchtemp::core {

namespace {

using graph::NeighborFinder;
using graph::TemporalGraph;
using models::Batch;
using models::ModelStatus;
using models::TgnnModel;
using tensor::Tensor;
using tensor::Var;

// All timing flows through the observability layer's clock so the btlint
// adhoc-timing rule can hold the line against scattered chrono reads.
using obs::NowSeconds;

/// NaN/Inf recovery: a rolled-back epoch is retried with the learning rate
/// scaled by kLrBackoff; after kMaxNanRetries failed recoveries the job is
/// annotated "x" (see DESIGN.md "Failure model").
constexpr int kMaxNanRetries = 3;
constexpr float kLrBackoff = 0.5f;

/// Destination sampling range: the item block for bipartite graphs, the
/// full node range otherwise.
void DstRange(const TemporalGraph& graph, int32_t num_users, int32_t* lo,
              int32_t* hi) {
  if (num_users > 0 && num_users < graph.num_nodes()) {
    *lo = num_users;
    *hi = graph.num_nodes();
  } else {
    *lo = 0;
    *hi = graph.num_nodes();
  }
}

/// Per-batch preparation seed: decorrelated lanes of (job seed, epoch,
/// batch). NaN-retried epochs reuse the same epoch index — and therefore
/// the same seeds — so a retry replays the exact stream the rolled-back
/// attempt consumed.
uint64_t BatchSeed(uint64_t job_seed, int epoch, int64_t batch_index) {
  return tensor::SplitMix64(
      tensor::SplitMix64(job_seed, static_cast<uint64_t>(epoch)),
      static_cast<uint64_t>(batch_index) + 17);
}

/// Knobs of one evaluation pass beyond the scoring itself.
struct EvalPassConfig {
  /// Keys every per-batch negative/candidate draw: the pass is a pure
  /// function of (pass_seed, batch index), identical at any prefetch depth.
  uint64_t pass_seed = 0;
  int pipeline_depth = 0;
  /// The job's deadline (TrainConfig::deadline); 0 = none.
  double deadline = 0.0;
  /// Non-null turns on the TGB-style ranking pass.
  const CandidateSampler* candidates = nullptr;
  TiePolicy tie_policy = TiePolicy::kMeanRank;
};

/// Scores one evaluation pass over `events`: positives paired with keyed
/// negatives (and, when ranking is on, k keyed candidates scored through
/// one fused forward per batch); the model's state advances through the
/// stream. Batch preparation runs through the same BatchPrefetcher as
/// training, so prefetch depth changes scheduling, never results. Fills
/// per-event positive/negative scores, and per-event ranks when `ranks` is
/// non-null (indexed by position in `events`). Returns false when the
/// deadline cut the pass short: then the scores are incomplete and must
/// not be reported.
bool ScorePass(TgnnModel* model, const TemporalGraph& graph,
               const std::vector<int64_t>& events, int batch_size,
               const EdgeSampler* sampler, const EvalPassConfig& cfg,
               std::vector<double>* pos_scores,
               std::vector<double>* neg_scores,
               std::vector<double>* ranks) {
  pos_scores->assign(events.size(), 0.0);
  neg_scores->assign(events.size(), 0.0);
  if (ranks != nullptr) ranks->assign(events.size(), 0.0);
  const std::vector<Batch> batches = MakeBatches(graph, events, batch_size);
  auto prepare = [&](int64_t bi) {
    pipeline::PreparedBatch pb;
    pb.index = bi;
    const Batch& pbatch = batches[static_cast<size_t>(bi)];
    const uint64_t seed = BatchSeed(cfg.pass_seed, 0, bi);
    pb.negatives = sampler->SampleNegativesKeyed(tensor::SplitMix64(seed, 0),
                                                 pbatch.srcs, pbatch.dsts);
    if (cfg.candidates != nullptr) {
      pb.candidates = cfg.candidates->SampleCandidateBatch(
          tensor::SplitMix64(seed, 1), pbatch.srcs, pbatch.dsts);
    }
    return pb;
  };
  pipeline::BatchPrefetcher prefetcher(static_cast<int64_t>(batches.size()),
                                       cfg.pipeline_depth, prepare,
                                       &cfg.deadline);
  size_t cursor = 0;
  std::vector<double> row;
  for (size_t bi = 0; bi < batches.size(); ++bi) {
    // Declared first so every Var of this batch dies before the rewind.
    tensor::kernels::TapeScope tape_scope;
    pipeline::PreparedBatch pb;
    if (!prefetcher.Next(&pb)) return false;
    const Batch& batch = batches[static_cast<size_t>(pb.index)];
    Var pos = model->ScoreEdges(batch.srcs, batch.dsts, batch.ts);
    Var neg = model->ScoreEdges(batch.srcs, pb.negatives, batch.ts);
    for (int64_t i = 0; i < batch.size(); ++i) {
      (*pos_scores)[cursor + static_cast<size_t>(i)] =
          pos->value.at(i);
      (*neg_scores)[cursor + static_cast<size_t>(i)] =
          neg->value.at(i);
    }
    if (cfg.candidates != nullptr && ranks != nullptr) {
      const int k = cfg.candidates->k();
      // One fused forward over all batch * k candidate pairs.
      Var cand = model->ScoreCandidates(batch.srcs, pb.candidates, batch.ts,
                                        k);
      row.resize(static_cast<size_t>(k));
      for (int64_t i = 0; i < batch.size(); ++i) {
        for (int j = 0; j < k; ++j) {
          row[static_cast<size_t>(j)] = cand->value.at(i * k + j);
        }
        (*ranks)[cursor + static_cast<size_t>(i)] = RankOfPositive(
            (*pos_scores)[cursor + static_cast<size_t>(i)], row.data(), k,
            cfg.tie_policy);
      }
    }
    cursor += static_cast<size_t>(batch.size());
    model->UpdateState(batch);
  }
  return true;
}

/// The positions in `events` of the events listed in `subset`, ascending.
std::vector<size_t> SubsetPositions(const std::vector<int64_t>& events,
                                    const std::vector<int64_t>& subset) {
  std::unordered_set<int64_t> members(subset.begin(), subset.end());
  std::vector<size_t> positions;
  for (size_t i = 0; i < events.size(); ++i) {
    if (members.count(events[i]) != 0) positions.push_back(i);
  }
  return positions;
}

/// Ranking metrics over the events at `positions`.
RankingMetrics SubsetRanking(const std::vector<size_t>& positions,
                             const std::vector<double>& ranks) {
  if (ranks.empty()) return RankingMetrics{};
  std::vector<double> selected;
  selected.reserve(positions.size());
  for (const size_t i : positions) selected.push_back(ranks[i]);
  return RankingFromRanks(selected);
}

/// AUC/AP over the events at `positions`, of a subset of `count` events.
SettingMetrics SubsetMetrics(const std::vector<size_t>& positions,
                             int64_t count,
                             const std::vector<double>& pos_scores,
                             const std::vector<double>& neg_scores) {
  std::vector<double> scores;
  std::vector<int> labels;
  for (const size_t i : positions) {
    scores.push_back(pos_scores[i]);
    labels.push_back(1);
    scores.push_back(neg_scores[i]);
    labels.push_back(0);
  }
  SettingMetrics metrics;
  metrics.count = count;
  if (!scores.empty()) {
    metrics.auc = RocAuc(scores, labels);
    metrics.ap = AveragePrecision(scores, labels);
  }
  return metrics;
}

/// Replays `events` through the model (state updates only, no scoring).
void ReplayState(TgnnModel* model, const TemporalGraph& graph,
                 const std::vector<int64_t>& events, int batch_size) {
  for (const Batch& batch : MakeBatches(graph, events, batch_size)) {
    tensor::kernels::TapeScope tape_scope;
    model->UpdateState(batch);
  }
}

/// Injected batch stall, probed from the batch-*prepare* stage so the
/// stall lands on the producer thread when the pipeline is on. The
/// deadline still ends the job either way: the consumer's Next() checks it
/// while it waits for the stalled slot.
void ProbeStallFault() {
  auto& injector = base::FaultInjector::Global();
  if (injector.Fire(base::FaultSite::kStallBatch)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(injector.stall_ms()));
  }
}

/// Injected forward-pass crash, probed on the consumer thread so the
/// exception propagates to the sweep's job boundary (not into a pool
/// worker).
void ProbeThrowFault() {
  auto& injector = base::FaultInjector::Global();
  if (injector.Fire(base::FaultSite::kThrowForward)) {
    throw std::runtime_error("injected fault: forward pass");
  }
}

/// Finalizes the job-wide overlap ratio and publishes the pipeline gauges
/// (gauges are last-write-wins and excluded from the counters digest, so
/// sync and async runs stay digest-comparable).
void FinishPipelineStats(int depth, EfficiencyStats* eff) {
  eff->pipeline_depth = depth;
  const pipeline::PipelineStats& total = eff->pipeline_stats;
  eff->pipeline_overlap_ratio =
      depth > 0 && total.batches > 0 ? total.overlap_ratio() : 0.0;
  if (obs::MetricRegistry::Enabled() && total.batches > 0) {
    auto& registry = obs::MetricRegistry::Global();
    registry.SetGauge("pipeline.depth", static_cast<double>(depth));
    registry.SetGauge("pipeline.prefetch_wait_ms",
                      total.wait_seconds * 1000.0);
    registry.SetGauge("pipeline.overlap_ratio", eff->pipeline_overlap_ratio);
  }
}

/// The self-supervised link-prediction loss: the mean of the BCE over the
/// positive scores (target 1) and over the negative scores (target 0).
Var PairBceLoss(const Var& pos, const Var& neg) {
  Tensor ones({pos->value.size()});
  ones.Fill(1.0f);
  Tensor zeros({neg->value.size()});
  return ScalarMul(
      Add(BceWithLogits(pos, ones), BceWithLogits(neg, zeros)), 0.5f);
}

/// One optimizer step on `loss`, guarded by three NaN/Inf sentinels.
/// Returns false when the step diverged: then the caller must not
/// continue from the current parameters.
bool GuardedStep(const Var& loss, const std::vector<Var>& params,
                 float grad_clip_norm, tensor::Adam* optimizer) {
  bool finite = true;
  {
    obs::ScopedPhaseTimer timer(obs::Phase::kForward);
    // Sentinel 1: a non-finite loss means this step would poison the
    // parameters — bail out before touching them.
    finite = tensor::AllFinite(loss->value);
  }
  if (base::FaultInjector::Global().Fire(base::FaultSite::kNanLoss)) {
    finite = false;
  }
  if (!finite) return false;
  obs::ScopedPhaseTimer timer(obs::Phase::kBackward);
  optimizer->ZeroGrad();
  Backward(loss);
  // Sentinel 2: gradients can overflow even under a finite loss.
  if (!tensor::GradsFinite(params)) return false;
  tensor::ClipGradNorm(params, grad_clip_norm);
  optimizer->Step();
  // Sentinel 3: the Adam update itself (tiny v̂, large m̂) can still push a
  // parameter out of range.
  return tensor::ParamsFinite(params);
}

/// How an EpochDriver run ended.
enum class TrainExit {
  kCompleted,     // every epoch ran, or the validation monitor stopped
  kCanceled,      // the job's deadline passed
  kDiverged,      // the NaN-retry budget was spent, or a decoder step
                  // tripped a sentinel
  kRuntimeError,  // the model reported ModelStatus::kRuntimeError
};

/// The one epoch loop behind link-prediction training and
/// node-classification pretraining (Section 4.1: BCE loss, Adam, early
/// stopping, a job deadline). It owns everything that makes an epoch
/// boundary a deterministic cut point — parameters, Adam moments, both RNG
/// streams, the early-stop monitor, the last validation metrics and the
/// best-epoch parameters — and with it NaN rollback, checkpoint resume and
/// the job's efficiency tallies.
class EpochDriver {
 public:
  /// Scores the model after a kept epoch into its argument; the metrics
  /// feed the early-stop monitor, the best-epoch parameters and the
  /// checkpoint's val_* fields. Returns false when the deadline cut the
  /// pass short.
  using Validate = std::function<bool(SettingMetrics*)>;

  /// Resumes from the newest valid generation of `tc.checkpoint_path`
  /// when one matches the job's seed.
  EpochDriver(const TrainConfig& tc, TgnnModel* model,
              RandomEdgeSampler* sampler);
  // Pool threads hold `this` while batches prepare, and the lineage files
  // have one owner.
  EpochDriver(const EpochDriver&) = delete;
  EpochDriver& operator=(const EpochDriver&) = delete;

  /// Trains up to `max_epochs` epochs over `batches` with `finder` as the
  /// neighbor index. Without `validate` the monitor stays idle and every
  /// epoch runs. Pipeline accounting accumulates into `eff`.
  TrainExit Run(const std::vector<Batch>& batches, NeighborFinder* finder,
                int max_epochs, const Validate& validate,
                EfficiencyStats* eff);

  /// The one exit of both trainers: sets the "*"/"x" annotation `exit`
  /// calls for, the retry and resume flags and the efficiency fields every
  /// exit reports, and retires the checkpoint lineage. `converged` is the
  /// caller's early-stop verdict; it counts only for a completed run.
  template <typename Result>
  void Finish(TrainExit exit, bool converged, size_t train_events,
              Result* result);

  int pipeline_depth() const { return pipeline_depth_; }
  const std::vector<Var>& params() const { return params_; }
  const EarlyStopMonitor& monitor() const { return monitor_; }
  const SettingMetrics& val() const { return val_; }
  const std::string& best_params() const { return best_params_; }
  int epochs_run() const { return epochs_run_; }
  double kept_epoch_seconds() const { return total_epoch_seconds_; }

 private:
  robustness::JobCheckpoint Snapshot();
  bool Restore(const robustness::JobCheckpoint& s);

  const TrainConfig& tc_;
  TgnnModel* model_;
  RandomEdgeSampler* sampler_;
  const std::vector<Var> params_;
  tensor::Adam optimizer_;
  EarlyStopMonitor monitor_;
  const int pipeline_depth_;
  const bool checkpointing_;
  robustness::CheckpointLineage lineage_;
  SettingMetrics val_;
  // Parameters at the monitor's best epoch; restored before the test pass
  // so early stopping evaluates the best — not the last — weights.
  std::string best_params_;
  robustness::JobCheckpoint rollback_;
  int epoch_ = 0;
  int epochs_run_ = 0;
  int nan_retries_ = 0;
  bool resumed_ = false;
  double total_epoch_seconds_ = 0.0;
  double retried_epoch_seconds_ = 0.0;
  int64_t checkpoint_bytes_ = 0;
  // Per-run phase attribution: the training thread drains its own slot at
  // epoch barriers, so a concurrent job on another thread never bleeds in.
  obs::PhaseTotals run_phases_;
};

EpochDriver::EpochDriver(const TrainConfig& tc, TgnnModel* model,
                         RandomEdgeSampler* sampler)
    : tc_(tc),
      model_(model),
      sampler_(sampler),
      params_(model->Parameters()),
      optimizer_(params_, tc.learning_rate),
      monitor_(tc.patience, tc.tolerance),
      // Resolved prefetch depth (0 = synchronous): an explicit TrainConfig
      // value wins, otherwise BENCHTEMP_PIPELINE decides.
      pipeline_depth_(tc.pipeline_depth >= 0 ? tc.pipeline_depth
                                             : pipeline::DepthFromEnv()),
      // The lineage only outlives the job when the job dies mid-flight;
      // Finish retires it on every terminal exit.
      checkpointing_(model->trainable() && !tc.checkpoint_path.empty()),
      lineage_(tc.checkpoint_path, tc.checkpoint_generations) {
  rollback_ = Snapshot();
  if (!checkpointing_) return;
  // Resume: a matching on-disk checkpoint restarts the job exactly where
  // it died instead of from scratch. A corrupt newest generation silently
  // falls back to an older one (the skip is counted in
  // robustness.ckpt_fallbacks); a seed mismatch means a different job left
  // these files behind, so start fresh.
  robustness::JobCheckpoint ckpt;
  if (lineage_.Load(&ckpt).ok && ckpt.seed == tc_.seed && Restore(ckpt)) {
    epoch_ = ckpt.next_epoch;
    epochs_run_ = ckpt.epochs_run;
    nan_retries_ = ckpt.nan_retries;
    total_epoch_seconds_ = ckpt.total_epoch_seconds;
    retried_epoch_seconds_ = ckpt.retried_epoch_seconds;
    rollback_ = Snapshot();
    resumed_ = true;
  }
}

// Snapshot/restore of the epoch-boundary state, used both for in-memory
// rollback after a NaN event and for the on-disk job checkpoint.
robustness::JobCheckpoint EpochDriver::Snapshot() {
  robustness::JobCheckpoint s;
  s.seed = tc_.seed;
  s.learning_rate = optimizer_.learning_rate();
  s.monitor = monitor_.state();
  s.val_auc = val_.auc;
  s.val_ap = val_.ap;
  s.val_count = val_.count;
  s.model_rng = model_->SaveRngState();
  s.sampler_rng = sampler_->SaveRngState();
  s.params = tensor::SnapshotParameters(params_);
  s.adam = optimizer_.SnapshotState();
  s.best_params = best_params_;
  return s;
}

bool EpochDriver::Restore(const robustness::JobCheckpoint& s) {
  if (!tensor::RestoreParameters(s.params, params_)) return false;
  if (!optimizer_.RestoreState(s.adam)) return false;
  if (!model_->LoadRngState(s.model_rng)) return false;
  if (!sampler_->LoadRngState(s.sampler_rng)) return false;
  optimizer_.set_learning_rate(s.learning_rate);
  monitor_.Restore(s.monitor);
  val_.auc = s.val_auc;
  val_.ap = s.val_ap;
  val_.count = s.val_count;
  best_params_ = s.best_params;
  return true;
}

TrainExit EpochDriver::Run(const std::vector<Batch>& batches,
                           NeighborFinder* finder, int max_epochs,
                           const Validate& validate, EfficiencyStats* eff) {
  auto& registry = obs::MetricRegistry::Global();
  while (epoch_ < max_epochs) {
    const double epoch_start = NowSeconds();
    bool canceled = false;
    bool nan_event = false;
    {
      obs::ScopedPhaseTimer timer(obs::Phase::kMemoryUpdate);
      model_->Reset();
    }
    model_->set_training(true);
    model_->SetNeighborFinder(finder);
    {
      // Batch preparation — stall probe, keyed negatives, the model's
      // sampling stage — is a pure function of (epoch, batch index), so it
      // runs inline at depth 0 and ahead on pool workers otherwise with
      // bit-identical results. Scoped so the prefetcher drains before the
      // caller swaps the neighbor index (and so a NaN retry discards,
      // never checkpoints, prefetched batches).
      auto prepare = [&, epoch = epoch_](int64_t bi) {
        pipeline::PreparedBatch pb;
        pb.index = bi;
        ProbeStallFault();
        const Batch& pbatch = batches[static_cast<size_t>(bi)];
        const uint64_t seed = BatchSeed(tc_.seed, epoch, bi);
        pb.negatives = sampler_->SampleNegativesKeyed(
            tensor::SplitMix64(seed, 0), pbatch.srcs, pbatch.dsts);
        pb.inputs = model_->PrepareBatch(pbatch, pb.negatives, seed);
        return pb;
      };
      pipeline::BatchPrefetcher prefetcher(
          static_cast<int64_t>(batches.size()), pipeline_depth_, prepare,
          &tc_.deadline);
      for (size_t bi = 0; bi < batches.size(); ++bi) {
        // The tape scope is the first declaration in the loop body, so the
        // batch's Vars (pos/neg/loss graph) are destroyed before the arena
        // rewinds their storage.
        tensor::kernels::TapeScope tape_scope;
        if (obs::DeadlinePassed(tc_.deadline)) {
          canceled = true;
          break;
        }
        pipeline::PreparedBatch pb;
        {
          obs::ScopedPhaseTimer timer(obs::Phase::kSample);
          if (!prefetcher.Next(&pb)) {
            canceled = true;
            break;
          }
        }
        ProbeThrowFault();
        const Batch& batch = batches[static_cast<size_t>(pb.index)];
        Var pos, neg;
        {
          obs::ScopedPhaseTimer timer(obs::Phase::kForward);
          model_->SetPreparedInputs(pb.inputs.get());
          pos = model_->ScoreEdges(batch.srcs, batch.dsts, batch.ts);
          neg = model_->ScoreEdges(batch.srcs, pb.negatives, batch.ts);
          model_->SetPreparedInputs(nullptr);
        }
        if (model_->status() == ModelStatus::kRuntimeError) {
          return TrainExit::kRuntimeError;
        }
        if (model_->trainable()) {
          Var loss;
          {
            obs::ScopedPhaseTimer timer(obs::Phase::kForward);
            loss = PairBceLoss(pos, neg);
          }
          if (!GuardedStep(loss, params_, tc_.grad_clip_norm, &optimizer_)) {
            nan_event = true;
            break;
          }
        }
        {
          obs::ScopedPhaseTimer timer(obs::Phase::kMemoryUpdate);
          model_->UpdateState(batch);
        }
        registry.Add(obs::Counter::kTrainBatches, 1);
        registry.Add(obs::Counter::kTrainEvents, batch.size());
      }
      eff->pipeline_stats += prefetcher.stats();
    }
    if (canceled) return TrainExit::kCanceled;
    if (nan_event) {
      // Divergence recovery: roll back to the last epoch boundary, halve
      // the learning rate, and retry — a recorded, recoverable event
      // instead of a poisoned sweep.
      ++nan_retries_;
      retried_epoch_seconds_ += NowSeconds() - epoch_start;
      registry.Add(obs::Counter::kNanRetries, 1);
      registry.Add(obs::Counter::kRollbacks, 1);
      registry.DrainThisThread(&run_phases_);
      const bool restored = Restore(rollback_);
      tensor::CheckOrDie(restored, "NaN rollback: corrupt epoch snapshot");
      if (nan_retries_ > kMaxNanRetries) return TrainExit::kDiverged;
      optimizer_.set_learning_rate(optimizer_.learning_rate() * kLrBackoff);
      continue;  // retry the same epoch
    }
    total_epoch_seconds_ += NowSeconds() - epoch_start;
    ++epochs_run_;

    bool stop = false;
    if (validate) {
      SettingMetrics val;
      const bool scored = validate(&val);
      if (model_->status() == ModelStatus::kRuntimeError) {
        return TrainExit::kRuntimeError;
      }
      if (!scored) return TrainExit::kCanceled;
      val_ = val;
      if (model_->trainable()) {
        stop = monitor_.Update(val_.auc);
        if (monitor_.rounds_without_improvement() == 0) {
          best_params_ = tensor::SnapshotParameters(params_);
        }
      }
    }
    ++epoch_;
    {
      obs::ScopedPhaseTimer timer(obs::Phase::kCheckpoint);
      rollback_ = Snapshot();
      if (checkpointing_) {
        rollback_.next_epoch = epoch_;
        rollback_.epochs_run = epochs_run_;
        rollback_.nan_retries = nan_retries_;
        rollback_.total_epoch_seconds = total_epoch_seconds_;
        rollback_.retried_epoch_seconds = retried_epoch_seconds_;
        int64_t bytes = 0;
        if (lineage_.Save(rollback_, &bytes)) checkpoint_bytes_ = bytes;
      }
    }
    registry.DrainThisThread(&run_phases_);
    if (stop) break;
    if (obs::DeadlinePassed(tc_.deadline)) return TrainExit::kCanceled;
  }
  return TrainExit::kCompleted;
}

template <typename Result>
void EpochDriver::Finish(TrainExit exit, bool converged, size_t train_events,
                         Result* result) {
  converged = converged && exit == TrainExit::kCompleted;
  if (exit == TrainExit::kRuntimeError) {
    result->status = ModelStatus::kRuntimeError;
    result->annotation = "*";
  } else if (exit != TrainExit::kCompleted) {
    // A passed deadline, a spent NaN-retry budget or a diverged decoder:
    // the paper's non-convergence marker.
    result->annotation = "x";
  }
  result->nan_retries = nan_retries_;
  result->resumed = resumed_;
  auto& registry = obs::MetricRegistry::Global();
  registry.DrainThisThread(&run_phases_);
  EfficiencyStats& eff = result->efficiency;
  eff.epochs_run = epochs_run_;
  eff.best_epoch = monitor_.best_epoch();
  eff.converged = converged;
  // Throughput over *kept* epochs only: wall-time of rolled-back epochs is
  // reported separately so a retried run does not misstate its speed.
  eff.seconds_per_epoch =
      epochs_run_ > 0 ? total_epoch_seconds_ / epochs_run_ : 0.0;
  eff.retried_epoch_seconds = retried_epoch_seconds_;
  eff.max_rss_gb = MaxRssGb();
  eff.state_bytes = model_->StateBytes();
  eff.parameter_bytes = model_->ParameterBytes();
  eff.checkpoint_bytes = checkpoint_bytes_;
  eff.phase_seconds = run_phases_.seconds;
  FinishPipelineStats(pipeline_depth_, &eff);
  if (retried_epoch_seconds_ > 0.0) {
    registry.SetGauge("train.retried_epoch_seconds", retried_epoch_seconds_);
  }
  if (eff.seconds_per_epoch > 0.0) {
    eff.train_events_per_second =
        static_cast<double>(train_events) / eff.seconds_per_epoch;
  }
  if (checkpointing_) (void)lineage_.Remove();
}

/// The decoder's predicted class per row of `logits`: the argmax over the
/// class columns, or — for the single-logit binary decoder — class 1 iff
/// the logit is positive.
std::vector<int> PredictedClasses(const Tensor& logits) {
  const int64_t cols = logits.cols();
  std::vector<int> pred(static_cast<size_t>(logits.rows()));
  for (int64_t i = 0; i < logits.rows(); ++i) {
    int best = 0;
    if (cols == 1) {
      best = logits.at(i) > 0.0f ? 1 : 0;
    } else {
      for (int c = 1; c < cols; ++c) {
        if (logits.at(i, c) > logits.at(i, best)) best = c;
      }
    }
    pred[static_cast<size_t>(i)] = best;
  }
  return pred;
}

/// ROC AUC of the positive (fraud) class 1: the single binary logit, or
/// one-vs-rest on class column 1 of a multi-class decoder.
double PositiveClassAuc(const Tensor& logits, const std::vector<int>& y) {
  const int64_t cols = logits.cols();
  const int64_t col = cols == 1 ? 0 : 1;
  std::vector<double> scores;
  std::vector<int> positive;
  for (size_t i = 0; i < y.size(); ++i) {
    scores.push_back(logits.at(static_cast<int64_t>(i) * cols + col));
    positive.push_back(y[i] == 1 ? 1 : 0);
  }
  return RocAuc(scores, positive);
}

/// What the node-classification decoder stage reports.
struct DecoderFit {
  int epochs_run = 0;
  int best_epoch = -1;
  double seconds = 0.0;
  /// The decoder's early-stop monitor stopped (Table 12's Epoch cell).
  bool converged = false;
  /// kCanceled when the deadline passed, kDiverged when a NaN/Inf sentinel
  /// tripped on a decoder step.
  TrainExit exit = TrainExit::kCompleted;
};

/// Node classification after pretraining (Section 3.2.2): one
/// chronological pass caches each labeled event's source embedding, a
/// 2-layer MLP decoder is fitted on the frozen train-window embeddings and
/// early-stopped on validation, and the best decoder's test metrics go
/// into `result`. Decoder epochs are cheap and deterministic from the
/// pretrained parameters and seed, so they are never checkpointed.
DecoderFit FitDecoder(TgnnModel* model, const TemporalGraph& graph,
                      NeighborFinder* full_finder,
                      const NodeClassificationSplit& split,
                      const TrainConfig& tc, int decoder_epochs,
                      NodeClassificationResult* result) {
  model->set_training(false);
  model->SetNeighborFinder(full_finder);
  model->Reset();
  const int64_t d = model->embedding_dim();
  Tensor features({graph.num_events(), d});
  std::vector<int32_t> labels(static_cast<size_t>(graph.num_events()), -1);
  {
    obs::ScopedPhaseTimer timer(obs::Phase::kEval);
    std::vector<int64_t> all_events(static_cast<size_t>(graph.num_events()));
    for (int64_t i = 0; i < graph.num_events(); ++i)
      all_events[static_cast<size_t>(i)] = i;
    int64_t cursor = 0;
    for (const Batch& batch : MakeBatches(graph, all_events, tc.batch_size)) {
      tensor::kernels::TapeScope tape_scope;
      Var emb = model->ComputeEmbeddings(batch.srcs, batch.ts);
      for (int64_t i = 0; i < batch.size(); ++i) {
        for (int64_t c = 0; c < d; ++c) {
          features.at(cursor + i, c) = emb->value.at(i * d + c);
        }
        labels[static_cast<size_t>(cursor + i)] =
            graph.event(cursor + i).label;
      }
      cursor += batch.size();
      model->UpdateState(batch);
    }
  }

  // Decoder: 2-layer MLP on the frozen embeddings.
  const int32_t num_classes = std::max(graph.NumLabelClasses(), 2);
  const bool binary = num_classes <= 2;
  tensor::Rng decoder_rng(tc.seed + 71);
  tensor::Mlp decoder({d, std::max<int64_t>(d, 16), binary ? 1 : num_classes},
                      decoder_rng);
  tensor::Adam decoder_opt(decoder.Parameters(), 1e-2f);

  auto gather = [&](const std::vector<int64_t>& events, Tensor* x,
                    std::vector<int>* y) {
    std::vector<float> rows;
    for (int64_t i : events) {
      if (labels[static_cast<size_t>(i)] < 0) continue;
      for (int64_t c = 0; c < d; ++c) rows.push_back(features.at(i, c));
      y->push_back(labels[static_cast<size_t>(i)]);
    }
    *x = Tensor::FromVector({static_cast<int64_t>(y->size()), d},
                            std::move(rows));
  };
  Tensor x_train, x_val, x_test;
  std::vector<int> y_train, y_val, y_test;
  gather(split.train_events, &x_train, &y_train);
  gather(split.val_events, &x_val, &y_val);
  gather(split.test_events, &x_test, &y_test);
  auto logits_of = [&](const Tensor& x) {
    return decoder.Forward({tensor::Constant(x)});
  };
  const std::vector<int64_t> train_classes(y_train.begin(), y_train.end());
  Tensor train_targets({static_cast<int64_t>(y_train.size())});
  for (size_t i = 0; i < y_train.size(); ++i) {
    train_targets.at(static_cast<int64_t>(i)) = y_train[i] == 1 ? 1.0f : 0.0f;
  }

  // The decoder is cheap, so it gets a more patient monitor than the
  // expensive TGNN training loop.
  EarlyStopMonitor monitor(std::max(tc.patience, 8), tc.tolerance);
  DecoderFit fit;
  // Decoder weights at the monitor's best epoch, restored before the test
  // metrics so early stopping evaluates the peak — not the last — decoder.
  std::string best_decoder;
  for (int epoch = 0; epoch < decoder_epochs; ++epoch) {
    // Scopes the decoder epoch's whole graph (loss and the validation
    // pass below both live within one tape).
    tensor::kernels::TapeScope tape_scope;
    if (obs::DeadlinePassed(tc.deadline)) {
      fit.exit = TrainExit::kCanceled;
      return fit;
    }
    const double epoch_start = NowSeconds();
    Var loss;
    {
      obs::ScopedPhaseTimer timer(obs::Phase::kForward);
      Var logits = logits_of(x_train);
      loss = binary ? BceWithLogits(logits, train_targets)
                    : SoftmaxCrossEntropy(logits, train_classes);
    }
    // The training loop's three sentinels, without its clipping: the
    // decoder has never clipped, and an infinite norm leaves gradients
    // untouched. A tripped sentinel ends the fit before any test metric
    // is computed from the diverged decoder.
    if (!GuardedStep(loss, decoder.Parameters(),
                     std::numeric_limits<float>::infinity(), &decoder_opt)) {
      fit.exit = TrainExit::kDiverged;
      return fit;
    }
    fit.seconds += NowSeconds() - epoch_start;
    ++fit.epochs_run;
    // Validation AUC for a binary task, accuracy for a multi-class one.
    Var val_logits = logits_of(x_val);
    const bool stop = monitor.Update(
        binary ? PositiveClassAuc(val_logits->value, y_val)
               : Accuracy(PredictedClasses(val_logits->value), y_val));
    if (monitor.rounds_without_improvement() == 0) {
      best_decoder = tensor::SnapshotParameters(decoder.Parameters());
    }
    if (stop) break;
  }
  if (!best_decoder.empty()) {
    const bool restored =
        tensor::RestoreParameters(best_decoder, decoder.Parameters());
    tensor::CheckOrDie(restored, "best-decoder restore: corrupt snapshot");
  }
  fit.best_epoch = monitor.best_epoch();
  fit.converged = monitor.stopped();

  // Test metrics: accuracy and weighted P/R/F1 of the predicted classes,
  // plus the positive class's AUC for comparability.
  Var logits = logits_of(x_test);
  const std::vector<int> pred = PredictedClasses(logits->value);
  result->test_auc = PositiveClassAuc(logits->value, y_test);
  result->accuracy = Accuracy(pred, y_test);
  const WeightedPrf prf = WeightedPrecisionRecallF1(pred, y_test, num_classes);
  result->precision_weighted = prf.precision;
  result->recall_weighted = prf.recall;
  result->f1_weighted = prf.f1;
  return fit;
}

}  // namespace

double MaxRssGb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is in kilobytes on Linux.
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
}

std::vector<Batch> MakeBatches(const TemporalGraph& graph,
                               const std::vector<int64_t>& events,
                               int batch_size) {
  std::vector<Batch> batches;
  Batch current;
  for (int64_t event_idx : events) {
    const graph::Interaction& e = graph.event(event_idx);
    current.srcs.push_back(e.src);
    current.dsts.push_back(e.dst);
    current.ts.push_back(e.ts);
    current.edge_idxs.push_back(e.edge_idx);
    if (current.size() >= batch_size) {
      batches.push_back(std::move(current));
      current = Batch();
    }
  }
  if (current.size() > 0) batches.push_back(std::move(current));
  return batches;
}

LinkPredictionResult RunLinkPrediction(const LinkPredictionJob& job) {
  tensor::CheckOrDie(job.graph != nullptr, "RunLinkPrediction: null graph");
  const TemporalGraph& graph = *job.graph;
  const TrainConfig& tc = job.train_config;
  LinkPredictionResult result;

  LinkPredictionSplit split = SplitLinkPrediction(graph, job.split_config);
  NeighborFinder train_finder(graph, split.train_events);
  NeighborFinder full_finder(graph);

  int32_t dst_lo = 0, dst_hi = 0;
  DstRange(graph, job.num_users, &dst_lo, &dst_hi);
  RandomEdgeSampler train_sampler(dst_lo, dst_hi, tc.seed + 1);
  auto val_sampler =
      MakeEdgeSampler(tc.negative_sampling, graph, split.train_events, dst_lo,
                      dst_hi, tc.seed + 2);
  auto test_sampler =
      MakeEdgeSampler(tc.negative_sampling, graph, split.train_events, dst_lo,
                      dst_hi, tc.seed + 3);

  // TGB-style ranking evaluator: k keyed candidates per positive, scored in
  // the same val/test passes. A destination range too small to rank against
  // (fewer than 2 ids) leaves the evaluator off rather than dying.
  std::unique_ptr<CandidateSampler> candidate_sampler;
  if (tc.mrr_k > 0 && dst_hi - dst_lo >= 2) {
    CandidateConfig candidate_config;
    candidate_config.k = tc.mrr_k;
    candidate_config.historical_fraction = tc.mrr_historical_fraction;
    candidate_sampler = std::make_unique<CandidateSampler>(
        graph, split.train_events, dst_lo, dst_hi, candidate_config);
    result.mrr_k = candidate_sampler->k();
  }

  models::ModelConfig model_config = job.model_config;
  model_config.seed = tc.seed + 17;
  auto model =
      models::CreateModel(job.kind, &graph, model_config, job.num_users);
  EpochDriver driver(tc, model.get(), &train_sampler);
  const std::vector<Batch> train_batches =
      MakeBatches(graph, split.train_events, tc.batch_size);

  // One val or test scoring pass: positives, keyed negatives and, when
  // ranking is on, the k candidates. False when the deadline cut it short.
  auto eval_pass = [&](const std::vector<int64_t>& events,
                       const EdgeSampler* sampler, uint64_t pass_seed,
                       std::vector<double>* pos, std::vector<double>* neg,
                       std::vector<double>* ranks) {
    EvalPassConfig cfg;
    cfg.pass_seed = pass_seed;
    cfg.pipeline_depth = driver.pipeline_depth();
    cfg.deadline = tc.deadline;
    cfg.candidates = candidate_sampler.get();
    cfg.tie_policy = tc.mrr_tie_policy;
    return ScorePass(model.get(), graph, events, tc.batch_size, sampler, cfg,
                     pos, neg, candidate_sampler != nullptr ? ranks : nullptr);
  };
  // Validation: transductive AUC with the full neighbor index and the
  // state left at the end of the training stream.
  auto validate = [&](SettingMetrics* val) {
    model->set_training(false);
    model->SetNeighborFinder(&full_finder);
    std::vector<double> val_pos, val_neg, val_ranks;
    bool scored = false;
    {
      obs::ScopedPhaseTimer timer(obs::Phase::kEval);
      scored = eval_pass(split.val_events, val_sampler.get(), tc.seed + 2,
                         &val_pos, &val_neg, &val_ranks);
    }
    if (!scored) return false;
    const std::vector<size_t> positions =
        SubsetPositions(split.val_events, split.val_events);
    if (candidate_sampler != nullptr &&
        model->status() != ModelStatus::kRuntimeError) {
      result.val_ranking = SubsetRanking(positions, val_ranks);
    }
    *val = SubsetMetrics(positions,
                         static_cast<int64_t>(split.val_events.size()),
                         val_pos, val_neg);
    return true;
  };
  TrainExit exit =
      driver.Run(train_batches, &train_finder,
                 model->trainable() ? tc.max_epochs : 1, validate,
                 &result.efficiency);
  result.val_transductive = driver.val();

  // Canceled, diverged and failed runs skip the (expensive) test pass.
  if (exit == TrainExit::kCompleted) {
    // Evaluate the best epoch's weights, not the last: early stopping keeps
    // training `patience` epochs past the peak, and those extra updates
    // should not leak into the test metrics.
    if (model->trainable() && !driver.best_params().empty()) {
      const bool restored =
          tensor::RestoreParameters(driver.best_params(), driver.params());
      tensor::CheckOrDie(restored, "best-epoch restore: corrupt snapshot");
    }

    // Final evaluation: rebuild state over train+val, then one chronological
    // pass over the whole test window scored under every setting.
    model->set_training(false);
    model->SetNeighborFinder(&full_finder);
    model->Reset();
    std::vector<int64_t> pre_test_events;
    pre_test_events.reserve(static_cast<size_t>(split.val_end));
    for (int64_t i = 0; i < split.val_end; ++i) pre_test_events.push_back(i);
    std::vector<double> test_pos, test_neg, test_ranks;
    double inference_seconds = 0.0;
    bool scored = false;
    {
      obs::ScopedPhaseTimer timer(obs::Phase::kEval);
      ReplayState(model.get(), graph, pre_test_events, tc.batch_size);
      const double inference_start = NowSeconds();
      scored = eval_pass(split.test_events, test_sampler.get(), tc.seed + 3,
                         &test_pos, &test_neg, &test_ranks);
      inference_seconds = NowSeconds() - inference_start;
    }
    if (model->status() == ModelStatus::kRuntimeError) {
      exit = TrainExit::kRuntimeError;
    } else if (!scored) {
      exit = TrainExit::kCanceled;
    } else {
      const std::array<const std::vector<int64_t>*, 4> subsets = {
          &split.test_events, &split.test_inductive, &split.test_new_old,
          &split.test_new_new};
      for (size_t s = 0; s < subsets.size(); ++s) {
        const std::vector<size_t> positions =
            SubsetPositions(split.test_events, *subsets[s]);
        result.test[s] =
            SubsetMetrics(positions, static_cast<int64_t>(subsets[s]->size()),
                          test_pos, test_neg);
        if (candidate_sampler != nullptr) {
          result.test_ranking[s] = SubsetRanking(positions, test_ranks);
        }
      }
      // Pairs scored by the test pass: positive + negative per event, plus
      // the k ranking candidates per event when the MRR evaluator is on.
      const int64_t scored = (2 + static_cast<int64_t>(result.mrr_k)) *
                             static_cast<int64_t>(split.test_events.size());
      if (scored > 0 && inference_seconds > 0.0) {
        EfficiencyStats& eff = result.efficiency;
        eff.inference_seconds_per_100k =
            inference_seconds / static_cast<double>(scored) * 1e5;
        // Edge scores per second of the test pass — the number the k-way
        // fused-scoring perf gate watches: one ScoreCandidates forward per
        // batch keeps it in the one-negative pass's band even at k=20.
        eff.eval_events_per_second =
            static_cast<double>(scored) / inference_seconds;
      }
    }
  }
  driver.Finish(exit, !model->trainable() || driver.monitor().stopped(),
                split.train_events.size(), &result);
  return result;
}

NodeClassificationResult RunNodeClassification(
    const NodeClassificationJob& job) {
  tensor::CheckOrDie(job.graph != nullptr,
                     "RunNodeClassification: null graph");
  const TemporalGraph& graph = *job.graph;
  const TrainConfig& tc = job.train_config;
  NodeClassificationResult result;
  tensor::CheckOrDie(graph.HasLabels(),
                     "RunNodeClassification: dataset has no labels");

  NodeClassificationSplit split =
      SplitNodeClassification(graph, job.split_config);
  NeighborFinder full_finder(graph);
  int32_t dst_lo = 0, dst_hi = 0;
  DstRange(graph, job.num_users, &dst_lo, &dst_hi);

  models::ModelConfig model_config = job.model_config;
  model_config.seed = tc.seed + 17;
  auto model =
      models::CreateModel(job.kind, &graph, model_config, job.num_users);
  RandomEdgeSampler train_sampler(dst_lo, dst_hi, tc.seed + 1);
  EpochDriver driver(tc, model.get(), &train_sampler);
  const std::vector<Batch> train_batches =
      MakeBatches(graph, split.train_events, tc.batch_size);

  // Pretraining is link-prediction training over the full neighbor index
  // with no validation pass, so every epoch runs — under the same NaN
  // rollback, resume and deadline checks.
  TrainExit exit = driver.Run(train_batches, &full_finder,
                              model->trainable() ? job.pretrain_epochs : 0,
                              nullptr, &result.efficiency);
  DecoderFit fit;
  if (exit == TrainExit::kCompleted) {
    fit = FitDecoder(model.get(), graph, &full_finder, split, tc,
                     job.decoder_epochs, &result);
    exit = fit.exit;
  }
  driver.Finish(exit, fit.converged, split.train_events.size(), &result);
  // Table 12 reports the decoder's epochs; its runtime averages over
  // pretraining and decoder epochs alike.
  EfficiencyStats& eff = result.efficiency;
  const int epochs = driver.epochs_run() + fit.epochs_run;
  eff.seconds_per_epoch =
      epochs > 0 ? (driver.kept_epoch_seconds() + fit.seconds) / epochs : 0.0;
  eff.epochs_run = fit.epochs_run;
  eff.best_epoch = fit.best_epoch;
  return result;
}

}  // namespace benchtemp::core
