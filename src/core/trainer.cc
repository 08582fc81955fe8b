#include "core/trainer.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "base/fault_injector.h"
#include "core/early_stop.h"
#include "core/evaluator.h"
#include "graph/neighbor_finder.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "robustness/checkpoint.h"
#include "robustness/lineage.h"
#include "tensor/kernels/arena.h"
#include "tensor/expr.h"
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
namespace expr = tensor::expr;

// All timing flows through the observability layer's clock so the btlint
// adhoc-timing rule can hold the line against scattered chrono reads.
using obs::NowSeconds;

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
  const std::atomic<bool>* cancel = nullptr;
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
/// non-null (indexed by position in `events`; 0 = not scored).
void ScorePass(TgnnModel* model, const TemporalGraph& graph,
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
                                       cfg.cancel);
  size_t cursor = 0;
  std::vector<double> row;
  for (size_t bi = 0; bi < batches.size(); ++bi) {
    // Declared first so every Var of this batch dies before the rewind.
    tensor::kernels::TapeScope tape_scope;
    pipeline::PreparedBatch pb;
    if (!prefetcher.Next(&pb)) break;
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
}

/// Ranking metrics over the subset of `events` listed in `subset`,
/// skipping events a canceled pass never scored (rank 0).
RankingMetrics SubsetRanking(const std::vector<int64_t>& events,
                             const std::vector<int64_t>& subset,
                             const std::vector<double>& ranks) {
  if (ranks.empty()) return RankingMetrics{};
  std::unordered_set<int64_t> members(subset.begin(), subset.end());
  std::vector<double> selected;
  for (size_t i = 0; i < events.size(); ++i) {
    if (members.count(events[i]) == 0) continue;
    if (ranks[i] < 1.0) continue;  // unscored slot of a canceled pass
    selected.push_back(ranks[i]);
  }
  return RankingFromRanks(selected);
}

/// BENCHTEMP_MRR_K: candidates per positive when TrainConfig leaves
/// mrr_k at -1; unset/invalid -> 0 (ranking off).
int MrrKFromEnv() {
  const char* value = std::getenv("BENCHTEMP_MRR_K");
  if (value == nullptr || value[0] == '\0') return 0;
  const int k = std::atoi(value);
  return k > 0 ? k : 0;
}

/// AUC/AP over the subset of `events` listed in `subset`.
SettingMetrics SubsetMetrics(const std::vector<int64_t>& events,
                             const std::vector<int64_t>& subset,
                             const std::vector<double>& pos_scores,
                             const std::vector<double>& neg_scores) {
  std::unordered_set<int64_t> members(subset.begin(), subset.end());
  std::vector<double> scores;
  std::vector<int> labels;
  for (size_t i = 0; i < events.size(); ++i) {
    if (members.count(events[i]) == 0) continue;
    scores.push_back(pos_scores[i]);
    labels.push_back(1);
    scores.push_back(neg_scores[i]);
    labels.push_back(0);
  }
  SettingMetrics metrics;
  metrics.count = static_cast<int64_t>(subset.size());
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

/// True when the job's watchdog (if any) has expired.
bool Canceled(const TrainConfig& tc) {
  return tc.cancel_token != nullptr &&
         tc.cancel_token->load(std::memory_order_relaxed);
}

/// Injected batch stall, probed from the batch-*prepare* stage so the
/// stall lands on the producer thread when the pipeline is on. The
/// watchdog still trips either way: the consumer's Next() polls the cancel
/// token while it waits for the stalled slot.
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

/// Accumulates one prefetcher's accounting into the job-wide fields.
void AccumulatePipelineStats(const pipeline::PipelineStats& s,
                             EfficiencyStats* eff) {
  eff->pipeline_batches += s.batches;
  eff->pipeline_prefetched += s.prefetched;
  eff->pipeline_prepare_seconds += s.prepare_seconds;
  eff->pipeline_wait_seconds += s.wait_seconds;
}

/// Finalizes the job-wide overlap ratio and publishes the pipeline gauges
/// (gauges are last-write-wins and excluded from the counters digest, so
/// sync and async runs stay digest-comparable).
void FinishPipelineStats(int depth, EfficiencyStats* eff) {
  eff->pipeline_depth = depth;
  pipeline::PipelineStats total;
  total.batches = eff->pipeline_batches;
  total.prefetched = eff->pipeline_prefetched;
  total.prepare_seconds = eff->pipeline_prepare_seconds;
  total.wait_seconds = eff->pipeline_wait_seconds;
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
  // Averaging the two BCE halves is a fused 2-op pass: one tape node
  // instead of an eager Add node plus a ScalarMul node.
  return expr::ScalarMul(expr::Add(expr::Ex(BceWithLogits(pos, ones)),
                                   expr::Ex(BceWithLogits(neg, zeros))),
                         0.5f);
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
  const int mrr_k_request = tc.mrr_k >= 0 ? tc.mrr_k : MrrKFromEnv();
  std::unique_ptr<CandidateSampler> candidate_sampler;
  if (mrr_k_request > 0 && dst_hi - dst_lo >= 2) {
    CandidateConfig candidate_config;
    candidate_config.k = mrr_k_request;
    candidate_config.historical_fraction = tc.mrr_historical_fraction;
    candidate_sampler = std::make_unique<CandidateSampler>(
        graph, split.train_events, dst_lo, dst_hi, candidate_config);
    result.mrr_k = candidate_sampler->k();
  }

  models::ModelConfig model_config = job.model_config;
  model_config.seed = tc.seed + 17;
  auto model =
      models::CreateModel(job.kind, &graph, model_config, job.num_users);
  tensor::Adam optimizer(model->Parameters(), tc.learning_rate);

  const std::vector<Batch> train_batches =
      MakeBatches(graph, split.train_events, tc.batch_size);
  EarlyStopMonitor monitor(tc.patience, tc.tolerance);
  const double start = NowSeconds();
  double total_epoch_seconds = 0.0;
  double retried_epoch_seconds = 0.0;
  int64_t checkpoint_bytes = 0;
  // Per-run phase attribution: the training thread drains its own slot at
  // epoch barriers, so a concurrent job on another thread never bleeds in.
  obs::PhaseTotals run_phases;
  auto& registry = obs::MetricRegistry::Global();
  int epochs_run = 0;
  int nan_retries = 0;
  bool hit_budget = false;
  bool canceled = false;
  bool diverged = false;
  const int max_epochs = model->trainable() ? tc.max_epochs : 1;
  const std::vector<Var> params = model->Parameters();
  const bool checkpointing =
      model->trainable() && !tc.checkpoint_path.empty();
  robustness::CheckpointLineage lineage(tc.checkpoint_path,
                                        tc.checkpoint_generations);
  // The checkpoint lineage only outlives the job when the job dies
  // mid-flight; any terminal exit (success, "*", "x") retires it.
  auto retire_checkpoint = [&] {
    if (checkpointing) (void)lineage.Remove();
  };

  // Parameters at the monitor's best epoch; restored before the test pass
  // so early stopping evaluates the best — not the last — weights.
  std::string best_params;

  // Snapshot/restore of everything that makes an epoch boundary a
  // deterministic cut point: parameters, Adam moments, both RNG streams,
  // the monitor, and the (possibly backed-off) learning rate. Used both
  // for in-memory rollback after a NaN event and for the on-disk job
  // checkpoint.
  auto snapshot_now = [&]() {
    robustness::JobCheckpoint s;
    s.seed = tc.seed;
    s.learning_rate = optimizer.learning_rate();
    s.monitor = monitor.state();
    s.val_auc = result.val_transductive.auc;
    s.val_ap = result.val_transductive.ap;
    s.val_count = result.val_transductive.count;
    s.model_rng = model->SaveRngState();
    s.sampler_rng = train_sampler.SaveRngState();
    s.params = tensor::SnapshotParameters(params);
    s.adam = optimizer.SnapshotState();
    s.best_params = best_params;
    return s;
  };
  auto restore_from = [&](const robustness::JobCheckpoint& s) {
    if (!tensor::RestoreParameters(s.params, params)) return false;
    if (!optimizer.RestoreState(s.adam)) return false;
    // Grad-buffer allocation is trajectory state: Adam skips parameters whose
    // lazily allocated grad buffer is still empty, but applies momentum decay
    // to ones that were touched in an earlier epoch and merely zeroed since.
    // Pre-allocating every buffer makes a restored process bit-identical to
    // the uninterrupted one (a zero grad with zero moments is an exact no-op).
    for (const Var& p : params) p->EnsureGrad();
    if (!model->LoadRngState(s.model_rng)) return false;
    if (!train_sampler.LoadRngState(s.sampler_rng)) return false;
    optimizer.set_learning_rate(s.learning_rate);
    monitor.Restore(s.monitor);
    result.val_transductive.auc = s.val_auc;
    result.val_transductive.ap = s.val_ap;
    result.val_transductive.count = s.val_count;
    best_params = s.best_params;
    return true;
  };

  int epoch = 0;
  robustness::JobCheckpoint rollback = snapshot_now();

  // Resume: a matching on-disk checkpoint restarts the job exactly where
  // it died instead of from scratch.
  if (checkpointing) {
    robustness::JobCheckpoint ckpt;
    // A corrupt newest generation silently falls back to an older one (the
    // skip is counted in robustness.ckpt_fallbacks); a seed mismatch means
    // a different job left these files behind, so start fresh.
    if (lineage.Load(&ckpt).ok && ckpt.seed == tc.seed &&
        restore_from(ckpt)) {
      epoch = ckpt.next_epoch;
      epochs_run = ckpt.epochs_run;
      nan_retries = ckpt.nan_retries;
      total_epoch_seconds = ckpt.total_epoch_seconds;
      retried_epoch_seconds = ckpt.retried_epoch_seconds;
      rollback = snapshot_now();
      result.resumed = true;
    }
  }

  // Resolved prefetch depth (0 = synchronous): an explicit TrainConfig
  // value wins, otherwise BENCHTEMP_PIPELINE decides.
  const int pipeline_depth =
      tc.pipeline_depth >= 0 ? tc.pipeline_depth : pipeline::DepthFromEnv();

  while (epoch < max_epochs) {
    const double epoch_start = NowSeconds();
    bool nan_event = false;
    {
      obs::ScopedPhaseTimer timer(obs::Phase::kMemoryUpdate);
      model->Reset();
    }
    model->set_training(true);
    model->SetNeighborFinder(&train_finder);
    {
      // Batch preparation — stall probe, keyed negatives, the model's
      // sampling stage — is a pure function of (epoch, batch index), so it
      // runs inline at depth 0 and ahead on pool workers otherwise with
      // bit-identical results. Scoped so the prefetcher drains before the
      // neighbor finder swaps to the full index (and so a NaN retry
      // discards, never checkpoints, prefetched batches).
      auto prepare = [&, epoch](int64_t bi) {
        pipeline::PreparedBatch pb;
        pb.index = bi;
        ProbeStallFault();
        const Batch& pbatch = train_batches[static_cast<size_t>(bi)];
        const uint64_t seed = BatchSeed(tc.seed, epoch, bi);
        pb.negatives = train_sampler.SampleNegativesKeyed(
            tensor::SplitMix64(seed, 0), pbatch.srcs, pbatch.dsts);
        pb.inputs = model->PrepareBatch(pbatch, pb.negatives, seed);
        return pb;
      };
      pipeline::BatchPrefetcher prefetcher(
          static_cast<int64_t>(train_batches.size()), pipeline_depth,
          prepare, tc.cancel_token);
      for (size_t bi = 0; bi < train_batches.size(); ++bi) {
        // The tape scope is the first declaration in the loop body, so the
        // batch's Vars (pos/neg/loss graph) are destroyed before the arena
        // rewinds their storage.
        tensor::kernels::TapeScope tape_scope;
        if (Canceled(tc)) {
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
        const Batch& batch = train_batches[static_cast<size_t>(pb.index)];
        const std::vector<int32_t>& negatives = pb.negatives;
        Var pos, neg;
        {
          obs::ScopedPhaseTimer timer(obs::Phase::kForward);
          model->SetPreparedInputs(pb.inputs.get());
          pos = model->ScoreEdges(batch.srcs, batch.dsts, batch.ts);
          neg = model->ScoreEdges(batch.srcs, negatives, batch.ts);
          model->SetPreparedInputs(nullptr);
        }
        if (model->status() == ModelStatus::kRuntimeError) {
          result.status = ModelStatus::kRuntimeError;
          result.annotation = "*";
          result.nan_retries = nan_retries;
          retire_checkpoint();
          return result;
        }
        if (model->trainable()) {
          Var loss;
          {
            obs::ScopedPhaseTimer timer(obs::Phase::kForward);
            loss = PairBceLoss(pos, neg);
          }
          if (!GuardedStep(loss, params, tc.grad_clip_norm, &optimizer)) {
            nan_event = true;
            break;
          }
        }
        {
          obs::ScopedPhaseTimer timer(obs::Phase::kMemoryUpdate);
          model->UpdateState(batch);
        }
        registry.Add(obs::Counter::kTrainBatches, 1);
        registry.Add(obs::Counter::kTrainEvents, batch.size());
      }
      AccumulatePipelineStats(prefetcher.stats(), &result.efficiency);
    }
    if (canceled) break;
    if (nan_event) {
      // Divergence recovery: roll back to the last epoch boundary, halve
      // the learning rate, and retry — a recorded, recoverable event
      // instead of a poisoned sweep.
      ++nan_retries;
      retried_epoch_seconds += NowSeconds() - epoch_start;
      registry.Add(obs::Counter::kNanRetries, 1);
      registry.Add(obs::Counter::kRollbacks, 1);
      registry.DrainThisThread(&run_phases);
      const bool restored = restore_from(rollback);
      tensor::CheckOrDie(restored, "NaN rollback: corrupt epoch snapshot");
      if (nan_retries > tc.max_nan_retries) {
        diverged = true;
        break;
      }
      optimizer.set_learning_rate(optimizer.learning_rate() * tc.lr_backoff);
      continue;  // retry the same epoch
    }
    total_epoch_seconds += NowSeconds() - epoch_start;
    ++epochs_run;

    // Validation: transductive AUC with the full neighbor index and the
    // state left at the end of the training stream.
    model->set_training(false);
    model->SetNeighborFinder(&full_finder);
    std::vector<double> val_pos, val_neg, val_ranks;
    {
      obs::ScopedPhaseTimer timer(obs::Phase::kEval);
      EvalPassConfig val_cfg;
      val_cfg.pass_seed = tc.seed + 2;
      val_cfg.pipeline_depth = pipeline_depth;
      val_cfg.cancel = tc.cancel_token;
      val_cfg.candidates = candidate_sampler.get();
      val_cfg.tie_policy = tc.mrr_tie_policy;
      ScorePass(model.get(), graph, split.val_events, tc.batch_size,
                val_sampler.get(), val_cfg, &val_pos, &val_neg,
                candidate_sampler != nullptr ? &val_ranks : nullptr);
    }
    if (model->status() == ModelStatus::kRuntimeError) {
      result.status = ModelStatus::kRuntimeError;
      result.annotation = "*";
      result.nan_retries = nan_retries;
      retire_checkpoint();
      return result;
    }
    result.val_transductive =
        SubsetMetrics(split.val_events, split.val_events, val_pos, val_neg);
    if (candidate_sampler != nullptr) {
      result.val_ranking =
          SubsetRanking(split.val_events, split.val_events, val_ranks);
    }
    bool stop = false;
    if (model->trainable()) {
      stop = monitor.Update(result.val_transductive.auc);
      if (monitor.rounds_without_improvement() == 0) {
        best_params = tensor::SnapshotParameters(params);
      }
    }
    ++epoch;
    {
      obs::ScopedPhaseTimer timer(obs::Phase::kCheckpoint);
      rollback = snapshot_now();
      if (checkpointing) {
        rollback.next_epoch = epoch;
        rollback.epochs_run = epochs_run;
        rollback.nan_retries = nan_retries;
        rollback.total_epoch_seconds = total_epoch_seconds;
        rollback.retried_epoch_seconds = retried_epoch_seconds;
        int64_t bytes = 0;
        if (lineage.Save(rollback, &bytes)) {
          checkpoint_bytes = bytes;
        }
      }
    }
    registry.DrainThisThread(&run_phases);
    if (stop) break;
    if (tc.time_budget_seconds > 0.0 &&
        NowSeconds() - start > tc.time_budget_seconds) {
      hit_budget = true;
      break;
    }
    if (Canceled(tc)) {
      canceled = true;
      break;
    }
  }
  result.nan_retries = nan_retries;

  if (canceled || diverged) {
    // Watchdog deadline or exhausted NaN-retry budget: record the paper's
    // non-convergence marker and skip the (expensive) test pass.
    result.annotation = "x";
    registry.DrainThisThread(&run_phases);
    EfficiencyStats& eff = result.efficiency;
    eff.epochs_run = epochs_run;
    eff.best_epoch = monitor.best_epoch();
    eff.converged = false;
    eff.seconds_per_epoch =
        epochs_run > 0 ? total_epoch_seconds / epochs_run : 0.0;
    eff.retried_epoch_seconds = retried_epoch_seconds;
    eff.max_rss_gb = MaxRssGb();
    eff.state_bytes = model->StateBytes();
    eff.parameter_bytes = model->ParameterBytes();
    eff.checkpoint_bytes = checkpoint_bytes;
    eff.phase_seconds = run_phases.seconds;
    FinishPipelineStats(pipeline_depth, &eff);
    retire_checkpoint();
    return result;
  }

  // Evaluate the best epoch's weights, not the last: early stopping keeps
  // training `patience` epochs past the peak, and those extra updates
  // should not leak into the test metrics.
  if (model->trainable() && !best_params.empty()) {
    const bool restored = tensor::RestoreParameters(best_params, params);
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
  {
    obs::ScopedPhaseTimer timer(obs::Phase::kEval);
    ReplayState(model.get(), graph, pre_test_events, tc.batch_size);
    const double inference_start = NowSeconds();
    EvalPassConfig test_cfg;
    test_cfg.pass_seed = tc.seed + 3;
    test_cfg.pipeline_depth = pipeline_depth;
    test_cfg.cancel = tc.cancel_token;
    test_cfg.candidates = candidate_sampler.get();
    test_cfg.tie_policy = tc.mrr_tie_policy;
    ScorePass(model.get(), graph, split.test_events, tc.batch_size,
              test_sampler.get(), test_cfg, &test_pos, &test_neg,
              candidate_sampler != nullptr ? &test_ranks : nullptr);
    inference_seconds = NowSeconds() - inference_start;
  }
  registry.DrainThisThread(&run_phases);
  if (model->status() == ModelStatus::kRuntimeError) {
    result.status = ModelStatus::kRuntimeError;
    result.annotation = "*";
    retire_checkpoint();
    return result;
  }

  result.test[static_cast<int>(Setting::kTransductive)] = SubsetMetrics(
      split.test_events, split.test_events, test_pos, test_neg);
  result.test[static_cast<int>(Setting::kInductive)] = SubsetMetrics(
      split.test_events, split.test_inductive, test_pos, test_neg);
  result.test[static_cast<int>(Setting::kInductiveNewOld)] = SubsetMetrics(
      split.test_events, split.test_new_old, test_pos, test_neg);
  result.test[static_cast<int>(Setting::kInductiveNewNew)] = SubsetMetrics(
      split.test_events, split.test_new_new, test_pos, test_neg);
  if (candidate_sampler != nullptr) {
    result.test_ranking[static_cast<int>(Setting::kTransductive)] =
        SubsetRanking(split.test_events, split.test_events, test_ranks);
    result.test_ranking[static_cast<int>(Setting::kInductive)] =
        SubsetRanking(split.test_events, split.test_inductive, test_ranks);
    result.test_ranking[static_cast<int>(Setting::kInductiveNewOld)] =
        SubsetRanking(split.test_events, split.test_new_old, test_ranks);
    result.test_ranking[static_cast<int>(Setting::kInductiveNewNew)] =
        SubsetRanking(split.test_events, split.test_new_new, test_ranks);
  }

  EfficiencyStats& eff = result.efficiency;
  eff.epochs_run = epochs_run;
  eff.best_epoch = monitor.best_epoch();
  eff.converged = model->trainable()
                      ? (monitor.rounds_without_improvement() >= tc.patience)
                      : true;
  // Throughput over *kept* epochs only: wall-time of rolled-back epochs is
  // reported separately so a retried run does not misstate its speed.
  eff.seconds_per_epoch =
      epochs_run > 0 ? total_epoch_seconds / epochs_run : 0.0;
  eff.retried_epoch_seconds = retried_epoch_seconds;
  eff.max_rss_gb = MaxRssGb();
  eff.state_bytes = model->StateBytes();
  eff.parameter_bytes = model->ParameterBytes();
  eff.checkpoint_bytes = checkpoint_bytes;
  eff.phase_seconds = run_phases.seconds;
  FinishPipelineStats(pipeline_depth, &eff);
  if (retried_epoch_seconds > 0.0) {
    registry.SetGauge("train.retried_epoch_seconds", retried_epoch_seconds);
  }
  if (eff.seconds_per_epoch > 0.0) {
    eff.train_events_per_second =
        static_cast<double>(split.train_events.size()) /
        eff.seconds_per_epoch;
  }
  // Pairs scored by the test pass: positive + negative per event, plus the
  // k ranking candidates per event when the MRR evaluator is on.
  const int64_t scored = (2 + static_cast<int64_t>(result.mrr_k)) *
                         static_cast<int64_t>(split.test_events.size());
  if (scored > 0 && inference_seconds > 0.0) {
    eff.inference_seconds_per_100k =
        inference_seconds / static_cast<double>(scored) * 1e5;
    // Edge scores per second of the test pass — the number the k-way
    // fused-scoring perf gate watches: one ScoreCandidates forward per
    // batch keeps it in the one-negative pass's band even at k=20.
    eff.eval_events_per_second =
        static_cast<double>(scored) / inference_seconds;
  }
  if (model->trainable() && !eff.converged && hit_budget) {
    result.annotation = "x";
  }
  retire_checkpoint();
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
  const int32_t num_classes = std::max(graph.NumLabelClasses(), 2);
  const bool binary = num_classes <= 2;

  NodeClassificationSplit split =
      SplitNodeClassification(graph, job.split_config);
  NeighborFinder full_finder(graph);
  int32_t dst_lo = 0, dst_hi = 0;
  DstRange(graph, job.num_users, &dst_lo, &dst_hi);

  models::ModelConfig model_config = job.model_config;
  model_config.seed = tc.seed + 17;
  auto model =
      models::CreateModel(job.kind, &graph, model_config, job.num_users);
  const std::vector<Var> params = model->Parameters();
  tensor::Adam optimizer(params, tc.learning_rate);
  RandomEdgeSampler train_sampler(dst_lo, dst_hi, tc.seed + 1);

  const std::vector<Batch> train_batches =
      MakeBatches(graph, split.train_events, tc.batch_size);
  auto& registry = obs::MetricRegistry::Global();
  double pretrain_seconds = 0.0;
  const int pretrain = model->trainable() ? job.pretrain_epochs : 0;
  const int pipeline_depth =
      tc.pipeline_depth >= 0 ? tc.pipeline_depth : pipeline::DepthFromEnv();
  for (int epoch = 0; epoch < pretrain; ++epoch) {
    const double epoch_start = NowSeconds();
    {
      obs::ScopedPhaseTimer timer(obs::Phase::kMemoryUpdate);
      model->Reset();
    }
    model->set_training(true);
    model->SetNeighborFinder(&full_finder);
    // Same pipelined preparation as the link-prediction loop: pure per-batch
    // seeds, scoped so the prefetcher drains before the epoch ends.
    auto prepare = [&, epoch](int64_t bi) {
      pipeline::PreparedBatch pb;
      pb.index = bi;
      ProbeStallFault();
      const Batch& pbatch = train_batches[static_cast<size_t>(bi)];
      const uint64_t seed = BatchSeed(tc.seed, epoch, bi);
      pb.negatives = train_sampler.SampleNegativesKeyed(
          tensor::SplitMix64(seed, 0), pbatch.srcs, pbatch.dsts);
      pb.inputs = model->PrepareBatch(pbatch, pb.negatives, seed);
      return pb;
    };
    pipeline::BatchPrefetcher prefetcher(
        static_cast<int64_t>(train_batches.size()), pipeline_depth, prepare,
        tc.cancel_token);
    for (size_t bi = 0; bi < train_batches.size(); ++bi) {
      tensor::kernels::TapeScope tape_scope;
      if (Canceled(tc)) {
        result.annotation = "x";
        return result;
      }
      pipeline::PreparedBatch pb;
      {
        obs::ScopedPhaseTimer timer(obs::Phase::kSample);
        if (!prefetcher.Next(&pb)) {
          result.annotation = "x";
          return result;
        }
      }
      ProbeThrowFault();
      const Batch& batch = train_batches[static_cast<size_t>(pb.index)];
      const std::vector<int32_t>& negatives = pb.negatives;
      Var pos, neg;
      {
        obs::ScopedPhaseTimer timer(obs::Phase::kForward);
        model->SetPreparedInputs(pb.inputs.get());
        pos = model->ScoreEdges(batch.srcs, batch.dsts, batch.ts);
        neg = model->ScoreEdges(batch.srcs, negatives, batch.ts);
        model->SetPreparedInputs(nullptr);
      }
      if (model->status() == ModelStatus::kRuntimeError) {
        result.status = ModelStatus::kRuntimeError;
        result.annotation = "*";
        return result;
      }
      Var loss;
      {
        obs::ScopedPhaseTimer timer(obs::Phase::kForward);
        loss = PairBceLoss(pos, neg);
      }
      if (!GuardedStep(loss, params, tc.grad_clip_norm, &optimizer)) {
        // Pretraining diverged: the embeddings would be NaN, so report
        // the paper's non-convergence marker instead of fitting a decoder.
        result.annotation = "x";
        return result;
      }
      {
        obs::ScopedPhaseTimer timer(obs::Phase::kMemoryUpdate);
        model->UpdateState(batch);
      }
      registry.Add(obs::Counter::kTrainBatches, 1);
      registry.Add(obs::Counter::kTrainEvents, batch.size());
    }
    AccumulatePipelineStats(prefetcher.stats(), &result.efficiency);
    pretrain_seconds += NowSeconds() - epoch_start;
  }
  FinishPipelineStats(pipeline_depth, &result.efficiency);

  // Frozen-embedding extraction: one chronological pass over the stream
  // caching each labeled event's source-node embedding.
  model->set_training(false);
  model->SetNeighborFinder(&full_finder);
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
  tensor::Rng decoder_rng(tc.seed + 71);
  const int64_t out_dim = binary ? 1 : num_classes;
  tensor::Mlp decoder({d, std::max<int64_t>(d, 16), out_dim}, decoder_rng);
  tensor::Adam decoder_opt(decoder.Parameters(), 1e-2f);

  auto gather = [&](const std::vector<int64_t>& events, Tensor* x,
                    std::vector<int64_t>* y) {
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
  std::vector<int64_t> y_train, y_val, y_test;
  gather(split.train_events, &x_train, &y_train);
  gather(split.val_events, &x_val, &y_val);
  gather(split.test_events, &x_test, &y_test);

  auto scores_of = [&](const Tensor& x) {
    Var logits = decoder.Forward(tensor::Constant(x));
    return logits;
  };
  auto binary_auc = [&](const Tensor& x, const std::vector<int64_t>& y) {
    Var logits = scores_of(x);
    std::vector<double> scores;
    std::vector<int> lab;
    for (size_t i = 0; i < y.size(); ++i) {
      scores.push_back(logits->value.at(static_cast<int64_t>(i)));
      lab.push_back(y[i] == 1 ? 1 : 0);
    }
    return RocAuc(scores, lab);
  };

  // The decoder is cheap, so it gets a more patient monitor than the
  // expensive TGNN training loop.
  EarlyStopMonitor monitor(std::max(tc.patience, 8), tc.tolerance);
  double decoder_seconds = 0.0;
  int decoder_epochs_run = 0;
  // Decoder weights at the monitor's best epoch, restored before the test
  // metrics so early stopping evaluates the peak — not the last — decoder.
  std::string best_decoder;
  for (int epoch = 0; epoch < job.decoder_epochs; ++epoch) {
    // Scopes the decoder epoch's whole graph (loss and the validation
    // passes below both live within one tape).
    tensor::kernels::TapeScope tape_scope;
    if (Canceled(tc)) {
      result.annotation = "x";
      return result;
    }
    const double epoch_start = NowSeconds();
    Var loss;
    {
      obs::ScopedPhaseTimer timer(obs::Phase::kForward);
      Var logits = decoder.Forward(tensor::Constant(x_train));
      if (binary) {
        Tensor targets({static_cast<int64_t>(y_train.size())});
        for (size_t i = 0; i < y_train.size(); ++i) {
          targets.at(static_cast<int64_t>(i)) = y_train[i] == 1 ? 1.0f : 0.0f;
        }
        loss = BceWithLogits(logits, targets);
      } else {
        loss = SoftmaxCrossEntropy(logits, y_train);
      }
    }
    {
      obs::ScopedPhaseTimer timer(obs::Phase::kBackward);
      decoder_opt.ZeroGrad();
      Backward(loss);
      decoder_opt.Step();
    }
    decoder_seconds += NowSeconds() - epoch_start;
    ++decoder_epochs_run;
    const double val_metric =
        binary ? binary_auc(x_val, y_val) : [&] {
          Var val_logits = scores_of(x_val);
          std::vector<int> pred, actual;
          for (size_t i = 0; i < y_val.size(); ++i) {
            int best = 0;
            for (int c = 1; c < num_classes; ++c) {
              if (val_logits->value.at(static_cast<int64_t>(i), c) >
                  val_logits->value.at(static_cast<int64_t>(i), best)) {
                best = c;
              }
            }
            pred.push_back(best);
            actual.push_back(static_cast<int>(y_val[i]));
          }
          return Accuracy(pred, actual);
        }();
    const bool stop = monitor.Update(val_metric);
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

  // Test metrics.
  if (binary) {
    result.test_auc = binary_auc(x_test, y_test);
    Var logits = scores_of(x_test);
    std::vector<int> pred, actual;
    for (size_t i = 0; i < y_test.size(); ++i) {
      pred.push_back(logits->value.at(static_cast<int64_t>(i)) > 0.0f ? 1
                                                                      : 0);
      actual.push_back(static_cast<int>(y_test[i]));
    }
    result.accuracy = Accuracy(pred, actual);
    const WeightedPrf prf = WeightedPrecisionRecallF1(pred, actual, 2);
    result.precision_weighted = prf.precision;
    result.recall_weighted = prf.recall;
    result.f1_weighted = prf.f1;
  } else {
    Var logits = scores_of(x_test);
    std::vector<int> pred, actual;
    for (size_t i = 0; i < y_test.size(); ++i) {
      int best = 0;
      for (int c = 1; c < num_classes; ++c) {
        if (logits->value.at(static_cast<int64_t>(i), c) >
            logits->value.at(static_cast<int64_t>(i), best)) {
          best = c;
        }
      }
      pred.push_back(best);
      actual.push_back(static_cast<int>(y_test[i]));
    }
    result.accuracy = Accuracy(pred, actual);
    const WeightedPrf prf =
        WeightedPrecisionRecallF1(pred, actual, num_classes);
    result.precision_weighted = prf.precision;
    result.recall_weighted = prf.recall;
    result.f1_weighted = prf.f1;
    // One-vs-rest AUC of the positive (fraud) class for comparability.
    std::vector<double> scores;
    std::vector<int> lab;
    for (size_t i = 0; i < y_test.size(); ++i) {
      scores.push_back(logits->value.at(static_cast<int64_t>(i), 1));
      lab.push_back(y_test[i] == 1 ? 1 : 0);
    }
    result.test_auc = RocAuc(scores, lab);
  }

  EfficiencyStats& eff = result.efficiency;
  obs::PhaseTotals nc_phases;
  registry.DrainThisThread(&nc_phases);
  eff.phase_seconds = nc_phases.seconds;
  eff.epochs_run = decoder_epochs_run;
  eff.best_epoch = monitor.best_epoch();
  eff.converged = monitor.rounds_without_improvement() >= tc.patience;
  const int denom = pretrain + decoder_epochs_run;
  eff.seconds_per_epoch =
      denom > 0 ? (pretrain_seconds + decoder_seconds) / denom : 0.0;
  eff.max_rss_gb = MaxRssGb();
  eff.state_bytes = model->StateBytes();
  eff.parameter_bytes = model->ParameterBytes();
  if (pretrain_seconds > 0.0 && pretrain > 0) {
    eff.train_events_per_second =
        static_cast<double>(split.train_events.size()) /
        (pretrain_seconds / pretrain);
  }
  return result;
}

}  // namespace benchtemp::core
