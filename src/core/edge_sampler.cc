#include "core/edge_sampler.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "tensor/numeric.h"

namespace benchtemp::core {

namespace {

/// Bounded rejection budget per draw: enough that a collision-free draw is
/// all but certain for any non-degenerate pool, small enough that the
/// worst case stays O(1) and deterministic.
constexpr int kMaxRejects = 8;

void CountCollisions(int64_t rejected) {
  if (rejected > 0) {
    obs::MetricRegistry::Global().Add(obs::Counter::kSamplerCollisionsRejected,
                                      rejected);
  }
}

void CountPoolFallback(int64_t count) {
  if (count > 0) {
    obs::MetricRegistry::Global().Add(obs::Counter::kSamplerPoolFallbacks,
                                      count);
  }
}

/// Uniform draw over [dst_lo, dst_hi) avoiding `positive_dst` via bounded
/// rejection. A single-destination range has no distinct negative; the last
/// draw (the positive itself) is returned so the stream stays total.
int32_t DrawUniformAvoiding(tensor::Rng& rng, int32_t dst_lo, int32_t dst_hi,
                            int32_t positive_dst) {
  int32_t draw = 0;
  int64_t rejected = 0;
  for (int attempt = 0; attempt <= kMaxRejects; ++attempt) {
    draw = dst_lo + tensor::NarrowId(
                        rng.UniformInt(static_cast<int64_t>(dst_hi) - dst_lo),
                        "EdgeSampler: dst id");
    if (draw != positive_dst) break;
    ++rejected;
  }
  CountCollisions(rejected);
  return draw;
}

}  // namespace

const char* NegativeSamplingName(NegativeSampling mode) {
  switch (mode) {
    case NegativeSampling::kRandom:
      return "Random";
    case NegativeSampling::kHistorical:
      return "Historical";
    case NegativeSampling::kInductive:
      return "Inductive";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// RandomEdgeSampler.
// ---------------------------------------------------------------------------

RandomEdgeSampler::RandomEdgeSampler(int32_t dst_lo, int32_t dst_hi,
                                     uint64_t seed)
    : dst_lo_(dst_lo), dst_hi_(dst_hi), rng_(seed) {
  tensor::CheckOrDie(dst_hi > dst_lo, "RandomEdgeSampler: empty range");
}

std::vector<int32_t> RandomEdgeSampler::SampleNegativesKeyed(
    uint64_t stream_seed, const std::vector<int32_t>& srcs,
    const std::vector<int32_t>& positive_dsts) const {
  tensor::CheckOrDie(srcs.size() == positive_dsts.size(),
                     "SampleNegativesKeyed: srcs/dsts size mismatch");
  obs::MetricRegistry::Global().Add(obs::Counter::kSamplerNegatives,
                                    static_cast<int64_t>(srcs.size()));
  tensor::Rng rng(stream_seed);
  std::vector<int32_t> out;
  out.reserve(srcs.size());
  for (size_t i = 0; i < srcs.size(); ++i) {
    out.push_back(
        DrawUniformAvoiding(rng, dst_lo_, dst_hi_, positive_dsts[i]));
  }
  return out;
}

// ---------------------------------------------------------------------------
// HistoricalEdgeSampler.
// ---------------------------------------------------------------------------

HistoricalEdgeSampler::HistoricalEdgeSampler(
    const graph::TemporalGraph& graph,
    const std::vector<int64_t>& train_events, int32_t dst_lo, int32_t dst_hi)
    : dst_lo_(dst_lo), dst_hi_(dst_hi) {
  tensor::CheckOrDie(dst_hi > dst_lo, "HistoricalEdgeSampler: empty range");
  history_.resize(static_cast<size_t>(graph.num_nodes()));
  for (int64_t i : train_events) {
    const graph::Interaction& e = graph.event(i);
    history_[static_cast<size_t>(e.src)].push_back(e.dst);
  }
}

int32_t HistoricalEdgeSampler::DrawOne(tensor::Rng& rng, int32_t src,
                                       int32_t positive_dst) const {
  const auto& hist = history_[static_cast<size_t>(src)];
  if (!hist.empty()) {
    int64_t rejected = 0;
    for (int attempt = 0; attempt <= kMaxRejects; ++attempt) {
      const int32_t draw = hist[static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(hist.size())))];
      if (draw != positive_dst) {
        CountCollisions(rejected);
        return draw;
      }
      ++rejected;
    }
    CountCollisions(rejected);
    // The source's whole history collided with the positive (or the
    // rejection budget ran dry) — fall through to the counted uniform
    // fallback rather than returning the positive as its own "negative".
  }
  CountPoolFallback(1);
  return DrawUniformAvoiding(rng, dst_lo_, dst_hi_, positive_dst);
}

std::vector<int32_t> HistoricalEdgeSampler::SampleNegativesKeyed(
    uint64_t stream_seed, const std::vector<int32_t>& srcs,
    const std::vector<int32_t>& positive_dsts) const {
  tensor::CheckOrDie(srcs.size() == positive_dsts.size(),
                     "SampleNegativesKeyed: srcs/dsts size mismatch");
  obs::MetricRegistry::Global().Add(obs::Counter::kSamplerNegatives,
                                    static_cast<int64_t>(srcs.size()));
  tensor::Rng rng(stream_seed);
  std::vector<int32_t> out;
  out.reserve(srcs.size());
  for (size_t i = 0; i < srcs.size(); ++i) {
    out.push_back(DrawOne(rng, srcs[i], positive_dsts[i]));
  }
  return out;
}

// ---------------------------------------------------------------------------
// InductiveEdgeSampler.
// ---------------------------------------------------------------------------

InductiveEdgeSampler::InductiveEdgeSampler(
    const graph::TemporalGraph& graph,
    const std::vector<int64_t>& train_events, int32_t dst_lo, int32_t dst_hi)
    : dst_lo_(dst_lo), dst_hi_(dst_hi) {
  tensor::CheckOrDie(dst_hi > dst_lo, "InductiveEdgeSampler: empty range");
  std::unordered_set<int64_t> train_pairs;
  for (int64_t i : train_events) {
    const graph::Interaction& e = graph.event(i);
    train_pairs.insert(static_cast<int64_t>(e.src) * graph.num_nodes() +
                       e.dst);
  }
  std::unordered_set<int32_t> dsts;
  for (int64_t i = 0; i < graph.num_events(); ++i) {
    const graph::Interaction& e = graph.event(i);
    const int64_t key =
        static_cast<int64_t>(e.src) * graph.num_nodes() + e.dst;
    if (train_pairs.count(key) == 0) dsts.insert(e.dst);
  }
  // btlint: allow(unordered-drain) — drained once, then sorted below.
  unseen_dsts_.assign(dsts.begin(), dsts.end());
  std::sort(unseen_dsts_.begin(), unseen_dsts_.end());
}

int32_t InductiveEdgeSampler::DrawOne(tensor::Rng& rng,
                                      int32_t positive_dst) const {
  // An empty unseen pool (fully-covered train split) must not reach
  // UniformInt(0): fall back to a uniform draw over the range, counted.
  if (!unseen_dsts_.empty()) {
    int64_t rejected = 0;
    for (int attempt = 0; attempt <= kMaxRejects; ++attempt) {
      const int32_t draw = unseen_dsts_[static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(unseen_dsts_.size())))];
      if (draw != positive_dst) {
        CountCollisions(rejected);
        return draw;
      }
      ++rejected;
    }
    CountCollisions(rejected);
  }
  CountPoolFallback(1);
  return DrawUniformAvoiding(rng, dst_lo_, dst_hi_, positive_dst);
}

std::vector<int32_t> InductiveEdgeSampler::SampleNegativesKeyed(
    uint64_t stream_seed, const std::vector<int32_t>& srcs,
    const std::vector<int32_t>& positive_dsts) const {
  tensor::CheckOrDie(srcs.size() == positive_dsts.size(),
                     "SampleNegativesKeyed: srcs/dsts size mismatch");
  obs::MetricRegistry::Global().Add(obs::Counter::kSamplerNegatives,
                                    static_cast<int64_t>(srcs.size()));
  tensor::Rng rng(stream_seed);
  std::vector<int32_t> out;
  out.reserve(srcs.size());
  for (size_t i = 0; i < srcs.size(); ++i) {
    out.push_back(DrawOne(rng, positive_dsts[i]));
  }
  return out;
}

std::unique_ptr<EdgeSampler> MakeEdgeSampler(
    NegativeSampling mode, const graph::TemporalGraph& graph,
    const std::vector<int64_t>& train_events, int32_t dst_lo, int32_t dst_hi,
    uint64_t seed) {
  switch (mode) {
    case NegativeSampling::kRandom:
      return std::make_unique<RandomEdgeSampler>(dst_lo, dst_hi, seed);
    case NegativeSampling::kHistorical:
      return std::make_unique<HistoricalEdgeSampler>(graph, train_events,
                                                     dst_lo, dst_hi);
    case NegativeSampling::kInductive:
      return std::make_unique<InductiveEdgeSampler>(graph, train_events,
                                                    dst_lo, dst_hi);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// CandidateSampler.
// ---------------------------------------------------------------------------

CandidateSampler::CandidateSampler(const graph::TemporalGraph& graph,
                                   const std::vector<int64_t>& train_events,
                                   int32_t dst_lo, int32_t dst_hi,
                                   CandidateConfig config)
    : dst_lo_(dst_lo), dst_hi_(dst_hi) {
  tensor::CheckOrDie(dst_hi > dst_lo, "CandidateSampler: empty range");
  const int64_t range = static_cast<int64_t>(dst_hi) - dst_lo;
  tensor::CheckOrDie(range >= 2,
                     "CandidateSampler: need >= 2 destinations to rank");
  tensor::CheckOrDie(config.k >= 1, "CandidateSampler: k must be >= 1");
  // Clamp so a set of k distinct non-positive destinations always exists.
  k_ = static_cast<int>(std::min<int64_t>(config.k, range - 1));
  historical_fraction_ =
      std::min(1.0, std::max(0.0, config.historical_fraction));
  history_.resize(static_cast<size_t>(graph.num_nodes()));
  for (int64_t i : train_events) {
    const graph::Interaction& e = graph.event(i);
    history_[static_cast<size_t>(e.src)].push_back(e.dst);
  }
  for (std::vector<int32_t>& hist : history_) {
    std::sort(hist.begin(), hist.end());
    hist.erase(std::unique(hist.begin(), hist.end()), hist.end());
  }
}

std::vector<int32_t> CandidateSampler::SampleCandidates(
    uint64_t row_seed, int32_t src, int32_t positive_dst) const {
  tensor::Rng rng(row_seed);
  const int64_t range = static_cast<int64_t>(dst_hi_) - dst_lo_;
  std::vector<int32_t> out;
  out.reserve(static_cast<size_t>(k_));
  // k is tiny (tens), so a linear membership scan beats a hash set.
  auto taken = [&](int32_t v) {
    return v == positive_dst ||
           std::find(out.begin(), out.end(), v) != out.end();
  };

  // Historical share: without-replacement draws from the source's sorted
  // unique train history, excluding the positive. Bounded rejection keeps
  // the draw O(1); exhausting the budget degrades to a deterministic
  // circular scan from a keyed offset, so the set is always complete and
  // still a pure function of the row seed.
  const std::vector<int32_t>& hist = history_[static_cast<size_t>(src)];
  int64_t pool = static_cast<int64_t>(hist.size());
  if (std::binary_search(hist.begin(), hist.end(), positive_dst)) --pool;
  int64_t want_hist = static_cast<int64_t>(
      std::llround(historical_fraction_ * static_cast<double>(k_)));
  want_hist = std::min<int64_t>(want_hist, k_);
  if (want_hist > pool) {
    // Thin history: the shortfall is filled by the uniform share below.
    CountPoolFallback(want_hist - pool);
    want_hist = pool;
  }
  for (int64_t h = 0; h < want_hist; ++h) {
    int64_t rejected = 0;
    bool placed = false;
    for (int attempt = 0; attempt <= kMaxRejects; ++attempt) {
      const int32_t draw = hist[static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(hist.size())))];
      if (!taken(draw)) {
        out.push_back(draw);
        placed = true;
        break;
      }
      ++rejected;
    }
    CountCollisions(rejected);
    if (!placed) {
      const size_t start = static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(hist.size())));
      for (size_t step = 0; step < hist.size(); ++step) {
        const int32_t v = hist[(start + step) % hist.size()];
        if (!taken(v)) {
          out.push_back(v);
          break;
        }
      }
      // `pool` free entries were verified above, so the scan always lands.
    }
  }

  // Uniform remainder over [dst_lo, dst_hi). k <= range - 1 guarantees a
  // free destination exists for every slot, so the fallback scan is total.
  while (static_cast<int>(out.size()) < k_) {
    int64_t rejected = 0;
    bool placed = false;
    for (int attempt = 0; attempt <= kMaxRejects; ++attempt) {
      const int32_t draw =
          dst_lo_ + tensor::NarrowId(rng.UniformInt(range),
                                     "CandidateSampler: dst id");
      if (!taken(draw)) {
        out.push_back(draw);
        placed = true;
        break;
      }
      ++rejected;
    }
    CountCollisions(rejected);
    if (!placed) {
      const int64_t start = rng.UniformInt(range);
      for (int64_t step = 0; step < range; ++step) {
        const int32_t v =
            dst_lo_ + tensor::NarrowId((start + step) % range,
                                       "CandidateSampler: dst id");
        if (!taken(v)) {
          out.push_back(v);
          break;
        }
      }
    }
  }
  return out;
}

std::vector<int32_t> CandidateSampler::SampleCandidateBatch(
    uint64_t stream_seed, const std::vector<int32_t>& srcs,
    const std::vector<int32_t>& positive_dsts) const {
  tensor::CheckOrDie(srcs.size() == positive_dsts.size(),
                     "SampleCandidateBatch: srcs/dsts size mismatch");
  obs::MetricRegistry::Global().Add(
      obs::Counter::kSamplerNegatives,
      static_cast<int64_t>(srcs.size()) * k_);
  std::vector<int32_t> out;
  out.reserve(srcs.size() * static_cast<size_t>(k_));
  for (size_t i = 0; i < srcs.size(); ++i) {
    const std::vector<int32_t> row =
        SampleCandidates(tensor::SplitMix64(stream_seed, i), srcs[i],
                         positive_dsts[i]);
    out.insert(out.end(), row.begin(), row.end());
  }
  return out;
}

}  // namespace benchtemp::core
