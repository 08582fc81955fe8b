#include "core/edge_sampler.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

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

/// The one pool draw: entry value(UniformInt(size)), redrawn while
/// `rejects` refuses it, at most kMaxRejects times; each refused draw is
/// counted as a collision. Returns false when the budget ran dry, leaving
/// the last (refused) draw in `*draw`.
template <typename Value, typename Rejects>
bool DrawAvoiding(tensor::Rng& rng, int64_t size, const Value& value,
                  const Rejects& rejects, int32_t* draw) {
  int64_t rejected = 0;
  for (int attempt = 0; attempt <= kMaxRejects; ++attempt) {
    *draw = value(rng.UniformInt(size));
    if (!rejects(*draw)) break;
    ++rejected;
  }
  CountCollisions(rejected);
  return rejected <= kMaxRejects;
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
// EdgeSampler and its three pools.
// ---------------------------------------------------------------------------

EdgeSampler::EdgeSampler(int32_t dst_lo, int32_t dst_hi)
    : dst_lo_(dst_lo), dst_hi_(dst_hi) {
  tensor::CheckOrDie(dst_hi > dst_lo, "EdgeSampler: empty range");
}

std::vector<int32_t> EdgeSampler::SampleNegativesKeyed(
    uint64_t stream_seed, const std::vector<int32_t>& srcs,
    const std::vector<int32_t>& positive_dsts) const {
  tensor::CheckOrDie(srcs.size() == positive_dsts.size(),
                     "SampleNegativesKeyed: srcs/dsts size mismatch");
  obs::MetricRegistry::Global().Add(obs::Counter::kSamplerNegatives,
                                    static_cast<int64_t>(srcs.size()));
  const auto uniform = [this](int64_t j) {
    return dst_lo_ + tensor::NarrowId(j, "EdgeSampler: dst id");
  };
  tensor::Rng rng(stream_seed);
  std::vector<int32_t> out(srcs.size());
  for (size_t i = 0; i < srcs.size(); ++i) {
    const int32_t positive = positive_dsts[i];
    const auto collides = [positive](int32_t v) { return v == positive; };
    const std::vector<int32_t>* pool = Pool(srcs[i]);
    if (pool != nullptr) {
      const auto entry = [pool](int64_t j) {
        return (*pool)[static_cast<size_t>(j)];
      };
      if (!pool->empty() &&
          DrawAvoiding(rng, static_cast<int64_t>(pool->size()), entry,
                       collides, &out[i])) {
        continue;
      }
      CountPoolFallback(1);
    }
    // A single-destination range has no distinct negative: the last draw
    // (the positive itself) stands, so the stream stays total.
    DrawAvoiding(rng, static_cast<int64_t>(dst_hi_) - dst_lo_, uniform,
                 collides, &out[i]);
  }
  return out;
}

RandomEdgeSampler::RandomEdgeSampler(int32_t dst_lo, int32_t dst_hi,
                                     uint64_t seed)
    : EdgeSampler(dst_lo, dst_hi), rng_(seed) {}

HistoricalEdgeSampler::HistoricalEdgeSampler(
    const graph::TemporalGraph& graph,
    const std::vector<int64_t>& train_events, int32_t dst_lo, int32_t dst_hi)
    : EdgeSampler(dst_lo, dst_hi) {
  history_.resize(static_cast<size_t>(graph.num_nodes()));
  for (int64_t i : train_events) {
    const graph::Interaction& e = graph.event(i);
    history_[static_cast<size_t>(e.src)].push_back(e.dst);
  }
}

InductiveEdgeSampler::InductiveEdgeSampler(
    const graph::TemporalGraph& graph,
    const std::vector<int64_t>& train_events, int32_t dst_lo, int32_t dst_hi)
    : EdgeSampler(dst_lo, dst_hi) {
  std::unordered_set<int64_t> train_pairs;
  for (int64_t i : train_events) {
    const graph::Interaction& e = graph.event(i);
    train_pairs.insert(static_cast<int64_t>(e.src) * graph.num_nodes() +
                       e.dst);
  }
  for (int64_t i = 0; i < graph.num_events(); ++i) {
    const graph::Interaction& e = graph.event(i);
    const int64_t key =
        static_cast<int64_t>(e.src) * graph.num_nodes() + e.dst;
    if (train_pairs.count(key) == 0) unseen_dsts_.push_back(e.dst);
  }
  std::sort(unseen_dsts_.begin(), unseen_dsts_.end());
  unseen_dsts_.erase(std::unique(unseen_dsts_.begin(), unseen_dsts_.end()),
                     unseen_dsts_.end());
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

  // One slot: the pool draw over `size` entries (entry j is value(j)),
  // then, if the rejection budget runs dry, a deterministic circular scan
  // from a keyed offset, so the set is always complete and still a pure
  // function of the row seed. Callers guarantee a free entry exists, so
  // the scan always lands.
  const auto fill = [&](int64_t size, const auto& value) {
    int32_t draw = 0;
    if (!DrawAvoiding(rng, size, value, taken, &draw)) {
      const int64_t start = rng.UniformInt(size);
      for (int64_t step = 0; step < size; ++step) {
        draw = value((start + step) % size);
        if (!taken(draw)) break;
      }
    }
    out.push_back(draw);
  };

  // Historical share: without-replacement draws from the source's sorted
  // unique train history, excluding the positive.
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
  // Each slot takes one of the `pool` free entries counted above.
  for (int64_t h = 0; h < want_hist; ++h) {
    fill(static_cast<int64_t>(hist.size()),
         [&hist](int64_t j) { return hist[static_cast<size_t>(j)]; });
  }

  // Uniform remainder over [dst_lo, dst_hi). k <= range - 1 leaves a free
  // destination for every slot.
  while (static_cast<int>(out.size()) < k_) {
    fill(range, [this](int64_t j) {
      return dst_lo_ + tensor::NarrowId(j, "CandidateSampler: dst id");
    });
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
