#include "models/cawn.h"

namespace benchtemp::models {

Cawn::Cawn(const graph::TemporalGraph* graph, ModelConfig config)
    : WalkModel(graph, config) {
  sampler_ = std::make_unique<graph::TemporalWalkSampler>(
      config_.walk_bias, /*alpha=*/1.0 / graph_->MeanEventGap());
}

}  // namespace benchtemp::models
