#ifndef BENCHTEMP_TENSOR_SERIALIZE_H_
#define BENCHTEMP_TENSOR_SERIALIZE_H_

#include <string>
#include <vector>

#include "tensor/autograd.h"

namespace benchtemp::tensor {

/// A parameter set (e.g. `model->Parameters()`) as an opaque in-memory
/// blob: the robustness layer embeds it in job checkpoints and keeps it as
/// a rollback target or the best-epoch weights.
///
/// Format: magic "BTCP", uint64 parameter count, then per parameter a
/// uint64 rank, uint64 dims, and the float32 payload. Restoring requires
/// the destination parameters to already have the same shapes (the model
/// is constructed first, then restored), which catches architecture drift.
///
/// Note: this covers *parameters* only. The temporal state (memory tables,
/// caches) is intentionally excluded — it is replayable from the event
/// stream, and the pipeline rebuilds it via state replay.
std::string SnapshotParameters(const std::vector<Var>& params);

/// Restores parameter values in order. Returns false on count mismatch, any
/// shape mismatch, or a corrupt or truncated blob (in which case no
/// parameter is modified).
bool RestoreParameters(const std::string& blob, const std::vector<Var>& params);

}  // namespace benchtemp::tensor

#endif  // BENCHTEMP_TENSOR_SERIALIZE_H_
