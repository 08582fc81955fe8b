#ifndef BENCHTEMP_DATAGEN_CSV_H_
#define BENCHTEMP_DATAGEN_CSV_H_

#include <cstdint>
#include <string>

#include "graph/temporal_graph.h"

namespace benchtemp::datagen {

/// Writes the interaction stream as CSV: header `src,dst,ts,label` followed
/// by one row per event, plus edge feature columns `f0..f{d-1}` when the
/// graph has edge features. Timestamps are written with 17 significant
/// digits and features with 9, so LoadCsv reads back the exact doubles and
/// floats. Returns false on I/O failure.
bool SaveCsv(const graph::TemporalGraph& graph, const std::string& path);

/// Load diagnostic: which file, which 1-based line (0 for file-level
/// problems), and why it was rejected.
struct LoadError {
  std::string file;
  int64_t line = 0;
  std::string reason;

  /// "file:line: reason" (or "file: reason" for file-level problems).
  std::string str() const;
};

/// Loads an interaction stream produced by SaveCsv (or a user-supplied CSV
/// with the same header). The Dataset module of the pipeline accepts graphs
/// from this loader, mirroring BenchTemp's support for user-generated
/// benchmark datasets.
///
/// Rejected with the offending line: a header with fewer than 4 columns, a
/// row with the wrong column count, malformed or negative node ids,
/// malformed or non-finite timestamps, malformed labels, malformed or
/// non-finite features, and a final line with no trailing newline (the
/// signature of a truncated download). Out-of-order rows are re-sorted by
/// timestamp. Duplicate edges and self-loops are valid temporal-graph
/// events and load as-is. Returns false on the first problem; `error`
/// (may be null) receives it.
bool LoadCsv(const std::string& path, graph::TemporalGraph* graph,
             LoadError* error = nullptr);

}  // namespace benchtemp::datagen

#endif  // BENCHTEMP_DATAGEN_CSV_H_
