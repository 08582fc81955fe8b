#ifndef BENCHTEMP_OBS_EXPORT_H_
#define BENCHTEMP_OBS_EXPORT_H_

// The JSON exporter for the metrics registry (see DESIGN.md
// "Observability" for the schema). Two sinks share one schema:
//   - BENCH_<name>.json: emitted by every bench_* binary on exit (the
//     repo's perf-trajectory artifact; directory via BENCHTEMP_BENCH_DIR),
//   - BENCHTEMP_METRICS=<path>: a standalone JSON export. The special
//     values "1"/"on" enable collection without a standalone file.

#include <string>

namespace benchtemp::obs {

/// JSON schema version written by ExportJson and checked by
/// ValidateMetricsJson. Bump on any breaking schema change.
inline constexpr int kMetricsSchemaVersion = 1;

/// Run-level fields that do not live in the registry.
struct ExportInfo {
  /// Bench name ("table4_lp_efficiency", ...); may be empty.
  std::string bench;
  double wall_seconds = 0.0;
  double max_rss_gb = 0.0;
};

/// Renders the global registry as schema-versioned JSON (key order and
/// number formatting are fixed, so the deterministic sections are
/// byte-comparable across runs).
std::string ExportJson(const ExportInfo& info);

/// Validates that `json` is well-formed and matches the metrics schema:
/// schema tag, version, counters/gauges objects, the full ordered phase
/// taxonomy, and runs with the required fields. On failure returns false
/// and describes the first problem in `error` (may be null).
bool ValidateMetricsJson(const std::string& json, std::string* error);

/// Writes BENCH_<name>.json (always) plus, when BENCHTEMP_METRICS names a
/// path, the standalone JSON export. Returns false when any write
/// fails.
bool EmitBenchArtifacts(const std::string& name, double wall_seconds,
                        double max_rss_gb);

}  // namespace benchtemp::obs

#endif  // BENCHTEMP_OBS_EXPORT_H_
