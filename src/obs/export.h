#ifndef BENCHTEMP_OBS_EXPORT_H_
#define BENCHTEMP_OBS_EXPORT_H_

// The JSON exporter for the metrics registry (see DESIGN.md
// "Observability" for the schema). Every bench_* binary writes one
// artifact on exit, BENCH_<name>.json (directory via BENCHTEMP_BENCH_DIR);
// BENCHTEMP_METRICS=1 fills it with collected metrics. obs_test pins the
// exact bytes ExportJson renders for a fixed registry state, so a schema
// change is a deliberate test edit.

#include <string>

namespace benchtemp::obs {

/// JSON schema version written by ExportJson. Bump on any breaking schema
/// change.
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

/// Writes BENCH_<name>.json. Returns false when the write fails.
bool EmitBenchArtifacts(const std::string& name, double wall_seconds,
                        double max_rss_gb);

}  // namespace benchtemp::obs

#endif  // BENCHTEMP_OBS_EXPORT_H_
