#include "obs/export.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace benchtemp::obs {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// Shortest round-trip double rendering; locale-independent for the values
/// we emit (no thousands separators at %.17g, '.' decimal point asserted by
/// the repo's C-locale contract).
std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Num(int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return buf;
}

void AppendRunJson(const RunRecord& run, std::string* out) {
  *out += "    {\"model\": \"" + JsonEscape(run.model) + "\"";
  *out += ", \"dataset\": \"" + JsonEscape(run.dataset) + "\"";
  *out += ", \"task\": \"" + JsonEscape(run.task) + "\"";
  *out += ", \"epochs_run\": " + Num(static_cast<int64_t>(run.epochs_run));
  *out += ", \"nan_retries\": " + Num(static_cast<int64_t>(run.nan_retries));
  *out += ", \"seconds_per_epoch\": " + Num(run.seconds_per_epoch);
  *out += ", \"retried_epoch_seconds\": " + Num(run.retried_epoch_seconds);
  *out += ", \"train_events_per_second\": " +
          Num(run.train_events_per_second);
  *out += ", \"eval_events_per_second\": " +
          Num(run.eval_events_per_second);
  *out += ", \"state_bytes\": " + Num(run.state_bytes);
  *out += ", \"parameter_bytes\": " + Num(run.parameter_bytes);
  *out += ", \"checkpoint_bytes\": " + Num(run.checkpoint_bytes);
  *out += ", \"phase_seconds\": {";
  for (int p = 0; p < kNumPhases; ++p) {
    if (p > 0) *out += ", ";
    *out += "\"" + std::string(PhaseName(static_cast<Phase>(p))) + "\": " +
            Num(run.phase_seconds[static_cast<size_t>(p)]);
  }
  *out += "}}";
}

bool WriteFile(const std::string& path, const std::string& payload) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace

std::string ExportJson(const ExportInfo& info) {
  MetricRegistry& registry = MetricRegistry::Global();
  const PhaseTotals phases = registry.phase_totals();

  std::string out = "{\n";
  out += "  \"schema\": \"benchtemp.metrics\",\n";
  out += "  \"schema_version\": " +
         Num(static_cast<int64_t>(kMetricsSchemaVersion)) + ",\n";
  out += "  \"bench\": \"" + JsonEscape(info.bench) + "\",\n";
  out += std::string("  \"metrics_enabled\": ") +
         (MetricRegistry::Enabled() ? "true" : "false") + ",\n";
  out += "  \"wall_seconds\": " + Num(info.wall_seconds) + ",\n";
  out += "  \"max_rss_gb\": " + Num(info.max_rss_gb) + ",\n";

  out += "  \"counters\": {";
  for (int c = 0; c < kNumCounters; ++c) {
    out += (c == 0 ? "\n" : ",\n");
    out += "    \"" + std::string(CounterName(static_cast<Counter>(c))) +
           "\": " + Num(registry.value(static_cast<Counter>(c)));
  }
  out += "\n  },\n";

  out += "  \"gauges\": {";
  const auto gauges = registry.gauges();
  for (size_t g = 0; g < gauges.size(); ++g) {
    out += (g == 0 ? "\n" : ",\n");
    out += "    \"" + JsonEscape(gauges[g].first) + "\": " +
           Num(gauges[g].second);
  }
  out += gauges.empty() ? "},\n" : "\n  },\n";

  out += "  \"phases\": [\n";
  for (int p = 0; p < kNumPhases; ++p) {
    const size_t i = static_cast<size_t>(p);
    out += "    {\"phase\": \"" +
           std::string(PhaseName(static_cast<Phase>(p))) +
           "\", \"seconds\": " + Num(phases.seconds[i]) +
           ", \"count\": " + Num(phases.count[i]) + "}";
    out += (p + 1 < kNumPhases ? ",\n" : "\n");
  }
  out += "  ],\n";

  out += "  \"runs\": [";
  const std::vector<RunRecord> runs = registry.runs();
  for (size_t r = 0; r < runs.size(); ++r) {
    out += (r == 0 ? "\n" : ",\n");
    AppendRunJson(runs[r], &out);
  }
  out += runs.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

bool EmitBenchArtifacts(const std::string& name, double wall_seconds,
                        double max_rss_gb) {
  ExportInfo info;
  info.bench = name;
  info.wall_seconds = wall_seconds;
  info.max_rss_gb = max_rss_gb;

  const char* dir = std::getenv("BENCHTEMP_BENCH_DIR");
  std::string artifact_path =
      (dir != nullptr && dir[0] != '\0') ? std::string(dir) + "/" : "";
  artifact_path += "BENCH_" + name + ".json";
  return WriteFile(artifact_path, ExportJson(info));
}

}  // namespace benchtemp::obs
