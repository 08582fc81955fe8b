#include "datagen/csv.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "io/file.h"
#include "obs/metrics.h"
#include "tensor/numeric.h"

namespace benchtemp::datagen {

bool SaveCsv(const graph::TemporalGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t edge_dim = graph.edge_feature_dim();
  out << "src,dst,ts,label";
  for (int64_t c = 0; c < edge_dim; ++c) out << ",f" << c;
  out << "\n";
  for (int64_t i = 0; i < graph.num_events(); ++i) {
    const graph::Interaction& e = graph.event(i);
    out << e.src << "," << e.dst << "," << e.ts << "," << e.label;
    for (int64_t c = 0; c < edge_dim; ++c) {
      out << "," << graph.edge_features().at(e.edge_idx, c);
    }
    out << "\n";
  }
  return static_cast<bool>(out);
}

namespace {

/// Whole-field integer parse; no exceptions, no partial matches.
bool ParseInt(const std::string& field, long* out) {
  if (field.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(field.c_str(), &end, 10);
  if (errno != 0 || end != field.c_str() + field.size()) return false;
  *out = value;
  return true;
}

/// Whole-field floating-point parse; accepts only finite values.
bool ParseFinite(const std::string& field, double* out) {
  if (field.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(field.c_str(), &end);
  if (end != field.c_str() + field.size() || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

bool Fail(CsvError* error, int64_t line, const std::string& message) {
  if (error != nullptr) {
    error->line = line;
    error->message = message;
  }
  return false;
}

/// One syntactically valid data row.
struct ParsedRow {
  long src = 0;
  long dst = 0;
  long label = 0;
  double ts = 0.0;
  std::vector<float> features;
};

/// Splits on ',' and validates one data row against the header's column
/// count. Returns "" on success, else the rejection reason.
std::string ParseRow(const std::string& line, int64_t edge_dim,
                     ParsedRow* row) {
  std::stringstream cells(line);
  std::string field;
  std::vector<std::string> fields;
  while (std::getline(cells, field, ',')) fields.push_back(field);
  if (static_cast<int64_t>(fields.size()) != 4 + edge_dim) {
    return "wrong column count";
  }
  if (!ParseInt(fields[0], &row->src) || !ParseInt(fields[1], &row->dst)) {
    return "malformed node id";
  }
  if (row->src < 0 || row->dst < 0) {
    return "negative node id";
  }
  if (!ParseFinite(fields[2], &row->ts)) {
    return "malformed or non-finite timestamp";
  }
  if (!ParseInt(fields[3], &row->label)) {
    return "malformed label";
  }
  row->features.clear();
  for (int64_t c = 0; c < edge_dim; ++c) {
    double feature = 0.0;
    if (!ParseFinite(fields[static_cast<size_t>(4 + c)], &feature)) {
      return "malformed or non-finite feature";
    }
    row->features.push_back(static_cast<float>(feature));
  }
  return "";
}

/// Header line -> feature column count. Returns "" on success.
std::string ParseHeader(const std::string& line, int64_t* edge_dim) {
  std::stringstream header(line);
  std::string field;
  int64_t columns = 0;
  while (std::getline(header, field, ',')) ++columns;
  if (columns < 4) return "header needs at least src,dst,ts,label";
  *edge_dim = columns - 4;
  return "";
}

/// Stream-invariant check of `row` against the previously accepted row.
/// Returns "" when the row is acceptable.
std::string StreamViolation(const CsvOptions& options, const ParsedRow& row,
                            bool have_prev, const ParsedRow& prev) {
  if (options.reject_self_loops && row.src == row.dst) {
    return "self-loop edge";
  }
  if (have_prev) {
    if (options.reject_unsorted && row.ts < prev.ts) {
      return "out-of-order timestamp";
    }
    // Duplicate means the exact same (src, dst, ts) triple as parsed from
    // the file, so bitwise timestamp equality is the right test here.
    if (options.reject_duplicates && row.src == prev.src &&
        row.dst == prev.dst && tensor::ExactlyEqual(row.ts, prev.ts)) {
      return "duplicate edge";
    }
  }
  return "";
}

bool FailLoad(LoadError* error, const std::string& file, int64_t line,
              const std::string& reason) {
  if (error != nullptr) {
    error->file = file;
    error->line = line;
    error->reason = reason;
  }
  return false;
}

}  // namespace

bool LoadCsv(const std::string& path, graph::TemporalGraph* graph,
             CsvError* error) {
  std::ifstream in(path);
  if (!in) return Fail(error, 0, "cannot open " + path);
  std::string line;
  if (!std::getline(in, line)) return Fail(error, 0, "empty file");
  // Count feature columns from the header.
  int64_t edge_dim = 0;
  {
    const std::string reason = ParseHeader(line, &edge_dim);
    if (!reason.empty()) return Fail(error, 1, reason);
  }
  std::vector<float> feature_rows;
  int64_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    ParsedRow row;
    const std::string reason = ParseRow(line, edge_dim, &row);
    if (!reason.empty()) return Fail(error, line_no, reason);
    graph->AddInteraction(tensor::NarrowId(row.src, "csv: src node id"),
                          tensor::NarrowId(row.dst, "csv: dst node id"),
                          row.ts, static_cast<int32_t>(row.label));
    feature_rows.insert(feature_rows.end(), row.features.begin(),
                        row.features.end());
  }
  if (edge_dim > 0) {
    graph->SetEdgeFeatures(tensor::Tensor::FromVector(
        {graph->num_events(), edge_dim}, std::move(feature_rows)));
  }
  graph->SortByTime();
  return true;
}

bool LoadCsv(const std::string& path, graph::TemporalGraph* graph) {
  return LoadCsv(path, graph, nullptr);
}

std::string LoadError::str() const {
  if (line <= 0) return file + ": " + reason;
  return file + ":" + std::to_string(line) + ": " + reason;
}

bool LoadCsvStrict(const std::string& path, const CsvOptions& options,
                   graph::TemporalGraph* graph, LoadError* error) {
  std::string text;
  if (!io::ReadFileBytes(path, &text)) {
    return FailLoad(error, path, 0, "cannot open");
  }
  if (text.empty()) return FailLoad(error, path, 0, "empty file");
  const bool torn_tail = text.back() != '\n';

  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) return FailLoad(error, path, 0, "empty file");
  int64_t edge_dim = 0;
  {
    const std::string reason = ParseHeader(line, &edge_dim);
    if (!reason.empty()) return FailLoad(error, path, 1, reason);
  }
  if (torn_tail && options.reject_truncated) {
    // Count the lines up front so the diagnostic points at the torn row.
    int64_t last_line = 1;
    for (char c : text) {
      if (c == '\n') ++last_line;
    }
    return FailLoad(error, path, last_line,
                    "truncated file (no trailing newline)");
  }

  std::vector<float> feature_rows;
  ParsedRow prev;
  bool have_prev = false;
  int64_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    ParsedRow row;
    std::string reason = ParseRow(line, edge_dim, &row);
    if (reason.empty()) {
      reason = StreamViolation(options, row, have_prev, prev);
    }
    if (!reason.empty()) return FailLoad(error, path, line_no, reason);
    graph->AddInteraction(tensor::NarrowId(row.src, "csv: src node id"),
                          tensor::NarrowId(row.dst, "csv: dst node id"),
                          row.ts, static_cast<int32_t>(row.label));
    feature_rows.insert(feature_rows.end(), row.features.begin(),
                        row.features.end());
    prev = std::move(row);
    have_prev = true;
  }
  if (edge_dim > 0) {
    graph->SetEdgeFeatures(tensor::Tensor::FromVector(
        {graph->num_events(), edge_dim}, std::move(feature_rows)));
  }
  if (!options.reject_unsorted) graph->SortByTime();
  return true;
}

bool RepairCsv(const std::string& path, const CsvOptions& options,
               const std::string& cleaned_path,
               const std::string& quarantine_path, CsvRepairReport* report,
               LoadError* error) {
  std::string text;
  if (!io::ReadFileBytes(path, &text)) {
    return FailLoad(error, path, 0, "cannot open");
  }
  if (text.empty()) return FailLoad(error, path, 0, "empty file");
  const bool torn_tail = text.back() != '\n';
  int64_t last_line = 1;
  for (char c : text) {
    if (c == '\n') ++last_line;
  }

  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) return FailLoad(error, path, 0, "empty file");
  int64_t edge_dim = 0;
  {
    const std::string reason = ParseHeader(line, &edge_dim);
    if (!reason.empty()) return FailLoad(error, path, 1, reason);
  }

  CsvRepairReport result;
  std::string cleaned = line + "\n";
  std::string quarantine = "btquarantine|1\n";
  auto drop = [&](int64_t line_no, const std::string& reason,
                  const std::string& original) {
    result.quarantined.push_back(LoadError{path, line_no, reason});
    ++result.rows_quarantined;
    quarantine +=
        "q|" + std::to_string(line_no) + "|" + reason + "|" + original + "\n";
  };

  ParsedRow prev;
  bool have_prev = false;
  int64_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (torn_tail && options.reject_truncated && line_no == last_line) {
      // The torn final row may even parse (a float truncated mid-digits
      // still reads as a number) — it cannot be trusted either way.
      drop(line_no, "truncated row", line);
      continue;
    }
    ParsedRow row;
    std::string reason = ParseRow(line, edge_dim, &row);
    if (reason.empty()) {
      reason = StreamViolation(options, row, have_prev, prev);
    }
    if (!reason.empty()) {
      drop(line_no, reason, line);
      continue;
    }
    cleaned += line + "\n";
    ++result.rows_kept;
    prev = std::move(row);
    have_prev = true;
  }

  auto write_whole = [](const std::string& out_path,
                        const std::string& bytes) {
    io::File out;
    if (!out.OpenWrite(out_path)) return false;
    if (!out.Write(bytes) || !out.Sync()) {
      (void)out.Close();
      return false;
    }
    return out.Close();
  };
  if (!write_whole(cleaned_path, cleaned)) {
    return FailLoad(error, cleaned_path, 0, "cannot write cleaned copy");
  }
  if (!write_whole(quarantine_path, quarantine)) {
    return FailLoad(error, quarantine_path, 0,
                    "cannot write quarantine report");
  }
  obs::MetricRegistry::Global().Add(obs::Counter::kCsvQuarantined,
                                    result.rows_quarantined);
  if (report != nullptr) *report = std::move(result);
  return true;
}

}  // namespace benchtemp::datagen
