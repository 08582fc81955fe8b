#include "datagen/csv.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <vector>

#include "tensor/numeric.h"

namespace benchtemp::datagen {

bool SaveCsv(const graph::TemporalGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t edge_dim = graph.edge_feature_dim();
  out << "src,dst,ts,label";
  for (int64_t c = 0; c < edge_dim; ++c) out << ",f" << c;
  out << "\n";
  // 17 significant digits round-trip any double, 9 any float.
  out << std::setprecision(9);
  for (int64_t i = 0; i < graph.num_events(); ++i) {
    const graph::Interaction& e = graph.event(i);
    out << e.src << "," << e.dst << "," << std::setprecision(17) << e.ts
        << std::setprecision(9) << "," << e.label;
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

}  // namespace

std::string LoadError::str() const {
  if (line <= 0) return file + ": " + reason;
  return file + ":" + std::to_string(line) + ": " + reason;
}

bool LoadCsv(const std::string& path, graph::TemporalGraph* graph,
             LoadError* error) {
  auto fail = [&](int64_t line, const std::string& reason) {
    if (error != nullptr) *error = LoadError{path, line, reason};
    return false;
  };
  std::ifstream in(path);
  if (!in) return fail(0, "cannot open");
  std::string line;
  int64_t line_no = 0;
  int64_t edge_dim = 0;
  std::vector<float> feature_rows;
  while (std::getline(in, line)) {
    ++line_no;
    // getline sets eofbit only when the line it returned ended at EOF
    // rather than at '\n': a torn final line, the signature of a truncated
    // download. A number cut mid-digits still parses, so the row is
    // rejected without being read.
    if (in.eof()) return fail(line_no, "truncated file (no trailing newline)");
    if (line_no == 1) {
      const std::string reason = ParseHeader(line, &edge_dim);
      if (!reason.empty()) return fail(line_no, reason);
      continue;
    }
    if (line.empty()) continue;
    ParsedRow row;
    const std::string reason = ParseRow(line, edge_dim, &row);
    if (!reason.empty()) return fail(line_no, reason);
    graph->AddInteraction(tensor::NarrowId(row.src, "csv: src node id"),
                          tensor::NarrowId(row.dst, "csv: dst node id"),
                          row.ts, static_cast<int32_t>(row.label));
    feature_rows.insert(feature_rows.end(), row.features.begin(),
                        row.features.end());
  }
  if (line_no == 0) return fail(0, "empty file");
  if (edge_dim > 0) {
    graph->SetEdgeFeatures(tensor::Tensor::FromVector(
        {graph->num_events(), edge_dim}, std::move(feature_rows)));
  }
  graph->SortByTime();
  return true;
}

}  // namespace benchtemp::datagen
