#include "obs/export.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace benchtemp::obs {

namespace {

// ---------------------------------------------------------------------------
// Writers.
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Minimal JSON parser (validation only; numbers kept as doubles).
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    SkipSpace();
    if (!ParseValue(out)) return false;
    SkipSpace();
    if (pos_ != text_.size()) return Fail("trailing bytes after document");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool Fail(const std::string& why) {
    if (error_.empty()) {
      error_ = why + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseLiteral(const char* word, JsonValue* out, JsonValue::Kind kind,
                    bool boolean) {
    const size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) {
      return Fail("invalid literal");
    }
    pos_ += len;
    out->kind = kind;
    out->boolean = boolean;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
            *out += '"';
            break;
          case '\\':
            *out += '\\';
            break;
          case '/':
            *out += '/';
            break;
          case 'n':
            *out += '\n';
            break;
          case 't':
            *out += '\t';
            break;
          case 'r':
            *out += '\r';
            break;
          case 'b':
          case 'f':
            *out += ' ';
            break;
          case 'u':
            // Validation does not need codepoint decoding; skip 4 digits.
            if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
            pos_ += 4;
            *out += '?';
            break;
          default:
            return Fail("unknown escape");
        }
      } else {
        *out += c;
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected number");
    const std::string chunk = text_.substr(start, pos_ - start);
    char* end = nullptr;
    out->number = std::strtod(chunk.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("malformed number");
    out->kind = JsonValue::Kind::kNumber;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of document");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (c == 't') return ParseLiteral("true", out, JsonValue::Kind::kBool,
                                      true);
    if (c == 'f') return ParseLiteral("false", out, JsonValue::Kind::kBool,
                                      false);
    if (c == 'n') return ParseLiteral("null", out, JsonValue::Kind::kNull,
                                      false);
    return ParseNumber(out);
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    Consume('{');
    SkipSpace();
    if (Consume('}')) return true;
    for (;;) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (!Consume(':')) return Fail("expected ':'");
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return true;
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    Consume('[');
    SkipSpace();
    if (Consume(']')) return true;
    for (;;) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return true;
      return Fail("expected ',' or ']'");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
};

bool SchemaFail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

bool RequireNumber(const JsonValue& obj, const char* key,
                   std::string* error) {
  const JsonValue* field = obj.Find(key);
  if (field == nullptr || field->kind != JsonValue::Kind::kNumber) {
    return SchemaFail(error,
                      std::string("missing or non-numeric field '") + key +
                          "'");
  }
  return true;
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

bool ValidateMetricsJson(const std::string& json, std::string* error) {
  JsonValue root;
  JsonParser parser(json);
  if (!parser.Parse(&root)) {
    return SchemaFail(error, "not valid JSON: " + parser.error());
  }
  if (root.kind != JsonValue::Kind::kObject) {
    return SchemaFail(error, "top-level value is not an object");
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::kString ||
      schema->str != "benchtemp.metrics") {
    return SchemaFail(error, "missing schema tag 'benchtemp.metrics'");
  }
  const JsonValue* version = root.Find("schema_version");
  if (version == nullptr || version->kind != JsonValue::Kind::kNumber ||
      static_cast<int>(version->number) != kMetricsSchemaVersion) {
    return SchemaFail(error, "schema_version mismatch (expected " +
                                 std::to_string(kMetricsSchemaVersion) + ")");
  }
  if (!RequireNumber(root, "wall_seconds", error)) return false;
  if (!RequireNumber(root, "max_rss_gb", error)) return false;

  const JsonValue* counters = root.Find("counters");
  if (counters == nullptr || counters->kind != JsonValue::Kind::kObject) {
    return SchemaFail(error, "missing 'counters' object");
  }
  for (const auto& [name, value] : counters->object) {
    if (value.kind != JsonValue::Kind::kNumber) {
      return SchemaFail(error, "counter '" + name + "' is not a number");
    }
  }
  const JsonValue* gauges = root.Find("gauges");
  if (gauges == nullptr || gauges->kind != JsonValue::Kind::kObject) {
    return SchemaFail(error, "missing 'gauges' object");
  }

  const JsonValue* phases = root.Find("phases");
  if (phases == nullptr || phases->kind != JsonValue::Kind::kArray ||
      phases->array.size() != static_cast<size_t>(kNumPhases)) {
    return SchemaFail(error, "'phases' must list all " +
                                 std::to_string(kNumPhases) + " phases");
  }
  for (int p = 0; p < kNumPhases; ++p) {
    const JsonValue& entry = phases->array[static_cast<size_t>(p)];
    if (entry.kind != JsonValue::Kind::kObject) {
      return SchemaFail(error, "phase entry is not an object");
    }
    const JsonValue* name = entry.Find("phase");
    if (name == nullptr || name->kind != JsonValue::Kind::kString ||
        name->str != PhaseName(static_cast<Phase>(p))) {
      return SchemaFail(error,
                        std::string("phase ") + std::to_string(p) +
                            " must be '" +
                            PhaseName(static_cast<Phase>(p)) + "'");
    }
    if (!RequireNumber(entry, "seconds", error)) return false;
    if (!RequireNumber(entry, "count", error)) return false;
  }

  const JsonValue* runs = root.Find("runs");
  if (runs == nullptr || runs->kind != JsonValue::Kind::kArray) {
    return SchemaFail(error, "missing 'runs' array");
  }
  for (const JsonValue& run : runs->array) {
    if (run.kind != JsonValue::Kind::kObject) {
      return SchemaFail(error, "run entry is not an object");
    }
    const JsonValue* model = run.Find("model");
    if (model == nullptr || model->kind != JsonValue::Kind::kString) {
      return SchemaFail(error, "run entry lacks a string 'model'");
    }
    for (const char* field :
         {"epochs_run", "nan_retries", "seconds_per_epoch",
          "retried_epoch_seconds", "train_events_per_second", "state_bytes",
          "parameter_bytes", "checkpoint_bytes"}) {
      if (!RequireNumber(run, field, error)) return false;
    }
    const JsonValue* phase_seconds = run.Find("phase_seconds");
    if (phase_seconds == nullptr ||
        phase_seconds->kind != JsonValue::Kind::kObject) {
      return SchemaFail(error, "run entry lacks a 'phase_seconds' object");
    }
  }
  return true;
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
  bool ok = WriteFile(artifact_path, ExportJson(info));

  const char* metrics = std::getenv("BENCHTEMP_METRICS");
  if (metrics != nullptr && metrics[0] != '\0') {
    const std::string path = metrics;
    if (path != "1" && path != "on") {
      ok = WriteFile(path, ExportJson(info)) && ok;
    }
  }
  return ok;
}

}  // namespace benchtemp::obs
