#ifndef BENCHTEMP_ROBUSTNESS_SWEEP_H_
#define BENCHTEMP_ROBUSTNESS_SWEEP_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/leaderboard.h"

namespace benchtemp::robustness {

/// Outcome of one sweep job as recorded in the manifest.
struct SweepJobResult {
  std::string key;
  bool failed = false;
  std::string failure_reason;
  std::vector<core::LeaderboardRecord> records;
};

/// Append-only on-disk journal of completed sweep jobs, so an interrupted
/// multi-model × multi-dataset sweep restarts exactly where it died.
///
/// Line format (text, '|'-separated):
///   rec|<key>|model|dataset|task|setting|metric|mean|std|annotation
///   done|<key>|<num records>|<failed 0/1>|<failure reason>
///
/// A job counts as completed only when its `done` line is present and the
/// preceding `rec` lines for the key match the recorded count — a SIGKILL
/// mid-append leaves a torn tail that Load() discards, and the job simply
/// reruns. Records round-trip bit-exactly (%.17g), so a resumed sweep's
/// leaderboard CSV is identical to an uninterrupted run's.
class SweepManifest {
 public:
  explicit SweepManifest(std::string path);

  /// Parses the manifest. A missing file is an empty manifest (returns
  /// true); torn or malformed tail lines are ignored.
  bool Load();

  /// Completed result for `key`; nullptr when not completed.
  const SweepJobResult* Find(const std::string& key) const;

  /// Appends one completed job (its rec lines, then the done marker) and
  /// flushes. Returns false on I/O failure.
  bool Commit(const SweepJobResult& result);

 private:
  std::string path_;
  std::unordered_map<std::string, SweepJobResult> completed_;
};

/// One job of a sweep: a deterministic callable producing the leaderboard
/// records of a (model, dataset) cell, plus enough metadata to synthesize
/// FAILED rows when the callable crashes.
struct SweepJob {
  /// Unique stable key, e.g. "Wikipedia/TGN".
  std::string key;
  std::string model;
  std::string dataset;
  std::string task = "link_prediction";
  /// Row skeleton for synthesized FAILED records.
  std::vector<std::string> settings;
  std::vector<std::string> metrics;
  /// Runs the job. `deadline` is the job's absolute deadline on the
  /// obs::NowSeconds() clock (0 = none); the job should check it and wind
  /// down with an "x" annotation once it passes. Thrown exceptions are
  /// caught at the job boundary and degrade to FAILED rows.
  std::function<std::vector<core::LeaderboardRecord>(double deadline)> run;
};

struct SweepOptions {
  /// Per-job time limit in seconds, counted from the job's start; 0 = none.
  double job_deadline_seconds = 0.0;
  /// Manifest path; "" runs the sweep stateless (no resume).
  std::string manifest_path;
};

struct SweepReport {
  int ran = 0;
  int skipped = 0;   // completed in a previous run, replayed from manifest
  int failed = 0;    // crashed jobs degraded to FAILED rows
};

/// Runs `jobs` concurrently on the runtime pool with crash isolation,
/// per-job deadlines, and manifest-based checkpoint/resume, pushing every
/// job's records to `board` in `jobs` order, so the output is
/// deterministic. A job that throws yields one FAILED(reason) record per
/// (setting, metric); a job whose deadline passes is expected to
/// self-annotate "x" and is counted in watchdog.fires. The sweep always
/// continues past individual failures.
SweepReport RunSweep(const std::vector<SweepJob>& jobs,
                     const SweepOptions& options, core::Leaderboard* board);

}  // namespace benchtemp::robustness

#endif  // BENCHTEMP_ROBUSTNESS_SWEEP_H_
