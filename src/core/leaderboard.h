#ifndef BENCHTEMP_CORE_LEADERBOARD_H_
#define BENCHTEMP_CORE_LEADERBOARD_H_

#include <string>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"

namespace benchtemp::core {

/// One leaderboard entry: a (model, dataset, task, setting, metric) cell
/// with the run statistics the paper reports (mean ± std).
struct LeaderboardRecord {
  std::string model;
  std::string dataset;
  std::string task;     // "link_prediction" / "node_classification"
  std::string setting;  // "Transductive", "Inductive", ...
  std::string metric;   // "AUC", "AP", ...
  double mean = 0.0;
  double std = 0.0;
  /// Set when the job failed: "*" runtime error, "-" timeout, "x" did not
  /// converge (the paper's Table 3/4 annotations).
  std::string annotation;
};

/// The pipeline's Leaderboard module: collects run results, ranks models,
/// and renders paper-style tables.
///
/// Every member takes an internal mutex so concurrent bench workers (the
/// runtime pool's per-model dispatch) can record results without
/// interleaving rows, and queries racing a late worker read a consistent
/// snapshot. The one exception is records(), which hands out an unguarded
/// reference for zero-copy iteration and is only valid after the parallel
/// phase has joined.
class Leaderboard {
 public:
  void Add(LeaderboardRecord record);

  /// Borrowed view of the rows. Unsynchronized by design — callers iterate
  /// zero-copy after the parallel phase has joined, when no writer exists;
  /// taking the mutex here could not protect the returned reference anyway.
  const std::vector<LeaderboardRecord>& records() const
      NO_THREAD_SAFETY_ANALYSIS {
    return records_;
  }

  /// Writes every record as one CSV row (with a header) to `path`,
  /// truncating any previous contents. Returns false when the file cannot
  /// be opened. Serialized by the same mutex as Add(), so a sweep worker
  /// snapshotting mid-run cannot tear a row.
  bool WriteCsv(const std::string& path) const;

  /// CSV rendering of the current records (header + one line per record).
  std::string ToCsv() const;

  /// Rank of `model` (1 = best mean) within a cell group; 0 when missing or
  /// annotated as failed.
  int Rank(const std::string& model, const std::string& dataset,
           const std::string& task, const std::string& setting,
           const std::string& metric) const;

  /// Average rank of a model across the given datasets (the Table 17
  /// "Average Rank" aggregation). Failed cells count as worst rank.
  double AverageRank(const std::string& model,
                     const std::vector<std::string>& datasets,
                     const std::string& task, const std::string& setting,
                     const std::string& metric) const;

  /// Paper-style table: one row per dataset, one column per model, with the
  /// best cell marked "**" and the second-best "_" (the bold-red /
  /// underlined-blue highlighting). Second best is not marked when it
  /// trails the best by more than `second_gap` (the paper uses 0.05).
  std::string FormatTable(const std::vector<std::string>& models,
                          const std::vector<std::string>& datasets,
                          const std::string& task, const std::string& setting,
                          const std::string& metric,
                          double second_gap = 0.05) const;

  /// Markdown export of every record (the public leaderboard artifact).
  std::string ToMarkdown() const;

 private:
  /// Guards records_ mutations, queries, and file writes against concurrent
  /// workers.
  mutable base::Mutex mutex_;
  std::vector<LeaderboardRecord> records_ GUARDED_BY(mutex_);

  std::string ToCsvLocked() const REQUIRES(mutex_);
  /// Records matching a (dataset, task, setting, metric) cell group.
  std::vector<LeaderboardRecord> SelectLocked(const std::string& dataset,
                                              const std::string& task,
                                              const std::string& setting,
                                              const std::string& metric) const
      REQUIRES(mutex_);
  int RankLocked(const std::string& model, const std::string& dataset,
                 const std::string& task, const std::string& setting,
                 const std::string& metric) const REQUIRES(mutex_);
  const LeaderboardRecord* FindLocked(const std::string& model,
                                      const std::string& dataset,
                                      const std::string& task,
                                      const std::string& setting,
                                      const std::string& metric) const
      REQUIRES(mutex_);
};

}  // namespace benchtemp::core

#endif  // BENCHTEMP_CORE_LEADERBOARD_H_
