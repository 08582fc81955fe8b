#include "robustness/sweep.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <utility>

#include "base/mutex.h"
#include "io/file.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "tensor/tensor.h"

namespace benchtemp::robustness {

namespace {

/// Splits one manifest line on '|'; the last field may contain anything
/// except a newline (failure reasons), so only the first `max_fields - 1`
/// separators split.
std::vector<std::string> SplitFields(const std::string& line,
                                     size_t max_fields) {
  std::vector<std::string> fields;
  size_t pos = 0;
  while (fields.size() + 1 < max_fields) {
    const size_t bar = line.find('|', pos);
    if (bar == std::string::npos) break;
    fields.push_back(line.substr(pos, bar - pos));
    pos = bar + 1;
  }
  fields.push_back(line.substr(pos));
  return fields;
}

std::string FormatRecord(const std::string& key,
                         const core::LeaderboardRecord& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "rec|%s|%s|%s|%s|%s|%s|%.17g|%.17g|%s\n",
                key.c_str(), r.model.c_str(), r.dataset.c_str(),
                r.task.c_str(), r.setting.c_str(), r.metric.c_str(), r.mean,
                r.std, r.annotation.c_str());
  return buf;
}

}  // namespace

SweepManifest::SweepManifest(std::string path) : path_(std::move(path)) {}

bool SweepManifest::Load() {
  completed_.clear();
  std::ifstream in(path_);
  if (!in) return true;  // missing manifest == fresh sweep
  // rec lines accumulate per key; a done line seals the key iff the count
  // matches. Torn tails (no trailing newline, short fields) are dropped.
  std::unordered_map<std::string, std::vector<core::LeaderboardRecord>>
      pending;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("rec|", 0) == 0) {
      const std::vector<std::string> f = SplitFields(line, 10);
      if (f.size() != 10) continue;
      core::LeaderboardRecord r;
      r.model = f[2];
      r.dataset = f[3];
      r.task = f[4];
      r.setting = f[5];
      r.metric = f[6];
      char* end = nullptr;
      r.mean = std::strtod(f[7].c_str(), &end);
      if (end == f[7].c_str()) continue;
      r.std = std::strtod(f[8].c_str(), &end);
      if (end == f[8].c_str()) continue;
      r.annotation = f[9];
      pending[f[1]].push_back(std::move(r));
    } else if (line.rfind("done|", 0) == 0) {
      const std::vector<std::string> f = SplitFields(line, 5);
      if (f.size() != 5) continue;
      const std::string& key = f[1];
      char* end = nullptr;
      const long count = std::strtol(f[2].c_str(), &end, 10);
      if (end == f[2].c_str()) continue;
      auto it = pending.find(key);
      const size_t have = it == pending.end() ? 0 : it->second.size();
      if (have != static_cast<size_t>(count)) continue;  // torn job: rerun
      SweepJobResult result;
      result.key = key;
      result.failed = f[3] == "1";
      result.failure_reason = f[4];
      if (it != pending.end()) {
        result.records = std::move(it->second);
        pending.erase(it);
      }
      completed_[key] = std::move(result);
    }
    // Unknown line types are ignored (forward compatibility).
  }
  return true;
}

const SweepJobResult* SweepManifest::Find(const std::string& key) const {
  auto it = completed_.find(key);
  return it == completed_.end() ? nullptr : &it->second;
}

bool SweepManifest::Commit(const SweepJobResult& result) {
  std::string lines;
  for (const core::LeaderboardRecord& r : result.records) {
    lines += FormatRecord(result.key, r);
  }
  char done[512];
  std::snprintf(done, sizeof(done), "done|%s|%zu|%d|%s\n",
                result.key.c_str(), result.records.size(),
                result.failed ? 1 : 0, result.failure_reason.c_str());
  lines += done;
  // Transient failures (an injected eio_manifest, a blip of a networked
  // filesystem) retry on the fixed schedule; a partially appended block is
  // tolerated because Load() discards any key whose rec count disagrees
  // with its done line — the job merely reruns.
  const bool committed = io::RunWithRetry([&] {
    io::File out;
    if (!out.OpenAppend(path_, io::FileKind::kManifest)) return false;
    if (!out.Write(lines)) {
      (void)out.Close();
      return false;
    }
    if (!out.Sync()) {
      (void)out.Close();
      return false;
    }
    return out.Close();
  });
  if (!committed) return false;
  completed_[result.key] = result;
  return true;
}

SweepReport RunSweep(const std::vector<SweepJob>& jobs,
                     const SweepOptions& options, core::Leaderboard* board) {
  tensor::CheckOrDie(board != nullptr, "RunSweep: null leaderboard");
  SweepManifest manifest(options.manifest_path);
  const bool stateful = !options.manifest_path.empty();
  if (stateful) manifest.Load();

  SweepReport report;
  std::vector<SweepJobResult> results(jobs.size());
  std::vector<uint8_t> replayed(jobs.size(), 0);
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (!stateful) continue;
    const SweepJobResult* done = manifest.Find(jobs[i].key);
    if (done != nullptr) {
      results[i] = *done;
      replayed[i] = 1;
    }
  }

  base::Mutex manifest_mutex;
  auto run_one = [&](size_t i) {
    const SweepJob& job = jobs[i];
    SweepJobResult result;
    result.key = job.key;
    const double deadline =
        options.job_deadline_seconds > 0.0
            ? obs::NowSeconds() + options.job_deadline_seconds
            : 0.0;
    // Crash isolation: one model blowing up degrades to FAILED rows while
    // the rest of the sweep continues.
    try {
      result.records = job.run(deadline);
    } catch (const std::exception& e) {
      result.failed = true;
      result.failure_reason = e.what();
    } catch (...) {
      result.failed = true;
      result.failure_reason = "unknown exception";
    }
    if (obs::DeadlinePassed(deadline)) {
      obs::MetricRegistry::Global().Add(obs::Counter::kWatchdogFires, 1);
    }
    if (result.failed) {
      for (const std::string& setting : job.settings) {
        for (const std::string& metric : job.metrics) {
          core::LeaderboardRecord r;
          r.model = job.model;
          r.dataset = job.dataset;
          r.task = job.task;
          r.setting = setting;
          r.metric = metric;
          r.annotation = "FAILED(" + result.failure_reason + ")";
          result.records.push_back(std::move(r));
        }
      }
    }
    if (stateful) {
      base::MutexLock lock(manifest_mutex);
      manifest.Commit(result);
    }
    results[i] = std::move(result);
  };

  runtime::ParallelFor(0, static_cast<int64_t>(jobs.size()), /*grain=*/1,
                       [&](int64_t lo, int64_t hi) {
                         for (int64_t i = lo; i < hi; ++i) {
                           if (!replayed[static_cast<size_t>(i)]) {
                             run_one(static_cast<size_t>(i));
                           }
                         }
                       });

  // Push in jobs order — not completion order — so the leaderboard CSV is
  // identical however the sweep was interleaved or interrupted.
  auto& registry = obs::MetricRegistry::Global();
  for (size_t i = 0; i < jobs.size(); ++i) {
    for (const core::LeaderboardRecord& r : results[i].records) {
      board->Add(r);
    }
    if (replayed[i]) {
      ++report.skipped;
      registry.Add(obs::Counter::kSweepJobsReplayed, 1);
    } else if (results[i].failed) {
      ++report.failed;
      ++report.ran;
      registry.Add(obs::Counter::kSweepJobsFailed, 1);
      registry.Add(obs::Counter::kSweepJobsRun, 1);
    } else {
      ++report.ran;
      registry.Add(obs::Counter::kSweepJobsRun, 1);
    }
  }
  return report;
}

}  // namespace benchtemp::robustness
