#include "core/leaderboard.h"

#include <algorithm>
#include <cstdio>

#include "tensor/numeric.h"

namespace benchtemp::core {

namespace {

std::string FormatCell(const LeaderboardRecord& r, const char* marker) {
  if (!r.annotation.empty()) return r.annotation;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%.4f±%.4f", marker, r.mean, r.std);
  return buf;
}

}  // namespace

void Leaderboard::Add(LeaderboardRecord record) {
  base::MutexLock lock(mutex_);
  records_.push_back(std::move(record));
}

std::string Leaderboard::ToCsvLocked() const {
  std::string out = "model,dataset,task,setting,metric,mean,std,annotation\n";
  for (const LeaderboardRecord& r : records_) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s,%s,%s,%s,%s,%.6f,%.6f,%s\n",
                  r.model.c_str(), r.dataset.c_str(), r.task.c_str(),
                  r.setting.c_str(), r.metric.c_str(), r.mean, r.std,
                  r.annotation.c_str());
    out += buf;
  }
  return out;
}

std::string Leaderboard::ToCsv() const {
  base::MutexLock lock(mutex_);
  return ToCsvLocked();
}

bool Leaderboard::WriteCsv(const std::string& path) const {
  base::MutexLock lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string csv = ToCsvLocked();
  const bool ok = std::fwrite(csv.data(), 1, csv.size(), f) == csv.size();
  return std::fclose(f) == 0 && ok;
}

std::vector<LeaderboardRecord> Leaderboard::SelectLocked(
    const std::string& dataset, const std::string& task,
    const std::string& setting, const std::string& metric) const {
  std::vector<LeaderboardRecord> out;
  for (const LeaderboardRecord& r : records_) {
    if (r.dataset == dataset && r.task == task && r.setting == setting &&
        r.metric == metric) {
      out.push_back(r);
    }
  }
  return out;
}

const LeaderboardRecord* Leaderboard::FindLocked(
    const std::string& model, const std::string& dataset,
    const std::string& task, const std::string& setting,
    const std::string& metric) const {
  for (const LeaderboardRecord& r : records_) {
    if (r.model == model && r.dataset == dataset && r.task == task &&
        r.setting == setting && r.metric == metric) {
      return &r;
    }
  }
  return nullptr;
}

int Leaderboard::RankLocked(const std::string& model,
                            const std::string& dataset,
                            const std::string& task,
                            const std::string& setting,
                            const std::string& metric) const {
  const LeaderboardRecord* mine =
      FindLocked(model, dataset, task, setting, metric);
  if (mine == nullptr || !mine->annotation.empty()) return 0;
  int rank = 1;
  for (const LeaderboardRecord& r :
       SelectLocked(dataset, task, setting, metric)) {
    if (r.annotation.empty() && r.mean > mine->mean) ++rank;
  }
  return rank;
}

int Leaderboard::Rank(const std::string& model, const std::string& dataset,
                      const std::string& task, const std::string& setting,
                      const std::string& metric) const {
  base::MutexLock lock(mutex_);
  return RankLocked(model, dataset, task, setting, metric);
}

double Leaderboard::AverageRank(const std::string& model,
                                const std::vector<std::string>& datasets,
                                const std::string& task,
                                const std::string& setting,
                                const std::string& metric) const {
  // One lock for the whole aggregation so every dataset's rank is computed
  // against the same snapshot of the records.
  base::MutexLock lock(mutex_);
  double total = 0.0;
  int counted = 0;
  for (const std::string& dataset : datasets) {
    const auto cell = SelectLocked(dataset, task, setting, metric);
    if (cell.empty()) continue;
    int rank = RankLocked(model, dataset, task, setting, metric);
    if (rank == 0) rank = static_cast<int>(cell.size());  // failed => worst
    total += rank;
    ++counted;
  }
  return counted > 0 ? total / counted : 0.0;
}

std::string Leaderboard::FormatTable(const std::vector<std::string>& models,
                                     const std::vector<std::string>& datasets,
                                     const std::string& task,
                                     const std::string& setting,
                                     const std::string& metric,
                                     double second_gap) const {
  // One lock for the whole render so the best/second markers and the cells
  // they decorate come from the same snapshot.
  base::MutexLock lock(mutex_);
  std::string out;
  out += "Dataset";
  for (const std::string& m : models) out += "\t" + m;
  out += "\n";
  for (const std::string& dataset : datasets) {
    // Identify best and second-best means among non-failed cells.
    double best = -1e30, second = -1e30;
    for (const std::string& m : models) {
      const LeaderboardRecord* r =
          FindLocked(m, dataset, task, setting, metric);
      if (r == nullptr || !r->annotation.empty()) continue;
      if (r->mean > best) {
        second = best;
        best = r->mean;
      } else if (r->mean > second) {
        second = r->mean;
      }
    }
    out += dataset;
    for (const std::string& m : models) {
      const LeaderboardRecord* r =
          FindLocked(m, dataset, task, setting, metric);
      out += "\t";
      if (r == nullptr) {
        out += "-";
        continue;
      }
      const char* marker = "";
      if (r->annotation.empty()) {
        // Means have been through averaging arithmetic; exact equality
        // would drop a deserved bold/underline to rounding noise.
        if (tensor::ApproxEqual(r->mean, best)) {
          marker = "**";
        } else if (tensor::ApproxEqual(r->mean, second) &&
                   best - second <= second_gap) {
          marker = "_";
        }
      }
      out += FormatCell(*r, marker);
    }
    out += "\n";
  }
  return out;
}

std::string Leaderboard::ToMarkdown() const {
  base::MutexLock lock(mutex_);
  std::string out =
      "| Model | Dataset | Task | Setting | Metric | Mean | Std | Note |\n"
      "|---|---|---|---|---|---|---|---|\n";
  for (const LeaderboardRecord& r : records_) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "| %s | %s | %s | %s | %s | %.4f | %.4f | %s |\n",
                  r.model.c_str(), r.dataset.c_str(), r.task.c_str(),
                  r.setting.c_str(), r.metric.c_str(), r.mean, r.std,
                  r.annotation.c_str());
    out += buf;
  }
  return out;
}

}  // namespace benchtemp::core
