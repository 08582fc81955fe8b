// btchaos — seeded kill/corruption chaos harness for the sweep runner.
//
// Proves the end-to-end durability contract of DESIGN.md "Failure model
// v2": a sweep that is killed mid-checkpoint, torn mid-write, or bit
// flipped on disk resumes to a leaderboard CSV byte-identical to a
// fault-free run.
//
// Protocol: one fault-free baseline run, then K iterations of
//   {run with an injected fault -> SIGKILL-style death -> btfsck --verify
//    -> resume -> byte-compare the CSV against the baseline}.
// Iteration i rotates through three fault modes (kill, torn write, byte
// flip) with every injection point and corruption seed derived from
// SplitMix64(seed, i), so a failing iteration replays exactly.
//
//   btchaos --bench <bench_table3_lp_auc> --btfsck <btfsck>
//           --workdir <dir> --iterations K --seed S
//           [--dataset UCI] [--model JODIE] [--epochs 5]
//
// Exit 0 only when every iteration resumed byte-identically, btfsck
// detected every injected corruption, and at least one resume recovered
// through generation fallback (robustness.ckpt_fallbacks > 0). Exit 2,
// before any run, on bad usage or an --epochs too small for the latest
// kill probe the planned iterations inject.
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "io/file.h"
#include "tensor/random.h"

namespace {

namespace fs = std::filesystem;

struct Options {
  std::string bench;
  std::string btfsck;
  std::string workdir;
  int iterations = 8;
  uint64_t seed = 1;
  std::string dataset = "UCI";
  std::string model = "JODIE";
  int epochs = 5;
};

/// Exit code of a /bin/sh command, or -1 when it died on a signal.
int RunShell(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  if (status == -1) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -1;
}

std::string Quoted(const std::string& s) { return "'" + s + "'"; }

/// Environment prefix shared by every bench invocation of one iteration.
std::string BenchEnv(const Options& opt, const std::string& dir) {
  std::string env;
  env += "BENCHTEMP_QUICK=1 ";
  env += "BENCHTEMP_EPOCHS=" + std::to_string(opt.epochs) + " ";
  env += "BENCHTEMP_DATASETS=" + Quoted(opt.dataset) + " ";
  env += "BENCHTEMP_MODELS=" + Quoted(opt.model) + " ";
  env += "BENCHTEMP_MANIFEST=" + Quoted(dir + "/sweep.manifest") + " ";
  env += "BENCHTEMP_CSV_OUT=" + Quoted(dir + "/sweep.csv") + " ";
  env += "BENCHTEMP_BENCH_DIR=" + Quoted(dir) + " ";
  return env;
}

bool ReadAll(const std::string& path, std::string* out) {
  return benchtemp::io::ReadFileBytes(path, out);
}

/// Contents of the BENCH_*.json artifact the bench wrote into `dir`
/// (BENCHTEMP_BENCH_DIR); false when there is none. Only the resumed run
/// exits normally, so it is the one artifact an iteration leaves.
bool ReadBenchArtifact(const std::string& dir, std::string* out) {
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("BENCH_") && name.ends_with(".json")) {
      return ReadAll(entry.path().string(), out);
    }
  }
  return false;
}

/// The faults of iteration `i`, derived from SplitMix64(seed, i).
struct IterationPlan {
  uint64_t stream;  // the corruption seed
  int mode;         // 0 = kill, 1 = torn write, 2 = byte flip
  uint64_t corrupt_epoch;
  uint64_t kill_probe;
};

IterationPlan PlanIteration(uint64_t seed, int i) {
  const uint64_t stream = benchtemp::tensor::SplitMix64(seed, i);
  const int mode = i % 3;
  // Checkpoint commit probe indices: each epoch save advances
  // crash_checkpoint by 2 (generation rename, then lineage-manifest
  // rename) and the corruption sites by 1 (generation commit only).
  const uint64_t corrupt_epoch = 1 + stream % 2;      // epoch 1 or 2
  const uint64_t kill_probe =
      mode == 0 ? 4 + stream % 2                       // epoch 2's commits
                : 2 * (corrupt_epoch + 1);             // next epoch's commit
  return {stream, mode, corrupt_epoch, kill_probe};
}

/// Counter value out of a metrics JSON export; -1 when absent.
long long CounterFromJson(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtoll(json.c_str() + pos + needle.size(), nullptr, 10);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--bench") {
      opt.bench = value;
    } else if (flag == "--btfsck") {
      opt.btfsck = value;
    } else if (flag == "--workdir") {
      opt.workdir = value;
    } else if (flag == "--iterations") {
      opt.iterations = std::atoi(value.c_str());
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--dataset") {
      opt.dataset = value;
    } else if (flag == "--model") {
      opt.model = value;
    } else if (flag == "--epochs") {
      opt.epochs = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "btchaos: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (opt.bench.empty() || opt.btfsck.empty() || opt.workdir.empty() ||
      opt.iterations < 1) {
    std::fprintf(stderr,
                 "usage: btchaos --bench <bin> --btfsck <bin> --workdir <dir> "
                 "--iterations K --seed S [--dataset D] [--model M] "
                 "[--epochs E]\n");
    return 2;
  }

  // Epoch e commits crash_checkpoint probes 2e and 2e + 1, so a kill
  // probe p fires only in a job of at least p / 2 + 1 epochs; with fewer
  // the job would end first and its iteration would look like a failed
  // resume.
  uint64_t max_probe = 0;
  for (int i = 0; i < opt.iterations; ++i) {
    max_probe = std::max(max_probe, PlanIteration(opt.seed, i).kill_probe);
  }
  const int min_epochs = static_cast<int>(max_probe / 2 + 1);
  if (opt.epochs < min_epochs) {
    std::fprintf(stderr,
                 "btchaos: --epochs %d ends the job before kill probe %llu; "
                 "these iterations need --epochs %d or more\n",
                 opt.epochs, static_cast<unsigned long long>(max_probe),
                 min_epochs);
    return 2;
  }

  std::error_code ec;
  fs::remove_all(opt.workdir, ec);
  fs::create_directories(opt.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "btchaos: cannot create %s\n", opt.workdir.c_str());
    return 2;
  }

  // Fault-free baseline: the byte-exact reference every resumed run must
  // reproduce.
  const std::string baseline_dir = opt.workdir + "/baseline";
  fs::create_directories(baseline_dir, ec);
  const std::string baseline_cmd = BenchEnv(opt, baseline_dir) +
                                   Quoted(opt.bench) + " > " +
                                   Quoted(baseline_dir + "/log.txt") + " 2>&1";
  if (RunShell(baseline_cmd) != 0) {
    std::fprintf(stderr, "btchaos: baseline run failed (%s/log.txt)\n",
                 baseline_dir.c_str());
    return 1;
  }
  std::string baseline_csv;
  if (!ReadAll(baseline_dir + "/sweep.csv", &baseline_csv)) {
    std::fprintf(stderr, "btchaos: baseline produced no CSV\n");
    return 1;
  }

  int failures = 0;
  long long total_fallbacks = 0;
  int corruptions_injected = 0;
  int corruptions_detected = 0;
  for (int i = 0; i < opt.iterations; ++i) {
    const auto [stream, mode, corrupt_epoch, kill_probe] =
        PlanIteration(opt.seed, i);
    std::string faults;
    if (mode == 1) {
      faults = "torn_checkpoint@" + std::to_string(corrupt_epoch) + ":1:0:" +
               std::to_string(stream) + ";";
    } else if (mode == 2) {
      faults = "bitflip_checkpoint@" + std::to_string(corrupt_epoch) +
               ":1:0:" + std::to_string(stream) + ";";
    }
    faults += "crash_checkpoint@" + std::to_string(kill_probe) + "!kill";

    const std::string dir = opt.workdir + "/iter" + std::to_string(i);
    fs::create_directories(dir, ec);
    const std::string env = BenchEnv(opt, dir);
    std::printf("iter %d: mode=%s faults=%s\n", i,
                mode == 0   ? "kill"
                : mode == 1 ? "torn"
                            : "bitflip",
                faults.c_str());
    std::fflush(stdout);

    const std::string faulted_cmd =
        env + "BENCHTEMP_FAULTS=" + Quoted(faults) + " " + Quoted(opt.bench) +
        " > " + Quoted(dir + "/faulted.log") + " 2>&1";
    const int faulted_rc = RunShell(faulted_cmd);
    if (faulted_rc != 137) {
      std::printf("iter %d: FAIL — expected SIGKILL-style exit 137, got %d\n",
                  i, faulted_rc);
      ++failures;
      continue;
    }

    // Offline verification must flag exactly the iterations that injected
    // silent corruption (pure kills leave a consistent-if-untidy tree).
    const int fsck_rc =
        RunShell(Quoted(opt.btfsck) + " --verify " + Quoted(dir) + " > " +
                 Quoted(dir + "/fsck.txt") + " 2>&1");
    if (mode != 0) {
      ++corruptions_injected;
      if (fsck_rc != 0) {
        ++corruptions_detected;
      } else {
        std::printf("iter %d: FAIL — btfsck missed injected corruption\n", i);
        ++failures;
        continue;
      }
    } else if (fsck_rc != 0) {
      std::printf("iter %d: FAIL — btfsck flagged a clean kill\n", i);
      ++failures;
      continue;
    }

    const std::string resumed_cmd =
        env + "BENCHTEMP_METRICS=1 " + Quoted(opt.bench) + " > " +
        Quoted(dir + "/resumed.log") + " 2>&1";
    if (RunShell(resumed_cmd) != 0) {
      std::printf("iter %d: FAIL — resume run failed (%s/resumed.log)\n", i,
                  dir.c_str());
      ++failures;
      continue;
    }

    std::string resumed_csv;
    if (!ReadAll(dir + "/sweep.csv", &resumed_csv) ||
        resumed_csv != baseline_csv) {
      std::printf("iter %d: FAIL — resumed CSV differs from baseline\n", i);
      ++failures;
      continue;
    }

    std::string metrics;
    long long fallbacks = 0;
    if (ReadBenchArtifact(dir, &metrics)) {
      fallbacks = CounterFromJson(metrics, "robustness.ckpt_fallbacks");
      if (fallbacks > 0) total_fallbacks += fallbacks;
    }
    if (mode != 0 && fallbacks <= 0) {
      std::printf(
          "iter %d: FAIL — corruption injected but no generation fallback\n",
          i);
      ++failures;
      continue;
    }
    std::printf("iter %d: OK (fallbacks=%lld)\n", i, fallbacks);
  }

  std::printf(
      "chaos: %d/%d iterations ok, %d/%d corruptions detected by btfsck, "
      "%lld generation fallbacks\n",
      opt.iterations - failures, opt.iterations, corruptions_detected,
      corruptions_injected, total_fallbacks);
  if (failures > 0) return 1;
  if (corruptions_injected != corruptions_detected) return 1;
  if (opt.iterations >= 2 && total_fallbacks == 0) {
    std::printf("chaos: FAIL — no iteration recovered via fallback\n");
    return 1;
  }
  return 0;
}
