// Tests for btlint (tools/btlint): each rule fires on its seeded fixture,
// suppressions silence exactly what they claim to, and the JSON output is
// byte-stable. Fixture sources live under tests/btlint_fixtures/ and mirror
// repo paths (src/..., src/tensor/...) so path-scoped rules apply; the
// fixture tree is excluded from normal `btlint` scans and linted only here.

#include "tools/btlint/rules.h"

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/btlint/project.h"

namespace {

using btlint::Finding;
using btlint::LintFile;
using btlint::LintProject;
using btlint::ParseLayerSpec;
using btlint::ProjectFile;

#ifndef BTLINT_FIXTURE_DIR
#error "BTLINT_FIXTURE_DIR must point at tests/btlint_fixtures"
#endif

/// Reads a fixture by its path relative to the fixture root. The same
/// relative path is fed to LintFile, so rules scoped to src/... see the
/// path shape they would in a real scan.
std::string ReadFixture(const std::string& rel) {
  const std::string full = std::string(BTLINT_FIXTURE_DIR) + "/" + rel;
  std::ifstream in(full, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << full;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<Finding> LintFixture(const std::string& rel) {
  return LintFile(rel, ReadFixture(rel));
}

std::multiset<std::string> RuleIds(const std::vector<Finding>& findings) {
  std::multiset<std::string> ids;
  for (const Finding& f : findings) ids.insert(f.rule);
  return ids;
}

TEST(BtlintCatalogTest, SixteenRulesWithUniqueIds) {
  const auto& rules = btlint::Rules();
  EXPECT_EQ(rules.size(), 16u);
  std::set<std::string> ids;
  for (const auto& r : rules) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate rule id " << r.id;
    EXPECT_FALSE(std::string(r.summary).empty());
  }
  // The cross-TU rules must be in the catalog so --list-rules documents
  // the full --project surface.
  for (const char* id : {"layering-violation", "include-cycle",
                         "orphan-header", "unused-include",
                         "unannotated-mutex"}) {
    EXPECT_EQ(ids.count(id), 1u) << "missing rule " << id;
  }
}

TEST(BtlintRuleTest, BannedRandomFires) {
  const auto ids = RuleIds(LintFixture("src/banned_random.cc"));
  // srand, time, rand, random_device.
  EXPECT_EQ(ids.count("banned-random"), 4u);
  EXPECT_EQ(ids.size(), 4u);
}

TEST(BtlintRuleTest, BannedRandomExemptsRngImplementation) {
  // The same source under the Rng implementation path is the one place
  // allowed to touch these primitives.
  const auto findings =
      LintFile("src/tensor/random.cc", ReadFixture("src/banned_random.cc"));
  EXPECT_EQ(RuleIds(findings).count("banned-random"), 0u);
}

TEST(BtlintRuleTest, AdhocParallelismFires) {
  const auto ids = RuleIds(LintFixture("src/adhoc_parallelism.cc"));
  // std::thread, std::async.
  EXPECT_EQ(ids.count("adhoc-parallelism"), 2u);
}

TEST(BtlintRuleTest, AdhocParallelismExemptsRuntimeAndTests) {
  const std::string source = ReadFixture("src/adhoc_parallelism.cc");
  EXPECT_TRUE(LintFile("src/runtime/pool_impl.cc", source).empty());
  EXPECT_TRUE(LintFile("tests/some_test.cc", source).empty());
}

TEST(BtlintRuleTest, AdhocTimingFires) {
  const auto ids = RuleIds(LintFixture("src/adhoc_timing.cc"));
  // steady_clock::now, high_resolution_clock::now, gettimeofday; the
  // duration construction in Sleepy() stays silent.
  EXPECT_EQ(ids.count("adhoc-timing"), 3u);
}

TEST(BtlintRuleTest, AdhocTimingExemptsOnlyObsAndTests) {
  const std::string source = ReadFixture("src/adhoc_timing.cc");
  EXPECT_EQ(RuleIds(LintFile("src/obs/metrics.cc", source))
                .count("adhoc-timing"),
            0u);
  // The robustness layer reads the clock through obs like everyone else.
  EXPECT_EQ(RuleIds(LintFile("src/robustness/sweep.cc", source))
                .count("adhoc-timing"),
            3u);
  EXPECT_EQ(RuleIds(LintFile("tests/timing_test.cc", source))
                .count("adhoc-timing"),
            0u);
}

TEST(BtlintRuleTest, ParallelFloatReduceFiresOnlyOnSharedAccumulator) {
  const auto findings = LintFixture("src/parallel_float_reduce.cc");
  const auto ids = RuleIds(findings);
  // `total` (declared outside the body) fires; the chunk-local `local`
  // accumulator must not.
  EXPECT_EQ(ids.count("parallel-float-reduce"), 1u);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("'total'"), std::string::npos);
}

TEST(BtlintRuleTest, UnorderedDrainFires) {
  const auto ids = RuleIds(LintFixture("src/unordered_drain.cc"));
  // Range-for over unordered_map + begin() walk of unordered_set.
  EXPECT_EQ(ids.count("unordered-drain"), 2u);
}

TEST(BtlintRuleTest, MutableStaticFiresOnGlobalsAndStaticLocals) {
  const auto findings = LintFixture("src/tensor/mutable_static.cc");
  // Namespace-scope g_call_count + function-local static hits; the
  // constexpr/const/thread_local declarations must not fire.
  EXPECT_EQ(RuleIds(findings).count("mutable-static"), 2u);
  EXPECT_EQ(findings.size(), 2u);
}

TEST(BtlintRuleTest, MutableStaticScopedToParallelCore) {
  // Identical source outside src/tensor|graph|runtime is not in scope.
  const auto findings = LintFile("src/core/mutable_static.cc",
                                 ReadFixture("src/tensor/mutable_static.cc"));
  EXPECT_EQ(RuleIds(findings).count("mutable-static"), 0u);
}

TEST(BtlintRuleTest, IdNarrowingFires) {
  const auto ids = RuleIds(LintFixture("src/id_narrowing.cc"));
  // static_cast<int32_t>(node_id) and static_cast<int32_t>(edge_idx).
  EXPECT_EQ(ids.count("id-narrowing"), 2u);
}

TEST(BtlintRuleTest, RawNewFiresButNotOnDeletedFunctions) {
  const auto ids = RuleIds(LintFixture("src/raw_new.cc"));
  // One new + one delete; `= delete` stays clean.
  EXPECT_EQ(ids.count("raw-new"), 2u);
  EXPECT_EQ(ids.size(), 2u);
}

TEST(BtlintRuleTest, MissingIncludeGuardFires) {
  const auto findings = LintFixture("src/missing_guard.h");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "missing-include-guard");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(BtlintRuleTest, IncludeGuardAcceptsBothStyles) {
  EXPECT_TRUE(LintFile("src/a.h",
                       "#ifndef A_H_\n#define A_H_\nint F();\n#endif\n")
                  .empty());
  EXPECT_TRUE(LintFile("src/b.h", "#pragma once\nint F();\n").empty());
}

TEST(BtlintRuleTest, HotLoopAtFires) {
  const auto findings = LintFixture("src/tensor/kernels/hot_loop_at.cc");
  // t.at( and u->at(; the raw-pointer loop stays silent.
  EXPECT_EQ(RuleIds(findings).count("hot-loop-at"), 2u);
  EXPECT_EQ(findings.size(), 2u);
}

TEST(BtlintRuleTest, HotLoopAtScopedToKernelDir) {
  // The identical source anywhere else in src/tensor is fine: Tensor::at()
  // remains the sanctioned accessor outside the kernel layer.
  const auto findings =
      LintFile("src/tensor/shape_utils.cc",
               ReadFixture("src/tensor/kernels/hot_loop_at.cc"));
  EXPECT_EQ(RuleIds(findings).count("hot-loop-at"), 0u);
}

TEST(BtlintRuleTest, UncheckedIoFires) {
  const auto findings = LintFixture("src/unchecked_io.cc");
  const auto ids = RuleIds(findings);
  // Statement-position fwrite, fclose, rename, fsync; the checked,
  // (void)-cast, member, and fs::-qualified uses in the fixture are clean.
  EXPECT_EQ(ids.count("unchecked-io"), 4u);
  EXPECT_EQ(ids.size(), 4u);
}

TEST(BtlintRuleTest, UncheckedIoExemptsIoLayerAndTests) {
  // src/io/file.* is the one place allowed to touch raw stdio, and test
  // code is out of scope entirely.
  const std::string source = ReadFixture("src/unchecked_io.cc");
  EXPECT_EQ(RuleIds(LintFile("src/io/file.cc", source)).count("unchecked-io"),
            0u);
  EXPECT_EQ(RuleIds(LintFile("tests/io_test.cc", source)).count("unchecked-io"),
            0u);
}

TEST(BtlintSuppressionTest, HotLoopAtAllowEscape) {
  EXPECT_TRUE(
      LintFixture("src/tensor/kernels/hot_loop_at_allowed.cc").empty());
}

TEST(BtlintSuppressionTest, PerLineAllowsSilenceEveryRule) {
  // suppressed.cc seeds one violation per rule, each with a targeted (or
  // wildcard) allow on the same or preceding line.
  EXPECT_TRUE(LintFixture("src/suppressed.cc").empty());
  EXPECT_TRUE(LintFixture("src/suppressed_guard.h").empty());
  EXPECT_TRUE(LintFixture("src/tensor/mutable_static_allowed.cc").empty());
}

TEST(BtlintSuppressionTest, AllowFileCoversOnlyTheNamedRule) {
  const auto ids = RuleIds(LintFixture("src/allow_file.cc"));
  EXPECT_EQ(ids.count("banned-random"), 0u);  // allow-file silences both uses
  EXPECT_EQ(ids.count("raw-new"), 1u);        // other rules still fire
  EXPECT_EQ(ids.size(), 1u);
}

TEST(BtlintSuppressionTest, AllowCoversOnlyItsLine) {
  const std::string source =
      "void F() {\n"
      "  int* a = new int(1);  // btlint: allow(raw-new)\n"
      "  int* b = new int(2);\n"
      "}\n";
  const auto findings = LintFile("src/f.cc", source);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(BtlintRuleTest, UnannotatedMutexFiresOnceAndSkipsAnnotated) {
  const auto findings = LintFixture("src/unannotated_mutex.cc");
  // UnannotatedRegistry fires at its mutex member; AnnotatedRegistry (one
  // GUARDED_BY member) stays silent.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unannotated-mutex");
  EXPECT_EQ(findings[0].line, 16);
}

TEST(BtlintRuleTest, UnannotatedMutexIgnoresMutexOnlyAndAtomicClasses) {
  // A lock wrapper with no plain data members is fine, and so is a class
  // whose other members are atomics (they need no lock).
  EXPECT_TRUE(LintFile("src/base/wrapper.h",
                       "#pragma once\n"
                       "#include <mutex>\n"
                       "class Wrapper {\n"
                       " private:\n"
                       "  std::mutex mutex_;\n"
                       "};\n")
                  .empty());
  EXPECT_TRUE(LintFile("src/base/counter.h",
                       "#pragma once\n"
                       "#include <atomic>\n"
                       "#include <mutex>\n"
                       "class Counter {\n"
                       " private:\n"
                       "  std::mutex mutex_;\n"
                       "  std::atomic<int> hits_{0};\n"
                       "};\n")
                  .empty());
}

TEST(BtlintRuleTest, UnannotatedMutexSuppressible) {
  const std::string source =
      "#pragma once\n"
      "#include <mutex>\n"
      "class Lazy {\n"
      " private:\n"
      "  // btlint: allow(unannotated-mutex)\n"
      "  std::mutex mutex_;\n"
      "  int value_ = 0;\n"
      "};\n";
  EXPECT_TRUE(LintFile("src/base/lazy.h", source).empty());
}

// ---------------------------------------------------------------------------
// Cross-TU (--project) rules, driven directly through LintProject.
// ---------------------------------------------------------------------------

const char kTwoLayerSpec[] = "layer base\nlayer core\n";

TEST(BtlintLayerSpecTest, ParsesLayersAllowsAndComments) {
  const auto spec = ParseLayerSpec(
      "# comment\n"
      "layer base\n"
      "layer core  # trailing comment\n"
      "allow base core # rationale\n"
      "\n"
      "bogus line here\n");
  ASSERT_EQ(spec.order.size(), 2u);
  EXPECT_EQ(spec.order[0], "base");
  EXPECT_EQ(spec.order[1], "core");
  ASSERT_EQ(spec.allowed.size(), 1u);
  EXPECT_EQ(spec.allowed[0].first, "base");
  EXPECT_EQ(spec.allowed[0].second, "core");
  ASSERT_EQ(spec.errors.size(), 1u);
  EXPECT_EQ(spec.errors[0].first, 6);
}

TEST(BtlintProjectTest, UpwardIncludeFiresAndAllowEdgeSilences) {
  const std::vector<ProjectFile> files = {
      {"src/base/clock.h",
       "#pragma once\n#include \"core/engine.h\"\nstruct Clock { Engine e; "
       "};\n"},
      {"src/core/engine.h", "#pragma once\nstruct Engine { int t = 0; };\n"},
      {"src/core/use.cc",
       "#include \"core/engine.h\"\n#include \"base/clock.h\"\n"
       "int U() { Clock c; Engine e; return c.e.t + e.t; }\n"},
  };
  const auto findings = LintProject(files, kTwoLayerSpec);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layering-violation");
  EXPECT_EQ(findings[0].path, "src/base/clock.h");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_TRUE(
      LintProject(files, "layer base\nlayer core\nallow base core\n").empty());
}

TEST(BtlintProjectTest, DownwardIncludeIsClean) {
  const std::vector<ProjectFile> files = {
      {"src/base/value.h", "#pragma once\nstruct Value { int a = 0; };\n"},
      {"src/core/sum.h",
       "#pragma once\n#include \"base/value.h\"\nint Sum(const Value& v);\n"},
      {"src/core/sum.cc",
       "#include \"core/sum.h\"\nint Sum(const Value& v) { return v.a; }\n"},
  };
  EXPECT_TRUE(LintProject(files, kTwoLayerSpec).empty());
}

TEST(BtlintProjectTest, UndeclaredDirectoryReportedAgainstSpec) {
  const std::vector<ProjectFile> files = {
      {"src/rogue/thing.h", "#pragma once\nstruct Thing { int v = 0; };\n"},
      {"src/rogue/thing.cc",
       "#include \"rogue/thing.h\"\nint V() { Thing t; return t.v; }\n"},
  };
  const auto findings = LintProject(files, kTwoLayerSpec);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layering-violation");
  EXPECT_EQ(findings[0].path, "btlint.layers");
  EXPECT_NE(findings[0].message.find("rogue"), std::string::npos);
}

TEST(BtlintProjectTest, IncludeCycleReportedOnceWithPath) {
  const std::vector<ProjectFile> files = {
      {"src/base/a.h",
       "#pragma once\n#include \"base/b.h\"\nstruct A { B* b; };\n"},
      {"src/base/b.h",
       "#pragma once\n#include \"base/a.h\"\nstruct B { A* a; };\n"},
      {"src/base/use.cc",
       "#include \"base/a.h\"\n#include \"base/b.h\"\n"
       "int U() { A a; B b; a.b = &b; b.a = &a; return 0; }\n"},
  };
  const auto findings = LintProject(files, "layer base\n");
  ASSERT_EQ(findings.size(), 1u);  // one cycle, found from two entry points
  EXPECT_EQ(findings[0].rule, "include-cycle");
  EXPECT_NE(findings[0].message.find("src/base/a.h"), std::string::npos);
  EXPECT_NE(findings[0].message.find("src/base/b.h"), std::string::npos);
  EXPECT_NE(findings[0].message.find(" -> "), std::string::npos);
}

TEST(BtlintProjectTest, OrphanHeaderFiresOnlyOnUnincluded) {
  const std::vector<ProjectFile> files = {
      {"src/base/wired.h", "#pragma once\nstruct Wired { int v = 0; };\n"},
      {"src/base/dead.h", "#pragma once\nstruct Dead { int v = 0; };\n"},
      {"src/base/use.cc",
       "#include \"base/wired.h\"\nint U() { Wired w; return w.v; }\n"},
  };
  const auto findings = LintProject(files, "layer base\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "orphan-header");
  EXPECT_EQ(findings[0].path, "src/base/dead.h");
}

TEST(BtlintProjectTest, UnusedIncludeFiresAndPairedHeaderExempt) {
  const std::vector<ProjectFile> files = {
      {"src/base/math_util.h",
       "#pragma once\nstruct MathUtil { double s = 1.0; };\n"},
      {"src/base/string_util.h",
       "#pragma once\nstruct StringUtil { int w = 0; };\n"},
      // use.cc references MathUtil but nothing from string_util.h.
      {"src/base/use.cc",
       "#include \"base/math_util.h\"\n#include \"base/string_util.h\"\n"
       "double U() { MathUtil m; return m.s; }\n"},
      // file.cc's include of its own header is definitionally required
      // even though the .cc adds no new references to its exports.
      {"src/base/file.h", "#pragma once\nvoid Touch();\n"},
      {"src/base/file.cc", "#include \"base/file.h\"\nvoid Touch() {}\n"},
  };
  const auto findings = LintProject(files, "layer base\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unused-include");
  EXPECT_EQ(findings[0].path, "src/base/use.cc");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(BtlintProjectTest, SuppressionsApplyToProjectFindings) {
  const std::vector<ProjectFile> files = {
      {"src/base/clock.h",
       "#pragma once\n"
       "// btlint: allow(layering-violation)\n"
       "#include \"core/engine.h\"\n"
       "struct Clock { Engine e; };\n"},
      {"src/core/engine.h", "#pragma once\nstruct Engine { int t = 0; };\n"},
      {"src/core/use.cc",
       "#include \"base/clock.h\"\n#include \"core/engine.h\"\n"
       "int U() { Clock c; Engine e; return c.e.t + e.t; }\n"},
  };
  EXPECT_TRUE(LintProject(files, kTwoLayerSpec).empty());
}

TEST(BtlintProjectTest, EmptySpecDisablesLayeringOnly) {
  const std::vector<ProjectFile> files = {
      {"src/base/clock.h",
       "#pragma once\n#include \"core/engine.h\"\nstruct Clock { Engine e; "
       "};\n"},
      {"src/core/engine.h", "#pragma once\nstruct Engine { int t = 0; };\n"},
      {"src/core/use.cc",
       "#include \"base/clock.h\"\n#include \"core/engine.h\"\n"
       "int U() { Clock c; Engine e; return c.e.t + e.t; }\n"},
      {"src/base/dead.h", "#pragma once\nstruct Dead { int v = 0; };\n"},
  };
  const auto findings = LintProject(files, "");
  ASSERT_EQ(findings.size(), 1u);  // orphan still runs; layering does not
  EXPECT_EQ(findings[0].rule, "orphan-header");
}

TEST(BtlintProjectTest, GoldenJsonForProjectFindings) {
  const std::vector<ProjectFile> files = {
      {"src/base/dead.h", "#pragma once\nstruct Dead { int v = 0; };\n"},
      {"src/base/live.cc", "int L() { return 0; }\n"},
  };
  const auto findings = LintProject(files, "layer base\n");
  EXPECT_EQ(btlint::ToJson(findings),
            "{\n"
            "  \"version\": 1,\n"
            "  \"count\": 1,\n"
            "  \"findings\": [\n"
            "    {\"path\": \"src/base/dead.h\", \"line\": 1, \"col\": 1, "
            "\"rule\": \"orphan-header\", "
            "\"message\": \"no file in the tree includes this header; wire "
            "it in or delete it (dead headers drift out of sync with the "
            "code)\"}\n"
            "  ]\n"
            "}\n");
}

TEST(BtlintJsonTest, EmptyReportIsStable) {
  EXPECT_EQ(btlint::ToJson({}),
            "{\n  \"version\": 1,\n  \"count\": 0,\n  \"findings\": []\n}\n");
}

TEST(BtlintJsonTest, GoldenReport) {
  std::vector<Finding> findings = {
      {"src/a.cc", 3, 7, "raw-new", "raw 'new'"},
      {"src/b.h", 1, 1, "missing-include-guard", "say \"guard\""},
  };
  EXPECT_EQ(btlint::ToJson(findings),
            "{\n"
            "  \"version\": 1,\n"
            "  \"count\": 2,\n"
            "  \"findings\": [\n"
            "    {\"path\": \"src/a.cc\", \"line\": 3, \"col\": 7, "
            "\"rule\": \"raw-new\", \"message\": \"raw 'new'\"},\n"
            "    {\"path\": \"src/b.h\", \"line\": 1, \"col\": 1, "
            "\"rule\": \"missing-include-guard\", "
            "\"message\": \"say \\\"guard\\\"\"}\n"
            "  ]\n"
            "}\n");
}

TEST(BtlintOrderingTest, FindingsSortedByPathLineColRule) {
  // Two files' worth of source in one LintFile call is impossible, so
  // check ordering within one file: multiple findings come out sorted.
  const auto findings = LintFixture("src/banned_random.cc");
  for (size_t i = 1; i < findings.size(); ++i) {
    const bool ordered =
        findings[i - 1].line < findings[i].line ||
        (findings[i - 1].line == findings[i].line &&
         findings[i - 1].col <= findings[i].col);
    EXPECT_TRUE(ordered) << "finding " << i << " out of order";
  }
}

}  // namespace
