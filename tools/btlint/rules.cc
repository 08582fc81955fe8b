#include "rules.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>

#include "lexer.h"

namespace btlint {

namespace {

// ---------------------------------------------------------------------------
// Rule catalog.
// ---------------------------------------------------------------------------

const std::vector<RuleInfo> kRules = {
    {"banned-random", "determinism",
     "std::rand/srand/random_device/time() seeding outside "
     "src/tensor/random.*"},
    {"adhoc-parallelism", "determinism",
     "std::thread/std::async/OpenMP in src/ outside the runtime pool"},
    {"parallel-float-reduce", "determinism",
     "scalar float accumulation inside a ParallelFor body (racy, "
     "order-dependent)"},
    {"unordered-drain", "determinism",
     "iterating an unordered container into an accumulation or output"},
    {"mutable-static", "parallel-safety",
     "mutable static/namespace-scope state in src/tensor, src/graph, "
     "src/runtime"},
    {"id-narrowing", "numeric",
     "unchecked static_cast of a node/edge id to 32 bits (use "
     "tensor::NarrowId)"},
    {"raw-new", "api",
     "raw new/delete (use value semantics, containers, smart pointers)"},
    {"missing-include-guard", "api",
     "header without #pragma once or an #ifndef include guard"},
    {"adhoc-timing", "api",
     "std::chrono clock reads outside src/obs (use obs::NowSeconds / "
     "ScopedPhaseTimer)"},
    {"hot-loop-at", "api",
     "bounds-checked .at( inside src/tensor/kernels/ (raw spans only in "
     "the kernel layer)"},
    {"unchecked-io", "api",
     "ignored fwrite/fclose/rename/fsync return value outside src/io "
     "(route durable writes through io::File)"},
    {"unannotated-mutex", "parallel-safety",
     "class declares a mutex/condvar member but no data member carries "
     "GUARDED_BY (base/thread_annotations.h)"},
    {"layering-violation", "layering",
     "[--project] #include pointing upward/across the btlint.layers DAG "
     "without an allow edge"},
    {"include-cycle", "layering",
     "[--project] cyclic #include chain among src/ files"},
    {"orphan-header", "layering",
     "[--project] src/ header that no file in the tree includes"},
    {"unused-include", "layering",
     "[--project] included project header none of whose exported names "
     "the includer references"},
};

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool InParallelCore(const std::string& path) {
  return StartsWith(path, "src/tensor/") || StartsWith(path, "src/graph/") ||
         StartsWith(path, "src/runtime/");
}

// ---------------------------------------------------------------------------
// Token-stream helpers.
// ---------------------------------------------------------------------------

using Tokens = std::vector<Token>;

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

/// Index of the matching closer for the opener at `open` ('(' / '<' / '{' /
/// '['), or toks.size() when unbalanced. For '<' this is a heuristic (it is
/// only called right after template-ish identifiers).
size_t MatchingClose(const Tokens& toks, size_t open) {
  const std::string& o = toks[open].text;
  const std::string c = o == "(" ? ")" : o == "<" ? ">" : o == "{" ? "}" : "]";
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == o) ++depth;
    if (toks[i].text == c && --depth == 0) return i;
    // Give up on a '<' that was actually a comparison.
    if (o == "<" && (toks[i].text == ";" || toks[i].text == "{")) break;
  }
  return toks.size();
}

/// Lower-cases ASCII.
std::string Lower(const std::string& s) {
  std::string out = s;
  for (char& ch : out) ch = static_cast<char>(std::tolower(
                           static_cast<unsigned char>(ch)));
  return out;
}

/// True when an identifier smells like a 64-bit node/edge id.
bool IsIdishName(const std::string& name) {
  const std::string s = Lower(name);
  if (s == "id" || EndsWith(s, "_id") || StartsWith(s, "id_")) return true;
  for (const char* marker : {"node", "src", "dst", "edge", "idx"}) {
    if (s.find(marker) != std::string::npos) return true;
  }
  return false;
}

/// Scalar float/double variables declared in this file (heuristic:
/// `float x`, `double x = ..., y = ...`; pointers are skipped — pointer
/// equality is fine). Values are the token indices of each declaration,
/// so rules can ask whether a variable is local to a region.
using FloatVars = std::map<std::string, std::vector<size_t>>;

FloatVars CollectFloatScalars(const Tokens& toks) {
  FloatVars vars;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i], "float") && !IsIdent(toks[i], "double")) continue;
    // Skip template arguments like atomic<double> — preceded by '<'.
    if (i > 0 && IsPunct(toks[i - 1], "<")) continue;
    size_t j = i + 1;
    bool pointer = false;
    while (j < toks.size() &&
           (IsPunct(toks[j], "*") || IsPunct(toks[j], "&") ||
            IsIdent(toks[j], "const"))) {
      if (IsPunct(toks[j], "*")) pointer = true;
      ++j;
    }
    if (pointer || j >= toks.size() || toks[j].kind != TokKind::kIdent) {
      continue;
    }
    // `float foo(` is a function declaration, not a variable.
    auto record_if_var = [&](size_t name_idx) {
      if (name_idx + 1 < toks.size() && IsPunct(toks[name_idx + 1], "(")) {
        return;
      }
      vars[toks[name_idx].text].push_back(name_idx);
    };
    record_if_var(j);
    // Comma chains within the same declaration statement: scan to the
    // terminating ';' (or an unbalanced ')' for parameter lists) at depth 0
    // and record identifiers that directly follow a ','.
    int depth = 0;
    for (size_t k = j + 1; k < toks.size(); ++k) {
      const Token& t = toks[k];
      if (t.kind == TokKind::kPunct) {
        if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
        if (t.text == ")" || t.text == "]" || t.text == "}") {
          if (--depth < 0) break;  // closed the enclosing parameter list
        }
        if (t.text == ";" && depth == 0) break;
        if (t.text == "," && depth == 0 && k + 1 < toks.size() &&
            toks[k + 1].kind == TokKind::kIdent) {
          record_if_var(k + 1);
        }
      }
    }
  }
  return vars;
}

/// Names of declared unordered_map/unordered_set variables.
std::set<std::string> CollectUnorderedVars(const Tokens& toks) {
  std::set<std::string> vars;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (toks[i].kind != TokKind::kIdent ||
        (t != "unordered_map" && t != "unordered_set" &&
         t != "unordered_multimap" && t != "unordered_multiset")) {
      continue;
    }
    if (!IsPunct(toks[i + 1], "<")) continue;
    const size_t close = MatchingClose(toks, i + 1);
    if (close >= toks.size()) continue;
    size_t j = close + 1;
    while (j < toks.size() &&
           (IsPunct(toks[j], "&") || IsPunct(toks[j], "*") ||
            IsIdent(toks[j], "const"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokKind::kIdent) {
      vars.insert(toks[j].text);
    }
  }
  return vars;
}

void Report(std::vector<Finding>* out, const std::string& path,
            const Token& at, const char* rule, std::string message) {
  out->push_back({path, at.line, at.col, rule, std::move(message)});
}

// ---------------------------------------------------------------------------
// D: determinism rules.
// ---------------------------------------------------------------------------

void RuleBannedRandom(const std::string& path, const LexedFile& f,
                      std::vector<Finding>* out) {
  if (StartsWith(path, "src/tensor/random.")) return;
  const Tokens& toks = f.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    const bool member_access =
        i > 0 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"));
    if (member_access) continue;
    const bool call = i + 1 < toks.size() && IsPunct(toks[i + 1], "(");
    if ((t == "rand" || t == "srand" || t == "time") && call) {
      Report(out, path, toks[i], "banned-random",
             "'" + t +
                 "()' is wall-clock / hidden-state randomness; draw from an "
                 "explicitly seeded tensor::Rng instead");
    } else if (t == "random_device") {
      Report(out, path, toks[i], "banned-random",
             "std::random_device is nondeterministic seeding; thread an "
             "explicit uint64_t seed to tensor::Rng instead");
    }
  }
}

void RuleAdhocParallelism(const std::string& path, const LexedFile& f,
                          std::vector<Finding>* out) {
  if (!StartsWith(path, "src/") || StartsWith(path, "src/runtime/")) return;
  const Tokens& toks = f.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind == TokKind::kDirective &&
        toks[i].text.find("pragma") != std::string::npos &&
        toks[i].text.find("omp") != std::string::npos) {
      Report(out, path, toks[i], "adhoc-parallelism",
             "OpenMP bypasses the deterministic chunked runtime::ParallelFor "
             "pool");
      continue;
    }
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    const bool std_qualified = i >= 2 && IsPunct(toks[i - 1], "::") &&
                               IsIdent(toks[i - 2], "std");
    if (std_qualified && (t == "thread" || t == "jthread" || t == "async")) {
      Report(out, path, toks[i], "adhoc-parallelism",
             "std::" + t +
                 " spawns pool-external work; use runtime::ParallelFor so "
                 "chunking (and results) stay thread-count-invariant");
    } else if (StartsWith(t, "pthread_")) {
      Report(out, path, toks[i], "adhoc-parallelism",
             "raw pthreads bypass the deterministic runtime pool");
    }
  }
}

void RuleParallelFloatReduce(const std::string& path, const LexedFile& f,
                             const FloatVars& float_vars,
                             std::vector<Finding>* out) {
  const Tokens& toks = f.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks[i], "ParallelFor") || !IsPunct(toks[i + 1], "(")) {
      continue;
    }
    const size_t close = MatchingClose(toks, i + 1);
    for (size_t k = i + 2; k < close && k < toks.size(); ++k) {
      if (toks[k].kind != TokKind::kPunct ||
          (toks[k].text != "+=" && toks[k].text != "-=")) {
        continue;
      }
      // `x += ...` where x is a scalar float declared in this file and not
      // an indexed store (`arr[i] += ...` precedes with ']').
      if (k == 0 || toks[k - 1].kind != TokKind::kIdent) continue;
      const auto decls = float_vars.find(toks[k - 1].text);
      if (decls == float_vars.end()) continue;
      // An accumulator declared inside the ParallelFor body is chunk-local
      // (one per lambda invocation) — deterministic and race-free.
      bool local_to_body = false;
      for (size_t decl_idx : decls->second) {
        if (decl_idx > i && decl_idx < close) {
          local_to_body = true;
          break;
        }
      }
      if (local_to_body) continue;
      Report(out, path, toks[k - 1], "parallel-float-reduce",
             "scalar float accumulation into '" + toks[k - 1].text +
                 "' inside a ParallelFor body races across chunks and is "
                 "order-dependent; accumulate per-chunk partials and drain "
                 "them in chunk order");
    }
  }
}

void RuleUnorderedDrain(const std::string& path, const LexedFile& f,
                        const std::set<std::string>& unordered_vars,
                        std::vector<Finding>* out) {
  if (unordered_vars.empty()) return;
  const Tokens& toks = f.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    // Range-for drain: for (... : name)
    if (IsIdent(toks[i], "for") && IsPunct(toks[i + 1], "(")) {
      const size_t close = MatchingClose(toks, i + 1);
      for (size_t k = i + 2; k < close && k < toks.size(); ++k) {
        if (!IsPunct(toks[k], ":")) continue;
        if (k + 1 < toks.size() && toks[k + 1].kind == TokKind::kIdent &&
            unordered_vars.count(toks[k + 1].text) != 0) {
          Report(out, path, toks[k + 1], "unordered-drain",
                 "iteration order over unordered container '" +
                     toks[k + 1].text +
                     "' is implementation-defined; drain into a sorted "
                     "vector (or ordered map) before feeding outputs or "
                     "accumulations");
        }
        break;  // only the first ':' of the range-for matters
      }
    }
    // Iterator drain: name.begin() / name.cbegin()
    if (toks[i].kind == TokKind::kIdent &&
        unordered_vars.count(toks[i].text) != 0 &&
        i + 2 < toks.size() && IsPunct(toks[i + 1], ".") &&
        (IsIdent(toks[i + 2], "begin") || IsIdent(toks[i + 2], "cbegin"))) {
      Report(out, path, toks[i], "unordered-drain",
             "iterator walk over unordered container '" + toks[i].text +
                 "' is implementation-defined order; sort before draining");
    }
  }
}

// ---------------------------------------------------------------------------
// P: parallel-safety rules.
// ---------------------------------------------------------------------------

/// Scans a declaration head starting right after the introducing token: up
/// to the first '=', ';', '(' or '{' outside template angles. Returns false
/// when the declaration is a function, is const/thread-confined, or never
/// terminates (macro soup) — i.e. true only for a mutable variable.
bool IsMutableVariableHead(const Tokens& toks, size_t start) {
  bool is_const = false, is_function = false, found_terminator = false;
  int angle = 0;
  for (size_t j = start; j < toks.size(); ++j) {
    const Token& t = toks[j];
    if (t.kind == TokKind::kIdent) {
      if (t.text == "const" || t.text == "constexpr" ||
          t.text == "constinit" || t.text == "thread_local") {
        is_const = true;
      }
      continue;
    }
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "<") ++angle;
    if (t.text == ">") --angle;
    if (angle > 0) continue;
    if (t.text == "(") {
      is_function = true;
      found_terminator = true;
      break;
    }
    if (t.text == "=" || t.text == ";" || t.text == "{") {
      found_terminator = true;
      break;
    }
  }
  return found_terminator && !is_function && !is_const;
}

/// True when the '{' at `open` is a namespace body: walk back over the
/// (possibly qualified, possibly empty) namespace name to the keyword.
bool IsNamespaceBrace(const Tokens& toks, size_t open) {
  size_t j = open;
  while (j > 0) {
    --j;
    const Token& t = toks[j];
    if (t.kind == TokKind::kIdent && t.text == "namespace") return true;
    const bool name_part = t.kind == TokKind::kIdent ||
                           (t.kind == TokKind::kPunct && t.text == "::");
    if (!name_part) return false;
  }
  return false;
}

void RuleMutableStatic(const std::string& path, const LexedFile& f,
                       std::vector<Finding>* out) {
  if (!InParallelCore(path)) return;
  const Tokens& toks = f.tokens;

  // Pass 1: namespace-scope globals declared without `static`. Track the
  // brace stack; only positions where every open brace is a namespace body
  // are namespace scope.
  static const std::set<std::string> kNotAVariable = {
      "struct",   "class",  "enum",      "union",         "using",
      "typedef",  "template", "extern",  "friend",        "namespace",
      "static",   "inline", "thread_local", "static_assert"};
  std::vector<bool> brace_is_namespace;
  bool stmt_start = true;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kDirective) continue;  // between statements
    if (t.kind == TokKind::kPunct) {
      if (t.text == "{") {
        brace_is_namespace.push_back(IsNamespaceBrace(toks, i));
      } else if (t.text == "}" && !brace_is_namespace.empty()) {
        brace_is_namespace.pop_back();
      }
      stmt_start = t.text == ";" || t.text == "{" || t.text == "}";
      continue;
    }
    const bool at_ns_scope =
        std::all_of(brace_is_namespace.begin(), brace_is_namespace.end(),
                    [](bool is_ns) { return is_ns; });
    if (stmt_start && at_ns_scope && t.kind == TokKind::kIdent &&
        kNotAVariable.count(t.text) == 0 && t.text != "const" &&
        t.text != "constexpr" && t.text != "constinit") {
      if (IsMutableVariableHead(toks, i + 1)) {
        Report(out, path, t, "mutable-static",
               "mutable namespace-scope global in the parallel core "
               "(src/tensor, src/graph, src/runtime) is shared across pool "
               "workers; make it const, thread_local, or pass it explicitly");
      }
    }
    stmt_start = false;
  }

  // Pass 2: `static` locals and statics spelled explicitly.
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i], "static")) continue;
    if (i > 0 && IsIdent(toks[i - 1], "thread_local")) continue;
    if (!IsMutableVariableHead(toks, i + 1)) continue;
    Report(out, path, toks[i], "mutable-static",
           "mutable static state in the parallel core (src/tensor, "
           "src/graph, src/runtime) is shared across pool workers; make it "
           "const, thread_local, or pass it explicitly");
  }
}

// ---------------------------------------------------------------------------
// N: numeric-hygiene rules.
// ---------------------------------------------------------------------------

void RuleIdNarrowing(const std::string& path, const LexedFile& f,
                     std::vector<Finding>* out) {
  if (path == "src/tensor/numeric.h") return;  // home of NarrowId itself
  const Tokens& toks = f.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks[i], "static_cast") || !IsPunct(toks[i + 1], "<")) {
      continue;
    }
    const size_t type_close = MatchingClose(toks, i + 1);
    if (type_close >= toks.size()) continue;
    std::string type_text;
    for (size_t k = i + 2; k < type_close; ++k) type_text += toks[k].text;
    if (type_text != "int32_t" && type_text != "int" &&
        type_text != "uint32_t" && type_text != "std::int32_t" &&
        type_text != "std::uint32_t") {
      continue;
    }
    if (type_close + 1 >= toks.size() ||
        !IsPunct(toks[type_close + 1], "(")) {
      continue;
    }
    const size_t arg_close = MatchingClose(toks, type_close + 1);
    bool idish = false;
    // The cast argument, plus a short lookback window (assignment target).
    for (size_t k = type_close + 2; k < arg_close && k < toks.size(); ++k) {
      if (toks[k].kind == TokKind::kIdent && IsIdishName(toks[k].text)) {
        idish = true;
        break;
      }
    }
    for (size_t back = 1; !idish && back <= 6 && back <= i; ++back) {
      const Token& t = toks[i - back];
      if (t.kind == TokKind::kPunct &&
          (t.text == ";" || t.text == "{" || t.text == "}")) {
        break;
      }
      if (t.kind == TokKind::kIdent && IsIdishName(t.text)) idish = true;
    }
    if (idish) {
      Report(out, path, toks[i], "id-narrowing",
             "unchecked narrowing of a node/edge id to 32 bits silently "
             "wraps on datasets past 2^31; use tensor::NarrowId()");
    }
  }
}

// ---------------------------------------------------------------------------
// A: API-hygiene rules.
// ---------------------------------------------------------------------------

void RuleRawNew(const std::string& path, const LexedFile& f,
                std::vector<Finding>* out) {
  const Tokens& toks = f.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    if (toks[i].text == "new") {
      // `operator new` overloads would be allocator machinery; none exist,
      // but skip them on principle.
      if (i > 0 && IsIdent(toks[i - 1], "operator")) continue;
      Report(out, path, toks[i], "raw-new",
             "raw 'new' outside the tensor allocator; Tensor/std containers "
             "own memory by value — use them (or std::make_unique)");
    } else if (toks[i].text == "delete") {
      if (i > 0 && (IsPunct(toks[i - 1], "=") ||
                    IsIdent(toks[i - 1], "operator"))) {
        continue;  // `= delete` / `operator delete`
      }
      Report(out, path, toks[i], "raw-new",
             "raw 'delete'; ownership belongs in a container or smart "
             "pointer");
    }
  }
}

void RuleIncludeGuard(const std::string& path, const LexedFile& f,
                      std::vector<Finding>* out) {
  if (!EndsWith(path, ".h")) return;
  // The first two directives must be `#pragma once` or `#ifndef`+`#define`.
  std::vector<const Token*> directives;
  for (const Token& t : f.tokens) {
    if (t.kind == TokKind::kDirective) directives.push_back(&t);
    if (directives.size() >= 2) break;
  }
  auto directive_is = [](const Token* t, const char* kw) {
    // "#  ifndef X" — skip '#', whitespace, compare keyword.
    size_t p = 1;
    while (p < t->text.size() &&
           std::isspace(static_cast<unsigned char>(t->text[p]))) {
      ++p;
    }
    return t->text.compare(p, std::string(kw).size(), kw) == 0;
  };
  if (!directives.empty()) {
    if (directive_is(directives[0], "pragma") &&
        directives[0]->text.find("once") != std::string::npos) {
      return;
    }
    if (directives.size() >= 2 && directive_is(directives[0], "ifndef") &&
        directive_is(directives[1], "define")) {
      return;
    }
  }
  Token at;
  at.line = 1;
  at.col = 1;
  Report(out, path, at, "missing-include-guard",
         "header lacks '#pragma once' or an '#ifndef/#define' include "
         "guard");
}

void RuleAdhocTiming(const std::string& path, const LexedFile& f,
                     std::vector<Finding>* out) {
  // Timing must flow through the observability layer so phase accounting
  // stays complete; src/obs owns the clock.
  if (!StartsWith(path, "src/") && !StartsWith(path, "bench/")) return;
  if (StartsWith(path, "src/obs/")) return;
  const Tokens& toks = f.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    // <clock>::now( — catches std::chrono::steady_clock::now() and friends.
    if ((t == "steady_clock" || t == "system_clock" ||
         t == "high_resolution_clock") &&
        i + 3 < toks.size() && IsPunct(toks[i + 1], "::") &&
        IsIdent(toks[i + 2], "now") && IsPunct(toks[i + 3], "(")) {
      Report(out, path, toks[i], "adhoc-timing",
             "std::chrono::" + t +
                 "::now() outside the observability layer; read time via "
                 "obs::NowSeconds() (or wrap the scope in a "
                 "ScopedPhaseTimer) so measurements land in the registry");
      continue;
    }
    // POSIX clock reads as free-function calls.
    const bool member_access =
        i > 0 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"));
    const bool call = i + 1 < toks.size() && IsPunct(toks[i + 1], "(");
    if (!member_access && call &&
        (t == "gettimeofday" || t == "clock_gettime")) {
      Report(out, path, toks[i], "adhoc-timing",
             "'" + t +
                 "()' is an ad-hoc clock read; use obs::NowSeconds() so "
                 "timing flows through the observability layer");
    }
  }
}

void RuleHotLoopAt(const std::string& path, const LexedFile& f,
                   std::vector<Finding>* out) {
  // The kernel layer is the innermost hot path of every model; a
  // bounds-checked element accessor there defeats the point of the layer.
  // Kernels take raw float spans — anything calling `.at(` has smuggled a
  // Tensor (or std::vector) into code that should be pointer arithmetic.
  if (!StartsWith(path, "src/tensor/kernels/")) return;
  const Tokens& toks = f.tokens;
  for (size_t i = 1; i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks[i], "at")) continue;
    const bool member_access =
        IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->");
    if (member_access && IsPunct(toks[i + 1], "(")) {
      Report(out, path, toks[i], "hot-loop-at",
             "bounds-checked '.at(' in the kernel layer; kernels operate "
             "on raw float spans — index the pointer directly (or keep "
             "construction-time code out of src/tensor/kernels/)");
    }
  }
}

void RuleUncheckedIo(const std::string& path, const LexedFile& f,
                     std::vector<Finding>* out) {
  // The durability contract (DESIGN.md "Failure model v2") depends on every
  // fwrite/fclose/rename/fsync result being checked; src/io/file.* is the
  // one place allowed to touch raw stdio, and io::File latches and reports
  // exactly these failures.
  if (!StartsWith(path, "src/") && !StartsWith(path, "bench/")) return;
  if (StartsWith(path, "src/io/")) return;
  const Tokens& toks = f.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    if (t != "fwrite" && t != "fclose" && t != "rename" && t != "fsync") {
      continue;
    }
    if (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "(")) continue;
    // Accept bare and std:: spellings; skip other qualifications
    // (fs::rename with an error_code is the caller's choice) and member
    // calls (file.rename(...) is a different function entirely).
    size_t start = i;
    if (i >= 2 && IsPunct(toks[i - 1], "::")) {
      if (!IsIdent(toks[i - 2], "std")) continue;
      start = i - 2;
    }
    if (start > 0 &&
        (IsPunct(toks[start - 1], ".") || IsPunct(toks[start - 1], "->"))) {
      continue;
    }
    // Only a call in statement position discards its result; results
    // consumed by a condition, assignment, (void) cast, or return are fine.
    const bool stmt_start = start == 0 || IsPunct(toks[start - 1], ";") ||
                            IsPunct(toks[start - 1], "{") ||
                            IsPunct(toks[start - 1], "}");
    if (!stmt_start) continue;
    Report(out, path, toks[i], "unchecked-io",
           "'" + t +
               "()' result ignored; a failed write/close/rename/fsync here "
               "silently loses durable state — route the write through "
               "io::File / io::AtomicReplace or check and propagate the "
               "return value");
  }
}

/// One top-level member declaration of a class body, classified for the
/// unannotated-mutex rule.
enum class MemberKind {
  kSkip,      // function, nested type, using/friend/static, access label...
  kGuarded,   // carries GUARDED_BY / PT_GUARDED_BY
  kMutex,     // a mutex / condition-variable member (the capability itself)
  kPlain,     // mutable instance data with no annotation
};

MemberKind ClassifyMember(const Tokens& toks,
                          const std::vector<size_t>& decl) {
  if (decl.empty()) return MemberKind::kSkip;
  static const std::set<std::string> kNotData = {
      "struct", "class", "enum",     "union",         "using",
      "friend", "typedef", "template", "static_assert", "operator",
      "public", "private", "protected"};
  if (kNotData.count(toks[decl[0]].text) != 0) return MemberKind::kSkip;
  static const std::set<std::string> kMutexTypes = {
      "Mutex", "mutex", "recursive_mutex", "shared_mutex", "CondVar",
      "condition_variable", "condition_variable_any"};
  bool is_mutex = false, is_function = false;
  int angle = 0;
  for (size_t n = 0; n < decl.size(); ++n) {
    const Token& t = toks[decl[n]];
    if (t.kind == TokKind::kIdent) {
      if (t.text == "GUARDED_BY" || t.text == "PT_GUARDED_BY") {
        return MemberKind::kGuarded;
      }
      // Immutable / thread-confined / lock-free members need no guard;
      // class statics are the mutable-static rule's domain.
      if (t.text == "atomic" || t.text == "const" || t.text == "constexpr" ||
          t.text == "thread_local" || t.text == "static") {
        return MemberKind::kSkip;
      }
      if (kMutexTypes.count(t.text) != 0) is_mutex = true;
      continue;
    }
    if (t.kind != TokKind::kPunct) continue;
    // Angle tracking so the '(' of std::function<void()> does not read as
    // a method declaration.
    if (t.text == "<" && n > 0 && toks[decl[n - 1]].kind == TokKind::kIdent) {
      ++angle;
    } else if (t.text == ">" && angle > 0) {
      --angle;
    } else if (t.text == "(" && angle == 0) {
      is_function = true;
    }
  }
  if (is_mutex) return MemberKind::kMutex;
  if (is_function) return MemberKind::kSkip;
  // A data member's name is the last identifier of the declarator.
  for (size_t n = decl.size(); n > 0; --n) {
    if (toks[decl[n - 1]].kind == TokKind::kIdent) return MemberKind::kPlain;
  }
  return MemberKind::kSkip;
}

void RuleUnannotatedMutex(const std::string& path, const LexedFile& f,
                          std::vector<Finding>* out) {
  // src/ only: tests and bench drivers synchronize scratch state ad hoc and
  // are not part of the annotated-capability surface.
  if (!StartsWith(path, "src/")) return;
  const Tokens& toks = f.tokens;
  std::set<size_t> seen_bodies;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        (toks[i].text != "class" && toks[i].text != "struct")) {
      continue;
    }
    if (i > 0 && IsIdent(toks[i - 1], "enum")) continue;  // enum class
    // Walk the class head to its body '{' (skipping attribute-macro
    // argument lists and the base-clause) or bail on a forward declaration.
    size_t open = 0;
    int paren = 0;
    for (size_t j = i + 1; j < toks.size(); ++j) {
      const Token& u = toks[j];
      if (u.kind != TokKind::kPunct) continue;
      if (u.text == "(") ++paren;
      if (u.text == ")") --paren;
      if (paren > 0) continue;
      if (u.text == ";" || u.text == "=" || u.text == ">") break;
      if (u.text == "{") {
        open = j;
        break;
      }
    }
    if (open == 0 || !seen_bodies.insert(open).second) continue;
    const size_t close = MatchingClose(toks, open);
    if (close >= toks.size()) continue;

    bool has_guarded = false;
    int mutex_members = 0, plain_members = 0;
    size_t first_mutex = 0;
    std::vector<size_t> decl;
    for (size_t k = open + 1; k < close; ++k) {
      const Token& u = toks[k];
      if (u.kind == TokKind::kPunct && u.text == "{") {
        // Method body, nested type body, or member initializer: skip it
        // whole. Nested types are revisited as their own regions.
        const size_t m = MatchingClose(toks, k);
        if (m >= close) break;
        k = m;
        continue;
      }
      if (u.kind == TokKind::kPunct && u.text == ";") {
        const MemberKind kind = ClassifyMember(toks, decl);
        if (kind == MemberKind::kGuarded) has_guarded = true;
        if (kind == MemberKind::kMutex && mutex_members++ == 0) {
          for (size_t idx : decl) {
            if (toks[idx].kind == TokKind::kIdent) {
              first_mutex = idx;
              break;
            }
          }
        }
        if (kind == MemberKind::kPlain) ++plain_members;
        decl.clear();
        continue;
      }
      // `public:` labels separate declarations without a ';'.
      if (u.kind == TokKind::kIdent &&
          (u.text == "public" || u.text == "private" ||
           u.text == "protected") &&
          k + 1 < close && IsPunct(toks[k + 1], ":")) {
        ++k;
        decl.clear();
        continue;
      }
      decl.push_back(k);
    }
    if (mutex_members > 0 && plain_members > 0 && !has_guarded) {
      Report(out, path, toks[first_mutex], "unannotated-mutex",
             "class declares a mutex/condvar member but none of its data "
             "members carries GUARDED_BY; annotate which members the lock "
             "protects (base/thread_annotations.h) so clang "
             "-Wthread-safety can check every access");
    }
  }
}

// ---------------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------------

struct Suppressions {
  std::set<std::string> file_rules;              // allow-file(rule)
  std::map<int, std::set<std::string>> by_line;  // line -> rules
};

void ParseRuleList(const std::string& text, size_t open,
                   std::set<std::string>* rules) {
  const size_t close = text.find(')', open);
  if (close == std::string::npos) return;
  std::string item;
  for (size_t p = open + 1; p <= close; ++p) {
    const char c = text[p];
    if (c == ',' || c == ')') {
      if (!item.empty()) rules->insert(item);
      item.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      item += c;
    }
  }
}

Suppressions CollectSuppressions(const LexedFile& f) {
  Suppressions s;
  for (const Comment& c : f.comments) {
    const size_t tag = c.text.find("btlint:");
    if (tag == std::string::npos) continue;
    const size_t allow_file = c.text.find("allow-file(", tag);
    if (allow_file != std::string::npos) {
      ParseRuleList(c.text, allow_file + 10, &s.file_rules);
      continue;
    }
    const size_t allow = c.text.find("allow(", tag);
    if (allow == std::string::npos) continue;
    std::set<std::string> rules;
    ParseRuleList(c.text, allow + 5, &rules);
    for (int line = c.line; line <= c.end_line; ++line) {
      s.by_line[line].insert(rules.begin(), rules.end());
    }
    // A comment on its own line covers the following line of code.
    if (c.own_line) {
      s.by_line[c.end_line + 1].insert(rules.begin(), rules.end());
    }
  }
  return s;
}

bool IsSuppressed(const Suppressions& s, const Finding& finding) {
  auto matches = [&](const std::set<std::string>& rules) {
    return rules.count(finding.rule) != 0 || rules.count("*") != 0;
  };
  if (matches(s.file_rules)) return true;
  const auto it = s.by_line.find(finding.line);
  return it != s.by_line.end() && matches(it->second);
}

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

}  // namespace

const std::vector<RuleInfo>& Rules() { return kRules; }

std::vector<Finding> LintFile(const std::string& path,
                              const std::string& source) {
  const LexedFile f = Lex(source);
  const FloatVars float_vars = CollectFloatScalars(f.tokens);
  const std::set<std::string> unordered_vars = CollectUnorderedVars(f.tokens);

  std::vector<Finding> findings;
  RuleBannedRandom(path, f, &findings);
  RuleAdhocParallelism(path, f, &findings);
  RuleParallelFloatReduce(path, f, float_vars, &findings);
  RuleUnorderedDrain(path, f, unordered_vars, &findings);
  RuleMutableStatic(path, f, &findings);
  RuleIdNarrowing(path, f, &findings);
  RuleRawNew(path, f, &findings);
  RuleIncludeGuard(path, f, &findings);
  RuleAdhocTiming(path, f, &findings);
  RuleHotLoopAt(path, f, &findings);
  RuleUncheckedIo(path, f, &findings);
  RuleUnannotatedMutex(path, f, &findings);

  const Suppressions s = CollectSuppressions(f);
  std::vector<Finding> kept;
  for (Finding& finding : findings) {
    if (!IsSuppressed(s, finding)) kept.push_back(std::move(finding));
  }
  SortFindings(&kept);
  return kept;
}

std::vector<Finding> FilterSuppressed(const std::string& source,
                                      std::vector<Finding> findings) {
  const Suppressions s = CollectSuppressions(Lex(source));
  std::vector<Finding> kept;
  for (Finding& finding : findings) {
    if (!IsSuppressed(s, finding)) kept.push_back(std::move(finding));
  }
  return kept;
}

void SortFindings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              if (a.col != b.col) return a.col < b.col;
              return a.rule < b.rule;
            });
}

std::string ToJson(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "{\n  \"version\": 1,\n  \"count\": " << findings.size()
      << ",\n  \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"path\": \"" << JsonEscape(f.path) << "\", \"line\": "
        << f.line << ", \"col\": " << f.col << ", \"rule\": \""
        << JsonEscape(f.rule) << "\", \"message\": \""
        << JsonEscape(f.message) << "\"}";
  }
  out << (findings.empty() ? "]\n}\n" : "\n  ]\n}\n");
  return out.str();
}

std::string ToText(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.path << ":" << f.line << ":" << f.col << ": [" << f.rule << "] "
        << f.message << "\n";
  }
  return out.str();
}

}  // namespace btlint
