// Golden digest of ConfigLint's language rules and of the symbol differ.
// A seeded generator builds 320 small module trees (3-6 .cinc modules and
// an entry) that mix star and named imports, re-exports, import cycles, a
// star-import chain deeper than lint's resolution bound, dynamic imports,
// missing targets, schema imports, functions with defaults called with
// good and bad arity, and reads of undefined, imported and unused names.
// The test folds into one SHA-256 every CSL file's LintFile findings plus,
// for each module, ChangedSymbols against one random mutation of it.
//
// Lint runs twice per tree: through the store a linter owns when it is
// given none (one per tree), and through one long-lived store shared by
// every tree (paths repeat across trees, so the store must tell versions
// apart by content). Both must give the same digest.
//
// First recorded (279616a5...) from ConfigLint as it was when it still
// resolved imports with its own module scan, one memo shared by all of a
// file's imports. That memo made an import's resolution depend on the
// imports before it: a module first reached past the depth bound stayed
// unresolved for a later, shallower import of it. Re-recorded once when
// lint moved onto the analysis store's per-import composition; the only
// difference is six L004 findings on such later imports, which now resolve
// as they do alone (LanguageRulesTest.ImportResolutionDoesNotDependOn-
// EarlierImports). Re-recorded again when L010 (missing-import) was added:
// the only difference is its 50 findings on imports of lib/missing.cinc;
// with L010 findings dropped the battery still folds to 7af34be2.... A
// refactor of lint, the symbol surface or the store must
// pass it unchanged; a mismatch means a finding moved, which is a finding
// to explain, not a constant to update. If a change is meant to alter
// lint's findings, run
//   build/tests/lint_golden_test
// and replace the constant with the digest the failure reports, naming the
// change in CHANGES.md.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/absint.h"
#include "src/analysis/lint.h"
#include "src/analysis/store.h"
#include "src/lang/compiler.h"
#include "src/util/rng.h"
#include "src/util/sha256.h"
#include "src/util/strings.h"

namespace configerator {
namespace {

constexpr int kTrees = 320;
constexpr uint64_t kSeed = 20261019;
constexpr char kGoldenDigest[] =
    "97885faf5661f3f6d8335abc70a6165719e1f5404fbd68ee8a83f7e6aec9de71";

std::string ModulePath(int i) { return StrFormat("lib/m%d.cinc", i); }
std::string DeepPath(int k) { return StrFormat("lib/deep%d.cinc", k); }

constexpr int kDeepChain = 10;  // Entry -> deep0 -> ... -> deep9: depth 11.

// One generated tree. Each module is a list of top-level statements so a
// mutation can edit, drop or add one.
struct LintTree {
  std::vector<std::vector<std::string>> modules;
  std::string entry;
  InMemorySources extra;  // Deep chain, schema.
  std::vector<std::string> extra_csl;

  InMemorySources Sources(int mutated = -1,
                          const std::vector<std::string>* mutation = nullptr)
      const {
    InMemorySources sources = extra;
    for (size_t i = 0; i < modules.size(); ++i) {
      const std::vector<std::string>& stmts =
          static_cast<int>(i) == mutated ? *mutation : modules[i];
      std::string text;
      for (const std::string& stmt : stmts) {
        text += stmt;
      }
      sources.Put(ModulePath(static_cast<int>(i)), text);
    }
    sources.Put("entry.cconf", entry);
    return sources;
  }

  std::vector<std::string> CslPaths() const {
    std::vector<std::string> paths;
    for (size_t i = 0; i < modules.size(); ++i) {
      paths.push_back(ModulePath(static_cast<int>(i)));
    }
    paths.insert(paths.end(), extra_csl.begin(), extra_csl.end());
    paths.push_back("entry.cconf");
    return paths;
  }
};

// A name module `j` may be asked for by a named import: one it defines,
// one it re-exports or one nobody defines.
std::string PickImportName(Rng& rng, int j) {
  switch (rng.NextBounded(6)) {
    case 0:
      return StrFormat("f%d", j);
    case 1:
      return "SHARED";
    case 2:
      return "NOPE";
    case 3:
      return "deep";
    default:
      return StrFormat("K%d", j);
  }
}

std::string ImportLine(Rng& rng, int j) {
  if (rng.NextBool(0.5)) {
    return StrFormat("import_python(\"%s\", \"*\")\n", ModulePath(j).c_str());
  }
  return StrFormat("import_python(\"%s\", \"%s\")\n", ModulePath(j).c_str(),
                   PickImportName(rng, j).c_str());
}

// A call of `fn(a, b=...)` with good or bad arity.
std::string CallOf(Rng& rng, const std::string& fn) {
  switch (rng.NextBounded(6)) {
    case 0:
      return fn + "(1, 2, 3)";  // Too many positionals.
    case 1:
      return fn + "(b=2)";  // Missing required `a`.
    case 2:
      return fn + "(1, c=3)";  // Unknown keyword.
    case 3:
      return fn + "(1, a=1)";  // `a` bound twice.
    case 4:
      return fn + "(1, b=2)";
    default:
      return fn + "(1)";
  }
}

LintTree GenerateTree(Rng& rng) {
  LintTree tree;
  int n = static_cast<int>(rng.NextInRange(3, 6));
  bool deep = rng.NextBool(0.15);
  bool schema = rng.NextBool(0.2);
  tree.modules.resize(static_cast<size_t>(n));

  if (deep) {
    for (int k = 0; k < kDeepChain; ++k) {
      std::string text =
          k + 1 < kDeepChain
              ? StrFormat("import_python(\"%s\", \"*\")\nD%d = %d\n",
                          DeepPath(k + 1).c_str(), k, k)
              : StrFormat("def deep(a, b):\n    return a + b\nD%d = %d\n", k,
                          k);
      tree.extra.Put(DeepPath(k), text);
      tree.extra_csl.push_back(DeepPath(k));
    }
  }
  if (schema) {
    tree.extra.Put("schemas/cfg.thrift",
                   "struct Cfg {\n  1: optional i32 port = 80;\n}\n");
  }

  for (int i = 0; i < n; ++i) {
    std::vector<std::string>& stmts = tree.modules[static_cast<size_t>(i)];
    // Imports of sibling modules: both directions, so cycles arise.
    for (int j = 0; j < n; ++j) {
      if (j != i && rng.NextBool(0.3)) {
        stmts.push_back(ImportLine(rng, j));
      }
    }
    if (deep && rng.NextBool(0.4)) {
      stmts.push_back(
          rng.NextBool(0.5)
              ? StrFormat("import_python(\"%s\", \"*\")\n", DeepPath(0).c_str())
              : StrFormat("import_python(\"%s\", \"deep\")\n",
                          DeepPath(static_cast<int>(rng.NextBounded(3)))
                              .c_str()));
    }
    if (rng.NextBool(0.06)) {
      stmts.push_back("SRC = \"lib/m0.cinc\"\nimport_python(SRC, \"*\")\n");
    }
    if (rng.NextBool(0.06)) {
      stmts.push_back("import_python(\"lib/missing.cinc\", \"*\")\n");
    }
    if (schema && rng.NextBool(0.4)) {
      stmts.push_back("import_thrift(\"schemas/cfg.thrift\")\n");
      stmts.push_back(StrFormat("C%d = Cfg(port=%d)\n", i, 80 + i));
      if (rng.NextBool(0.5)) {
        stmts.push_back(StrFormat("C%d.port = 81\n", i));
      }
    }
    stmts.push_back(StrFormat("K%d = %d\n", i,
                              static_cast<int>(rng.NextBounded(100))));
    if (rng.NextBool(0.3)) {
      stmts.push_back(StrFormat("SHARED = %d\n", i));
    }
    if (rng.NextBool(0.7)) {
      stmts.push_back(
          StrFormat("def f%d(a, b=K%d):\n    return a + b\n", i, i));
      if (rng.NextBool(0.3)) {
        stmts.push_back(
            StrFormat("L%d = %s\n", i, CallOf(rng, StrFormat("f%d", i)).c_str()));
      }
    }
    if (rng.NextBool(0.2)) {
      stmts.push_back(StrFormat("for item in [1, 2]:\n    T%d = item\n", i));
    }
    if (i + 1 < n && rng.NextBool(0.15)) {
      stmts.push_back(StrFormat("if K%d > 10:\n    import_python(\"%s\", \"*\")\n",
                                i, ModulePath(i + 1).c_str()));
    }
    if (rng.NextBool(0.1)) {
      stmts.push_back(StrFormat("X%d = UNDEF%d\n", i, i));
    }
    if (rng.NextBool(0.1)) {
      stmts.push_back(StrFormat("Y%d = Z%d + 1\n", i, i));
      stmts.push_back(StrFormat("Z%d = 1\n", i));
    }
  }

  // The entry: imports, reads and calls.
  std::string& e = tree.entry;
  std::vector<std::string> reads;
  int imports = static_cast<int>(rng.NextInRange(1, 3));
  for (int k = 0; k < imports; ++k) {
    int j = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(n)));
    if (rng.NextBool(0.5)) {
      e += StrFormat("import_python(\"%s\", \"*\")\n", ModulePath(j).c_str());
      if (rng.NextBool(0.7)) {
        reads.push_back(StrFormat("K%d", j));
      }
      if (rng.NextBool(0.4)) {
        reads.push_back(CallOf(rng, StrFormat("f%d", j)));
      }
    } else {
      std::string name = PickImportName(rng, j);
      e += StrFormat("import_python(\"%s\", \"%s\")\n", ModulePath(j).c_str(),
                     name.c_str());
      if (rng.NextBool(0.7)) {
        reads.push_back(name.starts_with("f") || name == "deep"
                            ? CallOf(rng, name)
                            : name);
      }
    }
  }
  if (deep && rng.NextBool(0.5)) {
    e += StrFormat("import_python(\"%s\", \"*\")\n", DeepPath(0).c_str());
    reads.push_back(rng.NextBool(0.5) ? "D9" : CallOf(rng, "deep"));
  }
  if (rng.NextBool(0.08)) {
    e += "SRC = \"lib/m1.cinc\"\nimport_python(SRC, \"*\")\n";
  }
  if (rng.NextBool(0.08)) {
    e += StrFormat("import_python(\"lib/missing.cinc\", \"%s\")\n",
                   rng.NextBool(0.5) ? "*" : "K0");
  }
  if (schema && rng.NextBool(0.3)) {
    e += "import_thrift(\"schemas/cfg.thrift\")\n";
    reads.push_back("Cfg(port=1)");
  }
  if (rng.NextBool(0.3)) {
    reads.push_back(StrFormat("UNDEF%d", static_cast<int>(rng.NextBounded(3))));
  }
  if (rng.NextBool(0.3)) {
    reads.push_back("SHARED");
  }
  if (rng.NextBool(0.2)) {
    e += "W = LATER + 1\nLATER = 2\n";
    reads.push_back("W");
  }
  if (rng.NextBool(0.3)) {
    e += "unused = 5\n";
  }
  if (rng.NextBool(0.3)) {
    e += "def local(x, y=2):\n    return x * y\n";
    reads.push_back(CallOf(rng, "local"));
  }
  std::string dict;
  for (size_t k = 0; k < reads.size(); ++k) {
    dict += StrFormat("%s\"v%zu\": %s", k == 0 ? "" : ", ", k, reads[k].c_str());
  }
  e += "export_if_last({" + dict + "})\n";
  return tree;
}

// One random edit of a module's statement list.
std::vector<std::string> Mutate(Rng& rng, std::vector<std::string> stmts,
                                int i) {
  size_t pick = stmts.empty() ? 0 : rng.NextBounded(stmts.size());
  switch (rng.NextBounded(5)) {
    case 0:  // Comment only.
      stmts.insert(stmts.begin() + static_cast<long>(pick), "# note\n");
      break;
    case 1:  // Drop a statement.
      if (!stmts.empty()) {
        stmts.erase(stmts.begin() + static_cast<long>(pick));
      }
      break;
    case 2:  // Add a symbol.
      stmts.push_back(StrFormat("NEW%d = K%d + 1\n", i, i));
      break;
    case 3:  // Change the value of a statement's last line.
      if (!stmts.empty()) {
        stmts[pick].insert(stmts[pick].size() - 1, " + 1");
      }
      break;
    default:  // Rebind a statement's names again.
      if (!stmts.empty()) {
        stmts.push_back(stmts[pick]);
      }
      break;
  }
  return stmts;
}

std::string DescribeChanged(const std::optional<std::set<std::string>>& changed) {
  if (!changed.has_value()) {
    return "incomparable";
  }
  return StrJoin(std::vector<std::string>(changed->begin(), changed->end()),
                 ",");
}

struct GoldenRun {
  std::string digest;
  int trees_with_findings = 0;  // Trees with an L001, L002, L004 or L008.
};

// Lints every tree, through `store` when it is set and otherwise through
// each tree's linter's own store.
GoldenRun RunGolden(AnalysisStore* store) {
  Rng rng(kSeed);
  Sha256 digest;
  GoldenRun run;
  for (int t = 0; t < kTrees; ++t) {
    LintTree tree = GenerateTree(rng);
    InMemorySources sources = tree.Sources();
    FileReader reader = sources.AsReader();
    ConfigLint lint =
        store == nullptr ? ConfigLint(reader) : ConfigLint(reader, *store);
    std::string record = StrFormat("tree %d", t);
    bool counted = false;
    for (const std::string& path : tree.CslPaths()) {
      record += "\n" + path;
      for (const LintDiagnostic& diag : lint.LintFile(path, *reader(path))) {
        record += "\n" + diag.Format();
        counted = counted || diag.rule_id == "L001" ||
                  diag.rule_id == "L002" || diag.rule_id == "L004" ||
                  diag.rule_id == "L008";
      }
    }
    run.trees_with_findings += counted ? 1 : 0;
    for (size_t i = 0; i < tree.modules.size(); ++i) {
      int m = static_cast<int>(i);
      std::vector<std::string> mutation = Mutate(rng, tree.modules[i], m);
      InMemorySources mutated = tree.Sources(m, &mutation);
      const std::string path = ModulePath(m);
      auto changed =
          ChangedSymbols(ComputeSymbolSurface(ParseCsl(*reader(path), path)),
                         ComputeSymbolSurface(
                             ParseCsl(*mutated.AsReader()(path), path)));
      record += "\nchanged " + path + ": " + DescribeChanged(changed);
    }
    // Length-prefixed, so record boundaries cannot shift between trees.
    digest.Update(StrFormat("%zu:", record.size()));
    digest.Update(record);
  }
  run.digest = digest.Finish().ToHex();
  return run;
}

TEST(LintGoldenTest, FindingsAndChangedSymbolsMatchGoldenDigest) {
  GoldenRun fresh = RunGolden(nullptr);
  // The battery must exercise the name-resolution rules, or it pins nothing.
  EXPECT_GE(fresh.trees_with_findings, kTrees / 3);
  EXPECT_EQ(fresh.digest, kGoldenDigest);

  AnalysisStore store;
  GoldenRun stored = RunGolden(&store);
  EXPECT_EQ(stored.digest, fresh.digest)
      << "lint through the analysis store disagrees with lint without one";
}

}  // namespace
}  // namespace configerator
