// Provenance graph (see docs/ANALYSIS.md): the repo-wide answer to "where
// does this symbol's value come from, and who consumes it?". Nodes are the
// top-level symbols of every reachable CSL module, the exports of every
// entry, and every Gatekeeper project; edges are the abstract interpreter's
// symbol-level dependency slices (flow-sensitive, cross-module, through the
// shared ImportResolver), the intra-module def-use graph, and — for
// Gatekeeper projects — the restraint types and UserContext fields their
// rules consult, modeled as pseudo-modules ("restraints", "context",
// "laser" with the type/field/project names as symbols).
//
// The graph powers three things the per-file analyses cannot:
//   * line -> symbol attribution (SymbolsAtLine), the input root-cause
//     bisection needs;
//   * reverse reachability (Dependents), the semantic differ's blast radius;
//   * whole-repo gating rules that need global fan-in — G007 (dead export),
//     G009 (stale restraint reference anywhere in the closure), G010
//     (shadowed import).

#ifndef SRC_ANALYSIS_PROVENANCE_H_
#define SRC_ANALYSIS_PROVENANCE_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/absint.h"
#include "src/analysis/diagnostic.h"
#include "src/gatekeeper/restraint.h"
#include "src/lang/compiler.h"

namespace configerator {

class AnalysisStore;

// One node: a top-level CSL symbol, an entry export (symbol = output path),
// or a Gatekeeper project (symbol = project name).
struct ProvenanceNode {
  std::string file;
  std::string symbol;
  // Source line ranges [first, last] of the defining statements (CSL only).
  std::vector<std::pair<int, int>> def_lines;
  // What this node's value was derived from: module path (or pseudo-module
  // "restraints"/"context"/"laser") -> symbols.
  std::map<std::string, std::set<std::string>> deps;
  // Abstract value summary (CSL symbols only; empty default for projects).
  SymbolSummary summary;
  bool is_export = false;      // Entry export (symbol is the output path).
  bool is_gatekeeper = false;  // Gatekeeper project node.
};

class ProvenanceGraph {
 public:
  // Builds the graph rooted at `paths` (entry configs, modules, Gatekeeper
  // specs — non-CSL/non-Gatekeeper paths are ignored), following imports
  // through `reader` transitively. `store` (see src/analysis/store.h)
  // serves the files' analyses; without one, the call uses a private store.
  static ProvenanceGraph Build(const FileReader& reader,
                               const std::vector<std::string>& paths,
                               const RestraintRegistry& registry =
                                   RestraintRegistry::Builtin(),
                               AnalysisStore* store = nullptr);

  // All nodes, keyed (file, symbol); deterministic order.
  const std::map<std::pair<std::string, std::string>, ProvenanceNode>& nodes()
      const {
    return nodes_;
  }
  const ProvenanceNode* Find(const std::string& file,
                             const std::string& symbol) const;

  // Direct consumers of (file, symbol): nodes whose deps include it.
  std::set<std::pair<std::string, std::string>> Dependents(
      const std::string& file, const std::string& symbol) const;

  // Symbols of `file` whose definition ranges contain `line` (sorted).
  std::vector<std::string> SymbolsAtLine(const std::string& file,
                                         int line) const;

  // Graph-driven gating findings: G007 dead export, G009 stale restraint
  // reference, G010 shadowed import. Sorted canonically.
  const std::vector<LintDiagnostic>& findings() const { return findings_; }

  // False when some import was dynamic or some file unreadable/unparseable:
  // fan-in is then incomplete and G007 is suppressed (the other rules only
  // need local facts and still fire).
  bool sound() const { return sound_; }

 private:
  std::map<std::pair<std::string, std::string>, ProvenanceNode> nodes_;
  // Reverse edges: (file, symbol) -> consumers.
  std::map<std::pair<std::string, std::string>,
           std::set<std::pair<std::string, std::string>>>
      dependents_;
  std::vector<LintDiagnostic> findings_;
  bool sound_ = true;
};

}  // namespace configerator

#endif  // SRC_ANALYSIS_PROVENANCE_H_
