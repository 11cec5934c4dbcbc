// Dependency Service (paper Fig 3 / §3.1): tracks which entry configs
// transitively depend on which source files, extracted automatically from
// import statements by the compiler — "without the need to manually edit a
// makefile". When a shared file (e.g. app_port.cinc) changes, the service
// answers which .cconf entries must be recompiled so all affected JSON
// configs update in one commit.

#ifndef SRC_PIPELINE_DEPENDENCY_H_
#define SRC_PIPELINE_DEPENDENCY_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/absint.h"

namespace configerator {

class DependencyService {
 public:
  // Records (replaces) the dependency set of one entry config. The entry
  // itself is always implicitly a dependency.
  void UpdateEntry(const std::string& entry, const std::vector<std::string>& deps);

  // Removes an entry (its source was deleted).
  void RemoveEntry(const std::string& entry);

  // All entries affected by changes to `changed_paths` (sorted, unique).
  std::vector<std::string> EntriesAffectedBy(
      const std::vector<std::string>& changed_paths) const;

  // Records (replaces) the symbol-level slice of one entry, produced by the
  // abstract interpreter (AbsintResult::used_symbols): which top-level
  // symbols of which files the entry's compile actually consumes. The
  // service keeps the shared slice, not a copy. `sound` mirrors
  // AbsintResult::slice_sound — an unsound slice is stored for fan-in
  // statistics but never used to prune.
  void UpdateEntrySymbols(const std::string& entry,
                          std::shared_ptr<const SymbolSlice> used_symbols,
                          bool sound);

  // File-level dependents of `path`, pruned by symbol slices. Pass the
  // symbols ChangedSymbols() reported for the edit (when it reports nullopt,
  // the edit is not comparable: use EntriesAffectedBy). `path` itself, when
  // it is an entry, is always included. An empty set (no symbol changed)
  // prunes every other dependent. Otherwise an entry with a sound slice is
  // dropped when it reads none of `changed_symbols` from `path`, unless
  // `changed_symbols` contains "*" and the entry star-imports the file;
  // entries without a sound slice are always included (file-level
  // fallback).
  std::vector<std::string> EntriesAffectedBySymbols(
      const std::string& path, const std::set<std::string>& changed_symbols) const;

  // How many entries actually consume `symbol` from `path` (sound slices
  // count precisely; entries without one count conservatively).
  size_t SymbolFanIn(const std::string& path, const std::string& symbol) const;

  // Direct dependencies of an entry (empty if unknown).
  std::vector<std::string> DependenciesOf(const std::string& entry) const;

  size_t entry_count() const { return deps_of_entry_.size(); }

 private:
  struct EntrySlice {
    std::shared_ptr<const SymbolSlice> used;  // path -> symbols.
    bool sound = false;
  };

  std::map<std::string, std::set<std::string>> deps_of_entry_;
  std::map<std::string, std::set<std::string>> entries_of_dep_;  // Inverted.
  std::map<std::string, EntrySlice> slice_of_entry_;
};

}  // namespace configerator

#endif  // SRC_PIPELINE_DEPENDENCY_H_
