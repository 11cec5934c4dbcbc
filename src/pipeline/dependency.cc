#include "src/pipeline/dependency.h"

#include <algorithm>

namespace configerator {

void DependencyService::UpdateEntry(const std::string& entry,
                                    const std::vector<std::string>& deps) {
  RemoveEntry(entry);
  std::set<std::string>& dep_set = deps_of_entry_[entry];
  dep_set.insert(entry);
  for (const std::string& dep : deps) {
    dep_set.insert(dep);
  }
  for (const std::string& dep : dep_set) {
    entries_of_dep_[dep].insert(entry);
  }
}

void DependencyService::RemoveEntry(const std::string& entry) {
  slice_of_entry_.erase(entry);
  auto it = deps_of_entry_.find(entry);
  if (it == deps_of_entry_.end()) {
    return;
  }
  for (const std::string& dep : it->second) {
    auto inv = entries_of_dep_.find(dep);
    if (inv != entries_of_dep_.end()) {
      inv->second.erase(entry);
      if (inv->second.empty()) {
        entries_of_dep_.erase(inv);
      }
    }
  }
  deps_of_entry_.erase(it);
}

std::vector<std::string> DependencyService::EntriesAffectedBy(
    const std::vector<std::string>& changed_paths) const {
  std::set<std::string> affected;
  for (const std::string& path : changed_paths) {
    auto it = entries_of_dep_.find(path);
    if (it != entries_of_dep_.end()) {
      affected.insert(it->second.begin(), it->second.end());
    }
  }
  return {affected.begin(), affected.end()};
}

void DependencyService::UpdateEntrySymbols(
    const std::string& entry, std::shared_ptr<const SymbolSlice> used_symbols,
    bool sound) {
  slice_of_entry_[entry] = EntrySlice{std::move(used_symbols), sound};
}

std::vector<std::string> DependencyService::EntriesAffectedBySymbols(
    const std::string& path, const std::set<std::string>& changed_symbols) const {
  std::vector<std::string> affected;
  auto it = entries_of_dep_.find(path);
  if (it == entries_of_dep_.end()) {
    return affected;
  }
  bool surface_grew = changed_symbols.count("*") > 0;
  for (const std::string& entry : it->second) {
    if (entry == path) {
      affected.push_back(entry);  // The entry's own source changed.
      continue;
    }
    if (changed_symbols.empty()) {
      continue;  // No symbol changed, so no dependent can observe the edit.
    }
    auto sit = slice_of_entry_.find(entry);
    if (sit == slice_of_entry_.end() || !sit->second.sound) {
      affected.push_back(entry);  // No sound slice: file-level fallback.
      continue;
    }
    auto uit = sit->second.used->find(path);
    if (uit == sit->second.used->end()) {
      continue;  // Sound slice that never reads the file: pruned.
    }
    const std::set<std::string>& used = uit->second;
    bool star_importer = used.count("*") > 0;
    bool hit = surface_grew && star_importer;
    for (const std::string& symbol : changed_symbols) {
      if (hit) {
        break;
      }
      hit = symbol != "*" && used.count(symbol) > 0;
    }
    if (hit) {
      affected.push_back(entry);
    }
  }
  return affected;
}

size_t DependencyService::SymbolFanIn(const std::string& path,
                                      const std::string& symbol) const {
  auto it = entries_of_dep_.find(path);
  if (it == entries_of_dep_.end()) {
    return 0;
  }
  size_t fan_in = 0;
  for (const std::string& entry : it->second) {
    auto sit = slice_of_entry_.find(entry);
    if (sit == slice_of_entry_.end() || !sit->second.sound) {
      ++fan_in;  // Unknown slice counts conservatively.
      continue;
    }
    auto uit = sit->second.used->find(path);
    if (uit != sit->second.used->end() &&
        (uit->second.count(symbol) > 0 || uit->second.count("*") > 0)) {
      ++fan_in;
    }
  }
  return fan_in;
}

std::vector<std::string> DependencyService::DependenciesOf(
    const std::string& entry) const {
  auto it = deps_of_entry_.find(entry);
  if (it == deps_of_entry_.end()) {
    return {};
  }
  return {it->second.begin(), it->second.end()};
}

}  // namespace configerator
