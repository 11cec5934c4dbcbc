#include "src/lang/unit_cache.h"

#include <utility>

namespace configerator {

FileReader ReadTrace::Recorder(FileReader reader, CompiledUnitCache* cache) {
  // Where each recorded path sits in reads_; held by the reader, not by the
  // stored trace.
  auto index = std::make_shared<std::map<std::string, size_t>>();
  return [this, reader = std::move(reader), cache,
          index](const std::string& path) -> Result<std::string> {
    auto [at, inserted] = index->emplace(path, reads_.size());
    if (!inserted) {
      const Read& read = reads_[at->second];
      if (read.content == nullptr) {
        return read.status;
      }
      return *read.content;
    }
    Result<std::string> result = reader(path);
    reads_.push_back(
        result.ok()
            ? Read{path, cache->Intern(path, *result).content, OkStatus()}
            : Read{path, nullptr, result.status()});
    return result;
  };
}

bool ReadTrace::Holds(const FileReader& reader) const {
  for (const Read& read : reads_) {
    Result<std::string> now = reader(read.path);
    bool same = read.content == nullptr
                    ? !now.ok() && now.status() == read.status
                    : now.ok() && *now == *read.content;
    if (!same) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> ReadTrace::Paths() const {
  std::vector<std::string> paths;
  paths.reserve(reads_.size());
  for (const Read& read : reads_) {
    paths.push_back(read.path);
  }
  return paths;
}

const CompiledUnitCache::Unit& CompiledUnitCache::Intern(
    const std::string& path, const std::string& content) {
  return Version(path, content);
}

CompiledUnitCache::Unit& CompiledUnitCache::Version(
    const std::string& path, const std::string& content) {
  RecentVersions<Unit>& versions = units_[path];
  if (Unit* unit = versions.Find(
          [&](const Unit& u) { return *u.content == content; })) {
    return *unit;
  }
  Unit unit;
  unit.content = std::make_shared<const std::string>(content);
  return versions.Add(std::move(unit));
}

Result<std::shared_ptr<Module>> CompiledUnitCache::GetOrParse(
    const std::string& path, const std::string& content,
    std::vector<LintDiagnostic>* lint_diags) {
  Unit& unit = Version(path, content);
  if (unit.parsed) {
    ++hits_;
  } else {
    ++misses_;
    auto parsed = ParseCsl(content, path, &unit.parse_diags);
    if (parsed.ok()) {
      unit.module = *parsed;
    } else {
      unit.parse_error = parsed.status();
    }
    unit.parsed = true;
  }
  if (lint_diags != nullptr) {
    lint_diags->insert(lint_diags->end(), unit.parse_diags.begin(),
                       unit.parse_diags.end());
  }
  if (unit.module == nullptr) {
    return unit.parse_error;
  }
  return unit.module;
}

const CompiledUnitCache::MemoizedOutput* CompiledUnitCache::FindOutput(
    const std::string& entry, const FileReader& reader) {
  StoredOutput* stored = outputs_[entry].Find(
      [&](const StoredOutput& s) { return s.trace.Holds(reader); });
  if (stored == nullptr) {
    ++output_misses_;
    return nullptr;
  }
  ++output_hits_;
  return &stored->result;
}

void CompiledUnitCache::StoreOutput(const std::string& entry, ReadTrace trace,
                                    MemoizedOutput result) {
  outputs_[entry].Add(StoredOutput{std::move(trace), std::move(result)});
}

size_t CompiledUnitCache::outputs_for(const std::string& entry) const {
  auto it = outputs_.find(entry);
  return it == outputs_.end() ? 0 : it->second.size();
}

}  // namespace configerator
