#include "src/analysis/store.h"

namespace configerator {

std::shared_ptr<const AbsintResult> AnalysisStore::Absint(
    AnalysisStore* store, const FileReader& reader, const std::string& path,
    const std::string& content) {
  auto analyze = [&] {
    return std::make_shared<const AbsintResult>(
        AbstractInterpreter(reader, Units(store)).Analyze(path, content));
  };
  if (store == nullptr) {
    return analyze();
  }
  std::optional<Sha256Digest> digest;
  if (auto served = reader(path); served.ok() && *served == content) {
    if (auto closure = ClosureDigest(path, reader, store->units_);
        closure.ok()) {
      digest = *closure;
    }
  }
  if (!digest.has_value()) {
    ++store->absint_misses_;
    return analyze();
  }
  RecentVersions<StoredAbsint>& versions = store->absints_[path];
  if (StoredAbsint* hit = versions.Find(
          [&](const StoredAbsint& s) { return s.digest == *digest; })) {
    ++store->absint_hits_;
    return hit->result;
  }
  ++store->absint_misses_;
  return versions.Add(StoredAbsint{*digest, analyze()}).result;
}

std::shared_ptr<const ModuleSymbolSurface> AnalysisStore::Surface(
    AnalysisStore* store, const std::string& path,
    const std::string& content) {
  if (store == nullptr) {
    return std::make_shared<const ModuleSymbolSurface>(
        ComputeSymbolSurface(path, content));
  }
  std::shared_ptr<const std::string> source =
      store->units_->Intern(path, content).content;
  RecentVersions<StoredSurface>& versions = store->surfaces_[path];
  if (StoredSurface* hit = versions.Find(
          [&](const StoredSurface& s) { return s.source == source; })) {
    return hit->surface;
  }
  auto surface = std::make_shared<const ModuleSymbolSurface>(
      ComputeSymbolSurface(path, content, store->units_));
  return versions.Add(StoredSurface{std::move(source), std::move(surface)})
      .surface;
}

std::shared_ptr<const InvariantRegistry> AnalysisStore::Registry(
    const FileReader& reader, const std::vector<std::string>& spec_files) {
  StoredRegistry key;
  for (const std::string& file : spec_files) {
    auto content = reader(file);
    key.specs.emplace_back(file, content.ok() ? std::optional(*content)
                                              : std::nullopt);
  }
  if (StoredRegistry* hit = registries_.Find(
          [&](const StoredRegistry& s) { return s.specs == key.specs; })) {
    return hit->registry;
  }
  ++registry_parses_;
  key.registry = std::make_shared<const InvariantRegistry>(
      InvariantRegistry::Load(reader, spec_files));
  return registries_.Add(std::move(key)).registry;
}

size_t AnalysisStore::absints_for(const std::string& path) const {
  auto it = absints_.find(path);
  return it == absints_.end() ? 0 : it->second.size();
}

}  // namespace configerator
