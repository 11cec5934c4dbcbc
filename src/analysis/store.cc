#include "src/analysis/store.h"

#include <set>

#include "src/analysis/invariant.h"

namespace configerator {

namespace {

// Composes what importing a module binds: depth first, each module's imports
// in source order, each module composed once per lookup.
class ImportComposer {
 public:
  ImportComposer(AnalysisStore& store, const FileReader& reader)
      : store_(store), reader_(reader) {}

  ImportBinding Compose(const std::string& path, int depth) {
    ImportBinding out;
    if (depth > AnalysisStore::kMaxImportDepth ||
        !visiting_.insert(path).second) {
      out.unresolved = true;
      return out;
    }
    auto composed = composed_.find(path);
    if (composed != composed_.end()) {
      visiting_.erase(path);
      return composed->second;
    }
    std::shared_ptr<const ModuleSymbolSurface> surface;
    if (reader_) {
      if (auto content = reader_(path); content.ok()) {
        surface = store_.Surface(path, *content);
      } else {
        out.missing = content.status().code() == StatusCode::kNotFound;
      }
    }
    if (surface == nullptr || !surface->analyzable) {
      out.unresolved = true;
      visiting_.erase(path);
      return out;
    }
    out.unresolved = surface->has_dynamic_import;
    out.has_schema_import = surface->has_schema_import;
    // Later bindings win. A name's module follows the line of its last
    // binding seen; a signature, the line of the last import that carried
    // one against the module's own last `def`.
    std::map<std::string, int> bound_at;
    std::map<std::string, int> function_at;
    for (const auto& [name, line] : surface->binding_lines) {
      out.names[name].module = path;
      bound_at[name] = line;
    }
    for (const ModuleImport& import : surface->imports) {
      ImportBinding nested = Compose(import.path, depth + 1);
      out.unresolved = out.unresolved || nested.unresolved;
      out.has_schema_import =
          out.has_schema_import || nested.has_schema_import;
      auto bind = [&](const std::string& name,
                      const ImportBinding::Name* from) {
        ImportBinding::Name& slot = out.names[name];
        auto at = bound_at.find(name);
        if (at == bound_at.end() || at->second < import.line) {
          slot.module = from != nullptr ? from->module : import.path;
          bound_at[name] = import.line;
        }
        if (from != nullptr && from->function.has_value()) {
          slot.function = from->function;
          slot.function_module = from->function_module;
          function_at[name] = import.line;
        }
      };
      if (import.filter == "*") {
        for (const auto& [name, bound] : nested.names) {
          bind(name, &bound);
        }
      } else {
        auto it = nested.names.find(import.filter);
        bind(import.filter, it != nested.names.end() ? &it->second : nullptr);
      }
    }
    for (const auto& [name, sig] : surface->functions) {
      auto at = function_at.find(name);
      if (at == function_at.end() || sig.def_line > at->second) {
        ImportBinding::Name& slot = out.names[name];
        slot.function = sig;
        slot.function_module = path;
      }
    }
    visiting_.erase(path);
    return composed_[path] = std::move(out);
  }

 private:
  AnalysisStore& store_;
  const FileReader& reader_;
  std::set<std::string> visiting_;
  std::map<std::string, ImportBinding> composed_;
};

}  // namespace

std::shared_ptr<const AbsintResult> AnalysisStore::Absint(
    const FileReader& reader, const std::string& path,
    const std::string& content) {
  // The trace starts with the entry's own bytes, read as the analysis would
  // read them if an import led back to the entry.
  ReadTrace trace;
  FileReader recorder = trace.Recorder(reader, &units_);
  if (auto served = recorder(path); !served.ok() || *served != content) {
    ++absint_misses_;
    return std::make_shared<const AbsintResult>(
        AbstractInterpreter(reader, units_).Analyze(path, content));
  }
  RecentVersions<StoredAbsint>& versions = absints_[path];
  if (StoredAbsint* hit = versions.Find(
          [&](const StoredAbsint& s) { return s.trace.Holds(reader); })) {
    ++absint_hits_;
    return hit->result;
  }
  ++absint_misses_;
  auto result = std::make_shared<const AbsintResult>(
      AbstractInterpreter(recorder, units_).Analyze(path, content));
  return versions.Add(StoredAbsint{std::move(trace), std::move(result)})
      .result;
}

std::shared_ptr<const ModuleSymbolSurface> AnalysisStore::Surface(
    const std::string& path, const std::string& content) {
  std::shared_ptr<const std::string> source =
      units_.Intern(path, content).content;
  RecentVersions<StoredSurface>& versions = surfaces_[path];
  if (StoredSurface* hit = versions.Find(
          [&](const StoredSurface& s) { return s.source == source; })) {
    return hit->surface;
  }
  auto surface = std::make_shared<const ModuleSymbolSurface>(
      ComputeSymbolSurface(units_.GetOrParse(path, content)));
  return versions.Add(StoredSurface{std::move(source), std::move(surface)})
      .surface;
}

ImportBinding AnalysisStore::Import(const FileReader& reader,
                                    const std::string& path,
                                    const std::string& filter) {
  ImportBinding all = ImportComposer(*this, reader).Compose(path, 1);
  if (filter == "*") {
    return all;
  }
  ImportBinding one;
  one.unresolved = all.unresolved;
  one.has_schema_import = all.has_schema_import;
  one.missing = all.missing;
  if (auto it = all.names.find(filter); it != all.names.end()) {
    one.names.insert(*it);
  }
  return one;
}

std::shared_ptr<const InvariantRegistry> AnalysisStore::Registry(
    const FileReader& reader, const std::vector<std::string>& spec_files) {
  if (StoredRegistry* hit = registries_.Find([&](const StoredRegistry& s) {
        return s.spec_files == spec_files && s.trace.Holds(reader);
      })) {
    return hit->registry;
  }
  ++registry_parses_;
  StoredRegistry stored{spec_files, ReadTrace(), nullptr};
  stored.registry = std::make_shared<const InvariantRegistry>(
      InvariantRegistry::Load(stored.trace.Recorder(reader, &units_),
                              spec_files));
  return registries_.Add(std::move(stored)).registry;
}

size_t AnalysisStore::absints_for(const std::string& path) const {
  auto it = absints_.find(path);
  return it == absints_.end() ? 0 : it->second.size();
}

}  // namespace configerator
