#include "src/lang/ast_cache.h"

namespace configerator {

Result<std::shared_ptr<Module>> AstCache::GetOrParse(
    const std::string& path, const std::string& content,
    std::vector<LintDiagnostic>* lint_diags) {
  return Lookup(path, content, nullptr, lint_diags);
}

Result<std::shared_ptr<Module>> AstCache::GetOrParse(
    const std::string& path, std::shared_ptr<const std::string> content,
    std::vector<LintDiagnostic>* lint_diags) {
  const std::string& bytes = *content;
  return Lookup(path, bytes, std::move(content), lint_diags);
}

Result<std::shared_ptr<Module>> AstCache::Lookup(
    const std::string& path, const std::string& content,
    std::shared_ptr<const std::string> shared,
    std::vector<LintDiagnostic>* lint_diags) {
  auto it = entries_.find(path);
  if (it != entries_.end() &&
      (it->second.content == shared || *it->second.content == content)) {
    ++hits_;
    const Entry& entry = it->second;
    if (lint_diags != nullptr) {
      lint_diags->insert(lint_diags->end(), entry.parse_diags.begin(),
                         entry.parse_diags.end());
    }
    if (entry.module == nullptr) {
      return entry.error;
    }
    return entry.module;
  }

  ++misses_;
  Entry entry;
  entry.content = shared != nullptr
                      ? std::move(shared)
                      : std::make_shared<const std::string>(content);
  auto parsed = ParseCsl(content, path, &entry.parse_diags);
  if (parsed.ok()) {
    entry.module = *parsed;
  } else {
    entry.error = parsed.status();
  }
  if (lint_diags != nullptr) {
    lint_diags->insert(lint_diags->end(), entry.parse_diags.begin(),
                       entry.parse_diags.end());
  }
  entries_[path] = std::move(entry);
  if (entries_[path].module == nullptr) {
    return entries_[path].error;
  }
  return entries_[path].module;
}

}  // namespace configerator
