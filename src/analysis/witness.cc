#include "src/analysis/witness.h"

#include <cstring>
#include <utility>

#include "src/util/ddmin.h"
#include "src/util/strings.h"

namespace configerator {

std::string Witness::Describe() const {
  std::string out = predicate;
  if (!valuation.empty()) {
    out += " [";
    for (size_t i = 0; i < valuation.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += valuation[i].first + " = " + valuation[i].second;
    }
    out += "]";
  }
  if (!context.empty()) {
    out += " with context {";
    for (size_t i = 0; i < context.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += context[i].first + "=" + context[i].second;
    }
    out += "}";
  }
  return out;
}

ConcreteEvaluator::ConcreteEvaluator(FileReader reader,
                                     CompiledUnitCache& units)
    : reader_(std::move(reader)), units_(units) {}

const std::optional<Json>& ConcreteEvaluator::ResolveConfig(
    const std::string& config) {
  auto it = cache_.find(config);
  if (it != cache_.end()) {
    return it->second;
  }
  ++evaluations_;
  std::optional<Json> resolved;
  // An entry-produced config: compile the source for real. One entry can
  // export several configs; pick the one whose path matches.
  if (config.ends_with(".json")) {
    std::string entry =
        config.substr(0, config.size() - strlen(".json")) + ".cconf";
    if (reader_(entry).ok()) {
      CompilerOptions options;
      options.unit_cache = &units_;
      ConfigCompiler compiler(reader_, options);
      auto output = compiler.Compile(entry);
      if (output.ok()) {
        for (CompiledConfig& compiled : output->configs) {
          if (compiled.path == config) {
            resolved = std::move(compiled.content);
            break;
          }
        }
      }
    }
  }
  if (!resolved.has_value()) {
    auto content = reader_(config);
    if (content.ok()) {
      auto parsed = Json::Parse(*content);
      if (parsed.ok()) {
        resolved = std::move(*parsed);
      }
    }
  }
  return cache_.emplace(config, std::move(resolved)).first->second;
}

std::optional<Json> ConcreteEvaluator::Field(const std::string& config,
                                             const std::string& dot_path) {
  const std::optional<Json>& root = ResolveConfig(config);
  if (!root.has_value()) {
    return std::nullopt;
  }
  const Json* cursor = &*root;
  size_t pos = 0;
  while (pos < dot_path.size()) {
    size_t dot = dot_path.find('.', pos);
    std::string key = dot == std::string::npos
                          ? dot_path.substr(pos)
                          : dot_path.substr(pos, dot - pos);
    cursor = cursor->Get(key);
    if (cursor == nullptr) {
      return std::nullopt;
    }
    pos = dot == std::string::npos ? dot_path.size() : dot + 1;
  }
  return *cursor;
}

bool ConcreteEvaluator::ConfigExists(const std::string& config) {
  return ResolveConfig(config).has_value();
}

std::string RenderWitnessValue(const Json& value) { return value.Dump(); }

std::vector<size_t> ShrinkSumWitness(const std::vector<double>& values,
                                     double budget, bool strict_exceeds,
                                     int* probes) {
  auto violates = [&](const std::vector<size_t>& kept) {
    double sum = 0;
    for (size_t i : kept) {
      sum += values[i];
    }
    // strict_exceeds: the invariant was `sum < budget`, so any sum >= budget
    // violates; otherwise the invariant was `sum <= budget`.
    return strict_exceeds ? sum >= budget : sum > budget;
  };
  return DdminSubset(values.size(), violates, /*max_probes=*/256, probes);
}

}  // namespace configerator
