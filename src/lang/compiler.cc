#include "src/lang/compiler.h"

#include <chrono>
#include <cstring>
#include <set>

#include "src/lang/builtins.h"
#include "src/lang/unit_cache.h"
#include "src/obs/metrics.h"
#include "src/schema/typecheck.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace configerator {

// One hermetic compilation of one entry file. Every file it reads, it
// reads through `reader`.
class ConfigCompiler::Session {
 public:
  Session(FileReader reader, std::string entry_path, CompilerOptions options)
      : reader_(std::move(reader)),
        entry_path_(std::move(entry_path)),
        options_(options),
        interp_(&registry_, MakeHooks()) {}

  Result<CompileOutput> Run() {
    ASSIGN_OR_RETURN(std::string source, reader_(entry_path_));
    auto globals = NewGlobals();
    RETURN_IF_ERROR(
        EvalSource(entry_path_, source, globals, /*exports_enabled=*/true));

    // Post-process exports: type check, defaults, validators.
    CompileOutput output;
    for (auto& [path, value] : exports_) {
      CompiledConfig config;
      config.path = path;
      config.type_name = value.type_name();
      ASSIGN_OR_RETURN(Json json, value.ToJson());
      if (!config.type_name.empty() &&
          !config.type_name.starts_with("enum ")) {
        RETURN_IF_ERROR(
            TypeCheckStruct(registry_, config.type_name, json, config.path));
        ASSIGN_OR_RETURN(json, ApplyDefaults(registry_, config.type_name, json));
        // Re-check with defaults applied so validators see complete configs.
        RETURN_IF_ERROR(
            TypeCheckStruct(registry_, config.type_name, json, config.path));
        RETURN_IF_ERROR(RunValidators(config.type_name, json));
      }
      config.content = std::move(json);
      output.configs.push_back(std::move(config));
    }
    if (output.configs.empty()) {
      return InvalidConfigError(entry_path_ + ": compiled without exporting any config");
    }
    return output;
  }

 private:
  Interp::Hooks MakeHooks() {
    Interp::Hooks hooks;
    hooks.import_module = [this](const std::string& path) {
      return ImportModule(path);
    };
    hooks.import_schema = [this](const std::string& path) {
      return ImportSchema(path);
    };
    hooks.export_config = [this](const std::string& name, const Value& value) {
      return ExportConfig(name, value);
    };
    return hooks;
  }

  std::shared_ptr<Environment> NewGlobals() {
    return interp_.NewEnvironment(interp_.MakeBaseEnvironment());
  }

  // Evaluates one module source: a parse-cache lookup (the compile half of
  // the csl.{compile,execute}_micros split), then the tree walk.
  Status EvalSource(const std::string& path, const std::string& source,
                    const std::shared_ptr<Environment>& globals,
                    bool exports_enabled) {
    CompiledUnitCache* cache = options_.unit_cache;
    MetricsRegistry* metrics = options_.metrics;
    size_t hits_before = cache->hits();
    size_t misses_before = cache->misses();
    auto parse_start = std::chrono::steady_clock::now();
    auto module = cache->GetOrParse(path, source);
    auto parse_end = std::chrono::steady_clock::now();
    if (metrics != nullptr) {
      metrics->GetCounter("csl.unit_cache.hits")
          ->Inc(cache->hits() - hits_before);
      metrics->GetCounter("csl.unit_cache.misses")
          ->Inc(cache->misses() - misses_before);
      metrics->GetHistogram("csl.compile_micros")
          ->Record(std::chrono::duration<double, std::micro>(parse_end -
                                                             parse_start)
                       .count());
    }
    if (!module.ok()) {
      return module.status();
    }
    // Closures point into the module; keep it alive past the cache.
    modules_alive_.push_back(*module);
    Status status = interp_.EvalModule(**module, globals, exports_enabled);
    if (metrics != nullptr) {
      metrics->GetHistogram("csl.execute_micros")
          ->Record(std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - parse_end)
                       .count());
    }
    return status;
  }

  Result<std::shared_ptr<Environment>> ImportModule(const std::string& path) {
    auto cached = module_envs_.find(path);
    if (cached != module_envs_.end()) {
      if (cached->second == nullptr) {
        return InvalidConfigError("import cycle through '" + path + "'");
      }
      return cached->second;
    }
    module_envs_[path] = nullptr;  // Cycle marker.
    ASSIGN_OR_RETURN(std::string source, reader_(path));
    auto globals = NewGlobals();
    RETURN_IF_ERROR(
        EvalSource(path, source, globals, /*exports_enabled=*/false));
    module_envs_[path] = globals;
    return globals;
  }

  // Loads an imported schema (a file another schema already included is
  // not read again) and evaluates its validator companion.
  Status ImportSchema(const std::string& path) {
    if (!imported_schemas_.insert(path).second) {
      return OkStatus();
    }
    RETURN_IF_ERROR(registry_.Load(path, reader_));
    RETURN_IF_ERROR(registry_.ResolveAll());
    // Load the companion validator module if one exists. Missing validators
    // are fine; anything else (e.g. a validator that fails to parse) is not.
    // The probe is a read like any other: a validator added later changes
    // what it returns.
    std::string validator_path = path + "-cvalidator";
    auto validator_source = reader_(validator_path);
    if (validator_source.ok()) {
      auto globals = NewGlobals();
      RETURN_IF_ERROR(EvalSource(validator_path, *validator_source, globals,
                                 /*exports_enabled=*/false));
      for (const auto& [name, value] : globals->vars()) {
        if (name.starts_with("validate_") && value.is_callable()) {
          validators_[name.substr(strlen("validate_"))].push_back(value);
        }
      }
    } else if (validator_source.status().code() != StatusCode::kNotFound) {
      return validator_source.status();
    }
    return OkStatus();
  }

  Status ExportConfig(const std::string& name, const Value& value) {
    std::string path =
        name.empty() ? ConfigCompiler::OutputPathFor(entry_path_) : name;
    if (exports_.count(path) > 0) {
      return InvalidConfigError("config '" + path + "' exported twice");
    }
    exports_.emplace(path, value);
    return OkStatus();
  }

  Status RunValidators(const std::string& type_name, const Json& json) {
    auto it = validators_.find(type_name);
    if (it == validators_.end()) {
      return OkStatus();
    }
    ASSIGN_OR_RETURN(Value cfg, Value::FromJson(json, interp_.arena()));
    cfg.set_type_name(type_name);
    for (const Value& validator : it->second) {
      auto result = interp_.CallValue(validator, {cfg}, {});
      if (!result.ok()) {
        return InvalidConfigError(
            StrFormat("validator for %s rejected config: %s", type_name.c_str(),
                      result.status().message().c_str()));
      }
      // A validator may also return False to reject.
      if (result->is_bool() && !result->as_bool()) {
        return InvalidConfigError("validator for " + type_name +
                                  " returned False");
      }
    }
    return OkStatus();
  }

  FileReader reader_;
  std::string entry_path_;
  CompilerOptions options_;
  SchemaRegistry registry_;
  Interp interp_;
  std::map<std::string, std::shared_ptr<Environment>> module_envs_;
  std::set<std::string> imported_schemas_;
  std::map<std::string, Value> exports_;
  std::map<std::string, std::vector<Value>> validators_;
  std::vector<std::shared_ptr<const Module>> modules_alive_;
};

ConfigCompiler::ConfigCompiler(FileReader reader)
    : ConfigCompiler(std::move(reader), CompilerOptions{}) {}

ConfigCompiler::ConfigCompiler(FileReader reader, CompilerOptions options)
    : reader_(std::move(reader)), options_(options) {
  if (options_.unit_cache == nullptr) {
    owned_unit_cache_ = std::make_unique<CompiledUnitCache>();
    options_.unit_cache = owned_unit_cache_.get();
  }
}

ConfigCompiler::~ConfigCompiler() = default;

Result<CompileOutput> ConfigCompiler::Compile(const std::string& entry_path) {
  // Replay the stored result whose every read still returns the same bytes
  // (or the same error); otherwise evaluate, recording what the run reads.
  CompiledUnitCache* cache = options_.unit_cache;
  MetricsRegistry* metrics = options_.metrics;
  if (const CompiledUnitCache::MemoizedOutput* memo =
          cache->FindOutput(entry_path, reader_)) {
    if (metrics != nullptr) {
      metrics->GetCounter("csl.output_cache.hits")->Inc();
    }
    if (!memo->status.ok()) {
      return memo->status;
    }
    return memo->output;
  }
  if (metrics != nullptr) {
    metrics->GetCounter("csl.output_cache.misses")->Inc();
  }
  ReadTrace trace;
  auto output =
      Session(trace.Recorder(reader_, cache), entry_path, options_).Run();
  CompiledUnitCache::MemoizedOutput memo;
  if (output.ok()) {
    output->dependencies = trace.Paths();
    memo.output = *output;
  } else {
    memo.status = output.status();
  }
  cache->StoreOutput(entry_path, std::move(trace), std::move(memo));
  return output;
}

std::string ConfigCompiler::OutputPathFor(const std::string& source_path) {
  auto dot = source_path.rfind('.');
  auto slash = source_path.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return source_path + ".json";
  }
  return source_path.substr(0, dot) + ".json";
}

}  // namespace configerator
