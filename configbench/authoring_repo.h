// The authoring workloads' repository, and the benchmark's own model of what
// it compiles to.
//
// BuildAuthoringRepo() is the shared 980-file synthetic CSL tree
// (bench/synthetic_repo.h: 20 schemas, 180 modules, 800 entries) plus a
// limits.json raw config and an invariants/ registry of ordering and
// membership invariants over the generated entries — the kinds
// invariant_throughput builds — so Sandcastle's invariant stage does real
// work on value commits.
//
// PortModel is the oracle for the generated configs. It predicts each
// entry's `port` from the workload's own record of BASE_PORT bumps, by the
// rules the generated sources spell out, without running the compiler.

#ifndef CONFIGBENCH_AUTHORING_REPO_H_
#define CONFIGBENCH_AUTHORING_REPO_H_

#include <string>
#include <vector>

#include "bench/synthetic_repo.h"
#include "src/util/strings.h"
#include "src/vcs/repository.h"

namespace configbench {

using configerator::SyntheticRepo;

// The largest port the invariants allow; bumps stay well below it.
inline constexpr int kMaxPort = 20000;

inline std::string EntryOutputPath(int e) {
  return configerator::StrFormat("svc/entry%03d.json", e);
}

// The module whose BASE_PORT entry `e` imports by name and exports as its
// port (bench/synthetic_repo.h's EntrySource).
inline int PortModuleOf(int e) {
  return (e * 7 + 3) % SyntheticRepo::kModules;
}

// Chained modules derive BASE_PORT from the previous module's, so bumping
// one is a no-op; value commits bump only unchained modules.
inline bool IsChained(int m) { return m > 0 && m % 10 == 0; }

// The first `entries` entries of the synthetic tree (the workloads land all
// 800; the smoke test fewer), with every schema and module.
inline std::vector<configerator::FileWrite> BuildAuthoringRepo(int entries) {
  using configerator::StrFormat;
  SyntheticRepo repo = configerator::BuildSyntheticRepo();
  std::vector<configerator::FileWrite> files;
  configerator::FileReader reader = repo.sources.AsReader();
  for (int s = 0; s < SyntheticRepo::kSchemas; ++s) {
    std::string path = StrFormat("schemas/svc%02d.thrift", s);
    files.push_back({path, *reader(path)});
  }
  for (int m = 0; m < SyntheticRepo::kModules; ++m) {
    std::string path = SyntheticRepo::ModulePath(m);
    files.push_back({path, *reader(path)});
  }
  for (int e = 0; e < entries; ++e) {
    std::string path = SyntheticRepo::EntryPath(e);
    files.push_back({path, *reader(path)});
  }
  files.push_back({"limits.json",
                   StrFormat("{\"max_port\": %d, \"min_port\": 1}", kMaxPort)});

  // Every fourth entry's port is bounded by limits.json; the entry after it
  // must keep its name.
  std::string spec = "{\"invariants\": [";
  for (int e = 0; e + 1 < entries; e += 4) {
    spec += StrFormat(
        "%s{\"name\": \"port%03d\", \"kind\": \"ordering\", "
        "\"lhs\": {\"config\": \"svc/entry%03d.json\", \"field\": \"port\"}, "
        "\"relation\": \"<=\", "
        "\"rhs\": {\"config\": \"limits.json\", \"field\": \"max_port\"}}, "
        "{\"name\": \"name%03d\", \"kind\": \"membership\", "
        "\"subject\": {\"config\": \"svc/entry%03d.json\", \"field\": \"name\"}, "
        "\"allowed\": [\"entry%03d\", \"retired%03d\"]}",
        e == 0 ? "" : ", ", e, e, e + 1, e + 1, e + 1, e + 1);
  }
  files.push_back({"invariants/services.json", spec + "]}"});
  return files;
}

class PortModel {
 public:
  explicit PortModel(int entries)
      : entries_(entries), bump_(SyntheticRepo::kModules, 0) {}

  int ModulePort(int m) const {
    return IsChained(m) ? ModulePort(m - 1) + 1 : 9000 + m + bump_[m];
  }
  // An entry exports its star-imported module's default port unless the
  // module it imports BASE_PORT from has one above 9000.
  int EntryPort(int e) const {
    int named = ModulePort(PortModuleOf(e));
    return named > 9000 ? named : ModulePort(e % SyntheticRepo::kModules);
  }

  int bump(int m) const { return bump_[m]; }

  // Sets module `m`'s bump; returns the entries whose port moved.
  std::vector<int> SetBump(int m, int bump) {
    std::vector<int> before(static_cast<size_t>(entries_));
    for (int e = 0; e < entries_; ++e) {
      before[static_cast<size_t>(e)] = EntryPort(e);
    }
    bump_[static_cast<size_t>(m)] = bump;
    std::vector<int> moved;
    for (int e = 0; e < entries_; ++e) {
      if (EntryPort(e) != before[static_cast<size_t>(e)]) {
        moved.push_back(e);
      }
    }
    return moved;
  }

 private:
  int entries_;
  std::vector<int> bump_;
};

// The value of the first `"port": N` field in a generated JSON config, or -1.
// A plain scan, so the oracle shares no code with the JSON library.
inline int ParsePort(const std::string& json) {
  size_t at = json.find("\"port\"");
  if (at == std::string::npos) {
    return -1;
  }
  at = json.find(':', at);
  if (at == std::string::npos) {
    return -1;
  }
  ++at;
  while (at < json.size() && json[at] == ' ') {
    ++at;
  }
  int value = 0;
  bool any = false;
  while (at < json.size() && json[at] >= '0' && json[at] <= '9' &&
         value < 100'000'000) {
    value = value * 10 + (json[at] - '0');
    any = true;
    ++at;
  }
  return any ? value : -1;
}

}  // namespace configbench

#endif  // CONFIGBENCH_AUTHORING_REPO_H_
