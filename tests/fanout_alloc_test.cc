// Allocation budget of a commit's fan-out. A watch delivery used to cost
// three heap allocations: a copy of the watch's std::function, the closure
// that paired it with the txn, and the network's wrapper around that. Now a
// delivery is built in place in a pooled simulator event, the txn is shared,
// and ProxyFleet's watch callback is stored inline in its std::function.
//
// This binary replaces the global operator new with a counting one. It is
// its own translation unit and its own test binary, so no other test runs
// under the counter.
//
// Shape: a 2 x 8 x 640 topology, five Zeus members, one observer per
// cluster (16), and a ProxyFleet of ~10k hosts watching one key. After a
// warm-up write has grown the event pool and every container to their
// steady-state size, a second write must reach every host with fewer than
// one allocation per 50 network deliveries.
//
// A ConfigProxy delivery keeps the txn Zeus delivered in the proxy's memory
// cache and its on-disk cache instead of copying the value into each, and
// the watch callback copied into it when the push was sent (which
// PushInFlightAcrossProxyRestartIsDroppedNotReapplied in distribution_test
// pins) is the proxy pointer plus its incarnation, stored inline. So a
// delivery allocates nothing. Shape: a 2 x 2 x 40 topology, three members,
// one observer per cluster, and 128 ConfigProxy servers, each subscribed to
// one key with an app callback. After two warm-up writes, a third write
// must cost at most 16 allocations, the commit's own, whatever the number
// of proxies.
//
// A landing commit costs allocations per directory it changes, not per
// entry of those directories, and a rewrite with head's bytes changes no
// directory. Shape: a Repository in the authoring layout, 800
// svc/entryNNN.cconf, 800 svc/entryNNN.json and 180 lib/modNNN.cinc files,
// after one warm-up commit. A commit of one changed module and five changed
// outputs re-encodes and re-hashes the 1,600-entry svc/ tree and must cost
// fewer than 128 allocations; rewriting the same six files with their
// current bytes must keep the head tree id, also under 128.
//
// The dependency refresh after a landing records each entry's symbol
// slice by sharing the one the analysis store holds, not by copying its
// maps and sets. Shape: an entry that reads 12 symbols from each of four
// modules, analyzed through an AnalysisStore. Recording its slice in a
// DependencyService, first as a new entry and then again for the same
// entry, must cost fewer than 4 allocations each, whatever the slice holds.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/analysis/store.h"
#include "src/distribution/fleet.h"
#include "src/distribution/proxy.h"
#include "src/pipeline/dependency.h"
#include "src/sim/network.h"
#include "src/util/strings.h"
#include "src/vcs/repository.h"
#include "src/zeus/zeus.h"

namespace {
uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace configerator {
namespace {

constexpr int kRegions = 2;
constexpr int kClusters = 8;
constexpr int kServers = 640;

TEST(FanoutAllocTest, CommitFanOutAllocatesLessThanOncePerFiftyDeliveries) {
  Simulator sim;
  Network net(&sim, Topology(kRegions, kClusters, kServers), /*seed=*/21);
  std::vector<ServerId> members = {ServerId{0, 0, 0}, ServerId{1, 0, 0},
                                   ServerId{0, 1, 0}, ServerId{1, 1, 0},
                                   ServerId{0, 2, 0}};
  std::vector<ServerId> observers;
  std::vector<ServerId> hosts;
  for (int r = 0; r < kRegions; ++r) {
    for (int c = 0; c < kClusters; ++c) {
      observers.push_back(ServerId{r, c, kServers - 1});
      for (int s = 2; s + 1 < kServers; ++s) {
        hosts.push_back(ServerId{r, c, s});
      }
    }
  }
  ZeusEnsemble zeus(&net, members, observers);
  ProxyFleet fleet(&net, &zeus, hosts, /*seed=*/5);
  fleet.SubscribeAll("conf/hot.json", kSimSecond);
  sim.RunUntil(sim.now() + 3 * kSimSecond);

  const ServerId writer{0, 0, 1};
  auto write = [&](const char* value) {
    zeus.Write(writer, "conf/hot.json", value, [](Result<int64_t> zxid) {
      ASSERT_TRUE(zxid.ok()) << zxid.status();
    });
    sim.RunUntil(sim.now() + 5 * kSimSecond);
  };
  write("warm-up value, long enough to live on the heap");
  ASSERT_EQ(fleet.CountAtLeast(0, 1), fleet.size());

  const uint64_t allocations0 = g_allocations;
  const uint64_t delivered0 = net.stats().delivered;
  const uint64_t updates0 = fleet.updates_received();
  write("measured value, long enough to live on the heap");
  const uint64_t allocations = g_allocations - allocations0;
  const uint64_t deliveries = net.stats().delivered - delivered0;

  std::printf("%llu allocations for %llu deliveries (%.4f per delivery)\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(deliveries),
              static_cast<double>(allocations) /
                  static_cast<double>(deliveries));
  ASSERT_EQ(fleet.updates_received() - updates0, fleet.size());
  EXPECT_LT(allocations * 50, deliveries)
      << allocations << " allocations for " << deliveries << " deliveries";
}

TEST(FanoutAllocTest, ProxyDeliveryAllocatesNothing) {
  Simulator sim;
  Network net(&sim, Topology(2, 2, 40), /*seed=*/23);
  std::vector<ServerId> members = {ServerId{0, 0, 0}, ServerId{1, 0, 0},
                                   ServerId{0, 1, 0}};
  std::vector<ServerId> observers;
  std::vector<ServerId> hosts;
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      observers.push_back(ServerId{r, c, 39});
      for (int s = 2; s < 34; ++s) {
        hosts.push_back(ServerId{r, c, s});
      }
    }
  }
  ZeusEnsemble zeus(&net, members, observers);
  std::vector<std::unique_ptr<OnDiskCache>> disks;
  std::vector<std::unique_ptr<ConfigProxy>> proxies;
  uint64_t callbacks = 0;
  for (size_t i = 0; i < hosts.size(); ++i) {
    disks.push_back(std::make_unique<OnDiskCache>());
    proxies.push_back(std::make_unique<ConfigProxy>(
        &net, &zeus, hosts[i], disks.back().get(), /*seed=*/100 + i));
    proxies.back()->Subscribe(
        "conf/hot.json",
        [&callbacks](const std::string&, const std::string&, int64_t) {
          ++callbacks;
        });
  }
  ASSERT_EQ(proxies.size(), 128u);
  sim.RunUntil(sim.now() + 3 * kSimSecond);

  const ServerId writer{0, 0, 1};
  auto write = [&](const char* value) {
    zeus.Write(writer, "conf/hot.json", value, [](Result<int64_t> zxid) {
      ASSERT_TRUE(zxid.ok()) << zxid.status();
    });
    sim.RunUntil(sim.now() + 5 * kSimSecond);
  };
  write("first warm-up value, long enough to live on the heap");
  write("second warm-up value, long enough to live on the heap");
  ASSERT_EQ(callbacks, 2 * proxies.size());

  const uint64_t allocations0 = g_allocations;
  const uint64_t callbacks0 = callbacks;
  write("measured value, long enough to live on the heap");
  const uint64_t allocations = g_allocations - allocations0;
  const uint64_t deliveries = callbacks - callbacks0;

  std::printf("%llu allocations for %llu proxy deliveries\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(deliveries));
  ASSERT_EQ(deliveries, proxies.size());
  EXPECT_LE(allocations, 16u)
      << allocations << " allocations for " << deliveries
      << " proxy deliveries";
}

std::string EntryPath(int i, const char* ext) {
  return StrFormat("svc/entry%03d.%s", i, ext);
}
std::string ModulePath(int i) { return StrFormat("lib/mod%03d.cinc", i); }
std::string Content(const std::string& path, int version) {
  return StrFormat("# %s, version %d, long enough to live on the heap\n",
                   path.c_str(), version);
}

TEST(FanoutAllocTest, LandingCommitAllocatesPerChangedDirectory) {
  Repository repo;
  std::vector<FileWrite> load;
  for (int i = 0; i < 800; ++i) {
    for (const char* ext : {"cconf", "json"}) {
      load.push_back({EntryPath(i, ext), Content(EntryPath(i, ext), 0)});
    }
  }
  for (int i = 0; i < 180; ++i) {
    load.push_back({ModulePath(i), Content(ModulePath(i), 0)});
  }
  const std::string author = "engineer";
  const std::string message = "bump a module and regenerate its importers";
  ASSERT_TRUE(repo.Commit(author, message, load).ok());

  auto edit = [](int version) {
    std::vector<FileWrite> writes = {
        {ModulePath(17), Content(ModulePath(17), version)}};
    for (int i = 0; i < 5; ++i) {
      std::string path = EntryPath(100 * i + 3, "json");
      writes.push_back({path, Content(path, version)});
    }
    return writes;
  };
  ASSERT_TRUE(repo.Commit(author, message, edit(1)).ok());  // Warm-up.

  const std::vector<FileWrite> changed = edit(2);
  uint64_t allocations0 = g_allocations;
  Result<ObjectId> commit = repo.Commit(author, message, changed);
  const uint64_t changed_allocations = g_allocations - allocations0;
  ASSERT_TRUE(commit.ok()) << commit.status();
  const ObjectId tree = repo.GetCommit(*commit)->tree;

  const std::vector<FileWrite> unchanged = edit(2);
  allocations0 = g_allocations;
  commit = repo.Commit(author, message, unchanged);
  const uint64_t unchanged_allocations = g_allocations - allocations0;
  ASSERT_TRUE(commit.ok()) << commit.status();

  std::printf("%llu allocations for a 6-write commit, %llu for the same "
              "writes with head's bytes\n",
              static_cast<unsigned long long>(changed_allocations),
              static_cast<unsigned long long>(unchanged_allocations));
  EXPECT_LT(changed_allocations, 128u);
  EXPECT_EQ(repo.GetCommit(*commit)->tree, tree);
  EXPECT_LT(unchanged_allocations, 128u);
}

TEST(FanoutAllocTest, DependencyRefreshSharesTheStoredSlice) {
  constexpr int kModules = 4;
  constexpr int kSymbols = 12;
  InMemorySources sources;
  std::vector<std::string> modules;
  std::string entry_source;
  std::vector<std::string> terms;
  for (int m = 0; m < kModules; ++m) {
    std::string module_source;
    for (int s = 0; s < kSymbols; ++s) {
      module_source += StrFormat("M%d_S%d = %d\n", m, s, m * kSymbols + s);
      terms.push_back(StrFormat("M%d_S%d", m, s));
    }
    modules.push_back(StrFormat("lib/m%d.cinc", m));
    sources.Put(modules.back(), module_source);
    entry_source += StrFormat("import_python(\"%s\", \"*\")\n",
                              modules.back().c_str());
  }
  entry_source += "export_if_last({\"sum\": " + StrJoin(terms, " + ") + "})\n";
  const std::string entry = "svc/entry.cconf";
  sources.Put(entry, entry_source);

  AnalysisStore store;
  std::shared_ptr<const AbsintResult> result =
      store.Absint(sources.AsReader(), entry, entry_source);
  ASSERT_TRUE(result->analyzed);
  ASSERT_TRUE(result->slice_sound);
  size_t symbols = 0;
  for (const std::string& module : modules) {
    auto used = result->used_symbols->find(module);
    ASSERT_NE(used, result->used_symbols->end()) << module;
    symbols += used->second.size();
  }
  EXPECT_GE(symbols, static_cast<size_t>(kModules * kSymbols));

  DependencyService deps;
  deps.UpdateEntry(entry, modules);
  uint64_t allocations0 = g_allocations;
  deps.UpdateEntrySymbols(entry, result->used_symbols, result->slice_sound);
  const uint64_t first = g_allocations - allocations0;
  allocations0 = g_allocations;
  deps.UpdateEntrySymbols(entry, result->used_symbols, result->slice_sound);
  const uint64_t again = g_allocations - allocations0;

  std::printf("%llu allocations to record a %zu-symbol slice for a new "
              "entry, %llu to record it again\n",
              static_cast<unsigned long long>(first), symbols,
              static_cast<unsigned long long>(again));
  EXPECT_LT(first, 4u);
  EXPECT_LT(again, 4u);
  // The recorded slice prunes as the analysis read it.
  EXPECT_EQ(deps.EntriesAffectedBySymbols("lib/m2.cinc", {"M2_S7"}),
            std::vector<std::string>{entry});
  EXPECT_TRUE(deps.EntriesAffectedBySymbols("lib/m2.cinc", {"UNREAD"}).empty());
}

}  // namespace
}  // namespace configerator
