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
// cache and its on-disk cache instead of copying the value into each. Its
// one allocation is the copy of the watch callback registered when the
// push was sent: a proxy's callback holds a weak_ptr to its incarnation,
// which std::function stores on the heap, and
// PushInFlightAcrossProxyRestartIsDroppedNotReapplied (distribution_test)
// pins that send-time copy. Shape: a 2 x 2 x 40 topology, three members,
// one observer per cluster, and 128 ConfigProxy servers, each subscribed to
// one key with an app callback. After two warm-up writes, a third write
// must cost at most one allocation per proxy delivery, plus 16 for the
// commit itself.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/distribution/fleet.h"
#include "src/distribution/proxy.h"
#include "src/sim/network.h"
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

TEST(FanoutAllocTest, ProxyDeliveryAllocatesOnlyItsSendTimeCallback) {
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
  EXPECT_LE(allocations, deliveries + 16)
      << allocations << " allocations for " << deliveries
      << " proxy deliveries";
}

}  // namespace
}  // namespace configerator
