#include <gtest/gtest.h>

#include <memory>

#include "src/distribution/proxy.h"
#include "src/distribution/pull.h"
#include "src/distribution/tailer.h"
#include "src/lang/compiler.h"
#include "src/obs/observability.h"
#include "src/vcs/multirepo.h"

namespace configerator {
namespace {

class DistributionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<Network>(&sim_, Topology(2, 2, 20), /*seed=*/9);
    members_ = {ServerId{0, 0, 0}, ServerId{1, 0, 0}, ServerId{0, 0, 1},
                ServerId{1, 0, 1}, ServerId{0, 1, 0}};
    observers_ = {ServerId{0, 0, 18}, ServerId{0, 0, 19}, ServerId{0, 1, 18},
                  ServerId{0, 1, 19}, ServerId{1, 0, 18}, ServerId{1, 0, 19},
                  ServerId{1, 1, 18}, ServerId{1, 1, 19}};
    zeus_ = std::make_unique<ZeusEnsemble>(net_.get(), members_, observers_);
  }

  void WriteAndSettle(const std::string& key, const std::string& value) {
    zeus_->Write(ServerId{0, 0, 5}, key, value, [](Result<int64_t> r) {
      ASSERT_TRUE(r.ok()) << r.status();
    });
    sim_.RunUntil(sim_.now() + 10 * kSimSecond);
  }

  Simulator sim_;
  std::unique_ptr<Network> net_;
  std::vector<ServerId> members_;
  std::vector<ServerId> observers_;
  std::unique_ptr<ZeusEnsemble> zeus_;
};

// ---- Proxy ------------------------------------------------------------------

TEST_F(DistributionTest, ProxyReceivesSubscribedConfig) {
  WriteAndSettle("app/cfg.json", "{\"v\": 1}");
  ServerId host{0, 1, 4};
  OnDiskCache disk;
  ConfigProxy proxy(net_.get(), zeus_.get(), host, &disk, 1);
  std::string latest;
  proxy.Subscribe("app/cfg.json",
                  [&](const std::string&, const std::string& value, int64_t) {
                    latest = value;
                  });
  sim_.RunUntil(sim_.now() + 5 * kSimSecond);
  EXPECT_EQ(latest, "{\"v\": 1}");
  ASSERT_NE(proxy.GetCached("app/cfg.json"), nullptr);
  EXPECT_EQ(proxy.GetCached("app/cfg.json")->value, "{\"v\": 1}");
  // The on-disk cache was populated too.
  ASSERT_NE(disk.Get("app/cfg.json"), nullptr);
}

TEST_F(DistributionTest, ProxyPicksSameClusterObserver) {
  ServerId host{1, 1, 4};
  OnDiskCache disk;
  ConfigProxy proxy(net_.get(), zeus_.get(), host, &disk, 2);
  EXPECT_EQ(proxy.observer().region, 1);
  EXPECT_EQ(proxy.observer().cluster, 1);
}

TEST_F(DistributionTest, ProxyDiscardsStaleUpdates) {
  WriteAndSettle("cfg", "v1");
  ServerId host{0, 0, 4};
  OnDiskCache disk;
  ConfigProxy proxy(net_.get(), zeus_.get(), host, &disk, 3);
  proxy.Subscribe("cfg", nullptr);
  sim_.RunUntil(sim_.now() + 5 * kSimSecond);
  for (int i = 2; i <= 6; ++i) {
    WriteAndSettle("cfg", "v" + std::to_string(i));
  }
  EXPECT_EQ(proxy.GetCached("cfg")->value, "v6");
  // Monotone: zxid never regressed (stale deliveries discarded silently).
  EXPECT_EQ(proxy.GetCached("cfg")->zxid, zeus_->last_committed_zxid());
}

TEST_F(DistributionTest, AppFallsBackToDiskWhenProxyCrashes) {
  WriteAndSettle("critical.json", "survives");
  ServerId host{0, 0, 7};
  OnDiskCache disk;
  ConfigProxy proxy(net_.get(), zeus_.get(), host, &disk, 4);
  proxy.Subscribe("critical.json", nullptr);
  sim_.RunUntil(sim_.now() + 5 * kSimSecond);

  AppConfigClient app(&proxy, &disk);
  ASSERT_NE(app.Get("critical.json"), nullptr);

  // Kill the proxy AND the whole control plane: the app still reads.
  proxy.Crash();
  for (const ServerId& m : members_) {
    net_->failures().Crash(m);
  }
  for (const ServerId& o : observers_) {
    net_->failures().Crash(o);
  }
  const OnDiskCache::Entry* entry = app.Get("critical.json");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->value, "survives");
}

TEST_F(DistributionTest, StalenessGaugeRisesDuringZeusOutageAndRecovers) {
  // §3.4 availability: during a total Zeus outage the proxy keeps serving the
  // last good config from disk, and the staleness gauge is the signal that
  // the data is aging. After the heal it converges and the gauge drops back.
  WriteAndSettle("app/cfg.json", "v1");
  ServerId host{0, 0, 7};
  OnDiskCache disk;
  ConfigProxy proxy(net_.get(), zeus_.get(), host, &disk, 12);
  Observability obs;
  proxy.AttachObservability(&obs, /*staleness_probe_interval=*/2 * kSimSecond);
  std::string latest;
  proxy.Subscribe("app/cfg.json",
                  [&](const std::string&, const std::string& value, int64_t) {
                    latest = value;
                  });
  sim_.RunUntil(sim_.now() + 5 * kSimSecond);
  ASSERT_EQ(latest, "v1");

  const Gauge* staleness = obs.metrics.FindGauge(
      "proxy_staleness_seconds", {{"server", host.ToString()}});
  ASSERT_NE(staleness, nullptr);
  EXPECT_LE(staleness->value(), 5.0);

  // Total outage: every member and every observer goes dark. Probe pings are
  // blackholed, so each tick pushes the gauge higher.
  for (const ServerId& m : members_) {
    net_->failures().Crash(m);
  }
  for (const ServerId& o : observers_) {
    net_->failures().Crash(o);
  }
  sim_.RunUntil(sim_.now() + 30 * kSimSecond);
  EXPECT_GE(staleness->value(), 20.0);

  // The app still reads the (stale) config from disk the whole time.
  AppConfigClient app(&proxy, &disk);
  const OnDiskCache::Entry* entry = app.Get("app/cfg.json");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->value, "v1");

  // Heal; a fresh write flows end to end and the gauge returns to ~0.
  for (const ServerId& m : members_) {
    net_->failures().Recover(m);
  }
  for (const ServerId& o : observers_) {
    net_->failures().Recover(o);
  }
  WriteAndSettle("app/cfg.json", "v2");
  sim_.RunUntil(sim_.now() + 5 * kSimSecond);
  EXPECT_EQ(latest, "v2");
  EXPECT_LE(staleness->value(), 5.0);
}

TEST_F(DistributionTest, ProxyRestartRecoversFromDiskAndResubscribes) {
  WriteAndSettle("cfg", "v1");
  ServerId host{0, 0, 7};
  OnDiskCache disk;
  ConfigProxy proxy(net_.get(), zeus_.get(), host, &disk, 5);
  proxy.Subscribe("cfg", nullptr);
  sim_.RunUntil(sim_.now() + 5 * kSimSecond);

  proxy.Crash();
  EXPECT_EQ(proxy.GetCached("cfg"), nullptr);
  // An update while down is missed...
  WriteAndSettle("cfg", "v2");

  proxy.Restart();
  // Immediately after restart, the disk value (v1) is served.
  ASSERT_NE(proxy.GetCached("cfg"), nullptr);
  // After resubscription the proxy converges to v2.
  sim_.RunUntil(sim_.now() + 10 * kSimSecond);
  EXPECT_EQ(proxy.GetCached("cfg")->value, "v2");
}

// A push in flight to a proxy that crashes and restarts belongs to the old
// incarnation: its callback drops it, even though the restart has replaced
// the watch at the observer by the time it lands. The restart's refetch,
// queued behind it on the same delayed channel, applies the value, so
// nothing is applied twice or discarded as stale.
TEST_F(DistributionTest, PushInFlightAcrossProxyRestartIsDroppedNotReapplied) {
  WriteAndSettle("cfg", "v1");
  ServerId host{0, 0, 7};
  OnDiskCache disk;
  ConfigProxy proxy(net_.get(), zeus_.get(), host, &disk, 6);
  proxy.Subscribe("cfg", nullptr);
  sim_.RunUntil(sim_.now() + 5 * kSimSecond);
  ASSERT_EQ(proxy.updates_received(), 1u);
  ServerId observer = proxy.observer();
  LinkFault slow;
  slow.extra_delay = 5 * kSimSecond;
  net_->SetLinkFault(observer, host, slow);

  zeus_->Write(ServerId{0, 0, 5}, "cfg", "v2", [](Result<int64_t> r) {
    ASSERT_TRUE(r.ok()) << r.status();
  });
  sim_.RunUntil(sim_.now() + kSimSecond);
  ASSERT_EQ(zeus_->ObserverLastZxid(observer), zeus_->last_committed_zxid());
  ASSERT_EQ(proxy.GetCached("cfg")->value, "v1") << "push must be in flight";

  proxy.Crash();
  proxy.Restart();
  // The restart resubscribed at the same observer, so the watch the push
  // was sent for has been replaced there.
  ASSERT_EQ(proxy.observer(), observer);
  sim_.RunUntil(sim_.now() + 20 * kSimSecond);
  ASSERT_NE(proxy.GetCached("cfg"), nullptr);
  EXPECT_EQ(proxy.GetCached("cfg")->value, "v2");
  EXPECT_EQ(proxy.updates_received(), 2u);
  EXPECT_EQ(proxy.stale_discarded(), 0u);
}

TEST_F(DistributionTest, ProxyFailsOverToAnotherObserver) {
  WriteAndSettle("cfg", "v1");
  ServerId host{0, 1, 4};
  OnDiskCache disk;
  ConfigProxy proxy(net_.get(), zeus_.get(), host, &disk, 6);
  proxy.Subscribe("cfg", nullptr);
  sim_.RunUntil(sim_.now() + 5 * kSimSecond);

  ServerId failed_observer = proxy.observer();
  zeus_->Crash(failed_observer);
  proxy.RepickObserver();
  EXPECT_NE(proxy.observer(), failed_observer);
  WriteAndSettle("cfg", "v2");
  EXPECT_EQ(proxy.GetCached("cfg")->value, "v2");
}

TEST_F(DistributionTest, MultipleCallbacksPerKey) {
  WriteAndSettle("cfg", "v");
  ServerId host{0, 0, 9};
  OnDiskCache disk;
  ConfigProxy proxy(net_.get(), zeus_.get(), host, &disk, 7);
  int calls = 0;
  proxy.Subscribe("cfg", [&](const std::string&, const std::string&, int64_t) {
    ++calls;
  });
  proxy.Subscribe("cfg", [&](const std::string&, const std::string&, int64_t) {
    ++calls;
  });
  sim_.RunUntil(sim_.now() + 5 * kSimSecond);
  // One initial delivery fans out to both registered callbacks.
  EXPECT_EQ(calls, 2);
}

// ---- Tailer -----------------------------------------------------------------

TEST_F(DistributionTest, TailerPublishesCommits) {
  Repository repo;
  GitTailer tailer(net_.get(), ServerId{0, 0, 10}, &repo, zeus_.get(),
                   GitTailer::Options{});
  tailer.Start();

  ASSERT_TRUE(repo.Commit("alice", "add config", {{"app/a.json", "{}"}}).ok());
  sim_.RunUntil(sim_.now() + 20 * kSimSecond);
  EXPECT_EQ(tailer.published_count(), 1u);

  // The config is now fetchable from an observer.
  bool fetched = false;
  zeus_->Fetch(ServerId{0, 0, 2}, observers_[0], "app/a.json",
               [&](Result<ZeusValue> r) {
                 ASSERT_TRUE(r.ok()) << r.status();
                 EXPECT_EQ(r->value, "{}");
                 fetched = true;
               });
  sim_.RunUntil(sim_.now() + 2 * kSimSecond);
  EXPECT_TRUE(fetched);
}

TEST_F(DistributionTest, TailerBatchesMultipleCommits) {
  Repository repo;
  GitTailer tailer(net_.get(), ServerId{0, 0, 10}, &repo, zeus_.get(),
                   GitTailer::Options{});
  tailer.Start();
  ASSERT_TRUE(repo.Commit("a", "1", {{"x", "1"}}).ok());
  ASSERT_TRUE(repo.Commit("a", "2", {{"y", "2"}}).ok());
  ASSERT_TRUE(repo.Commit("a", "3", {{"x", "3"}}).ok());
  sim_.RunUntil(sim_.now() + 20 * kSimSecond);
  // x (coalesced to latest) + y.
  EXPECT_EQ(tailer.published_count(), 2u);
}

TEST_F(DistributionTest, TailerRespectsPathPrefix) {
  Repository repo;
  GitTailer::Options options;
  options.path_prefix = "feed/";
  GitTailer tailer(net_.get(), ServerId{0, 0, 10}, &repo, zeus_.get(), options);
  tailer.Start();
  ASSERT_TRUE(repo.Commit("a", "m", {{"feed/a", "1"}, {"tao/b", "2"}}).ok());
  sim_.RunUntil(sim_.now() + 20 * kSimSecond);
  EXPECT_EQ(tailer.published_count(), 1u);
}

TEST_F(DistributionTest, EndToEndCommitToProxy) {
  Repository repo;
  GitTailer tailer(net_.get(), ServerId{0, 0, 10}, &repo, zeus_.get(),
                   GitTailer::Options{});
  tailer.Start();

  ServerId host{1, 1, 4};
  OnDiskCache disk;
  ConfigProxy proxy(net_.get(), zeus_.get(), host, &disk, 8);
  std::string received;
  SimTime arrival = 0;
  proxy.Subscribe("app/live.json",
                  [&](const std::string&, const std::string& value, int64_t) {
                    received = value;
                    arrival = sim_.now();
                  });
  sim_.RunUntil(sim_.now() + kSimSecond);

  SimTime commit_time = sim_.now();
  ASSERT_TRUE(repo.Commit("alice", "ship it", {{"app/live.json", "LIVE"}}).ok());
  sim_.RunUntil(sim_.now() + 30 * kSimSecond);
  EXPECT_EQ(received, "LIVE");
  // Tailer poll (≤5s) + tree propagation: well under half a minute.
  EXPECT_LE(arrival - commit_time, 10 * kSimSecond);
}

TEST_F(DistributionTest, PartitionedReposWithPerPartitionTailers) {
  // §3.6: "Each git repository has its own mutator, landing strip, and
  // tailer." Two partitions feed one Zeus; a proxy subscribed to configs in
  // both partitions sees both, and cross-repository imports compile.
  MultiRepo multi;
  ASSERT_TRUE(multi.AddPartition("feed/").ok());
  ASSERT_TRUE(multi.AddPartition("tao/").ok());

  GitTailer feed_tailer(net_.get(), ServerId{0, 0, 10},
                        multi.RepoFor("feed/x"), zeus_.get(),
                        GitTailer::Options{});
  GitTailer tao_tailer(net_.get(), ServerId{0, 0, 11}, multi.RepoFor("tao/x"),
                       zeus_.get(), GitTailer::Options{});
  feed_tailer.Start();
  tao_tailer.Start();

  // Cross-repository dependency (the paper's import example): a feed config
  // imports a tao module; "the code is the same regardless of whether those
  // configs are in the same repository or not".
  ASSERT_TRUE(multi.Commit("alice", "tao module",
                           {{"tao/shard_count.cinc", "SHARDS = 16\n"}})
                  .ok());
  ASSERT_TRUE(multi.Commit("bob", "feed entry",
                           {{"feed/ranker.cconf",
                             "import_python(\"tao/shard_count.cinc\", \"*\")\n"
                             "export_if_last({\"shards\": SHARDS})\n"}})
                  .ok());

  const MultiRepo* multi_ptr = &multi;
  ConfigCompiler compiler([multi_ptr](const std::string& path) {
    return multi_ptr->ReadFile(path);
  });
  auto output = compiler.Compile("feed/ranker.cconf");
  ASSERT_TRUE(output.ok()) << output.status();
  EXPECT_EQ(output->configs[0].content.Get("shards")->as_int(), 16);

  // Land the generated JSON into its home partition and watch both
  // partitions' tailers deliver through the same distribution tree.
  ASSERT_TRUE(multi.Commit("bob", "generated",
                           {{"feed/ranker.json",
                             output->configs[0].content.DumpPretty()}})
                  .ok());
  ServerId host{1, 0, 4};
  OnDiskCache disk;
  ConfigProxy proxy(net_.get(), zeus_.get(), host, &disk, 99);
  proxy.Subscribe("feed/ranker.json", nullptr);
  proxy.Subscribe("tao/shard_count.cinc", nullptr);
  sim_.RunUntil(sim_.now() + 30 * kSimSecond);
  ASSERT_NE(proxy.GetCached("feed/ranker.json"), nullptr);
  ASSERT_NE(proxy.GetCached("tao/shard_count.cinc"), nullptr);
  EXPECT_NE(proxy.GetCached("feed/ranker.json")->value.find("16"),
            std::string::npos);
}

// ---- Pull baseline ------------------------------------------------------------

TEST_F(DistributionTest, PullClientReceivesUpdates) {
  PullService service(net_.get(), ServerId{0, 0, 0});
  service.Publish("cfg", "v1");
  PullClient client(net_.get(), &service, ServerId{1, 0, 5}, 60 * kSimSecond);
  std::string latest;
  client.Track("cfg", [&](const std::string&, const std::string& value, int64_t) {
    latest = value;
  });
  client.Start();
  sim_.RunUntil(sim_.now() + 2 * kSimSecond);
  EXPECT_EQ(latest, "v1");

  service.Publish("cfg", "v2");
  // Nothing until the next poll...
  sim_.RunUntil(sim_.now() + 30 * kSimSecond);
  EXPECT_EQ(latest, "v1");
  sim_.RunUntil(sim_.now() + 40 * kSimSecond);
  EXPECT_EQ(latest, "v2");
}

TEST_F(DistributionTest, PullEmptyPollsAreCounted) {
  PullService service(net_.get(), ServerId{0, 0, 0});
  service.Publish("cfg", "v1");
  PullClient client(net_.get(), &service, ServerId{0, 1, 5}, 10 * kSimSecond);
  client.Track("cfg", nullptr);
  client.Start();
  sim_.RunUntil(sim_.now() + 61 * kSimSecond);
  // First poll fetched the value; later polls were empty overhead.
  EXPECT_GE(client.polls_sent(), 6u);
  EXPECT_GE(client.empty_polls(), client.polls_sent() - 2);
}

}  // namespace
}  // namespace configerator
