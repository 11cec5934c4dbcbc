#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/zeus/zeus.h"

namespace configerator {
namespace {

class ZeusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<Network>(&sim_, Topology(2, 2, 20), /*seed=*/3);
    // 5 members spread across regions; 2 observers per cluster.
    members_ = {ServerId{0, 0, 0}, ServerId{1, 0, 0}, ServerId{0, 0, 1},
                ServerId{1, 0, 1}, ServerId{0, 1, 0}};
    observers_ = {ServerId{0, 0, 18}, ServerId{0, 0, 19}, ServerId{0, 1, 18},
                  ServerId{0, 1, 19}, ServerId{1, 0, 18}, ServerId{1, 0, 19},
                  ServerId{1, 1, 18}, ServerId{1, 1, 19}};
    zeus_ = std::make_unique<ZeusEnsemble>(net_.get(), members_, observers_);
    client_ = ServerId{0, 0, 5};
  }

  // Writes and runs the sim until the callback fires.
  Result<int64_t> WriteSync(const std::string& key, const std::string& value) {
    Result<int64_t> result(UnavailableError("callback never fired"));
    bool fired = false;
    zeus_->Write(client_, key, value, [&](Result<int64_t> r) {
      result = std::move(r);
      fired = true;
    });
    sim_.RunUntil(sim_.now() + 30 * kSimSecond);
    EXPECT_TRUE(fired);
    return result;
  }

  Simulator sim_;
  std::unique_ptr<Network> net_;
  std::vector<ServerId> members_;
  std::vector<ServerId> observers_;
  std::unique_ptr<ZeusEnsemble> zeus_;
  ServerId client_;
};

TEST_F(ZeusTest, WriteCommitsWithQuorum) {
  auto zxid = WriteSync("config/a", "v1");
  ASSERT_TRUE(zxid.ok()) << zxid.status();
  EXPECT_EQ(*zxid, 1);
  EXPECT_EQ(zeus_->last_committed_zxid(), 1);
}

TEST_F(ZeusTest, ZxidsMonotonic) {
  EXPECT_EQ(*WriteSync("k", "v1"), 1);
  EXPECT_EQ(*WriteSync("k", "v2"), 2);
  EXPECT_EQ(*WriteSync("j", "v3"), 3);
}

TEST_F(ZeusTest, ObserversConverge) {
  ASSERT_TRUE(WriteSync("config/a", "v1").ok());
  ASSERT_TRUE(WriteSync("config/b", "v2").ok());
  sim_.RunUntil(sim_.now() + 10 * kSimSecond);
  for (const ServerId& obs : observers_) {
    EXPECT_EQ(zeus_->ObserverLastZxid(obs), 2) << obs.ToString();
  }
}

TEST_F(ZeusTest, SubscribeDeliversCurrentValueAndUpdates) {
  ASSERT_TRUE(WriteSync("config/x", "v1").ok());
  sim_.RunUntil(sim_.now() + 5 * kSimSecond);

  ServerId proxy{0, 1, 7};
  ServerId observer = observers_[2];  // Same cluster as the proxy.
  std::vector<std::string> seen;
  zeus_->Subscribe(proxy, observer, "config/x",
                   [&](const ZeusEnsemble::TxnPtr& txn, TraceContext) {
                     seen.push_back(txn->value);
                   });
  sim_.RunUntil(sim_.now() + 5 * kSimSecond);
  ASSERT_EQ(seen.size(), 1u);  // Initial value.
  EXPECT_EQ(seen[0], "v1");

  ASSERT_TRUE(WriteSync("config/x", "v2").ok());
  sim_.RunUntil(sim_.now() + 5 * kSimSecond);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], "v2");
}

TEST_F(ZeusTest, SubscribeToUnwrittenKeyDeliversOnFirstWrite) {
  ServerId proxy{0, 0, 7};
  std::vector<std::string> seen;
  zeus_->Subscribe(proxy, observers_[0], "config/later",
                   [&](const ZeusEnsemble::TxnPtr& txn, TraceContext) {
                     seen.push_back(txn->value);
                   });
  sim_.RunUntil(sim_.now() + 2 * kSimSecond);
  EXPECT_TRUE(seen.empty());
  ASSERT_TRUE(WriteSync("config/later", "arrived").ok());
  sim_.RunUntil(sim_.now() + 5 * kSimSecond);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "arrived");
}

TEST_F(ZeusTest, FetchReadsObserverState) {
  ASSERT_TRUE(WriteSync("config/f", "fetched").ok());
  sim_.RunUntil(sim_.now() + 5 * kSimSecond);
  Result<ZeusValue> result(UnavailableError("pending"));
  zeus_->Fetch(ServerId{0, 0, 9}, observers_[0], "config/f",
               [&](Result<ZeusValue> r) { result = std::move(r); });
  sim_.RunUntil(sim_.now() + 2 * kSimSecond);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->value, "fetched");
  EXPECT_EQ(result->zxid, 1);
}

TEST_F(ZeusTest, FetchMissingKeyIsNotFound) {
  bool fired = false;
  zeus_->Fetch(ServerId{0, 0, 9}, observers_[0], "ghost",
               [&](Result<ZeusValue> r) {
                 fired = true;
                 EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
               });
  sim_.RunUntil(sim_.now() + 2 * kSimSecond);
  EXPECT_TRUE(fired);
}

TEST_F(ZeusTest, LeaderFailoverElectsLongestLog) {
  ASSERT_TRUE(WriteSync("k", "v1").ok());
  ServerId old_leader = zeus_->leader();
  zeus_->Crash(old_leader);
  auto zxid = WriteSync("k", "v2");  // Queued behind the election.
  ASSERT_TRUE(zxid.ok()) << zxid.status();
  EXPECT_EQ(*zxid, 2);
  EXPECT_NE(zeus_->leader(), old_leader);
}

TEST_F(ZeusTest, NoQuorumFailsWrites) {
  // Crash 3 of 5 members.
  zeus_->Crash(members_[1]);
  zeus_->Crash(members_[2]);
  zeus_->Crash(members_[3]);
  EXPECT_FALSE(zeus_->has_quorum());
  auto result = WriteSync("k", "v");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST_F(ZeusTest, WriteQueuedBehindAFailedElectionFailsUnavailable) {
  // The leader and two more of five members crash: the write queues behind
  // an election, which finds no quorum and must fail it.
  zeus_->Crash(members_[0]);
  zeus_->Crash(members_[1]);
  zeus_->Crash(members_[2]);
  int calls = 0;
  Result<int64_t> result(int64_t{0});
  zeus_->Write(client_, "k", "v", [&](Result<int64_t> r) {
    ++calls;
    result = std::move(r);
  });
  sim_.RunUntil(sim_.now() + ZeusEnsemble::Options{}.election_delay);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  sim_.RunUntil(sim_.now() + 30 * kSimSecond);
  EXPECT_EQ(calls, 1);
}

TEST_F(ZeusTest, QuorumRestoredAfterRecovery) {
  zeus_->Crash(members_[1]);
  zeus_->Crash(members_[2]);
  zeus_->Crash(members_[3]);
  ASSERT_FALSE(WriteSync("k", "v").ok());
  zeus_->Recover(members_[1]);
  zeus_->Recover(members_[2]);
  EXPECT_TRUE(WriteSync("k", "v2").ok());
}

TEST_F(ZeusTest, CrashedObserverCatchesUpViaAntiEntropy) {
  const ServerId& lagging = observers_[0];
  zeus_->Crash(lagging);
  ASSERT_TRUE(WriteSync("config/a", "v1").ok());
  ASSERT_TRUE(WriteSync("config/b", "v2").ok());
  sim_.RunUntil(sim_.now() + 5 * kSimSecond);
  EXPECT_LT(zeus_->ObserverLastZxid(lagging), 2);
  zeus_->Recover(lagging);
  sim_.RunUntil(sim_.now() + 5 * kSimSecond);  // Anti-entropy interval is 1s.
  EXPECT_EQ(zeus_->ObserverLastZxid(lagging), 2);
}

// A push carries the callback registered when it was sent. The write's push
// to the proxy is held up on the observer → proxy link; meanwhile the proxy
// resubscribes with a new callback, whose registration reaches the observer
// first. The push still runs the old callback, and the new one sees only
// its refetch, which rides the same FIFO channel behind the push.
TEST_F(ZeusTest, InFlightPushRunsTheCallbackRegisteredAtSendTime) {
  ServerId proxy{0, 1, 7};
  ServerId observer = observers_[2];  // Same cluster as the proxy.
  std::vector<std::string> log;
  zeus_->Subscribe(proxy, observer, "k",
                   [&](const ZeusEnsemble::TxnPtr& txn, TraceContext) {
                     log.push_back("A:" + std::to_string(txn->zxid));
                   });
  sim_.RunUntil(sim_.now() + kSimSecond);
  LinkFault slow;
  slow.extra_delay = 5 * kSimSecond;
  net_->SetLinkFault(observer, proxy, slow);

  int64_t zxid = 0;
  zeus_->Write(client_, "k", "v1", [&](Result<int64_t> r) {
    ASSERT_TRUE(r.ok()) << r.status();
    zxid = *r;
  });
  sim_.RunUntil(sim_.now() + kSimSecond);
  ASSERT_EQ(zeus_->ObserverLastZxid(observer), zxid);
  ASSERT_TRUE(log.empty()) << "the push must still be in flight";

  zeus_->Subscribe(proxy, observer, "k",
                   [&](const ZeusEnsemble::TxnPtr& txn, TraceContext) {
                     log.push_back("B:" + std::to_string(txn->zxid));
                   });
  sim_.RunUntil(sim_.now() + 20 * kSimSecond);
  std::string z = std::to_string(zxid);
  EXPECT_EQ(log, (std::vector<std::string>{"A:" + z, "B:" + z}));
}

TEST_F(ZeusTest, RecoveredObserverPushesMissedUpdatesToWatchers) {
  ServerId proxy{0, 0, 9};
  const ServerId& observer = observers_[0];
  std::vector<std::string> seen;
  zeus_->Subscribe(proxy, observer, "cfg",
                   [&](const ZeusEnsemble::TxnPtr& txn, TraceContext) {
                     seen.push_back(txn->value);
                   });
  sim_.RunUntil(sim_.now() + 2 * kSimSecond);

  zeus_->Crash(observer);
  ASSERT_TRUE(WriteSync("cfg", "missed").ok());
  sim_.RunUntil(sim_.now() + 3 * kSimSecond);
  EXPECT_TRUE(seen.empty());

  zeus_->Recover(observer);
  sim_.RunUntil(sim_.now() + 5 * kSimSecond);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "missed");
}

TEST_F(ZeusTest, PerKeyOrderingAtObservers) {
  // Many rapid writes to the same key: a subscriber must see versions in
  // increasing zxid order (the commit log guarantees in-order delivery).
  ServerId proxy{0, 1, 3};
  std::vector<int64_t> zxids;
  zeus_->Subscribe(proxy, observers_[2], "hot",
                   [&](const ZeusEnsemble::TxnPtr& txn, TraceContext) {
                     zxids.push_back(txn->zxid);
                   });
  sim_.RunUntil(sim_.now() + kSimSecond);
  for (int i = 0; i < 20; ++i) {
    zeus_->Write(client_, "hot", "v" + std::to_string(i), [](Result<int64_t>) {});
  }
  sim_.RunUntil(sim_.now() + 30 * kSimSecond);
  ASSERT_GE(zxids.size(), 1u);
  for (size_t i = 1; i < zxids.size(); ++i) {
    EXPECT_GT(zxids[i], zxids[i - 1]);
  }
}

TEST_F(ZeusTest, PickObserverPrefersSameCluster) {
  Rng rng(5);
  ServerId proxy{1, 1, 4};
  for (int i = 0; i < 20; ++i) {
    ServerId picked = zeus_->PickObserverFor(proxy, rng);
    EXPECT_EQ(picked.region, 1);
    EXPECT_EQ(picked.cluster, 1);
  }
  // With the same-cluster observers down, fall back to any live observer.
  zeus_->Crash(ServerId{1, 1, 18});
  zeus_->Crash(ServerId{1, 1, 19});
  ServerId fallback = zeus_->PickObserverFor(proxy, rng);
  EXPECT_FALSE(net_->failures().IsDown(fallback));
}

TEST_F(ZeusTest, CommittedZxidsAreContiguousAcrossFailedWrites) {
  ASSERT_TRUE(WriteSync("a", "1").ok());
  // Lose quorum; these writes fail and must not burn zxids.
  zeus_->Crash(members_[1]);
  zeus_->Crash(members_[2]);
  zeus_->Crash(members_[3]);
  ASSERT_FALSE(WriteSync("b", "x").ok());
  ASSERT_FALSE(WriteSync("c", "x").ok());
  zeus_->Recover(members_[1]);
  zeus_->Recover(members_[2]);
  auto zxid = WriteSync("d", "2");
  ASSERT_TRUE(zxid.ok());
  EXPECT_EQ(*zxid, 2);  // Contiguous: 1 then 2, no holes.
}

TEST_F(ZeusTest, LeaderFailoverPreservesCommittedState) {
  ASSERT_TRUE(WriteSync("durable", "before-failover").ok());
  sim_.RunUntil(sim_.now() + 5 * kSimSecond);

  ServerId old_leader = zeus_->leader();
  zeus_->Crash(old_leader);
  ASSERT_TRUE(WriteSync("fresh", "after-failover").ok());
  sim_.RunUntil(sim_.now() + 10 * kSimSecond);

  // Both the pre-failover and post-failover values are served by observers
  // (the new leader continues the committed log, anti-entropy included).
  for (const char* key : {"durable", "fresh"}) {
    bool fetched = false;
    zeus_->Fetch(ServerId{0, 1, 7}, observers_[2], key, [&](Result<ZeusValue> r) {
      ASSERT_TRUE(r.ok()) << key << ": " << r.status();
      fetched = true;
    });
    sim_.RunUntil(sim_.now() + 2 * kSimSecond);
    EXPECT_TRUE(fetched) << key;
  }
}

TEST_F(ZeusTest, ObserverGapHealsWithoutLosingIntermediateKeys) {
  // The data-loss scenario the contiguous-apply rule prevents: observer
  // misses txn N (down), receives txn N+1 after recovering; N must still
  // arrive (via anti-entropy), not be masked by N+1's higher zxid.
  const ServerId& obs = observers_[0];
  ASSERT_TRUE(WriteSync("k1", "v1").ok());
  sim_.RunUntil(sim_.now() + 3 * kSimSecond);

  zeus_->Crash(obs);
  ASSERT_TRUE(WriteSync("k2", "missed-by-observer").ok());
  zeus_->Recover(obs);
  ASSERT_TRUE(WriteSync("k3", "v3").ok());
  sim_.RunUntil(sim_.now() + 10 * kSimSecond);

  for (const char* key : {"k1", "k2", "k3"}) {
    bool fetched = false;
    zeus_->Fetch(ServerId{0, 0, 9}, obs, key, [&](Result<ZeusValue> r) {
      ASSERT_TRUE(r.ok()) << key << ": " << r.status();
      fetched = true;
    });
    sim_.RunUntil(sim_.now() + 2 * kSimSecond);
    EXPECT_TRUE(fetched) << key;
  }
  EXPECT_EQ(zeus_->ObserverLastZxid(obs), 3);
}

TEST_F(ZeusTest, SingleMemberEnsembleCommits) {
  Network net(&sim_, Topology(1, 1, 4));
  ZeusEnsemble solo(&net, {ServerId{0, 0, 0}}, {ServerId{0, 0, 3}});
  bool committed = false;
  solo.Write(ServerId{0, 0, 1}, "k", "v", [&](Result<int64_t> r) {
    ASSERT_TRUE(r.ok());
    committed = true;
  });
  sim_.RunUntil(sim_.now() + 5 * kSimSecond);
  EXPECT_TRUE(committed);
}

}  // namespace
}  // namespace configerator
