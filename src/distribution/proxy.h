// Configerator Proxy and application client library (paper §3.4).
//
// Every production server runs a proxy process. The proxy picks an observer
// in its own cluster, subscribes (with a watch) to exactly the configs its
// local applications need, and caches them on disk. The availability story:
// if the proxy fails, applications fall back to reading the on-disk cache
// directly — so a config that has ever been fetched stays readable even if
// every Configerator component is down.
//
// One copy per committed value: the proxy's memory cache and its on-disk
// cache hold the very txn Zeus delivered (the leader's, shared down the
// tree), not copies of its value. So every read here (GetCached,
// AppConfigClient::Get, OnDiskCache::Get) returns a pointer to an immutable
// txn, valid until that server applies its next update of the key; the
// bytes behind it never change under the reader.
//
// Watch callbacks capture `this` and the proxy's incarnation, 16 bytes that
// std::function stores inline, so a delivery allocates nothing; a crash
// starts a new incarnation and drops deliveries to the old one. So a proxy
// must outlive the simulator's event flow, as a ProxyFleet must.

#ifndef SRC_DISTRIBUTION_PROXY_H_
#define SRC_DISTRIBUTION_PROXY_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/network.h"
#include "src/zeus/zeus.h"

namespace configerator {

// The server's local disk: survives proxy crashes (but not in this model
// machine reimage). Shared between the proxy (writer) and the application
// client library (fallback reader).
class OnDiskCache {
 public:
  using Entry = ZeusTxn;

  // Stores the txn the proxy was delivered, shared, not copied.
  void Put(const ZeusEnsemble::TxnPtr& txn) { entries_[txn->key] = txn; }
  // Stores a txn only this disk holds (the DST harness's torn write).
  void Put(const std::string& key, std::string value, int64_t zxid) {
    Put(std::make_shared<const ZeusTxn>(ZeusTxn{zxid, key, std::move(value)}));
  }
  const Entry* Get(const std::string& key) const {
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : it->second.get();
  }
  // The stored txn itself (nullptr if absent), for a restarted proxy's
  // memory cache to share.
  ZeusEnsemble::TxnPtr Load(const std::string& key) const {
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : it->second;
  }
  size_t size() const { return entries_.size(); }

 private:
  std::unordered_map<std::string, ZeusEnsemble::TxnPtr> entries_;
};

class ConfigProxy {
 public:
  using UpdateCallback =
      std::function<void(const std::string& key, const std::string& value,
                         int64_t zxid)>;

  ConfigProxy(Network* net, ZeusEnsemble* zeus, ServerId host,
              OnDiskCache* disk, uint64_t seed);

  const ServerId& host() const { return host_; }
  // The server's on-disk cache, which outlives the proxy process.
  OnDiskCache* disk() const { return disk_; }

  // Subscribes the proxy (and the registered application callbacks) to
  // `key`. Fetch + watch go to the chosen observer; every update lands in
  // the in-memory cache and the on-disk cache, then fans out to callbacks.
  // Stale/duplicate deliveries (zxid <= last seen) are discarded, preserving
  // per-key ordering.
  void Subscribe(const std::string& key, UpdateCallback on_update);

  // Synchronous read of the proxy's in-memory cache (applications read
  // through shared memory in production; function call here). The txn is
  // immutable; the pointer stays valid until the proxy applies its next
  // update of `key`.
  const OnDiskCache::Entry* GetCached(const std::string& key) const;

  // Simulated proxy crash/restart. While crashed the proxy ignores
  // deliveries; on restart it resubscribes everything (possibly picking a
  // new observer) and recovers its memory cache from disk.
  void Crash();
  void Restart();
  bool crashed() const { return crashed_; }

  // Re-picks the observer (e.g. after observer failure) and resubscribes.
  void RepickObserver();

  // Opt-in metrics + tracing (must outlive the proxy). Metrics are labeled
  // {server=<host>}. If `staleness_probe_interval` > 0 the proxy also pings
  // its observer on that period and maintains proxy_staleness_seconds — the
  // sim-seconds since it last heard from a live observer (rises during an
  // outage, returns to ~0 after heal). 0 keeps the proxy message-silent.
  void AttachObservability(Observability* obs,
                           SimTime staleness_probe_interval = 0);

  const ServerId& observer() const { return observer_; }
  uint64_t updates_received() const { return updates_received_; }
  uint64_t stale_discarded() const { return stale_discarded_; }

 private:
  // One subscribed key: the cached txn (nullptr until a delivery, and while
  // crashed) and the application callbacks.
  struct Subscription {
    ZeusEnsemble::TxnPtr cached;
    std::vector<UpdateCallback> callbacks;
  };

  void DoSubscribe(const std::string& key);
  // Resubscribes every key in sorted order, so the messages sent (and the
  // network's draws for them) do not depend on the hash table's layout.
  void ResubscribeAll();
  void OnZeusUpdate(const ZeusEnsemble::TxnPtr& txn, TraceContext trace);
  void ProbeStaleness();

  Network* net_;
  ZeusEnsemble* zeus_;
  ServerId host_;
  OnDiskCache* disk_;
  Rng rng_;
  ServerId observer_;
  bool crashed_ = false;
  std::unordered_map<std::string, Subscription> subscriptions_;
  uint64_t updates_received_ = 0;
  uint64_t stale_discarded_ = 0;

  // Observability (nullptr = unattached; zero overhead, zero messages).
  Observability* obs_ = nullptr;
  SimTime staleness_probe_interval_ = 0;
  SimTime last_confirmed_ = 0;  // Last sim time a live observer was heard.
  double max_propagation_ = -1;
  Counter* updates_counter_ = nullptr;
  Counter* stale_counter_ = nullptr;
  Histogram* propagation_hist_ = nullptr;
  Gauge* staleness_gauge_ = nullptr;
  Gauge* slowest_zxid_gauge_ = nullptr;

  // Bumped by Crash: callbacks registered before it see a newer incarnation
  // and drop their delivery.
  uint64_t incarnation_ = 0;
};

// The application side of the client library: reads through the proxy, or
// directly from the on-disk cache if the proxy is down (availability
// guarantee of §3.4).
class AppConfigClient {
 public:
  AppConfigClient(const ConfigProxy* proxy, const OnDiskCache* disk)
      : proxy_(proxy), disk_(disk) {}

  // Returns the freshest locally available value, or nullptr if the config
  // has never reached this server.
  const OnDiskCache::Entry* Get(const std::string& key) const {
    if (!proxy_->crashed()) {
      const OnDiskCache::Entry* entry = proxy_->GetCached(key);
      if (entry != nullptr) {
        return entry;
      }
    }
    return disk_->Get(key);
  }

 private:
  const ConfigProxy* proxy_;
  const OnDiskCache* disk_;
};

}  // namespace configerator

#endif  // SRC_DISTRIBUTION_PROXY_H_
