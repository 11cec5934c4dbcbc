// ProxyFleet: a struct-of-arrays subscriber fleet for scale experiments.
//
// A full ConfigProxy per server (a hash record per subscribed key holding
// the cached txn and the app callbacks, an on-disk cache, metrics) costs
// kilobytes each — fine for a DST scenario with tens of proxies, fatal at
// the paper's fleet sizes. The Fig 14 scaling bench needs 100k+ servers
// that each hold a live per-key Zeus subscription and record when updates
// land; nothing more. ProxyFleet keeps exactly that:
// per-(key, server) state is two dense arrays (last zxid, last update time)
// indexed by the server's position in the fleet, ~16 bytes per subscription,
// and every server runs the real subscribe/watch/push protocol over the
// simulated network (same messages, same observer selection as ConfigProxy).
//
// Not a DST citizen: fleet servers never crash or restart, so watch callbacks
// capture `this` directly — the fleet must outlive the ensemble's event flow.
// Each watch callback is `this` plus one word packing (key, host): 16
// trivially copyable bytes, stored inline in its std::function. So a push
// to every host copies each callback into its delivery without a heap
// allocation (tests/fanout_alloc_test.cc holds the fan-out to that).

#ifndef SRC_DISTRIBUTION_FLEET_H_
#define SRC_DISTRIBUTION_FLEET_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/network.h"
#include "src/zeus/zeus.h"

namespace configerator {

class ProxyFleet {
 public:
  // `hosts`: the fleet servers, one subscription set each. Observer choice
  // follows the paper ("randomly picks an observer in the same cluster") via
  // ZeusEnsemble::PickObserverFor with a fleet-owned seeded rng.
  ProxyFleet(Network* net, ZeusEnsemble* zeus, std::vector<ServerId> hosts,
             uint64_t seed);

  // Subscribes every host to `key`, staggered uniformly over `spread` so
  // fleet start-up is a ramp, not a single 100k-message instant.
  void SubscribeAll(const std::string& key, SimTime spread = kSimSecond);

  size_t size() const { return hosts_.size(); }
  size_t key_count() const { return keys_.size(); }
  const std::vector<ServerId>& hosts() const { return hosts_; }
  const std::string& key_name(size_t key_index) const {
    return keys_[key_index].name;
  }

  // -1 if the host never received the key.
  int64_t last_zxid(size_t host_index, size_t key_index) const {
    return keys_[key_index].zxid[host_index];
  }
  SimTime updated_at(size_t host_index, size_t key_index) const {
    return keys_[key_index].at[host_index];
  }
  // Hosts whose last zxid for `key_index` is >= `zxid`.
  size_t CountAtLeast(size_t key_index, int64_t zxid) const;
  uint64_t updates_received() const { return updates_received_; }

  // Fires on every applied (non-stale) update, before state arrays change.
  // Benches use this for per-commit propagation timing without the fleet
  // storing any values.
  using UpdateHook =
      std::function<void(size_t host_index, size_t key_index, const ZeusTxn&)>;
  void set_update_hook(UpdateHook hook) { hook_ = std::move(hook); }

 private:
  struct KeyState {
    std::string name;
    std::vector<int64_t> zxid;  // Per host; -1 = never updated.
    std::vector<SimTime> at;
  };

  void OnUpdate(size_t host_index, size_t key_index, const ZeusTxn& txn);

  Network* net_;
  ZeusEnsemble* zeus_;
  std::vector<ServerId> hosts_;
  std::vector<KeyState> keys_;
  Rng rng_;
  UpdateHook hook_;
  uint64_t updates_received_ = 0;
};

}  // namespace configerator

#endif  // SRC_DISTRIBUTION_FLEET_H_
