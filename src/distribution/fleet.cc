#include "src/distribution/fleet.h"

#include <utility>

namespace configerator {

ProxyFleet::ProxyFleet(Network* net, ZeusEnsemble* zeus,
                       std::vector<ServerId> hosts, uint64_t seed)
    : net_(net), zeus_(zeus), hosts_(std::move(hosts)), rng_(seed) {}

void ProxyFleet::SubscribeAll(const std::string& key, SimTime spread) {
  size_t key_index = keys_.size();
  KeyState state;
  state.name = key;
  state.zxid.assign(hosts_.size(), -1);
  state.at.assign(hosts_.size(), -1);
  keys_.push_back(std::move(state));

  SimTime step = hosts_.empty()
                     ? 0
                     : spread / static_cast<SimTime>(hosts_.size());
  for (size_t i = 0; i < hosts_.size(); ++i) {
    ServerId observer = zeus_->PickObserverFor(hosts_[i], rng_);
    // Host and key packed into one word: the watch callback is `this` plus
    // that word, 16 trivially copyable bytes, which std::function stores
    // inline, so neither registering it nor copying it into each push
    // delivery allocates.
    uint64_t watch = (static_cast<uint64_t>(key_index) << 32) | i;
    net_->sim().Schedule(static_cast<SimTime>(i) * step, [this, observer, watch] {
      zeus_->Subscribe(hosts_[watch & 0xffffffff], observer,
                       keys_[watch >> 32].name,
                       [this, watch](const ZeusEnsemble::TxnPtr& txn,
                                     TraceContext) {
                         OnUpdate(watch & 0xffffffff, watch >> 32, *txn);
                       });
    });
  }
}

void ProxyFleet::OnUpdate(size_t host_index, size_t key_index,
                          const ZeusTxn& txn) {
  KeyState& state = keys_[key_index];
  if (txn.zxid <= state.zxid[host_index]) {
    return;  // Stale delivery (subscribe refetch racing a push).
  }
  if (hook_) {
    hook_(host_index, key_index, txn);
  }
  state.zxid[host_index] = txn.zxid;
  state.at[host_index] = net_->sim().now();
  ++updates_received_;
}

size_t ProxyFleet::CountAtLeast(size_t key_index, int64_t zxid) const {
  const KeyState& state = keys_[key_index];
  size_t n = 0;
  for (int64_t z : state.zxid) {
    if (z >= zxid) {
      ++n;
    }
  }
  return n;
}

}  // namespace configerator
