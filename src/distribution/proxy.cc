#include "src/distribution/proxy.h"

namespace configerator {

ConfigProxy::ConfigProxy(Network* net, ZeusEnsemble* zeus, ServerId host,
                         OnDiskCache* disk, uint64_t seed)
    : net_(net), zeus_(zeus), host_(host), disk_(disk), rng_(seed) {
  observer_ = zeus_->PickObserverFor(host_, rng_);
  self_ = std::make_shared<ConfigProxy*>(this);
}

void ConfigProxy::Subscribe(const std::string& key, UpdateCallback on_update) {
  bool already_subscribed = callbacks_.count(key) > 0;
  if (on_update) {
    callbacks_[key].push_back(std::move(on_update));
  } else {
    callbacks_.try_emplace(key);  // Subscription without a callback.
  }
  if (!already_subscribed && !crashed_) {
    DoSubscribe(key);
  }
}

void ConfigProxy::DoSubscribe(const std::string& key) {
  std::weak_ptr<ConfigProxy*> weak = self_;
  zeus_->Subscribe(host_, observer_, key,
                   [weak](const ZeusTxn& txn, TraceContext trace) {
                     std::shared_ptr<ConfigProxy*> self = weak.lock();
                     if (self == nullptr) {
                       return;  // Proxy incarnation is gone (crash without restart).
                     }
                     (*self)->OnZeusUpdate(txn, trace);
                   });
}

void ConfigProxy::OnZeusUpdate(const ZeusTxn& txn, TraceContext trace) {
  if (crashed_) {
    return;  // Delivery to a dead process.
  }
  if (obs_ != nullptr) {
    last_confirmed_ = net_->sim().now();  // A delivery is proof of liveness.
  }
  auto it = memory_cache_.find(txn.key);
  if (it != memory_cache_.end() && txn.zxid <= it->second.zxid) {
    ++stale_discarded_;  // Ordering guarantee: never move backwards.
    if (stale_counter_ != nullptr) {
      stale_counter_->Inc();
    }
    return;
  }
  ++updates_received_;
  TraceContext apply_span;
  if (obs_ != nullptr) {
    SimTime now = net_->sim().now();
    updates_counter_->Inc();
    TraceContext parent =
        trace.valid() ? trace : obs_->tracer.ZxidContext(txn.zxid);
    apply_span = obs_->tracer.StartSpan(parent, "proxy.apply",
                                        host_.ToString(), now);
    SimTime commit_start = obs_->tracer.TraceStartTime(parent.trace_id);
    if (commit_start >= 0) {
      double latency = SimToSeconds(now - commit_start);
      propagation_hist_->Record(latency);
      if (latency > max_propagation_) {
        max_propagation_ = latency;
        slowest_zxid_gauge_->Set(static_cast<double>(txn.zxid));
      }
    }
  }
  memory_cache_[txn.key] = OnDiskCache::Entry{txn.value, txn.zxid};
  disk_->Put(txn.key, txn.value, txn.zxid);
  auto cb_it = callbacks_.find(txn.key);
  if (cb_it != callbacks_.end()) {
    if (obs_ != nullptr && !cb_it->second.empty()) {
      SimTime now = net_->sim().now();
      obs_->tracer.EndSpan(obs_->tracer.StartSpan(apply_span, "app.callback",
                                                  host_.ToString(), now),
                           now);
    }
    for (const UpdateCallback& cb : cb_it->second) {
      cb(txn.key, txn.value, txn.zxid);
    }
  }
  if (obs_ != nullptr) {
    obs_->tracer.EndSpan(apply_span, net_->sim().now());
  }
}

void ConfigProxy::AttachObservability(Observability* obs,
                                      SimTime staleness_probe_interval) {
  obs_ = obs;
  staleness_probe_interval_ = staleness_probe_interval;
  MetricLabels labels{{"server", host_.ToString()}};
  updates_counter_ = obs->metrics.GetCounter("proxy_updates_total", labels);
  stale_counter_ =
      obs->metrics.GetCounter("proxy_stale_discarded_total", labels);
  propagation_hist_ =
      obs->metrics.GetHistogram("proxy_propagation_seconds", labels);
  staleness_gauge_ =
      obs->metrics.GetGauge("proxy_staleness_seconds", labels);
  slowest_zxid_gauge_ = obs->metrics.GetGauge("proxy_slowest_zxid", labels);
  last_confirmed_ = net_->sim().now();
  if (staleness_probe_interval_ > 0) {
    net_->sim().Schedule(staleness_probe_interval_,
                         [this] { ProbeStaleness(); });
  }
}

void ConfigProxy::ProbeStaleness() {
  if (!crashed_) {
    staleness_gauge_->Set(SimToSeconds(net_->sim().now() - last_confirmed_));
    // Ping the current observer; the reply (if the observer is up and no
    // partition eats either leg) refreshes last_confirmed_. The callback
    // guards on the incarnation token like watch deliveries do.
    std::weak_ptr<ConfigProxy*> weak = self_;
    zeus_->Ping(host_, observer_, [weak](int64_t /*observer_zxid*/) {
      std::shared_ptr<ConfigProxy*> self = weak.lock();
      if (self == nullptr) {
        return;
      }
      ConfigProxy* proxy = *self;
      if (proxy->crashed_) {
        return;
      }
      proxy->last_confirmed_ = proxy->net_->sim().now();
      proxy->staleness_gauge_->Set(0);
    });
  }
  net_->sim().Schedule(staleness_probe_interval_, [this] { ProbeStaleness(); });
}

const OnDiskCache::Entry* ConfigProxy::GetCached(const std::string& key) const {
  if (crashed_) {
    return nullptr;
  }
  auto it = memory_cache_.find(key);
  return it == memory_cache_.end() ? nullptr : &it->second;
}

void ConfigProxy::Crash() {
  crashed_ = true;
  memory_cache_.clear();
  // Invalidate outstanding watch deliveries to this incarnation.
  self_ = std::make_shared<ConfigProxy*>(this);
}

void ConfigProxy::Restart() {
  if (!crashed_) {
    return;
  }
  crashed_ = false;
  // Warm the memory cache from disk, then resubscribe everything.
  for (const std::string& key : [this] {
         std::vector<std::string> keys;
         keys.reserve(callbacks_.size());
         for (const auto& [k, cbs] : callbacks_) {
           keys.push_back(k);
         }
         return keys;
       }()) {
    const OnDiskCache::Entry* entry = disk_->Get(key);
    if (entry != nullptr) {
      memory_cache_[key] = *entry;
    }
  }
  observer_ = zeus_->PickObserverFor(host_, rng_);
  for (const auto& [key, cbs] : callbacks_) {
    DoSubscribe(key);
  }
}

void ConfigProxy::RepickObserver() {
  observer_ = zeus_->PickObserverFor(host_, rng_);
  if (!crashed_) {
    for (const auto& [key, cbs] : callbacks_) {
      DoSubscribe(key);
    }
  }
}

}  // namespace configerator
