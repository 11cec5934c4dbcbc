#include "src/zeus/zeus.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "src/util/logging.h"

namespace configerator {

ZeusEnsemble::ZeusEnsemble(Network* net, std::vector<ServerId> members,
                           std::vector<ServerId> observers, Options options)
    : net_(net), options_(options) {
  assert(!members.empty());
  members_.reserve(members.size());
  for (const ServerId& id : members) {
    Member m;
    m.id = id;
    members_.push_back(std::move(m));
  }
  observer_ids_ = std::move(observers);
  observer_states_.reserve(observer_ids_.size());
  for (const ServerId& id : observer_ids_) {
    Observer obs;
    obs.id = id;
    observer_states_.push_back(std::move(obs));
  }
  // Periodic anti-entropy keeps lagging observers converging.
  net_->sim().Schedule(options_.anti_entropy_interval, [this] { AntiEntropyTick(); });
}

void ZeusEnsemble::AttachObservability(Observability* obs) {
  obs_ = obs;
  commits_counter_ = obs->metrics.GetCounter("zeus_commits_total");
  elections_counter_ = obs->metrics.GetCounter("zeus_elections_total");
  pushes_counter_ = obs->metrics.GetCounter("zeus_observer_pushes_total");
  antientropy_counter_ =
      obs->metrics.GetCounter("zeus_antientropy_replays_total");
}

size_t ZeusEnsemble::LiveMemberCount() const {
  size_t live = 0;
  for (const Member& m : members_) {
    if (!net_->failures().IsDown(m.id)) {
      ++live;
    }
  }
  return live;
}

bool ZeusEnsemble::has_quorum() const {
  return LiveMemberCount() * 2 > members_.size();
}

void ZeusEnsemble::Write(const ServerId& from, std::string key, std::string value,
                         WriteCallback done) {
  // Client → leader hop.
  int64_t bytes = static_cast<int64_t>(key.size() + value.size() + 64);
  ServerId leader_id = members_[leader_idx_].id;
  if (net_->failures().IsDown(leader_id)) {
    StartElection();
  }
  if (election_in_progress_) {
    pending_writes_.push_back(
        PendingWrite{from, std::move(key), std::move(value), std::move(done)});
    return;
  }
  if (!has_quorum()) {
    done(UnavailableError("Zeus ensemble has no quorum"));
    return;
  }
  net_->Send(from, members_[leader_idx_].id, bytes,
             [this, key = std::move(key), value = std::move(value),
              done = std::move(done)]() mutable {
               CommitOnLeader(std::move(key), std::move(value), std::move(done));
             });
}

void ZeusEnsemble::CommitOnLeader(std::string key, std::string value,
                                  WriteCallback done) {
  if (!has_quorum()) {
    done(UnavailableError("Zeus ensemble lost quorum"));
    return;
  }
  int64_t bytes = static_cast<int64_t>(key.size() + value.size() + 64);
  auto proposal = std::make_shared<Proposal>();
  proposal->key = std::move(key);
  proposal->value = std::move(value);
  proposal->done = std::move(done);

  const ServerId leader_id = members_[leader_idx_].id;
  for (size_t i = 0; i < members_.size(); ++i) {
    if (i == leader_idx_) {
      continue;
    }
    const ServerId& follower = members_[i].id;
    if (net_->failures().IsDown(follower)) {
      continue;
    }
    // Round trip: leader → follower (proposal) → leader (ack).
    net_->SendFifo(leader_id, follower, bytes,
                   [this, leader_id, follower, proposal] {
                     net_->SendFifo(follower, leader_id, 64,
                                    [this, proposal] {
                                      ++proposal->acks;
                                      MaybeCommit(proposal.get());
                                    });
                   });
  }
  // A single-member ensemble commits immediately.
  MaybeCommit(proposal.get());
}

void ZeusEnsemble::MaybeCommit(Proposal* proposal) {
  if (proposal->committed || proposal->acks < members_.size() / 2 + 1) {
    return;
  }
  proposal->committed = true;
  // Commit: assign the zxid *at commit time* — FIFO proposal/ack channels
  // make commits complete in proposal order, so the committed zxid stream
  // is contiguous (failed proposals leave no holes). Apply on leader state,
  // append to the commit log, mark live members as having logged it, then
  // fan out to observers after the processing delay (log fsync etc.).
  auto txn = std::make_shared<const ZeusTxn>(
      ZeusTxn{++last_committed_zxid_, std::move(proposal->key),
              std::move(proposal->value)});
  committed_[txn->key] = txn;
  assert(static_cast<int64_t>(commit_log_.size()) + 1 == txn->zxid);
  commit_log_.push_back(txn);
  for (Member& m : members_) {
    if (!net_->failures().IsDown(m.id)) {
      m.last_logged_zxid = txn->zxid;
    }
  }
  if (commits_counter_ != nullptr) {
    commits_counter_->Inc();
  }
  net_->sim().Schedule(options_.processing_delay,
                       [this, txn] { PushToObservers(txn); });
  proposal->done(txn->zxid);
}

void ZeusEnsemble::StartElection() {
  if (election_in_progress_) {
    return;
  }
  election_in_progress_ = true;
  if (elections_counter_ != nullptr) {
    elections_counter_->Inc();
  }
  net_->sim().Schedule(options_.election_delay, [this] {
    // Elect the live member with the longest committed log.
    size_t best = members_.size();
    for (size_t i = 0; i < members_.size(); ++i) {
      if (net_->failures().IsDown(members_[i].id)) {
        continue;
      }
      if (best == members_.size() ||
          members_[i].last_logged_zxid > members_[best].last_logged_zxid) {
        best = i;
      }
    }
    election_in_progress_ = false;
    // A callback or a replayed write may queue again: take the queue first.
    std::deque<PendingWrite> queued;
    queued.swap(pending_writes_);
    if (best == members_.size() || !has_quorum()) {
      CLOG(Warning) << "Zeus election failed: no quorum";
      for (PendingWrite& write : queued) {
        write.done(UnavailableError("Zeus election failed: no quorum"));
      }
      return;
    }
    leader_idx_ = best;
    CLOG(Info) << "Zeus elected leader " << members_[best].id.ToString();
    for (PendingWrite& write : queued) {
      Write(write.from, std::move(write.key), std::move(write.value),
            std::move(write.done));
    }
  });
}

void ZeusEnsemble::PushToObservers(const TxnPtr& txn) {
  const ServerId& leader_id = members_[leader_idx_].id;
  int64_t bytes = static_cast<int64_t>(txn->key.size() + txn->value.size() + 64);
  Push push{txn, TraceContext{}};
  if (obs_ != nullptr) {
    // The publisher bound the zxid (in its Write done-callback, which ran
    // before this scheduled push); parent the leader fan-out there.
    SimTime now = net_->sim().now();
    TraceContext ctx = obs_->tracer.ZxidContext(txn->zxid);
    push.trace = obs_->tracer.StartSpan(ctx, "zeus.leader.push",
                                        leader_id.ToString(), now);
    obs_->tracer.EndSpan(push.trace, now);
  }
  for (Observer& obs : observer_states_) {
    if (net_->failures().IsDown(obs.id)) {
      continue;  // Anti-entropy catches it up on recovery.
    }
    Observer* obs_ptr = &obs;
    net_->SendFifo(leader_id, obs.id, bytes,
                   [this, obs_ptr, push] { ApplyOnObserver(obs_ptr, push); });
  }
}

void ZeusEnsemble::ApplyOnObserver(Observer* obs, const Push& push) {
  if (push.txn->zxid <= obs->last_zxid) {
    return;  // Stale or duplicate (anti-entropy overlap).
  }
  // Buffer, then apply the contiguous prefix. A gap means pushes were lost
  // while this observer was down; applying txn N+2 before N would let a
  // later anti-entropy pass believe the observer is current and leave key N
  // permanently stale.
  obs->pending.emplace(push.txn->zxid, push);
  while (!obs->pending.empty() &&
         obs->pending.begin()->first == obs->last_zxid + 1) {
    const Push& next = obs->pending.begin()->second;
    const ZeusTxn& txn = *next.txn;
    obs->last_zxid = txn.zxid;
    obs->data[txn.key] = next.txn;
    TraceContext apply_ctx = next.trace;
    if (obs_ != nullptr) {
      if (pushes_counter_ != nullptr) {
        pushes_counter_->Inc();
      }
      SimTime now = net_->sim().now();
      TraceContext parent = next.trace.valid()
                                ? next.trace
                                : obs_->tracer.ZxidContext(txn.zxid);
      TraceContext span = obs_->tracer.StartSpan(parent, "zeus.observer.apply",
                                                 obs->id.ToString(), now);
      obs_->tracer.EndSpan(span, now);
      if (span.valid()) {
        apply_ctx = span;
      }
    }
    // Notify watching proxies (observer → proxy hop of the tree). Each
    // delivery carries the shared txn and a copy of the callback registered
    // now, so a watch replaced while its push is in flight still runs the
    // old callback. A callback stored inline in its std::function (the
    // fleet's) copies without allocating.
    auto it = obs->watches.find(txn.key);
    if (it != obs->watches.end() && !it->second.list.empty()) {
      int64_t bytes = static_cast<int64_t>(txn.key.size() + txn.value.size() + 64);
      for (const Watch& watch : it->second.list) {
        net_->SendFifo(obs->id, watch.proxy, bytes,
                       [callback = watch.callback,
                        push = Push{next.txn, apply_ctx}] {
                         callback(push.txn, push.trace);
                       });
      }
    }
    obs->pending.erase(obs->pending.begin());
  }
}

void ZeusEnsemble::AntiEntropyTick() {
  const ServerId& leader_id = members_[leader_idx_].id;
  if (!net_->failures().IsDown(leader_id)) {
    for (Observer& obs : observer_states_) {
      if (net_->failures().IsDown(obs.id) || obs.last_zxid >= last_committed_zxid_) {
        continue;
      }
      // Replay the missing suffix of the committed stream, in order. Sourced
      // from the hole-free commit log: zxid z sits at commit_log_[z - 1], so
      // the first txn the observer lacks is commit_log_[last_zxid].
      Observer* obs_ptr = &obs;
      for (size_t i = static_cast<size_t>(obs.last_zxid); i < commit_log_.size();
           ++i) {
        Push replay{commit_log_[i], TraceContext{}};
        if (obs_ != nullptr) {
          if (antientropy_counter_ != nullptr) {
            antientropy_counter_->Inc();
          }
          // The commit log predates tracing of this txn's push; rejoin the
          // replay to the publisher's span via the zxid binding.
          replay.trace = obs_->tracer.ZxidContext(replay.txn->zxid);
        }
        int64_t bytes = static_cast<int64_t>(replay.txn->key.size() +
                                             replay.txn->value.size() + 64);
        net_->SendFifo(leader_id, obs.id, bytes,
                       [this, obs_ptr, replay] { ApplyOnObserver(obs_ptr, replay); });
      }
    }
  }
  net_->sim().Schedule(options_.anti_entropy_interval, [this] { AntiEntropyTick(); });
}

void ZeusEnsemble::Subscribe(const ServerId& proxy, const ServerId& observer,
                             const std::string& key, UpdateCallback on_update) {
  Observer* obs = FindObserver(observer);
  if (obs == nullptr) {
    return;
  }
  // Register the watch at the observer (proxy → observer hop), then deliver
  // the current value if one exists.
  int64_t bytes = static_cast<int64_t>(key.size() + 64);
  net_->Send(proxy, observer, bytes,
             [this, obs, proxy, key, on_update = std::move(on_update)] {
               // One watch per (proxy, key): a resubscription (proxy restart,
               // observer failover) replaces the old registration — in place,
               // so delivery order stays by first registration — instead of
               // stacking duplicate deliveries.
               WatchList& watches = obs->watches[key];
               uint64_t proxy_flat = static_cast<uint64_t>(
                   net_->topology().FlatIndex(proxy));
               auto [slot, inserted] = watches.by_proxy.try_emplace(
                   proxy_flat, static_cast<uint32_t>(watches.list.size()));
               if (inserted) {
                 watches.list.push_back(Watch{proxy, on_update});
               } else {
                 watches.list[slot->second].callback = on_update;
               }
               auto it = obs->data.find(key);
               if (it == obs->data.end()) {
                 return;
               }
               const TxnPtr& txn = it->second;
               TraceContext trace;
               if (obs_ != nullptr) {
                 // Refetch after restart/failover: rejoin the commit's trace
                 // so the proxy's apply span is not orphaned.
                 trace = obs_->tracer.ZxidContext(txn->zxid);
               }
               int64_t reply_bytes =
                   static_cast<int64_t>(key.size() + txn->value.size() + 64);
               net_->SendFifo(obs->id, proxy, reply_bytes,
                              [on_update, txn, trace] { on_update(txn, trace); });
             });
}

void ZeusEnsemble::Fetch(const ServerId& proxy, const ServerId& observer,
                         const std::string& key, FetchCallback done) {
  Observer* obs = FindObserver(observer);
  if (obs == nullptr) {
    done(NotFoundError("no such observer"));
    return;
  }
  if (net_->failures().IsDown(observer)) {
    done(UnavailableError("observer down"));
    return;
  }
  int64_t bytes = static_cast<int64_t>(key.size() + 64);
  net_->Send(proxy, observer, bytes, [this, obs, proxy, key, done = std::move(done)] {
    auto it = obs->data.find(key);
    if (it == obs->data.end()) {
      // Reply with NotFound over the network (small message).
      net_->Send(obs->id, proxy, 64,
                 [done, key] { done(NotFoundError("no config '" + key + "'")); });
      return;
    }
    ZeusValue value{it->second->value, it->second->zxid};
    int64_t reply_bytes = static_cast<int64_t>(key.size() + value.value.size() + 64);
    net_->Send(obs->id, proxy, reply_bytes,
               [done, value = std::move(value)] { done(value); });
  });
}

void ZeusEnsemble::Ping(const ServerId& proxy, const ServerId& observer,
                        std::function<void(int64_t)> done) {
  Observer* obs = FindObserver(observer);
  if (obs == nullptr) {
    return;
  }
  // Request and reply both traverse the simulated network, so a down
  // observer or a partition in either direction silently eats the probe —
  // exactly the signal the staleness gauge feeds on.
  net_->Send(proxy, observer, 64, [this, obs, proxy, done = std::move(done)] {
    net_->Send(obs->id, proxy, 64,
               [done, zxid = obs->last_zxid] { done(zxid); });
  });
}

void ZeusEnsemble::Crash(const ServerId& id) {
  net_->failures().Crash(id);
  if (id == members_[leader_idx_].id) {
    StartElection();
  }
}

void ZeusEnsemble::Recover(const ServerId& id) { net_->failures().Recover(id); }

ZeusEnsemble::Observer* ZeusEnsemble::FindObserver(const ServerId& id) {
  for (Observer& obs : observer_states_) {
    if (obs.id == id) {
      return &obs;
    }
  }
  return nullptr;
}

const ZeusEnsemble::Observer* ZeusEnsemble::FindObserver(const ServerId& id) const {
  for (const Observer& obs : observer_states_) {
    if (obs.id == id) {
      return &obs;
    }
  }
  return nullptr;
}

const ZeusTxn* ZeusEnsemble::Lookup(const std::string& key) const {
  auto it = committed_.find(key);
  return it == committed_.end() ? nullptr : it->second.get();
}

int64_t ZeusEnsemble::ObserverLastZxid(const ServerId& observer) const {
  const Observer* obs = FindObserver(observer);
  return obs == nullptr ? -1 : obs->last_zxid;
}

std::vector<ServerId> ZeusEnsemble::member_ids() const {
  std::vector<ServerId> ids;
  for (const Member& member : members_) {
    ids.push_back(member.id);
  }
  return ids;
}

ServerId ZeusEnsemble::PickObserverFor(const ServerId& proxy, Rng& rng) const {
  std::vector<const ServerId*> same_cluster;
  std::vector<const ServerId*> live;
  for (const ServerId& obs : observer_ids_) {
    if (net_->failures().IsDown(obs)) {
      continue;
    }
    live.push_back(&obs);
    if (obs.region == proxy.region && obs.cluster == proxy.cluster) {
      same_cluster.push_back(&obs);
    }
  }
  const std::vector<const ServerId*>& pool =
      !same_cluster.empty() ? same_cluster : live;
  if (pool.empty()) {
    return observer_ids_.empty() ? proxy : observer_ids_.front();
  }
  return *pool[rng.NextBounded(pool.size())];
}

}  // namespace configerator
