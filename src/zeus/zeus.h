// Zeus: the ZooKeeper-like replicated config store at the heart of
// Configerator's distribution pipeline (paper §3.4).
//
// Faithful behaviours:
//  * A leader and followers form an ensemble; a write commits after a quorum
//    of acks and is applied in zxid order (the commit log guarantees in-order
//    delivery of config changes).
//  * If the leader fails, a follower with the longest committed log is
//    elected leader after an election delay.
//  * Observers keep a full read-only replica, fed asynchronously by the
//    leader; a recovering observer reports its last zxid and receives the
//    missing suffix (anti-entropy runs periodically).
//  * Proxies subscribe per-key at an observer of their choice; the observer
//    pushes updated values down the tree (leader → observer → proxy).
//
// Simplifications vs. production ZAB, documented in DESIGN.md: epochs are a
// counter (no full leader-activation handshake), and the election picks the
// longest-log live member directly instead of running voting rounds. These
// do not affect the distribution-latency or fan-out behaviour the paper
// evaluates.
//
// One copy per committed txn: every follower's round trip shares one
// Proposal, whose key and value move into one immutable ZeusTxn at commit.
// The leader's committed_ map (Lookup's ground truth), the commit log, every
// observer's pending buffer and data, and every push in flight (leader →
// observer, observer → proxy, a subscription's refetch, anti-entropy
// replays) share that txn through a TxnPtr, and so do the proxies that
// cache what they are delivered. Members keep no log of their own, only the
// highest zxid they logged, which is what elections compare. The trace
// context of a delivery travels beside the pointer. Only a reply to Fetch
// copies a value.

#ifndef SRC_ZEUS_ZEUS_H_
#define SRC_ZEUS_ZEUS_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/observability.h"
#include "src/sim/network.h"
#include "src/util/status.h"

namespace configerator {

// One committed write. Immutable once committed; shared, never copied,
// from the leader down to every proxy's memory and disk cache.
struct ZeusTxn {
  int64_t zxid = 0;
  std::string key;
  std::string value;
};

// Value + version returned by reads.
struct ZeusValue {
  std::string value;
  int64_t zxid = 0;
};

class ZeusEnsemble {
 public:
  struct Options {
    SimTime election_delay = 2 * kSimSecond;
    SimTime anti_entropy_interval = 1 * kSimSecond;
    // Extra per-hop processing delay at each tree level (serialization,
    // fsync of the commit log, etc.).
    SimTime processing_delay = 2 * kSimMillisecond;
  };

  // A committed txn, immutable and shared by everything that holds it.
  using TxnPtr = std::shared_ptr<const ZeusTxn>;

  // `txn` is the committed txn itself: a subscriber may keep the pointer
  // instead of copying the value. `trace` is the span the delivery is
  // causally downstream of, for the commit tracer; invalid when tracing is
  // not attached.
  using UpdateCallback =
      std::function<void(const TxnPtr& txn, TraceContext trace)>;
  using WriteCallback = std::function<void(Result<int64_t> zxid)>;
  using FetchCallback = std::function<void(Result<ZeusValue>)>;

  // `members`: ensemble servers (members[0] starts as leader). `observers`:
  // observer servers, typically several per cluster. All must be distinct.
  ZeusEnsemble(Network* net, std::vector<ServerId> members,
               std::vector<ServerId> observers, Options options);
  ZeusEnsemble(Network* net, std::vector<ServerId> members,
               std::vector<ServerId> observers)
      : ZeusEnsemble(net, std::move(members), std::move(observers), Options{}) {}

  // --- Client (tailer) API ---

  // Proposes key=value from server `from`. `done` fires on commit (with the
  // zxid) or with kUnavailable if no quorum / no leader.
  void Write(const ServerId& from, std::string key, std::string value,
             WriteCallback done);

  // --- Proxy-facing observer API (all via simulated network) ---

  // Registers a persistent subscription for `key` at `observer`; `on_update`
  // runs on the proxy side for the current value (immediately, as a fetch)
  // and for every later committed update pushed down the tree. One watch per
  // (proxy, key): a later Subscribe replaces the callback, but a push already
  // in flight still runs the callback registered when it was sent.
  void Subscribe(const ServerId& proxy, const ServerId& observer,
                 const std::string& key, UpdateCallback on_update);

  // One-shot read of `key` from `observer`.
  void Fetch(const ServerId& proxy, const ServerId& observer,
             const std::string& key, FetchCallback done);

  // Liveness/freshness probe: round-trips a tiny message to `observer` and
  // reports its last applied zxid. No reply if the observer is down or a
  // partition blocks either direction — proxies use this to measure how
  // stale their subscription might be (staleness gauge).
  void Ping(const ServerId& proxy, const ServerId& observer,
            std::function<void(int64_t observer_zxid)> done);

  // --- Observability --------------------------------------------------------

  // Opt-in metrics + tracing. Must outlive the ensemble. Unattached (the
  // default), Zeus emits nothing and sends no extra messages.
  void AttachObservability(Observability* obs);

  // --- Failure hooks (benches/tests drive these) ---

  // Crash/recover members or observers. Member crash may trigger election on
  // the next write; observer recovery catches up via anti-entropy.
  void Crash(const ServerId& id);
  void Recover(const ServerId& id);

  // --- Introspection ---

  const ServerId& leader() const { return members_[leader_idx_].id; }
  bool has_quorum() const;
  int64_t last_committed_zxid() const { return last_committed_zxid_; }

  // The leader's last committed txn for `key` (nullptr if never written).
  // This is the simulation-harness ground truth: after a full heal, every
  // replica must converge to it. Not a networked read — tests/invariants
  // only.
  const ZeusTxn* Lookup(const std::string& key) const;
  int64_t ObserverLastZxid(const ServerId& observer) const;
  const std::vector<ServerId>& observers() const { return observer_ids_; }
  std::vector<ServerId> member_ids() const;

  // Picks the observer co-located with `proxy`'s cluster if one exists,
  // else a random one (the paper: "randomly picks an observer in the same
  // cluster").
  ServerId PickObserverFor(const ServerId& proxy, Rng& rng) const;

 private:
  struct Member {
    ServerId id;
    // Highest zxid committed while this member was up; the election picks
    // the live member with the largest.
    int64_t last_logged_zxid = 0;
  };

  // A write being proposed: one object shared by every follower's round
  // trip. The leader implicitly acks itself.
  struct Proposal {
    size_t acks = 1;
    bool committed = false;
    std::string key;
    std::string value;
    WriteCallback done;
  };

  // A txn on its way to or buffered at an observer, with the span it is
  // causally downstream of.
  struct Push {
    TxnPtr txn;
    TraceContext trace;
  };

  struct Watch {
    ServerId proxy;
    UpdateCallback callback;
  };

  // Watches on one key at one observer. `list` keeps registration order (the
  // push fan-out iterates it, so delivery order is deterministic and stable);
  // `by_proxy` (dense flat-index key → list slot) makes the one-watch-per-
  // (proxy, key) replacement O(1) instead of a linear scan — at 100k
  // subscribing proxies the scan was quadratic.
  struct WatchList {
    std::vector<Watch> list;
    std::unordered_map<uint64_t, uint32_t> by_proxy;
  };

  struct Observer {
    ServerId id;
    int64_t last_zxid = 0;
    // Out-of-order arrivals (holes happen when pushes were dropped while the
    // observer was down). Applied only once contiguous — ZooKeeper's
    // in-order delivery guarantee; anti-entropy fills the holes.
    std::map<int64_t, Push> pending;
    std::unordered_map<std::string, TxnPtr> data;
    std::unordered_map<std::string, WatchList> watches;
  };

  void CommitOnLeader(std::string key, std::string value, WriteCallback done);
  // Commits `proposal` once a quorum has acked it.
  void MaybeCommit(Proposal* proposal);
  void StartElection();
  void PushToObservers(const TxnPtr& txn);
  void ApplyOnObserver(Observer* obs, const Push& push);
  void AntiEntropyTick();
  Observer* FindObserver(const ServerId& id);
  const Observer* FindObserver(const ServerId& id) const;
  size_t LiveMemberCount() const;

  Network* net_;
  Options options_;
  Observability* obs_ = nullptr;
  // Cached metric handles (stable registry pointers): hot-path increments
  // never touch the registry map.
  Counter* commits_counter_ = nullptr;
  Counter* elections_counter_ = nullptr;
  Counter* pushes_counter_ = nullptr;
  Counter* antientropy_counter_ = nullptr;
  // The committed transaction stream: zxids are assigned contiguously from
  // 1 at commit and the log is never trimmed, so commit_log_[z - 1] holds
  // zxid z. Anti-entropy replays suffixes of this hole-free stream; a
  // member that was down for some commits would have holes, so members keep
  // no log of their own.
  std::vector<TxnPtr> commit_log_;
  std::vector<Member> members_;
  std::vector<ServerId> observer_ids_;
  std::vector<Observer> observer_states_;
  std::unordered_map<std::string, TxnPtr> committed_;  // Leader KV state.
  size_t leader_idx_ = 0;
  int64_t last_committed_zxid_ = 0;
  bool election_in_progress_ = false;
  // A write queued behind an election: replayed when a leader is elected,
  // failed with kUnavailable when the election finds no quorum.
  struct PendingWrite {
    ServerId from;
    std::string key;
    std::string value;
    WriteCallback done;
  };
  std::deque<PendingWrite> pending_writes_;
};

}  // namespace configerator

#endif  // SRC_ZEUS_ZEUS_H_
