// Message-passing layer over the simulator: point-to-point sends with
// topology-derived latency and a seed-deterministic fault model ("failures
// are the norm" — §3.4). Components register handlers per server and exchange
// opaque payloads.
//
// Fault model (all deterministic given the Network seed):
//  * Crash-style server failures (FailureInjector): messages to/from a down
//    server are dropped, like a TCP connection that will time out.
//  * Network partitions, including asymmetric ones: a partition rule blocks
//    sends from one server group to another (optionally both directions).
//    Blocked sends are dropped at send time; messages already in flight when
//    a partition starts still arrive.
//  * Per-link faults (LinkFault): probabilistic message drop, duplication,
//    reordering, and extra delivery delay, configured per directed link or
//    globally. FIFO channels (SendFifo) model TCP connections and therefore
//    never reorder — but they can still drop, duplicate, and delay.
//
// Every outcome is counted in aggregate (stats(), always exact) and per
// directed link. Each link gets one record, created the first time the link
// carries or drops a message, so a 100k-server fleet pays memory only for
// links that actually saw traffic. The record holds the link's counters and
// its FIFO channel clock, so a send probes one hash table. The scale
// invariant — aggregate == sum over materialized links, untouched links
// allocate nothing — is property-tested under a seeded fault barrage
// (tests/sim_test.cc).
//
// A send is built in place: Send and SendFifo take any copyable callable and
// construct it, next to the destination, link and stats epoch, inside the
// delivery's pooled simulator event (simulator.h). No std::function wraps
// it, and a delivery whose payload fits the slot allocates nothing. A
// duplicate delivery copies the payload.
//
// Per-server and per-link state is keyed by dense integer handles
// (Topology::FlatIndex; a directed link packs two 32-bit flat indices into a
// uint64_t), so the hot path is flat-array/open-hash work instead of
// tree-map walks over 12-byte ServerId tuples. Endpoints must be servers of
// the topology.

#ifndef SRC_SIM_NETWORK_H_
#define SRC_SIM_NETWORK_H_

#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/topology.h"
#include "src/util/rng.h"

namespace configerator {

// Injects crashes/recoveries and answers liveness queries. With a topology
// attached (Network does this), liveness is one dense bit test per query;
// ids outside the topology fall back to a small set so the injector stays
// usable standalone.
class FailureInjector {
 public:
  FailureInjector() = default;

  void AttachTopology(const Topology* topology);

  void Crash(const ServerId& id);
  void Recover(const ServerId& id);
  bool IsDown(const ServerId& id) const {
    if (topology_ != nullptr && topology_->Contains(id)) {
      return down_[static_cast<size_t>(topology_->FlatIndex(id))] != 0;
    }
    return other_down_.count(id) > 0;
  }
  // Liveness by flat index, for a server of the attached topology.
  bool IsDownAt(uint32_t flat_index) const { return down_[flat_index] != 0; }
  size_t down_count() const { return down_count_; }

 private:
  const Topology* topology_ = nullptr;
  std::vector<uint8_t> down_;  // Dense, by flat index; sized on attach.
  std::unordered_set<ServerId> other_down_;  // Ids outside the topology.
  size_t down_count_ = 0;
};

// Probabilistic fault configuration for a directed link (or the whole
// network, via SetDefaultFault). Zero-initialized = no faults.
struct LinkFault {
  double drop_prob = 0;     // P(message silently lost).
  double dup_prob = 0;      // P(message delivered twice).
  double reorder_prob = 0;  // P(delivery delay reshuffled) — Send() only.
  SimTime extra_delay = 0;          // Fixed extra delivery delay.
  SimTime extra_delay_jitter = 0;   // Plus uniform [0, jitter).

  bool active() const {
    return drop_prob > 0 || dup_prob > 0 || reorder_prob > 0 ||
           extra_delay > 0 || extra_delay_jitter > 0;
  }
};

// Per-directed-link outcome counters.
struct LinkStats {
  uint64_t sent = 0;        // Accepted for delivery (past drop faults).
  uint64_t delivered = 0;   // Handler actually ran (duplicates count twice).
  uint64_t dropped = 0;     // Down endpoint, partition, or drop fault.
  uint64_t delayed = 0;     // A delay fault added latency.
  uint64_t duplicated = 0;  // A duplicate delivery was scheduled.
  uint64_t reordered = 0;   // A reorder fault reshuffled the delay.
};

// Network-wide aggregate of the same counters.
struct NetStats {
  uint64_t messages_sent = 0;
  uint64_t delivered = 0;
  uint64_t dropped = 0;
  uint64_t delayed = 0;
  uint64_t duplicated = 0;
  uint64_t reordered = 0;
  uint64_t bytes_sent = 0;
};

class Network {
 public:
  Network(Simulator* sim, Topology topology, uint64_t seed = 1);

  // The failure injector points into topology_; pin the object.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Simulator& sim() { return *sim_; }
  const Topology& topology() const { return topology_; }
  FailureInjector& failures() { return failures_; }
  const FailureInjector& failures() const { return failures_; }
  Rng& rng() { return rng_; }

  // Delivers `deliver` at the destination after latency + serialization time
  // for `bytes`, subject to the fault model. `deliver` is any copyable
  // callable taking no arguments, stored in place in the delivery's event;
  // it runs only if the destination is still up on arrival.
  template <typename F>
  void Send(const ServerId& from, const ServerId& to, int64_t bytes,
            F&& deliver) {
    Dispatch(Admit(from, to, bytes, /*fifo=*/false), std::forward<F>(deliver));
  }

  // Like Send, but messages on the same (from, to) channel are delivered in
  // send order — the TCP-connection semantics ZooKeeper's ordering guarantees
  // rest on. Reorder faults do not apply; drop/dup/delay do.
  template <typename F>
  void SendFifo(const ServerId& from, const ServerId& to, int64_t bytes,
                F&& deliver) {
    Dispatch(Admit(from, to, bytes, /*fifo=*/true), std::forward<F>(deliver));
  }

  // --- Partitions -----------------------------------------------------------

  // Blocks traffic between the two groups (both directions). Returns a rule
  // id usable with HealPartition.
  uint64_t Partition(const std::vector<ServerId>& group_a,
                     const std::vector<ServerId>& group_b);

  // Asymmetric partition: blocks only `from_group` → `to_group` traffic
  // (replies still flow — the classic half-open failure).
  uint64_t PartitionOneWay(const std::vector<ServerId>& from_group,
                           const std::vector<ServerId>& to_group);

  bool HealPartition(uint64_t rule_id);
  void HealAllPartitions() { partitions_.clear(); }
  size_t partition_count() const { return partitions_.size(); }

  // True if a send from → to would be blocked by a partition rule right now.
  bool Blocked(const ServerId& from, const ServerId& to) const;

  // --- Link faults ----------------------------------------------------------

  // Per-directed-link fault override; replaces any previous fault for that
  // link. The default fault applies to links without an override.
  void SetLinkFault(const ServerId& from, const ServerId& to, LinkFault fault);
  void SetDefaultFault(LinkFault fault) { default_fault_ = fault; }
  void ClearLinkFaults() {
    link_faults_.clear();
    default_fault_ = LinkFault{};
  }

  // --- Liveness query -------------------------------------------------------

  // True if a message sent now from → to could be delivered: both endpoints
  // up and no partition rule in the way. (Probabilistic faults may still
  // drop it.) Higher layers (PackageVessel peer selection) use this the way
  // production code uses a connect() failure.
  bool CanDeliver(const ServerId& from, const ServerId& to) const {
    return !failures_.IsDown(from) && !failures_.IsDown(to) && !Blocked(from, to);
  }

  // --- Stats ----------------------------------------------------------------

  const NetStats& stats() const { return stats_; }
  // Counters for one directed link (zeroes if the link never carried a
  // message).
  LinkStats link_stats(const ServerId& from, const ServerId& to) const;
  // Number of directed links with materialized counters — i.e. links that
  // carried or dropped at least one message since the last ResetStats.
  // Property tests assert untouched links never allocate.
  size_t materialized_links() const { return live_links_; }
  // Sum of every materialized link's counters; must equal stats() exactly
  // (bytes are tracked in aggregate only).
  NetStats SumLinkStats() const;

  // Starts a new measurement window: the aggregate and every link's counters
  // read zero. Link records and their FIFO clocks stay, so channel order
  // holds across the reset; a record's counters are zeroed in place when the
  // link is next touched. A delivery sent before the reset counts in neither
  // window, so one window's counts can never leak into the next.
  void ResetStats() {
    stats_ = NetStats{};
    ++stats_epoch_;
    live_links_ = 0;
  }

  // Legacy aggregate accessors — benches report these as overhead measures.
  uint64_t messages_sent() const { return stats_.messages_sent; }
  uint64_t messages_dropped() const { return stats_.dropped; }
  uint64_t bytes_sent() const { return stats_.bytes_sent; }

 private:
  // A partition rule holds each group as a dense bitset over flat server
  // indices: Blocked() is a couple of bit tests per rule, independent of
  // group size.
  struct PartitionRule {
    uint64_t id = 0;
    std::vector<uint64_t> from_bits;
    std::vector<uint64_t> to_bits;
    bool bidirectional = false;
  };

  uint32_t Flat(const ServerId& id) const {
    return static_cast<uint32_t>(topology_.FlatIndex(id));
  }
  // Directed link key: two 32-bit dense server handles packed into one word.
  uint64_t PackLink(const ServerId& from, const ServerId& to) const {
    return (static_cast<uint64_t>(Flat(from)) << 32) |
           static_cast<uint64_t>(Flat(to));
  }
  static bool TestBit(const std::vector<uint64_t>& bits, uint32_t index) {
    return (bits[index >> 6] >> (index & 63)) & 1;
  }
  uint64_t AddPartitionRule(const std::vector<ServerId>& from_group,
                            const std::vector<ServerId>& to_group,
                            bool bidirectional);

  // One directed link's state.
  struct LinkRecord {
    LinkStats stats;         // Valid only while `epoch` == stats_epoch_.
    SimTime fifo_clock = 0;  // Last scheduled SendFifo arrival.
    uint32_t epoch = 0;
  };

  // What the fault model decided for one send: how many copies arrive
  // (0 = dropped at send time, 2 = duplicated) and when.
  struct Route {
    int copies = 0;
    uint32_t to = 0;    // Destination's flat index.
    uint32_t link = 0;  // Index into links_.
    SimTime at[2] = {0, 0};
  };

  // A scheduled arrival: the payload plus what the network needs to count
  // it. This whole object is the event's callable.
  template <typename P>
  struct Delivery {
    Network* net;
    uint32_t to;
    uint32_t link;
    uint32_t epoch;  // stats_epoch_ at send time.
    P payload;

    void operator()() {
      if (net->Arrive(to, link, epoch)) {
        payload();
      }
    }
  };

  const LinkFault& EffectiveFault(uint64_t link) const;
  // Index of the link's record, creating it on first use; zeroes counters
  // left from an earlier stats window.
  uint32_t TouchLink(uint64_t link);
  // Applies the fault model and counts the send.
  Route Admit(const ServerId& from, const ServerId& to, int64_t bytes,
              bool fifo);
  // Counts an arrival; true if the destination is up and the payload runs.
  bool Arrive(uint32_t to, uint32_t link, uint32_t epoch);

  template <typename F>
  void Dispatch(const Route& route, F&& deliver) {
    using P = std::decay_t<F>;
    static_assert(std::is_copy_constructible_v<P>,
                  "a duplicate delivery copies the payload");
    if (route.copies == 2) {
      sim_->ScheduleAt(route.at[0], Delivery<P>{this, route.to, route.link,
                                                stats_epoch_, deliver});
    }
    if (route.copies > 0) {
      sim_->ScheduleAt(route.at[route.copies - 1],
                       Delivery<P>{this, route.to, route.link, stats_epoch_,
                                   std::forward<F>(deliver)});
    }
  }

  Simulator* sim_;
  Topology topology_;
  FailureInjector failures_;
  Rng rng_;
  NetStats stats_;
  uint32_t stats_epoch_ = 0;  // Bumped by ResetStats.
  size_t live_links_ = 0;     // Records touched in the current epoch.
  // Packed link key → index into links_. Indices are stable (records are
  // never removed), so in-flight deliveries carry an index. Keyed by the
  // exact packed link: the pre-scale implementation mixed the endpoint
  // hashes, so distinct FIFO channels could collide and falsely serialize.
  std::unordered_map<uint64_t, uint32_t> link_index_;
  std::vector<LinkRecord> links_;
  std::unordered_map<uint64_t, LinkFault> link_faults_;
  LinkFault default_fault_;
  std::vector<PartitionRule> partitions_;
  uint64_t next_partition_id_ = 1;
};

}  // namespace configerator

#endif  // SRC_SIM_NETWORK_H_
