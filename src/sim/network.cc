#include "src/sim/network.h"

#include <algorithm>
#include <cassert>

namespace configerator {

void FailureInjector::AttachTopology(const Topology* topology) {
  topology_ = topology;
  down_.assign(
      topology == nullptr ? 0 : static_cast<size_t>(topology->total_servers()),
      0);
}

void FailureInjector::Crash(const ServerId& id) {
  if (topology_ != nullptr && topology_->Contains(id)) {
    uint8_t& bit = down_[static_cast<size_t>(topology_->FlatIndex(id))];
    if (bit == 0) {
      bit = 1;
      ++down_count_;
    }
    return;
  }
  if (other_down_.insert(id).second) {
    ++down_count_;
  }
}

void FailureInjector::Recover(const ServerId& id) {
  if (topology_ != nullptr && topology_->Contains(id)) {
    uint8_t& bit = down_[static_cast<size_t>(topology_->FlatIndex(id))];
    if (bit != 0) {
      bit = 0;
      --down_count_;
    }
    return;
  }
  if (other_down_.erase(id) > 0) {
    --down_count_;
  }
}

Network::Network(Simulator* sim, Topology topology, uint64_t seed)
    : sim_(sim), topology_(std::move(topology)), rng_(seed) {
  failures_.AttachTopology(&topology_);
  // Typical traffic touches a few links per server (proxy <-> observer, both
  // directions); reserving that up front spares the link table ~20 growth
  // rehashes over a 100k-server run. Capped so a huge topology with sparse
  // traffic doesn't pay memory for nothing.
  size_t expected_links =
      std::min<size_t>(static_cast<size_t>(topology_.total_servers()) * 4,
                       size_t{1} << 22);
  link_index_.reserve(expected_links);
}

uint64_t Network::AddPartitionRule(const std::vector<ServerId>& from_group,
                                   const std::vector<ServerId>& to_group,
                                   bool bidirectional) {
  PartitionRule rule;
  rule.id = next_partition_id_++;
  size_t words = (static_cast<size_t>(topology_.total_servers()) + 63) / 64;
  // A server outside the topology sends and receives nothing, so a rule
  // naming it has nothing to block there.
  auto mark = [this, words](const std::vector<ServerId>& group) {
    std::vector<uint64_t> bits(words, 0);
    for (const ServerId& id : group) {
      if (topology_.Contains(id)) {
        uint32_t f = Flat(id);
        bits[f >> 6] |= uint64_t{1} << (f & 63);
      }
    }
    return bits;
  };
  rule.from_bits = mark(from_group);
  rule.to_bits = mark(to_group);
  rule.bidirectional = bidirectional;
  partitions_.push_back(std::move(rule));
  return partitions_.back().id;
}

uint64_t Network::Partition(const std::vector<ServerId>& group_a,
                            const std::vector<ServerId>& group_b) {
  return AddPartitionRule(group_a, group_b, /*bidirectional=*/true);
}

uint64_t Network::PartitionOneWay(const std::vector<ServerId>& from_group,
                                  const std::vector<ServerId>& to_group) {
  return AddPartitionRule(from_group, to_group, /*bidirectional=*/false);
}

bool Network::HealPartition(uint64_t rule_id) {
  for (size_t i = 0; i < partitions_.size(); ++i) {
    if (partitions_[i].id == rule_id) {
      partitions_.erase(partitions_.begin() + static_cast<long>(i));
      return true;
    }
  }
  return false;
}

bool Network::Blocked(const ServerId& from, const ServerId& to) const {
  if (partitions_.empty()) {
    return false;
  }
  uint32_t f = Flat(from);
  uint32_t t = Flat(to);
  for (const PartitionRule& rule : partitions_) {
    if (TestBit(rule.from_bits, f) && TestBit(rule.to_bits, t)) {
      return true;
    }
    if (rule.bidirectional && TestBit(rule.from_bits, t) &&
        TestBit(rule.to_bits, f)) {
      return true;
    }
  }
  return false;
}

void Network::SetLinkFault(const ServerId& from, const ServerId& to,
                           LinkFault fault) {
  link_faults_[PackLink(from, to)] = fault;
}

const LinkFault& Network::EffectiveFault(uint64_t link) const {
  auto it = link_faults_.find(link);
  return it == link_faults_.end() ? default_fault_ : it->second;
}

LinkStats Network::link_stats(const ServerId& from, const ServerId& to) const {
  auto it = link_index_.find(PackLink(from, to));
  if (it == link_index_.end() || links_[it->second].epoch != stats_epoch_) {
    return LinkStats{};
  }
  return links_[it->second].stats;
}

NetStats Network::SumLinkStats() const {
  NetStats sum;
  for (const LinkRecord& record : links_) {
    if (record.epoch != stats_epoch_) {
      continue;  // Untouched since the last reset: reads zero.
    }
    const LinkStats& ls = record.stats;
    sum.messages_sent += ls.sent;
    sum.delivered += ls.delivered;
    sum.dropped += ls.dropped;
    sum.delayed += ls.delayed;
    sum.duplicated += ls.duplicated;
    sum.reordered += ls.reordered;
  }
  sum.bytes_sent = stats_.bytes_sent;  // Tracked in aggregate only.
  return sum;
}

uint32_t Network::TouchLink(uint64_t link) {
  auto [it, inserted] =
      link_index_.try_emplace(link, static_cast<uint32_t>(links_.size()));
  if (inserted) {
    links_.emplace_back();
  }
  LinkRecord& record = links_[it->second];
  if (inserted || record.epoch != stats_epoch_) {
    // First touch in this stats window.
    record.stats = LinkStats{};
    record.epoch = stats_epoch_;
    ++live_links_;
  }
  return it->second;
}

bool Network::Arrive(uint32_t to, uint32_t link, uint32_t epoch) {
  // A delivery sent before the last ResetStats counts in neither window.
  bool counted = epoch == stats_epoch_;
  if (failures_.IsDownAt(to)) {
    if (counted) {
      ++stats_.dropped;
      ++links_[link].stats.dropped;
    }
    return false;
  }
  if (counted) {
    ++stats_.delivered;
    ++links_[link].stats.delivered;
  }
  return true;
}

Network::Route Network::Admit(const ServerId& from, const ServerId& to,
                              int64_t bytes, bool fifo) {
  assert(topology_.Contains(from) && topology_.Contains(to));
  Route route;
  uint64_t link = PackLink(from, to);
  if (failures_.IsDown(from) || failures_.IsDown(to) || Blocked(from, to)) {
    ++stats_.dropped;
    ++links_[TouchLink(link)].stats.dropped;
    return route;
  }
  const LinkFault& fault = EffectiveFault(link);
  if (fault.drop_prob > 0 && rng_.NextBool(fault.drop_prob)) {
    ++stats_.dropped;
    ++links_[TouchLink(link)].stats.dropped;
    return route;
  }

  route.to = Flat(to);
  route.link = TouchLink(link);
  LinkRecord& record = links_[route.link];
  ++stats_.messages_sent;
  ++record.stats.sent;
  stats_.bytes_sent += static_cast<uint64_t>(bytes);

  SimTime delay = topology_.Latency(from, to, rng_) + topology_.TransmitTime(bytes);
  if (fault.extra_delay > 0 || fault.extra_delay_jitter > 0) {
    SimTime extra = fault.extra_delay;
    if (fault.extra_delay_jitter > 0) {
      extra += static_cast<SimTime>(
          rng_.NextBounded(static_cast<uint64_t>(fault.extra_delay_jitter)));
    }
    if (extra > 0) {
      delay += extra;
      ++stats_.delayed;
      ++record.stats.delayed;
    }
  }
  bool duplicate = fault.dup_prob > 0 && rng_.NextBool(fault.dup_prob);
  if (duplicate) {
    ++stats_.duplicated;
    ++record.stats.duplicated;
  }
  route.copies = duplicate ? 2 : 1;

  if (fifo) {
    SimTime arrival = sim_->now() + delay;
    if (arrival <= record.fifo_clock) {
      arrival = record.fifo_clock + 1;  // Preserve order: never overtake the channel.
    }
    route.at[0] = arrival;
    // A duplicate rides the channel right behind the original.
    route.at[1] = arrival + 1;
    record.fifo_clock = route.at[route.copies - 1];
    return route;
  }

  if (fault.reorder_prob > 0 && delay > 0 && rng_.NextBool(fault.reorder_prob)) {
    // Reshuffle the delivery into [0, 2·delay]: the message can overtake
    // earlier traffic or be overtaken by later traffic on the same link.
    delay = static_cast<SimTime>(
        rng_.NextBounded(static_cast<uint64_t>(2 * delay) + 1));
    ++stats_.reordered;
    ++record.stats.reordered;
  }
  route.at[0] = sim_->now() + delay;
  if (duplicate) {
    // Independent delay for the duplicate, so the copies can arrive in
    // either order.
    SimTime dup_delay = delay + 1 +
        static_cast<SimTime>(rng_.NextBounded(static_cast<uint64_t>(delay) + 1));
    route.at[1] = sim_->now() + dup_delay;
  }
  return route;
}

}  // namespace configerator
