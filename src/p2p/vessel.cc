#include "src/p2p/vessel.h"

#include <algorithm>
#include <cassert>

#include "src/util/strings.h"

namespace configerator {

Json VesselMetadata::ToJson() const {
  Json obj = Json::MakeObject();
  obj.Set("name", name);
  obj.Set("version", version);
  obj.Set("size_bytes", size_bytes);
  obj.Set("chunk_size", chunk_size);
  obj.Set("content_hash", content_hash);
  obj.Set("storage_key", storage_key);
  return obj;
}

Result<VesselMetadata> VesselMetadata::FromJson(const Json& json) {
  if (!json.is_object()) {
    return InvalidArgumentError("vessel metadata must be an object");
  }
  VesselMetadata meta;
  const Json* field = json.Get("name");
  if (field == nullptr || !field->is_string()) {
    return InvalidArgumentError("vessel metadata: missing name");
  }
  meta.name = field->as_string();
  auto read_int = [&json](const char* key, int64_t* out) -> Status {
    const Json* f = json.Get(key);
    if (f == nullptr || !f->is_int()) {
      return InvalidArgumentError(std::string("vessel metadata: missing ") + key);
    }
    *out = f->as_int();
    return OkStatus();
  };
  RETURN_IF_ERROR(read_int("version", &meta.version));
  RETURN_IF_ERROR(read_int("size_bytes", &meta.size_bytes));
  RETURN_IF_ERROR(read_int("chunk_size", &meta.chunk_size));
  field = json.Get("content_hash");
  if (field == nullptr || !field->is_string()) {
    return InvalidArgumentError("vessel metadata: missing content_hash");
  }
  meta.content_hash = field->as_string();
  field = json.Get("storage_key");
  if (field == nullptr || !field->is_string()) {
    return InvalidArgumentError("vessel metadata: missing storage_key");
  }
  meta.storage_key = field->as_string();
  return meta;
}

VesselSwarm::VesselSwarm(Network* net, ServerId storage,
                         std::vector<ServerId> clients, int64_t content_size,
                         Options options, uint64_t seed)
    : net_(net),
      storage_(storage),
      clients_(std::move(clients)),
      content_size_(content_size),
      options_(options),
      rng_(seed) {
  assert(content_size_ > 0 && options_.chunk_size > 0);
  num_chunks_ = (content_size_ + options_.chunk_size - 1) / options_.chunk_size;
  states_.reserve(clients_.size());
  for (size_t i = 0; i < clients_.size(); ++i) {
    ClientState state;
    state.id = clients_[i];
    state.have.assign(static_cast<size_t>(num_chunks_), false);
    state.requested.assign(static_cast<size_t>(num_chunks_), false);
    states_.push_back(std::move(state));
    index_of_[clients_[i]] = i;
  }
  holders_.assign(static_cast<size_t>(num_chunks_), {});
}

void VesselSwarm::AttachObservability(Observability* obs) {
  peer_bytes_counter_ = obs->metrics.GetCounter("vessel_peer_bytes_total");
  storage_bytes_counter_ =
      obs->metrics.GetCounter("vessel_storage_bytes_total");
  cross_region_bytes_counter_ =
      obs->metrics.GetCounter("vessel_cross_region_bytes_total");
  completions_counter_ = obs->metrics.GetCounter("vessel_completions_total");
  completion_hist_ = obs->metrics.GetHistogram("vessel_client_seconds");
}

void VesselSwarm::Start(std::function<void(const ServerId&, SimTime)> on_done) {
  on_done_ = std::move(on_done);
  started_at_ = net_->sim().now();
  for (size_t i = 0; i < states_.size(); ++i) {
    // Small stagger so the fleet doesn't stampede the storage service in the
    // same microsecond (in production, metadata arrival is already jittered).
    net_->sim().Schedule(static_cast<SimTime>(rng_.NextBounded(50)) *
                             kSimMillisecond,
                         [this, i] { PumpClient(i); });
  }
}

bool VesselSwarm::PickPeerSource(const ClientState& client, int64_t chunk,
                                 size_t* out_idx) {
  // Only peers the network can currently reach count as sources — a crashed
  // or partitioned-away holder is as useless as no holder at all.
  std::vector<size_t> reachable;
  for (size_t idx : holders_[static_cast<size_t>(chunk)]) {
    if (net_->CanDeliver(states_[idx].id, client.id)) {
      reachable.push_back(idx);
    }
  }
  if (reachable.empty()) {
    return false;
  }
  if (!options_.locality_aware) {
    // Uniform choice among all reachable holders.
    *out_idx = reachable[rng_.NextBounded(reachable.size())];
    return true;
  }
  std::vector<size_t> same_cluster;
  std::vector<size_t> same_region;
  for (size_t idx : reachable) {
    const ServerId& peer = states_[idx].id;
    if (peer.region == client.id.region) {
      if (peer.cluster == client.id.cluster) {
        same_cluster.push_back(idx);
      } else {
        same_region.push_back(idx);
      }
    }
  }
  const std::vector<size_t>* pool = &reachable;
  if (!same_cluster.empty()) {
    pool = &same_cluster;
  } else if (!same_region.empty()) {
    pool = &same_region;
  }
  *out_idx = (*pool)[rng_.NextBounded(pool->size())];
  return true;
}

void VesselSwarm::PumpClient(size_t client_idx) {
  ClientState& client = states_[client_idx];
  if (client.done || net_->failures().IsDown(client.id)) {
    return;
  }
  if (client.have_count == num_chunks_) {
    client.done = true;
    ++stats_.completed_clients;
    SimTime now = net_->sim().now();
    if (stats_.completed_clients == 1) {
      stats_.first_completion = now;
    }
    stats_.last_completion = std::max(stats_.last_completion, now);
    if (completions_counter_ != nullptr) {
      completions_counter_->Inc();
      completion_hist_->Record(SimToSeconds(now - started_at_));
    }
    if (on_done_) {
      on_done_(client.id, now);
    }
    return;
  }
  while (client.in_flight < kMaxParallelPerClient) {
    // Rarest-ish selection: random needed chunk (with a few retries biased
    // towards chunks with fewer holders).
    int64_t best_chunk = -1;
    size_t best_holders = SIZE_MAX;
    for (int attempt = 0; attempt < 4; ++attempt) {
      int64_t c = static_cast<int64_t>(
          rng_.NextBounded(static_cast<uint64_t>(num_chunks_)));
      if (client.have[static_cast<size_t>(c)] ||
          client.requested[static_cast<size_t>(c)]) {
        continue;
      }
      size_t h = holders_[static_cast<size_t>(c)].size();
      if (h < best_holders) {
        best_holders = h;
        best_chunk = c;
      }
    }
    if (best_chunk < 0) {
      // Random probing missed; linear scan for any needed chunk.
      for (int64_t c = 0; c < num_chunks_; ++c) {
        if (!client.have[static_cast<size_t>(c)] &&
            !client.requested[static_cast<size_t>(c)]) {
          best_chunk = c;
          break;
        }
      }
    }
    if (best_chunk < 0) {
      break;  // Everything is either present or already in flight.
    }
    client.requested[static_cast<size_t>(best_chunk)] = true;
    if (!FetchChunk(client_idx, best_chunk)) {
      break;  // No reachable source; a backoff re-probe is scheduled.
    }
  }
}

bool VesselSwarm::FetchChunk(size_t client_idx, int64_t chunk) {
  ClientState& client = states_[client_idx];

  int64_t chunk_bytes =
      std::min(options_.chunk_size, content_size_ - chunk * options_.chunk_size);
  SimTime now = net_->sim().now();
  SimTime transmit = net_->topology().TransmitTime(chunk_bytes);

  size_t peer_idx = 0;
  bool from_peer =
      options_.p2p_enabled && PickPeerSource(client, chunk, &peer_idx);
  if (!from_peer && !net_->CanDeliver(storage_, client.id)) {
    // Total isolation: no reachable peer and the storage service is cut off
    // too. Back off instead of burning simulated uplink on doomed requests.
    client.requested[static_cast<size_t>(chunk)] = false;
    if (!client.retry_pending) {
      client.retry_pending = true;
      net_->sim().Schedule(kUnreachableBackoff, [this, client_idx] {
        states_[client_idx].retry_pending = false;
        PumpClient(client_idx);
      });
    }
    return false;
  }
  ++client.in_flight;

  ServerId source;
  SimTime start;
  if (from_peer) {
    ClientState& peer = states_[peer_idx];
    source = peer.id;
    start = std::max(now, peer.uplink_free);
    peer.uplink_free = start + transmit;
  } else {
    source = storage_;
    // The storage service has a fixed number of upload slots; model its
    // aggregate uplink as slots × line rate by dividing the serialization.
    SimTime effective = transmit / kMaxStorageUploads;
    start = std::max(now, storage_uplink_free_);
    storage_uplink_free_ = start + effective;
  }

  SimTime latency = net_->topology().Latency(source, client.id, rng_);
  SimTime done_at = start + transmit + latency;

  net_->sim().ScheduleAt(done_at, [this, client_idx, chunk, source, from_peer,
                                   chunk_bytes] {
    ClientState& c = states_[client_idx];
    --c.in_flight;
    c.requested[static_cast<size_t>(chunk)] = false;
    // The transfer fails if either endpoint died mid-flight or a partition
    // cut the link; the pump retries from another source (downloads survive
    // peer churn).
    if (net_->failures().IsDown(c.id)) {
      return;  // Dead clients stop pumping until ResumeClient().
    }
    if (!net_->CanDeliver(source, c.id)) {
      PumpClient(client_idx);
      return;
    }
    if (from_peer) {
      stats_.bytes_from_peers += chunk_bytes;
      if (peer_bytes_counter_ != nullptr) {
        peer_bytes_counter_->Inc(static_cast<uint64_t>(chunk_bytes));
      }
    } else {
      stats_.bytes_from_storage += chunk_bytes;
      if (storage_bytes_counter_ != nullptr) {
        storage_bytes_counter_->Inc(static_cast<uint64_t>(chunk_bytes));
      }
    }
    if (source.region != c.id.region) {
      stats_.cross_region_bytes += chunk_bytes;
      if (cross_region_bytes_counter_ != nullptr) {
        cross_region_bytes_counter_->Inc(static_cast<uint64_t>(chunk_bytes));
      }
    }
    if (!c.have[static_cast<size_t>(chunk)]) {
      c.have[static_cast<size_t>(chunk)] = true;
      ++c.have_count;
      holders_[static_cast<size_t>(chunk)].push_back(client_idx);
    }
    PumpClient(client_idx);
  });
  return true;
}

void VesselSwarm::ResumeClient(const ServerId& client) {
  auto it = index_of_.find(client);
  if (it == index_of_.end()) {
    return;
  }
  size_t idx = it->second;
  if (!states_[idx].done) {
    PumpClient(idx);
  }
}

bool VesselSwarm::ClientDone(const ServerId& client) const {
  auto it = index_of_.find(client);
  return it != index_of_.end() && states_[it->second].done;
}

std::string VesselPublisher::SyntheticHash(const std::string& name,
                                           int64_t version) {
  return Sha256::Hash(name + "#" + std::to_string(version)).ToHex();
}

void VesselPublisher::Publish(const std::string& name, int64_t version,
                              int64_t size_bytes,
                              std::function<void(Result<int64_t>)> done) {
  // Upload bulk to storage (one NIC-limited transfer), then commit metadata.
  SimTime upload_time = net_->topology().TransmitTime(size_bytes);
  ServerId host = host_;
  TraceContext upload_span;
  if (obs_ != nullptr) {
    SimTime now = net_->sim().now();
    TraceContext root = obs_->tracer.StartTrace(
        "vessel:" + name + "@" + std::to_string(version), host.ToString(), now);
    obs_->tracer.EndSpan(root, now);
    upload_span =
        obs_->tracer.StartSpan(root, "vessel.upload", host.ToString(), now);
  }
  net_->sim().Schedule(upload_time, [this, host, name, version, size_bytes,
                                     upload_span,
                                     done = std::move(done)]() mutable {
    if (obs_ != nullptr) {
      obs_->tracer.EndSpan(upload_span, net_->sim().now());
    }
    VesselMetadata meta;
    meta.name = name;
    meta.version = version;
    meta.size_bytes = size_bytes;
    meta.chunk_size = 4 << 20;
    meta.content_hash = SyntheticHash(name, version);
    meta.storage_key = "blob/" + name + "/" + std::to_string(version);
    zeus_->Write(host, MetadataKey(name), meta.ToJson().Dump(),
                 [this, upload_span, done = std::move(done)](
                     Result<int64_t> zxid) {
                   if (obs_ != nullptr && zxid.ok()) {
                     // Metadata deliveries down the Zeus tree join here.
                     obs_->tracer.BindZxid(*zxid, upload_span);
                   }
                   done(std::move(zxid));
                 });
  });
}

}  // namespace configerator
