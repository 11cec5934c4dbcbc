// PackageVessel (paper §3.5): hybrid subscription-P2P distribution of large
// configs. The small metadata record (version, size, content hash, where to
// fetch) travels through Zeus with the usual consistency guarantees; the
// bulk content is fetched from a storage service and swapped between peers
// BitTorrent-style, with locality-aware peer selection (same-cluster peers
// preferred) so neither the storage service nor the inter-region links melt.

#ifndef SRC_P2P_VESSEL_H_
#define SRC_P2P_VESSEL_H_

#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/json/json.h"
#include "src/sim/network.h"
#include "src/util/sha256.h"
#include "src/zeus/zeus.h"

namespace configerator {

// Metadata record stored in Configerator/Zeus for a large config.
struct VesselMetadata {
  std::string name;
  int64_t version = 0;
  int64_t size_bytes = 0;
  int64_t chunk_size = 0;
  std::string content_hash;  // Hex SHA-256 of the bulk content.
  std::string storage_key;   // Where the bulk lives in the storage service.

  Json ToJson() const;
  static Result<VesselMetadata> FromJson(const Json& json);
};

// One P2P distribution of one (config, version) to a set of clients.
// Single-threaded over the discrete-event simulator.
class VesselSwarm {
 public:
  struct Options {
    int64_t chunk_size = 4 << 20;        // 4 MB.
    bool locality_aware = true;          // Prefer same-cluster sources.
    bool p2p_enabled = true;             // false = everyone hits storage.
  };

  struct Stats {
    int64_t bytes_from_storage = 0;
    int64_t bytes_from_peers = 0;
    int64_t cross_region_bytes = 0;
    SimTime first_completion = 0;
    SimTime last_completion = 0;
    size_t completed_clients = 0;
  };

  VesselSwarm(Network* net, ServerId storage, std::vector<ServerId> clients,
              int64_t content_size, Options options, uint64_t seed);

  // Begins the download on every client. `on_done` fires per client with its
  // completion time. Run the simulator to drive it.
  void Start(std::function<void(const ServerId&, SimTime)> on_done = nullptr);

  bool AllComplete() const { return stats_.completed_clients == clients_.size(); }
  const Stats& stats() const { return stats_; }
  size_t chunk_count() const { return static_cast<size_t>(num_chunks_); }

  // Restarts a client's download loop after it recovered from a crash
  // (in-flight transfers during the crash were lost; progress on already-
  // fetched chunks is kept — partial downloads resume, like BitTorrent).
  void ResumeClient(const ServerId& client);

  // Per-client progress, for churn tests and harness invariants.
  bool ClientDone(const ServerId& client) const;

  // Opt-in metrics: byte counters by source (peer/storage/cross-region) and
  // the vessel_client_seconds completion histogram. No tracing here — the
  // bulk path is content-addressed, not commit-ordered; the metadata half of
  // the split is traced through Zeus like any config.
  void AttachObservability(Observability* obs);

 private:
  static constexpr int kMaxParallelPerClient = 4;  // Concurrent chunk fetches.
  static constexpr int kMaxStorageUploads = 8;  // Storage service upload slots.
  // How long a client waits before re-probing when no source is reachable
  // (every peer and the storage service crashed or partitioned away).
  static constexpr SimTime kUnreachableBackoff = 250 * kSimMillisecond;

  struct ClientState {
    ServerId id;
    std::vector<bool> have;
    std::vector<bool> requested;  // In-flight chunk fetches (no duplicates).
    int64_t have_count = 0;
    int in_flight = 0;
    bool done = false;
    bool retry_pending = false;  // A backoff re-probe is already scheduled.
    SimTime uplink_free = 0;  // Peer-serving uplink availability.
  };

  void PumpClient(size_t client_idx);
  // Issues the transfer; false if no source is currently reachable (a
  // backoff re-probe has been scheduled instead).
  bool FetchChunk(size_t client_idx, int64_t chunk);
  // Tracker-style source selection: same-cluster peer > same-region peer >
  // any peer > storage.
  bool PickPeerSource(const ClientState& client, int64_t chunk, size_t* out_idx);

  Network* net_;
  ServerId storage_;
  std::vector<ServerId> clients_;
  std::vector<ClientState> states_;
  std::unordered_map<ServerId, size_t> index_of_;
  // Which clients hold each chunk (tracker view).
  std::vector<std::vector<size_t>> holders_;
  int64_t content_size_;
  int64_t num_chunks_;
  Options options_;
  Rng rng_;
  Stats stats_;
  SimTime storage_uplink_free_ = 0;
  std::function<void(const ServerId&, SimTime)> on_done_;
  SimTime started_at_ = 0;
  Counter* peer_bytes_counter_ = nullptr;
  Counter* storage_bytes_counter_ = nullptr;
  Counter* cross_region_bytes_counter_ = nullptr;
  Counter* completions_counter_ = nullptr;
  Histogram* completion_hist_ = nullptr;
};

// Publisher API: uploads the bulk content and emits the metadata update into
// Zeus (through which subscribing proxies learn the new version).
class VesselPublisher {
 public:
  VesselPublisher(Network* net, ZeusEnsemble* zeus, ServerId publisher_host,
                  ServerId storage_host)
      : net_(net), zeus_(zeus), host_(publisher_host), storage_(storage_host) {}

  // Publishes `size_bytes` of content under `name` (content is synthetic;
  // its hash derives deterministically from name+version). The metadata is
  // written to Zeus key "pkgvessel/<name>"; callback fires on commit.
  void Publish(const std::string& name, int64_t version, int64_t size_bytes,
               std::function<void(Result<int64_t>)> done);

  static std::string MetadataKey(const std::string& name) {
    return "pkgvessel/" + name;
  }
  static std::string SyntheticHash(const std::string& name, int64_t version);

  // Opt-in tracing: a publish opens a root trace ("vessel:<name>") with a
  // "vessel.upload" span for the bulk upload; the metadata write's zxid is
  // bound to it, so observer/proxy deliveries of the metadata join the tree
  // (the PackageVessel metadata/bulk split, traced on the metadata side).
  void AttachObservability(Observability* obs) { obs_ = obs; }

 private:
  Network* net_;
  ZeusEnsemble* zeus_;
  ServerId host_;
  ServerId storage_;
  Observability* obs_ = nullptr;
};

}  // namespace configerator

#endif  // SRC_P2P_VESSEL_H_
