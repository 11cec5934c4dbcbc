// Git Tailer (paper §3.4 / Fig 3): continuously extracts config changes from
// the committed repository and writes them into Zeus for distribution. The
// paper reports the tailer contributes ~5 seconds to end-to-end propagation;
// that is its poll interval here. A landed change is never dropped: a path
// whose Zeus write is still unacknowledged a poll interval after it was
// issued (refused for lack of quorum, or lost on the network) is published
// again, with its content at head.

#ifndef SRC_DISTRIBUTION_TAILER_H_
#define SRC_DISTRIBUTION_TAILER_H_

#include <functional>
#include <map>
#include <optional>
#include <string>

#include "src/sim/network.h"
#include "src/vcs/repository.h"
#include "src/zeus/zeus.h"

namespace configerator {

class GitTailer {
 public:
  struct Options {
    SimTime poll_interval = 5 * kSimSecond;
    // Time to fetch the detected changes from the repository before they can
    // be written into Zeus ("the git tailer takes about 5 seconds to fetch
    // config changes" — §6.3; 0 keeps small tests fast).
    SimTime fetch_delay = 0;
    // Only files under this prefix are distributed ("" = everything). Lets a
    // partitioned deployment run one tailer per repository.
    std::string path_prefix;
  };

  // `host` is the server the tailer runs on; its writes to Zeus traverse the
  // network from there.
  GitTailer(Network* net, ServerId host, const Repository* repo,
            ZeusEnsemble* zeus, Options options);

  // Starts the poll loop (first poll after one interval).
  void Start();

  // Opt-in metrics + tracing (must outlive the tailer). Publish spans parent
  // on the trace bound to the changed path (BindPath at land/commit time)
  // and bind the assigned zxid for the distribution tree to join on.
  void AttachObservability(Observability* obs);

  // Fires after a changed file has been committed into Zeus (zxid assigned);
  // benches use it to segment propagation latency.
  void set_on_published(
      std::function<void(const std::string& path, int64_t zxid)> fn) {
    on_published_ = std::move(fn);
  }

  const ServerId& host() const { return host_; }
  uint64_t published_count() const { return published_; }

 private:
  void Poll();
  // Writes `value` for `path` into Zeus after the fetch delay.
  void Publish(std::string path, std::string value);

  Network* net_;
  ServerId host_;
  const Repository* repo_;
  ZeusEnsemble* zeus_;
  Options options_;
  std::optional<ObjectId> last_seen_;
  // Per path, when its latest write was issued, until Zeus acknowledges it.
  std::map<std::string, SimTime> unacked_;
  uint64_t published_ = 0;
  std::function<void(const std::string&, int64_t)> on_published_;
  Observability* obs_ = nullptr;
  Counter* published_counter_ = nullptr;
  Counter* failed_counter_ = nullptr;
  Histogram* publish_latency_ = nullptr;
};

}  // namespace configerator

#endif  // SRC_DISTRIBUTION_TAILER_H_
