#include "src/distribution/tailer.h"

#include <vector>

#include "src/util/logging.h"

namespace configerator {

GitTailer::GitTailer(Network* net, ServerId host, const Repository* repo,
                     ZeusEnsemble* zeus, Options options)
    : net_(net), host_(host), repo_(repo), zeus_(zeus), options_(std::move(options)) {}

void GitTailer::Start() {
  net_->sim().Schedule(options_.poll_interval, [this] { Poll(); });
}

void GitTailer::AttachObservability(Observability* obs) {
  obs_ = obs;
  published_counter_ = obs->metrics.GetCounter("tailer_published_total");
  failed_counter_ = obs->metrics.GetCounter("tailer_publish_failures_total");
  publish_latency_ = obs->metrics.GetHistogram("tailer_publish_seconds");
}

void GitTailer::Poll() {
  std::optional<ObjectId> head = repo_->head();
  if (head.has_value() && (!last_seen_.has_value() || !(*head == *last_seen_))) {
    auto deltas = repo_->DiffCommits(last_seen_, head);
    if (deltas.ok()) {
      for (const FileDelta& delta : *deltas) {
        if (!options_.path_prefix.empty() &&
            delta.path.compare(0, options_.path_prefix.size(),
                               options_.path_prefix) != 0) {
          continue;
        }
        std::string value;
        if (delta.new_blob.has_value()) {
          auto content = repo_->store().GetBlob(*delta.new_blob);
          if (!content.ok()) {
            CLOG(Warning) << "tailer: cannot read " << delta.path << ": "
                          << content.status();
            continue;
          }
          value = std::move(content).value();
        }
        // Deletions distribute an empty tombstone value.
        Publish(delta.path, std::move(value));
      }
      last_seen_ = head;
    } else {
      CLOG(Warning) << "tailer: diff failed: " << deltas.status();
    }
  }
  // Writes Zeus refused or the network lost: publish what head holds now.
  std::vector<std::string> stale;
  for (const auto& [path, issued] : unacked_) {
    if (net_->sim().now() - issued >= options_.poll_interval) {
      stale.push_back(path);
    }
  }
  for (std::string& path : stale) {
    Result<std::string> content = repo_->ReadFile(path);
    Publish(std::move(path), content.ok() ? std::move(content).value() : "");
  }
  net_->sim().Schedule(options_.poll_interval, [this] { Poll(); });
}

void GitTailer::Publish(std::string path, std::string value) {
  // Superseded: the newer write decides whether the path is acknowledged.
  unacked_.erase(path);
  // The fetch delay models reading the changed blobs out of the (slow,
  // large) repo.
  net_->sim().Schedule(
      options_.fetch_delay,
      [this, path = std::move(path), value = std::move(value)]() mutable {
        // Parent the publish span on whatever bound this path (the landing
        // strip or the workload commit); a publish whose path was never
        // traced records nothing.
        TraceContext span;
        if (obs_ != nullptr) {
          span = obs_->tracer.StartSpan(obs_->tracer.PathContext(path),
                                        "tailer.publish", host_.ToString(),
                                        net_->sim().now());
        }
        SimTime started = net_->sim().now();
        unacked_[path] = started;
        zeus_->Write(
            host_, path, std::move(value),
            [this, path, span, started](Result<int64_t> zxid) {
              if (obs_ != nullptr) {
                obs_->tracer.EndSpan(span, net_->sim().now());
              }
              if (!zxid.ok()) {
                if (failed_counter_ != nullptr) {
                  failed_counter_->Inc();
                }
                CLOG(Warning) << "tailer: Zeus write failed for " << path
                              << ": " << zxid.status();
                return;
              }
              auto it = unacked_.find(path);
              if (it != unacked_.end() && it->second == started) {
                unacked_.erase(it);
              }
              if (obs_ != nullptr) {
                obs_->tracer.BindZxid(*zxid, span);
                published_counter_->Inc();
                publish_latency_->Record(
                    SimToSeconds(net_->sim().now() - started));
              }
              ++published_;
              if (on_published_) {
                on_published_(path, *zxid);
              }
            });
      });
}

}  // namespace configerator
