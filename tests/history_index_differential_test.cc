// Differential suite for reading repository history by blob id.
//
// RiskAdvisor::IndexHistory line-diffs the blobs each commit delta names.
// The reference below reads trees instead: it walks Log() back to the last
// indexed commit, then reads both sides of every changed path with
// ReadFileAt and line-diffs them. Both must build the same index, field for
// field, over seeded random histories that mix adds, modifies (identical
// rewrites included), deletes, file/directory swaps, empty commits and
// multi-file batches, on a repository with one directory of 1,200 files.
// The index is built three ways: after every commit, once at the end, and
// with a max_history_commits smaller than the log. The git tailer, which
// publishes the blob its delta names, must publish what ReadFileAt(head,
// path) returns.

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/distribution/tailer.h"
#include "src/pipeline/risk.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/vcs/diff.h"
#include "src/vcs/repository.h"

namespace configerator {
namespace {

constexpr int64_t kDayMs = 24LL * 3600 * 1000;
constexpr int kCommits = 200;
constexpr size_t kBigDirFiles = 1'200;

// ---- History generator --------------------------------------------------------

struct HistoryStep {
  std::string author;
  int64_t timestamp_ms = 0;
  std::vector<FileWrite> writes;
  // Each written path's content before this step; nullopt = not a file.
  std::map<std::string, std::optional<std::string>> before;
};

// A seeded random history, generated against a model of the head state so
// every commit it produces is valid.
class HistoryGenerator {
 public:
  enum Op { kEmpty, kAdd, kModify, kRewriteSame, kDelete, kFileToDir, kDirToFile };

  explicit HistoryGenerator(uint64_t seed) : rng_(seed) {}

  // The first commit: the big directory plus a few files elsewhere.
  HistoryStep Import() {
    HistoryStep step = NewStep();
    for (size_t i = 0; i < kBigDirFiles; ++i) {
      Write(&step, StrFormat("big/f%04zu", i), RandomText());
    }
    for (const char* path : {"top", "a/x", "a/b/y", "c/z"}) {
      Write(&step, path, RandomText());
    }
    return step;
  }

  HistoryStep Next() {
    HistoryStep step = NewStep();
    if (pending_file_.has_value()) {
      // Second half of a directory -> file swap: the directory's files were
      // deleted by the previous commit (a batch may not replace a directory
      // that still has files at head with a file).
      Write(&step, *pending_file_, RandomText());
      pending_file_.reset();
      ++counts_[kDirToFile];
      return step;
    }
    double r = rng_.NextDouble();
    if (r < 0.05) {
      ++counts_[kEmpty];
      return step;
    }
    if (r < 0.10 && StartDirToFile(&step)) {
      return step;
    }
    size_t writes = rng_.NextBool(0.6) ? 1 : 2 + rng_.NextBounded(7);
    for (size_t attempts = 0; step.writes.size() < writes && attempts < 50;
         ++attempts) {
      double op = rng_.NextDouble();
      if (op < 0.40) {
        Modify(&step);
      } else if (op < 0.50) {
        RewriteSame(&step);
      } else if (op < 0.75) {
        Add(&step);
      } else if (op < 0.90) {
        Delete(&step);
      } else {
        FileToDir(&step);
      }
    }
    return step;
  }

  const std::map<std::string, std::string>& files() const { return files_; }
  // Every path that was ever a file.
  const std::set<std::string>& ever() const { return ever_; }
  size_t count(Op op) const {
    auto it = counts_.find(op);
    return it == counts_.end() ? 0 : it->second;
  }

 private:
  HistoryStep NewStep() {
    now_ms_ += 1 + static_cast<int64_t>(rng_.NextBounded(3 * kDayMs));
    HistoryStep step;
    step.author = StrFormat("author%d", static_cast<int>(rng_.NextBounded(6)));
    step.timestamp_ms = now_ms_;
    return step;
  }

  std::string RandomText() {
    std::string text;
    size_t lines = 1 + rng_.NextBounded(30);
    for (size_t i = 0; i < lines; ++i) {
      text += StrFormat("k%d = %d\n", static_cast<int>(rng_.NextBounded(10)),
                        static_cast<int>(rng_.NextBounded(100)));
    }
    return text;
  }

  // Changes, inserts or drops a few lines; sometimes replaces the whole file.
  std::string Edit(const std::string& text) {
    if (rng_.NextBool(0.1)) {
      return RandomText();
    }
    std::vector<std::string> lines = SplitLines(text);
    size_t edits = 1 + rng_.NextBounded(3);
    for (size_t e = 0; e < edits; ++e) {
      size_t pos = lines.empty() ? 0 : rng_.NextBounded(lines.size());
      std::string line = StrFormat("e%d", static_cast<int>(rng_.NextBounded(1000)));
      switch (lines.empty() ? 0 : rng_.NextBounded(3)) {
        case 0:
          lines.insert(lines.begin() + static_cast<long>(pos), line);
          break;
        case 1:
          lines[pos] = line;
          break;
        default:
          lines.erase(lines.begin() + static_cast<long>(pos));
      }
    }
    std::string out;
    for (const std::string& line : lines) {
      out += line + "\n";
    }
    return out;
  }

  void Write(HistoryStep* step, const std::string& path,
             std::optional<std::string> content) {
    step->writes.push_back({path, content});
    auto it = files_.find(path);
    step->before.try_emplace(path, it == files_.end()
                                       ? std::nullopt
                                       : std::optional(it->second));
    if (content.has_value()) {
      files_[path] = *content;
      ever_.insert(path);
    } else {
      files_.erase(path);
    }
  }

  // True if `path` is, contains or lies under a path this step already wrote.
  static bool Touched(const HistoryStep& step, const std::string& path) {
    for (const FileWrite& write : step.writes) {
      const std::string& t = write.path;
      if (t == path || t.starts_with(path + "/") || path.starts_with(t + "/")) {
        return true;
      }
    }
    return false;
  }

  bool IsDir(const std::string& path) const {
    auto it = files_.lower_bound(path + "/");
    return it != files_.end() && it->first.starts_with(path + "/");
  }

  // A path could become a new file: not a file or directory already, and no
  // ancestor is a file.
  bool CanAdd(const std::string& path) const {
    if (files_.count(path) > 0 || IsDir(path)) {
      return false;
    }
    for (size_t slash = path.find('/'); slash != std::string::npos;
         slash = path.find('/', slash + 1)) {
      if (files_.count(path.substr(0, slash)) > 0) {
        return false;
      }
    }
    return true;
  }

  std::optional<std::string> RandomFile() {
    if (files_.empty()) {
      return std::nullopt;
    }
    auto it = files_.begin();
    std::advance(it, static_cast<long>(rng_.NextBounded(files_.size())));
    return it->first;
  }

  void Modify(HistoryStep* step) {
    std::optional<std::string> path = RandomFile();
    if (path.has_value() && !Touched(*step, *path)) {
      Write(step, *path, Edit(files_.at(*path)));
      ++counts_[kModify];
    }
  }

  // Rewrites a file with its own content: a write that changes nothing.
  void RewriteSame(HistoryStep* step) {
    std::optional<std::string> path = RandomFile();
    if (path.has_value() && !Touched(*step, *path)) {
      Write(step, *path, files_.at(*path));
      ++counts_[kRewriteSame];
    }
  }

  void Add(HistoryStep* step) {
    static const char* const kDirs[] = {"", "a/", "a/b/", "c/", "d/e/f/", "big/"};
    std::string dir = kDirs[rng_.NextBounded(std::size(kDirs))];
    std::string path =
        dir == "big/"
            ? StrFormat("big/f%04d", static_cast<int>(rng_.NextBounded(1'400)))
            : dir + StrFormat("n%d", static_cast<int>(rng_.NextBounded(40)));
    if (CanAdd(path) && !Touched(*step, path)) {
      Write(step, path, RandomText());
      ++counts_[kAdd];
    }
  }

  void Delete(HistoryStep* step) {
    std::optional<std::string> path = RandomFile();
    if (path.has_value() && !Touched(*step, *path)) {
      Write(step, *path, std::nullopt);
      ++counts_[kDelete];
    }
  }

  // Replaces a file with a directory of the same name, in one commit.
  void FileToDir(HistoryStep* step) {
    std::optional<std::string> path = RandomFile();
    if (!path.has_value() || path->starts_with("big/") || Touched(*step, *path)) {
      return;
    }
    Write(step, *path, std::nullopt);
    Write(step, *path + "/inner", RandomText());
    ++counts_[kFileToDir];
  }

  // Deletes every file of a small directory; the next commit writes a file
  // where the directory was.
  bool StartDirToFile(HistoryStep* step) {
    std::map<std::string, size_t> dirs;  // Directory -> files beneath it.
    for (const auto& [path, content] : files_) {
      for (size_t slash = path.find('/'); slash != std::string::npos;
           slash = path.find('/', slash + 1)) {
        ++dirs[path.substr(0, slash)];
      }
    }
    std::vector<std::string> small;
    for (const auto& [dir, count] : dirs) {
      if (count <= 10) {
        small.push_back(dir);
      }
    }
    if (small.empty()) {
      return false;
    }
    std::string dir = small[rng_.NextBounded(small.size())];
    std::vector<std::string> doomed;
    for (auto it = files_.lower_bound(dir + "/");
         it != files_.end() && it->first.starts_with(dir + "/"); ++it) {
      doomed.push_back(it->first);
    }
    for (const std::string& path : doomed) {
      Write(step, path, std::nullopt);
    }
    pending_file_ = dir;
    return true;
  }

  Rng rng_;
  int64_t now_ms_ = 0;
  std::map<std::string, std::string> files_;
  std::set<std::string> ever_;
  std::optional<std::string> pending_file_;
  std::map<Op, size_t> counts_;
};

// ---- Reference index ----------------------------------------------------------

// The file's text at `commit`, or "" where the path holds no file there:
// absent, or a directory since a file/directory swap.
std::string TextAt(const Repository& repo, const std::optional<ObjectId>& commit,
                   const std::string& path) {
  if (!commit.has_value()) {
    return "";
  }
  auto text = repo.ReadFileAt(*commit, path);
  if (text.ok()) {
    return *std::move(text);
  }
  StatusCode code = text.status().code();
  EXPECT_TRUE(code == StatusCode::kNotFound || code == StatusCode::kInvalidArgument)
      << path << ": " << text.status();
  return "";
}

// The reference reads trees, not blob ids: Log() back to the last indexed
// commit, then ReadFileAt on both sides of each change and DiffLines.
class ReferenceIndex {
 public:
  explicit ReferenceIndex(size_t max_history_commits)
      : max_history_commits_(max_history_commits) {}

  void Index(const Repository& repo) {
    if (repo.head() == last_indexed_) {
      return;
    }
    auto log = repo.Log(max_history_commits_);
    ASSERT_TRUE(log.ok()) << log.status();
    std::vector<ObjectId> fresh;
    for (const ObjectId& id : *log) {
      if (id == last_indexed_) {
        break;
      }
      fresh.push_back(id);
    }
    std::optional<ObjectId> previous = last_indexed_;
    for (auto it = fresh.rbegin(); it != fresh.rend(); ++it) {
      auto commit = repo.GetCommit(*it);
      ASSERT_TRUE(commit.ok()) << commit.status();
      auto deltas = repo.DiffCommits(previous, *it);
      ASSERT_TRUE(deltas.ok()) << deltas.status();
      for (const FileDelta& delta : *deltas) {
        double lines = static_cast<double>(
            DiffLines(TextAt(repo, previous, delta.path),
                      TextAt(repo, *it, delta.path))
                .changed_lines());
        RiskAdvisor::PathHistory& entry = history_[delta.path];
        entry.update_times_ms.push_back(commit->timestamp_ms);
        entry.authors.insert(commit->author);
        entry.mean_change_lines =
            (entry.mean_change_lines * static_cast<double>(entry.change_count) +
             lines) /
            static_cast<double>(entry.change_count + 1);
        ++entry.change_count;
      }
      previous = *it;
    }
    last_indexed_ = repo.head();
  }

  const RiskAdvisor::PathHistory* HistoryFor(const std::string& path) const {
    auto it = history_.find(path);
    return it == history_.end() ? nullptr : &it->second;
  }

 private:
  size_t max_history_commits_;
  std::map<std::string, RiskAdvisor::PathHistory> history_;
  std::optional<ObjectId> last_indexed_;
};

// The advisor under test and its reference, indexed at the same moments.
struct IndexPair {
  explicit IndexPair(size_t max_history_commits)
      : advisor(RiskAdvisor::Options{.max_history_commits = max_history_commits}),
        reference(max_history_commits) {}

  void Index(const Repository& repo) {
    ASSERT_TRUE(advisor.IndexHistory(repo).ok());
    reference.Index(repo);
  }

  RiskAdvisor advisor;
  ReferenceIndex reference;
};

// Field-for-field equality over every path that was ever a file. Returns the
// number of paths with history, so callers can tell the index is not empty.
size_t ExpectSameIndex(const IndexPair& pair, const std::set<std::string>& paths,
                       const std::string& label) {
  size_t indexed = 0;
  for (const std::string& path : paths) {
    const RiskAdvisor::PathHistory* got = pair.advisor.HistoryFor(path);
    const RiskAdvisor::PathHistory* want = pair.reference.HistoryFor(path);
    if (got == nullptr || want == nullptr) {
      EXPECT_EQ(got == nullptr, want == nullptr) << label << ": " << path;
      continue;
    }
    ++indexed;
    EXPECT_EQ(got->update_times_ms, want->update_times_ms) << label << ": " << path;
    EXPECT_EQ(got->authors, want->authors) << label << ": " << path;
    EXPECT_EQ(got->change_count, want->change_count) << label << ": " << path;
    EXPECT_EQ(got->mean_change_lines, want->mean_change_lines)
        << label << ": " << path;
  }
  return indexed;
}

// One commit's deltas against the generator's model of the paths it wrote.
void ExpectDeltasMatchModel(const Repository& repo,
                            const std::vector<FileDelta>& deltas,
                            const HistoryStep& step,
                            const std::map<std::string, std::string>& files) {
  auto now = [&files](const std::string& path) -> std::optional<std::string> {
    auto it = files.find(path);
    return it == files.end() ? std::nullopt : std::optional(it->second);
  };
  auto blob = [&repo](const std::optional<ObjectId>& id) -> std::optional<std::string> {
    if (!id.has_value()) {
      return std::nullopt;
    }
    auto content = repo.store().GetBlob(*id);
    EXPECT_TRUE(content.ok()) << content.status();
    return content.ok() ? std::optional(*content) : std::nullopt;
  };
  std::set<std::string> changed;
  for (const auto& [path, before] : step.before) {
    if (before != now(path)) {
      changed.insert(path);
    }
  }
  std::set<std::string> reported;
  for (const FileDelta& delta : deltas) {
    reported.insert(delta.path);
    auto before = step.before.find(delta.path);
    ASSERT_NE(before, step.before.end()) << delta.path;
    EXPECT_EQ(blob(delta.old_blob), before->second) << delta.path;
    EXPECT_EQ(blob(delta.new_blob), now(delta.path)) << delta.path;
  }
  EXPECT_EQ(reported, changed);
}

class HistoryIndexDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistoryIndexDifferentialTest, BlobReadsMatchTreeReads) {
  HistoryGenerator gen(GetParam());
  Repository repo;
  Rng call_rng(GetParam() ^ 0x9e3779b97f4a7c15ULL);

  IndexPair every(RiskAdvisor::Options{}.max_history_commits);
  IndexPair at_end(RiskAdvisor::Options{}.max_history_commits);
  // A window smaller than the gaps between some calls: those calls diff the
  // last indexed commit against the oldest commit in the window.
  constexpr size_t kWindow = 7;
  IndexPair windowed(kWindow);
  IndexPair windowed_at_end(kWindow);
  size_t next_windowed_call = 1;

  for (int i = 0; i <= kCommits; ++i) {
    std::optional<ObjectId> previous = repo.head();
    HistoryStep step = i == 0 ? gen.Import() : gen.Next();
    auto commit = repo.Commit(step.author, "m", step.writes, step.timestamp_ms);
    ASSERT_TRUE(commit.ok()) << "commit " << i << ": " << commit.status();

    auto deltas = repo.DiffCommits(previous, *commit);
    ASSERT_TRUE(deltas.ok()) << deltas.status();
    ExpectDeltasMatchModel(repo, *deltas, step, gen.files());

    every.Index(repo);
    if (static_cast<size_t>(i) == next_windowed_call) {
      windowed.Index(repo);
      next_windowed_call += 1 + call_rng.NextBounded(2 * kWindow);
    }
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  at_end.Index(repo);
  windowed.Index(repo);
  windowed_at_end.Index(repo);

  EXPECT_GT(ExpectSameIndex(every, gen.ever(), "every commit"), kBigDirFiles);
  EXPECT_GT(ExpectSameIndex(at_end, gen.ever(), "once at the end"), kBigDirFiles);
  EXPECT_GT(ExpectSameIndex(windowed, gen.ever(), "windowed"), 0u);
  EXPECT_GT(ExpectSameIndex(windowed_at_end, gen.ever(), "windowed at the end"),
            0u);

  // The history exercised every kind of change.
  for (auto op : {HistoryGenerator::kEmpty, HistoryGenerator::kAdd,
                  HistoryGenerator::kModify, HistoryGenerator::kRewriteSame,
                  HistoryGenerator::kDelete, HistoryGenerator::kFileToDir,
                  HistoryGenerator::kDirToFile}) {
    EXPECT_GT(gen.count(op), 0u) << "op " << op;
  }
}

TEST_P(HistoryIndexDifferentialTest, TailerPublishesHeadBytes) {
  Simulator sim;
  Network net(&sim, Topology(2, 2, 20), /*seed=*/GetParam());
  ZeusEnsemble zeus(&net,
                    {ServerId{0, 0, 0}, ServerId{1, 0, 0}, ServerId{0, 0, 1},
                     ServerId{1, 0, 1}, ServerId{0, 1, 0}},
                    {ServerId{0, 0, 18}, ServerId{1, 1, 19}});
  Repository repo;
  GitTailer tailer(&net, ServerId{0, 0, 10}, &repo, &zeus, GitTailer::Options{});
  tailer.Start();

  HistoryGenerator gen(GetParam());
  Rng poll_rng(GetParam() + 1);
  // After each poll, every path written since the previous one holds what
  // ReadFileAt(head, path) returns; after the last, every path ever written.
  auto expect_published = [&](const std::set<std::string>& paths) {
    for (const std::string& path : paths) {
      const ZeusTxn* published = zeus.Lookup(path);
      if (gen.files().count(path) == 0) {
        // Deleted: a tombstone, or nothing if it never reached a poll.
        EXPECT_TRUE(published == nullptr || published->value.empty()) << path;
        continue;
      }
      ASSERT_NE(published, nullptr) << path;
      auto at_head = repo.ReadFileAt(*repo.head(), path);
      ASSERT_TRUE(at_head.ok()) << at_head.status();
      EXPECT_EQ(published->value, *at_head) << path;
    }
  };
  for (int i = 0; i <= kCommits;) {
    // One to three commits per poll, so the tailer also coalesces.
    std::set<std::string> written;
    for (uint64_t n = 1 + poll_rng.NextBounded(3); n > 0 && i <= kCommits;
         --n, ++i) {
      HistoryStep step = i == 0 ? gen.Import() : gen.Next();
      ASSERT_TRUE(repo.Commit(step.author, "m", step.writes, step.timestamp_ms).ok());
      for (const FileWrite& write : step.writes) {
        written.insert(write.path);
      }
    }
    sim.RunUntil(sim.now() + 10 * kSimSecond);
    expect_published(written);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  expect_published(gen.ever());
  EXPECT_GT(tailer.published_count(), kBigDirFiles);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistoryIndexDifferentialTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace configerator
