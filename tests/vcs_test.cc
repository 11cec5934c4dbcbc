#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/util/rng.h"
#include "src/vcs/diff.h"
#include "src/vcs/multirepo.h"
#include "src/vcs/objects.h"
#include "src/vcs/repository.h"

namespace configerator {
namespace {

// ---- Objects ----------------------------------------------------------------

TEST(ObjectStoreTest, BlobRoundTrip) {
  ObjectStore store;
  ObjectId id = store.PutBlob("hello");
  auto blob = store.GetBlob(id);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob, "hello");
}

TEST(ObjectStoreTest, PutIsIdempotent) {
  ObjectStore store;
  ObjectId a = store.PutBlob("same");
  ObjectId b = store.PutBlob("same");
  EXPECT_EQ(a, b);
  EXPECT_EQ(store.object_count(), 1u);
}

TEST(ObjectStoreTest, DistinctContentDistinctIds) {
  ObjectStore store;
  EXPECT_NE(store.PutBlob("a"), store.PutBlob("b"));
}

TEST(ObjectStoreTest, KindConfusionRejected) {
  ObjectStore store;
  ObjectId blob = store.PutBlob("data");
  auto as_tree = store.GetTree(blob);
  EXPECT_EQ(as_tree.status().code(), StatusCode::kCorruption);
}

TEST(ObjectStoreTest, MissingObjectNotFound) {
  ObjectStore store;
  EXPECT_EQ(store.GetBlob(Sha256::Hash("ghost")).status().code(),
            StatusCode::kNotFound);
}

TEST(TreeObjectTest, IdsFollowEntries) {
  TreeObject tree;
  tree.entries = {{"file.json", Sha256::Hash("f"), false},
                  {"name with spaces", Sha256::Hash("s"), false},
                  {"subdir", Sha256::Hash("d"), true}};
  ObjectStore store;
  const ObjectId id = store.PutTree(tree);

  // Equal entry sets give equal ids, whatever order they arrive in.
  TreeObject reordered;
  reordered.entries = {{"subdir", Sha256::Hash("d"), true},
                       {"name with spaces", Sha256::Hash("s"), false},
                       {"file.json", Sha256::Hash("f"), false}};
  EXPECT_EQ(ObjectStore().PutTree(reordered), id);

  // Changing any entry's name, id or kind changes the id.
  for (size_t i = 0; i < tree.entries.size(); ++i) {
    const std::string& name = tree.entries[i].name;
    TreeObject renamed = tree;
    renamed.entries[i].name = name + "2";
    EXPECT_NE(store.PutTree(renamed), id) << name;

    TreeObject repointed = tree;
    repointed.entries[i].id = Sha256::Hash("other");
    EXPECT_NE(store.PutTree(repointed), id) << name;

    TreeObject rekinded = tree;
    rekinded.entries[i].is_tree = !tree.entries[i].is_tree;
    EXPECT_NE(store.PutTree(rekinded), id) << name;
  }

  // Storing an equal tree again adds nothing.
  size_t objects = store.object_count();
  size_t bytes = store.total_bytes();
  EXPECT_EQ(store.PutTree(reordered), id);
  EXPECT_EQ(store.object_count(), objects);
  EXPECT_EQ(store.total_bytes(), bytes);

  // The store keeps the entries it hashed, sorted by name, and finds them.
  auto stored = store.GetTree(id);
  ASSERT_TRUE(stored.ok()) << stored.status();
  EXPECT_EQ((*stored)->entries, tree.entries);
  for (const TreeObject::Entry& entry : tree.entries) {
    const TreeObject::Entry* found = (*stored)->Find(entry.name);
    ASSERT_NE(found, nullptr) << entry.name;
    EXPECT_EQ(*found, entry);
  }
  EXPECT_EQ((*stored)->Find("file"), nullptr);
  EXPECT_EQ((*stored)->Find("zzz"), nullptr);
}

TEST(CommitObjectTest, EncodeDecodeRoundTrip) {
  CommitObject commit;
  commit.tree = Sha256::Hash("tree");
  commit.parents = {Sha256::Hash("p1"), Sha256::Hash("p2")};
  commit.author = "alice";
  commit.message = "multi\nline\nmessage";
  commit.timestamp_ms = 123456789;
  auto decoded = CommitObject::Decode(commit.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->tree, commit.tree);
  EXPECT_EQ(decoded->parents, commit.parents);
  EXPECT_EQ(decoded->author, commit.author);
  EXPECT_EQ(decoded->message, commit.message);
  EXPECT_EQ(decoded->timestamp_ms, commit.timestamp_ms);
}

// ---- Diff --------------------------------------------------------------------

TEST(DiffTest, IdenticalTexts) {
  LineDiff diff = DiffLines("a\nb\n", "a\nb\n");
  EXPECT_TRUE(diff.identical());
  EXPECT_EQ(diff.changed_lines(), 0u);
}

TEST(DiffTest, SingleLineModificationCountsTwo) {
  // Unix diff semantics (Table 2): modify = delete + add.
  LineDiff diff = DiffLines("a\nb\nc\n", "a\nB\nc\n");
  EXPECT_EQ(diff.added, 1u);
  EXPECT_EQ(diff.deleted, 1u);
  EXPECT_EQ(diff.changed_lines(), 2u);
}

TEST(DiffTest, PureAddition) {
  LineDiff diff = DiffLines("a\nc\n", "a\nb\nc\n");
  EXPECT_EQ(diff.added, 1u);
  EXPECT_EQ(diff.deleted, 0u);
}

TEST(DiffTest, PureDeletion) {
  LineDiff diff = DiffLines("a\nb\nc\n", "a\nc\n");
  EXPECT_EQ(diff.added, 0u);
  EXPECT_EQ(diff.deleted, 1u);
}

TEST(DiffTest, EmptyToContent) {
  LineDiff diff = DiffLines("", "x\ny\n");
  EXPECT_EQ(diff.added, 2u);
  EXPECT_EQ(diff.deleted, 0u);
}

TEST(DiffTest, RenderShowsOnlyChanges) {
  LineDiff diff = DiffLines("keep\nold\n", "keep\nnew\n");
  std::string rendered = RenderDiff(diff);
  EXPECT_EQ(rendered, "-old\n+new\n");
}

TEST(DiffTest, OpsReconstructBothSides) {
  // Property: keeps+deletes = old, keeps+adds = new.
  std::string old_text = "a\nb\nc\nd\ne\n";
  std::string new_text = "a\nx\nc\ny\ne\nz\n";
  LineDiff diff = DiffLines(old_text, new_text);
  std::string old_rebuilt;
  std::string new_rebuilt;
  for (const DiffOp& op : diff.ops) {
    if (op.kind != DiffOp::Kind::kAdd) {
      old_rebuilt += op.text + "\n";
    }
    if (op.kind != DiffOp::Kind::kDelete) {
      new_rebuilt += op.text + "\n";
    }
  }
  EXPECT_EQ(old_rebuilt, old_text);
  EXPECT_EQ(new_rebuilt, new_text);
}

class DiffPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DiffPropertyTest, RandomEditsReconstruct) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    size_t n = 1 + rng.NextBounded(60);
    std::vector<std::string> lines;
    for (size_t i = 0; i < n; ++i) {
      lines.push_back("line" + std::to_string(rng.NextBounded(20)));
    }
    std::vector<std::string> edited = lines;
    size_t edits = rng.NextBounded(10);
    for (size_t e = 0; e < edits && !edited.empty(); ++e) {
      size_t pos = rng.NextBounded(edited.size());
      switch (rng.NextBounded(3)) {
        case 0:
          edited[pos] = "edited" + std::to_string(rng.NextBounded(100));
          break;
        case 1:
          edited.erase(edited.begin() + static_cast<long>(pos));
          break;
        default:
          edited.insert(edited.begin() + static_cast<long>(pos),
                        "inserted" + std::to_string(rng.NextBounded(100)));
      }
    }
    auto join = [](const std::vector<std::string>& v) {
      std::string out;
      for (const std::string& s : v) {
        out += s + "\n";
      }
      return out;
    };
    std::string old_text = join(lines);
    std::string new_text = join(edited);
    LineDiff diff = DiffLines(old_text, new_text);
    std::string old_rebuilt;
    std::string new_rebuilt;
    for (const DiffOp& op : diff.ops) {
      if (op.kind != DiffOp::Kind::kAdd) {
        old_rebuilt += op.text + "\n";
      }
      if (op.kind != DiffOp::Kind::kDelete) {
        new_rebuilt += op.text + "\n";
      }
    }
    EXPECT_EQ(old_rebuilt, old_text);
    EXPECT_EQ(new_rebuilt, new_text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---- Repository ---------------------------------------------------------------

TEST(RepositoryTest, CommitAndRead) {
  Repository repo;
  auto commit = repo.Commit("alice", "init",
                            {{"feed/a.json", "content-a"},
                             {"tao/b.json", "content-b"}});
  ASSERT_TRUE(commit.ok()) << commit.status();
  EXPECT_EQ(*repo.ReadFile("feed/a.json"), "content-a");
  EXPECT_EQ(*repo.ReadFile("tao/b.json"), "content-b");
  EXPECT_EQ(repo.file_count(), 2u);
  EXPECT_EQ(repo.commit_count(), 1u);
}

TEST(RepositoryTest, OverwriteAndDelete) {
  Repository repo;
  ASSERT_TRUE(repo.Commit("a", "1", {{"x", "v1"}}).ok());
  ASSERT_TRUE(repo.Commit("a", "2", {{"x", "v2"}}).ok());
  EXPECT_EQ(*repo.ReadFile("x"), "v2");
  ASSERT_TRUE(repo.Commit("a", "3", {{"x", std::nullopt}}).ok());
  EXPECT_FALSE(repo.FileExists("x"));
  EXPECT_EQ(repo.ReadFile("x").status().code(), StatusCode::kNotFound);
}

TEST(RepositoryTest, DeleteNonexistentFails) {
  Repository repo;
  EXPECT_FALSE(repo.Commit("a", "del", {{"ghost", std::nullopt}}).ok());
}

TEST(RepositoryTest, PathValidation) {
  Repository repo;
  EXPECT_FALSE(repo.Commit("a", "m", {{"", "x"}}).ok());
  EXPECT_FALSE(repo.Commit("a", "m", {{"/abs", "x"}}).ok());
  EXPECT_FALSE(repo.Commit("a", "m", {{"dir/", "x"}}).ok());
  EXPECT_FALSE(repo.Commit("a", "m", {{"a//b", "x"}}).ok());
  EXPECT_FALSE(repo.Commit("a", "m", {{"bad\nname", "x"}}).ok());
}

TEST(RepositoryTest, HistoricalReads) {
  Repository repo;
  auto c1 = repo.Commit("a", "1", {{"cfg", "v1"}});
  auto c2 = repo.Commit("a", "2", {{"cfg", "v2"}});
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(*repo.ReadFileAt(*c1, "cfg"), "v1");
  EXPECT_EQ(*repo.ReadFileAt(*c2, "cfg"), "v2");
}

TEST(RepositoryTest, LogWalksFirstParents) {
  Repository repo;
  std::vector<ObjectId> commits;
  for (int i = 0; i < 5; ++i) {
    auto c = repo.Commit("a", "m" + std::to_string(i),
                         {{"f", "v" + std::to_string(i)}});
    ASSERT_TRUE(c.ok());
    commits.push_back(*c);
  }
  auto log = repo.Log(10);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log->size(), 5u);
  EXPECT_EQ((*log)[0], commits[4]);  // Newest first.
  EXPECT_EQ((*log)[4], commits[0]);

  auto limited = repo.Log(2);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->size(), 2u);
}

TEST(RepositoryTest, CommitMetadataPreserved) {
  Repository repo;
  auto c = repo.Commit("bob", "my message", {{"f", "v"}}, 777);
  ASSERT_TRUE(c.ok());
  auto commit = repo.GetCommit(*c);
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(commit->author, "bob");
  EXPECT_EQ(commit->message, "my message");
  EXPECT_EQ(commit->timestamp_ms, 777);
}

TEST(RepositoryTest, ListFilesUnderPrefix) {
  Repository repo;
  ASSERT_TRUE(repo.Commit("a", "m",
                          {{"feed/a", "1"}, {"feed/b", "2"}, {"tao/c", "3"}})
                  .ok());
  auto feed = repo.ListFilesUnder("feed/");
  EXPECT_EQ(feed.size(), 2u);
  auto all = repo.ListFiles();
  EXPECT_EQ(all.size(), 3u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
}

TEST(RepositoryTest, DiffCommits) {
  Repository repo;
  auto c1 = repo.Commit("a", "1", {{"keep", "same"}, {"mod", "v1"}, {"del", "x"}});
  auto c2 = repo.Commit("a", "2",
                        {{"mod", "v2"}, {"del", std::nullopt}, {"new", "y"}});
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  auto deltas = repo.DiffCommits(*c1, *c2);
  ASSERT_TRUE(deltas.ok());
  ASSERT_EQ(deltas->size(), 3u);
  std::map<std::string, FileDelta> by_path;
  for (const FileDelta& d : *deltas) {
    by_path[d.path] = d;
  }
  const ObjectStore& store = repo.store();
  const FileDelta& mod = by_path.at("mod");
  EXPECT_EQ(mod.kind, FileDelta::Kind::kModified);
  ASSERT_TRUE(mod.old_blob.has_value());
  ASSERT_TRUE(mod.new_blob.has_value());
  EXPECT_EQ(*store.GetBlob(*mod.old_blob), "v1");
  EXPECT_EQ(*store.GetBlob(*mod.new_blob), "v2");

  const FileDelta& del = by_path.at("del");
  EXPECT_EQ(del.kind, FileDelta::Kind::kDeleted);
  ASSERT_TRUE(del.old_blob.has_value());
  EXPECT_EQ(*store.GetBlob(*del.old_blob), "x");
  EXPECT_FALSE(del.new_blob.has_value());

  const FileDelta& added = by_path.at("new");
  EXPECT_EQ(added.kind, FileDelta::Kind::kAdded);
  EXPECT_FALSE(added.old_blob.has_value());
  ASSERT_TRUE(added.new_blob.has_value());
  EXPECT_EQ(*store.GetBlob(*added.new_blob), "y");
  EXPECT_EQ(added.new_blob, repo.HeadBlobId("new"));
}

TEST(RepositoryTest, DiffAgainstEmptyHistory) {
  Repository repo;
  auto c1 = repo.Commit("a", "1", {{"f", "v"}});
  ASSERT_TRUE(c1.ok());
  auto deltas = repo.DiffCommits(std::nullopt, *c1);
  ASSERT_TRUE(deltas.ok());
  ASSERT_EQ(deltas->size(), 1u);
  EXPECT_EQ((*deltas)[0].kind, FileDelta::Kind::kAdded);
  EXPECT_FALSE((*deltas)[0].old_blob.has_value());
  ASSERT_TRUE((*deltas)[0].new_blob.has_value());
  EXPECT_EQ(*repo.store().GetBlob(*(*deltas)[0].new_blob), "v");

  // And back to nothing: every file reads as deleted.
  auto erased = repo.DiffCommits(*c1, std::nullopt);
  ASSERT_TRUE(erased.ok());
  ASSERT_EQ(erased->size(), 1u);
  EXPECT_EQ((*erased)[0].kind, FileDelta::Kind::kDeleted);
  EXPECT_EQ((*erased)[0].old_blob, (*deltas)[0].new_blob);
  EXPECT_FALSE((*erased)[0].new_blob.has_value());
}

TEST(RepositoryTest, LineDiffFromDeltaBlobs) {
  Repository repo;
  auto c1 = repo.Commit("a", "1", {{"cfg", "a\nb\n"}});
  auto c2 = repo.Commit("a", "2", {{"cfg", "a\nc\n"}});
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  auto deltas = repo.DiffCommits(*c1, *c2);
  ASSERT_TRUE(deltas.ok());
  ASSERT_EQ(deltas->size(), 1u);
  const FileDelta& delta = (*deltas)[0];
  ASSERT_TRUE(delta.old_blob.has_value());
  ASSERT_TRUE(delta.new_blob.has_value());
  auto old_text = repo.store().GetBlob(*delta.old_blob);
  auto new_text = repo.store().GetBlob(*delta.new_blob);
  ASSERT_TRUE(old_text.ok());
  ASSERT_TRUE(new_text.ok());
  EXPECT_EQ(DiffLines(*old_text, *new_text).changed_lines(), 2u);
}

TEST(RepositoryTest, NestedDirectoriesPrunedOnDelete) {
  Repository repo;
  ASSERT_TRUE(repo.Commit("a", "1", {{"x/y/z/file", "v"}}).ok());
  ASSERT_TRUE(repo.Commit("a", "2", {{"x/y/z/file", std::nullopt}}).ok());
  // Re-adding under the pruned directory works.
  ASSERT_TRUE(repo.Commit("a", "3", {{"x/y/other", "w"}}).ok());
  EXPECT_EQ(*repo.ReadFile("x/y/other"), "w");
}

TEST(RepositoryTest, ContentAddressingDeduplicates) {
  Repository repo;
  ASSERT_TRUE(repo.Commit("a", "1", {{"f1", "same content"}}).ok());
  size_t objects_before = repo.store().object_count();
  ASSERT_TRUE(repo.Commit("a", "2", {{"f2", "same content"}}).ok());
  // Only new tree + commit objects; the blob is shared.
  EXPECT_LE(repo.store().object_count(), objects_before + 2);
}

TEST(RepositoryTest, FileToDirectoryTransition) {
  Repository repo;
  ASSERT_TRUE(repo.Commit("a", "1", {{"path", "file"}}).ok());
  ASSERT_TRUE(repo.Commit("a", "2", {{"path", std::nullopt}}).ok());
  ASSERT_TRUE(repo.Commit("a", "3", {{"path/nested", "v"}}).ok());
  EXPECT_EQ(*repo.ReadFile("path/nested"), "v");
}

TEST(RepositoryTest, FileDirectoryNamespaceCollisionsRejected) {
  Repository repo;
  ASSERT_TRUE(repo.Commit("a", "1", {{"a", "file"}}).ok());
  // A path through an existing file is invalid...
  EXPECT_FALSE(repo.Commit("a", "2", {{"a/b", "nested"}}).ok());
  // ...and a file over an existing directory is invalid.
  ASSERT_TRUE(repo.Commit("a", "3", {{"dir/child", "v"}}).ok());
  EXPECT_FALSE(repo.Commit("a", "4", {{"dir", "file"}}).ok());
  // State was not corrupted by the rejected writes.
  EXPECT_EQ(*repo.ReadFile("a"), "file");
  EXPECT_EQ(*repo.ReadFile("dir/child"), "v");
}

TEST(RepositoryTest, FailedBatchLeavesNoPhantomState) {
  Repository repo;
  ASSERT_TRUE(repo.Commit("a", "1", {{"exists", "v"}}).ok());
  // Batch whose second write is invalid: the first must not leak.
  auto bad = repo.Commit("a", "2",
                         {{"new_file", "content"}, {"ghost", std::nullopt}});
  ASSERT_FALSE(bad.ok());
  EXPECT_FALSE(repo.FileExists("new_file"));
  EXPECT_EQ(repo.file_count(), 1u);
  EXPECT_EQ(repo.commit_count(), 1u);
  // And the repository is still fully functional.
  ASSERT_TRUE(repo.Commit("a", "3", {{"new_file", "content"}}).ok());
  EXPECT_EQ(*repo.ReadFile("new_file"), "content");
}

TEST(RepositoryTest, BatchInternalCreateThenDeleteAllowed) {
  Repository repo;
  auto c = repo.Commit("a", "m",
                       {{"temp", "v"}, {"temp", std::nullopt}, {"keep", "k"}});
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_FALSE(repo.FileExists("temp"));
  EXPECT_TRUE(repo.FileExists("keep"));
}

TEST(RepositoryTest, EmptyCommitAllowed) {
  Repository repo;
  auto c = repo.Commit("automation", "heartbeat", {});
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(repo.commit_count(), 1u);
  EXPECT_EQ(repo.file_count(), 0u);
}

TEST(RepositoryTest, LogOnEmptyRepo) {
  Repository repo;
  auto log = repo.Log(10);
  ASSERT_TRUE(log.ok());
  EXPECT_TRUE(log->empty());
  EXPECT_FALSE(repo.head().has_value());
}

TEST(RepositoryTest, StoreTracksBytes) {
  Repository repo;
  ASSERT_TRUE(repo.Commit("a", "m", {{"f", "0123456789"}}).ok());
  EXPECT_GT(repo.store().total_bytes(), 10u);  // Blob + tree + commit.
}

TEST(RepositoryTest, ReadFileAtRejectsDirectoryPath) {
  Repository repo;
  auto c = repo.Commit("a", "m", {{"dir/file", "v"}});
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(repo.ReadFileAt(*c, "dir").ok());
  EXPECT_FALSE(repo.ReadFileAt(*c, "dir/file/extra").ok());
  EXPECT_EQ(repo.ReadFileAt(*c, "nope").status().code(), StatusCode::kNotFound);
}

// "d/d/.../f" with `segments` segments.
std::string DeepPath(size_t segments) {
  std::string path;
  for (size_t i = 1; i < segments; ++i) {
    path += "d/";
  }
  return path + "f";
}

TEST(RepositoryTest, VeryDeepPathsRejected) {
  // Flushing and diffing trees recurse once per path segment, so a path of
  // tens of thousands of segments would overflow the stack.
  Repository repo;
  auto first = repo.Commit("a", "1", {{"cfg", "v1"}});
  ASSERT_TRUE(first.ok());
  for (size_t segments : {size_t{20'000}, size_t{100'000}}) {
    auto deep = repo.Commit("a", "deep", {{DeepPath(segments), "v"}});
    EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument) << segments;
  }
  EXPECT_EQ(repo.Commit("a", "over", {{DeepPath(kMaxPathSegments + 1), "v"}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(repo.commit_count(), 1u);

  // The repository still commits, at the cap too, and still diffs.
  ASSERT_TRUE(repo.Commit("a", "at cap", {{DeepPath(kMaxPathSegments), "v"}}).ok());
  auto last = repo.Commit("a", "2", {{"cfg", "v2"}});
  ASSERT_TRUE(last.ok()) << last.status();
  auto deltas = repo.DiffCommits(*first, *last);
  ASSERT_TRUE(deltas.ok()) << deltas.status();
  ASSERT_EQ(deltas->size(), 2u);
  EXPECT_EQ((*deltas)[0].path, "cfg");
  EXPECT_EQ((*deltas)[1].path, DeepPath(kMaxPathSegments));
  EXPECT_EQ(*repo.ReadFileAt(*last, DeepPath(kMaxPathSegments)), "v");
}

TEST(RepositoryTest, SameContentCommitStillAdvancesHead) {
  Repository repo;
  auto c1 = repo.Commit("a", "1", {{"f", "same"}});
  auto c2 = repo.Commit("a", "2", {{"f", "same"}});
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_NE(*c1, *c2);  // Distinct commits (different parents/messages)...
  auto deltas = repo.DiffCommits(*c1, *c2);
  ASSERT_TRUE(deltas.ok());
  EXPECT_TRUE(deltas->empty());  // ...but no content difference.
}

// A commit re-hashes only the directories it dirties, and a write with
// head's bytes dirties none. Whatever the batches (same-byte rewrites, a
// value changed and changed back, a delete then a re-add), head's tree must
// be the tree a fresh repository builds from the same files in one commit.
TEST(RepositoryTest, IncrementalTreeMatchesFreshBuild) {
  const std::vector<std::string> paths = {"top.json",        "svc/a.json",
                                          "svc/b.json",      "svc/deep/c.json",
                                          "lib/m.cinc",      "lib/n/o.cinc"};
  const std::vector<std::string> values = {"v0", "v1", "v2"};
  Rng rng(27);
  Repository repo;
  std::map<std::string, std::string> model;
  for (int step = 0; step < 300; ++step) {
    std::vector<FileWrite> batch;
    const int writes = 1 + static_cast<int>(rng.NextBounded(4));
    for (int i = 0; i < writes; ++i) {
      const std::string& path = paths[rng.NextBounded(paths.size())];
      if (model.count(path) > 0 && rng.NextBounded(4) == 0) {
        batch.push_back({path, std::nullopt});
        model.erase(path);
      } else {
        const std::string& value = values[rng.NextBounded(values.size())];
        batch.push_back({path, value});
        model[path] = value;
      }
    }
    auto head = repo.Commit("a", "step", batch);
    ASSERT_TRUE(head.ok()) << head.status();

    Repository fresh;
    std::vector<FileWrite> all;
    for (const auto& [path, value] : model) {
      all.push_back({path, value});
    }
    auto rebuilt = fresh.Commit("a", "all", all);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    ASSERT_EQ(repo.GetCommit(*head)->tree, fresh.GetCommit(*rebuilt)->tree)
        << "step " << step;
    for (const auto& [path, value] : model) {
      EXPECT_EQ(*repo.ReadFileAt(*head, path), value) << path;
    }
  }
}

// ---- MultiRepo -----------------------------------------------------------------

TEST(MultiRepoTest, PartitionRouting) {
  MultiRepo multi;
  ASSERT_TRUE(multi.AddPartition("feed/").ok());
  ASSERT_TRUE(multi.AddPartition("tao/").ok());
  auto commits = multi.Commit("a", "m",
                              {{"feed/x", "1"}, {"tao/y", "2"}, {"misc/z", "3"}});
  ASSERT_TRUE(commits.ok());
  EXPECT_EQ(commits->size(), 3u);  // Three partitions touched.
  EXPECT_EQ(*multi.ReadFile("feed/x"), "1");
  EXPECT_EQ(*multi.ReadFile("tao/y"), "2");
  EXPECT_EQ(*multi.ReadFile("misc/z"), "3");

  // Per-partition isolation: feed's repo only holds feed files.
  EXPECT_EQ(multi.RepoFor("feed/x")->file_count(), 1u);
}

TEST(MultiRepoTest, LongestPrefixWins) {
  MultiRepo multi;
  ASSERT_TRUE(multi.AddPartition("feed/").ok());
  ASSERT_TRUE(multi.AddPartition("feed/ranking/").ok());
  ASSERT_TRUE(multi.Commit("a", "m", {{"feed/ranking/model", "v"}}).ok());
  EXPECT_EQ(multi.RepoFor("feed/ranking/model")->name(), "feed/ranking/");
}

TEST(MultiRepoTest, DuplicatePartitionRejected) {
  MultiRepo multi;
  ASSERT_TRUE(multi.AddPartition("feed/").ok());
  EXPECT_EQ(multi.AddPartition("feed/").code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(multi.AddPartition("").ok());
}

TEST(MultiRepoTest, ListFilesSpansPartitions) {
  MultiRepo multi;
  ASSERT_TRUE(multi.AddPartition("feed/").ok());
  ASSERT_TRUE(multi.Commit("a", "m", {{"feed/b", "1"}, {"a", "2"}}).ok());
  auto files = multi.ListFiles();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "a");
  EXPECT_EQ(files[1], "feed/b");
}

TEST(MultiRepoTest, FileExists) {
  MultiRepo multi;
  ASSERT_TRUE(multi.AddPartition("feed/").ok());
  ASSERT_TRUE(multi.Commit("a", "m", {{"feed/x", "1"}}).ok());
  EXPECT_TRUE(multi.FileExists("feed/x"));
  EXPECT_FALSE(multi.FileExists("feed/y"));
}

}  // namespace
}  // namespace configerator
