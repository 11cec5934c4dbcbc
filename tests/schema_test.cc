#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "src/schema/schema.h"
#include "src/schema/typecheck.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "tests/mutate.h"

namespace configerator {
namespace {

constexpr char kJobThrift[] = R"(
// Scheduler job schema (the paper's Figure 2 example).
enum JobPriority { LOW = 0, NORMAL = 1, HIGH = 2 }

struct Resources {
  1: optional i32 cpu = 1;
  2: optional i64 memory_mb = 256;
}

struct Job {
  1: required string name;
  2: optional i32 priority = 1;
  3: optional list<string> tags;
  4: optional map<string, i64> limits;
  5: optional Resources resources;
  6: optional JobPriority level = JobPriority.NORMAL;
  7: optional double weight = 1.0;
  8: optional bool preemptible = false;
}
)";

// Schema files by path, counting the reads a load makes.
struct SchemaFiles {
  std::map<std::string, std::string> files;
  std::map<std::string, int> reads = {};

  SchemaReader Reader() {
    return [this](const std::string& path) -> Result<std::string> {
      ++reads[path];
      auto it = files.find(path);
      if (it == files.end()) {
        return NotFoundError("no such schema: " + path);
      }
      return it->second;
    };
  }
};

// Loads `text` as the schema file `path`.
Status LoadText(SchemaRegistry& registry, const std::string& text,
                const std::string& path) {
  SchemaFiles files{.files = {{path, text}}};
  return registry.Load(path, files.Reader());
}

class SchemaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(LoadText(registry_, kJobThrift, "job.thrift").ok());
    ASSERT_TRUE(registry_.ResolveAll().ok());
  }

  SchemaRegistry registry_;
};

TEST_F(SchemaTest, ParsesStructs) {
  const StructDef* job = registry_.FindStruct("Job");
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->fields.size(), 8u);
  EXPECT_TRUE(job->FindField("name")->required);
  EXPECT_FALSE(job->FindField("priority")->required);
  EXPECT_EQ(job->FindField("priority")->default_value->as_int(), 1);
  EXPECT_EQ(job->FindField("resources")->id, 5);
  EXPECT_EQ(job->FindField("nope"), nullptr);
}

TEST_F(SchemaTest, ParsesEnums) {
  const EnumDef* e = registry_.FindEnum("JobPriority");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->HasValue(2));
  EXPECT_FALSE(e->HasValue(3));
  EXPECT_EQ(*e->ValueOf("HIGH"), 2);
  EXPECT_EQ(*e->NameOf(0), "LOW");
  EXPECT_FALSE(e->ValueOf("NONE").has_value());
}

TEST_F(SchemaTest, EnumDefaultResolved) {
  const FieldDef* level = registry_.FindStruct("Job")->FindField("level");
  ASSERT_TRUE(level->default_value.has_value());
  EXPECT_EQ(level->default_value->as_int(), 1);  // NORMAL.
}

TEST_F(SchemaTest, TypeToString) {
  const StructDef* job = registry_.FindStruct("Job");
  EXPECT_EQ(job->FindField("tags")->type.ToString(), "list<string>");
  EXPECT_EQ(job->FindField("limits")->type.ToString(), "map<string, i64>");
  EXPECT_EQ(job->FindField("resources")->type.ToString(), "Resources");
}

TEST_F(SchemaTest, RejectsDuplicateFieldId) {
  SchemaRegistry r;
  Status s = LoadText(r, "struct S { 1: i32 a; 1: i32 b; }", "dup.thrift");
  EXPECT_FALSE(s.ok());
}

TEST_F(SchemaTest, RejectsDuplicateFieldName) {
  SchemaRegistry r;
  Status s = LoadText(r, "struct S { 1: i32 a; 2: i64 a; }", "dup.thrift");
  EXPECT_FALSE(s.ok());
}

TEST_F(SchemaTest, RejectsNonStringMapKeys) {
  SchemaRegistry r;
  Status s = LoadText(r, "struct S { 1: map<i32, string> m; }", "bad.thrift");
  EXPECT_FALSE(s.ok());
}

TEST_F(SchemaTest, ResolveAllCatchesDanglingReference) {
  SchemaRegistry r;
  ASSERT_TRUE(LoadText(r, "struct S { 1: Missing m; }", "s.thrift").ok());
  EXPECT_FALSE(r.ResolveAll().ok());
}

TEST_F(SchemaTest, IncludeResolution) {
  SchemaFiles files{.files = {
      {"base.thrift", "struct Base { 1: i32 x; }"},
      {"s.thrift", "include \"base.thrift\"\nstruct S { 1: Base b; }"},
  }};
  SchemaRegistry r;
  Status s = r.Load("s.thrift", files.Reader());
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_TRUE(r.ResolveAll().ok());
  EXPECT_NE(r.FindStruct("Base"), nullptr);
  EXPECT_EQ(files.reads["base.thrift"], 1);
}

TEST_F(SchemaTest, IncludeOfAMissingFileFails) {
  SchemaRegistry r;
  Status s = LoadText(r, "include \"x.thrift\"", "s.thrift");
  EXPECT_EQ(s.code(), StatusCode::kNotFound) << s;
}

TEST_F(SchemaTest, IncludeRegistersWhereItAppears) {
  // The include loads before the rest of the file parses, so its enum
  // classifies the field type and resolves the default; an include after
  // other declarations on the same line is followed all the same.
  SchemaFiles files{.files = {
      {"e.thrift", "enum Level { LOW = 0, HIGH = 5 }"},
      {"s.thrift",
       "enum U { X = 0 } include \"e.thrift\"\n"
       "struct S { 1: optional Level level = Level.HIGH; }"},
  }};
  SchemaRegistry r;
  ASSERT_TRUE(r.Load("s.thrift", files.Reader()).ok());
  const FieldDef* level = r.FindStruct("S")->FindField("level");
  EXPECT_EQ(level->type.kind(), TypeKind::kEnum);
  EXPECT_EQ(level->default_value->as_int(), 5);
}

TEST_F(SchemaTest, LoadReadsADiamondIncludeOnce) {
  SchemaFiles files{.files = {
      {"top.thrift", "include \"l.thrift\" include \"r.thrift\""},
      {"l.thrift", "include \"base.thrift\"\nstruct L { 1: Base b; }"},
      {"r.thrift", "include \"base.thrift\"\nstruct R { 1: Base b; }"},
      {"base.thrift", "struct Base { 1: i32 x; }"},
  }};
  SchemaRegistry r;
  ASSERT_TRUE(r.Load("top.thrift", files.Reader()).ok());
  EXPECT_TRUE(r.ResolveAll().ok());
  EXPECT_EQ(files.reads["base.thrift"], 1);
  // A path already loaded, as an include or not, is not read again.
  ASSERT_TRUE(r.Load("r.thrift", files.Reader()).ok());
  ASSERT_TRUE(r.Load("top.thrift", files.Reader()).ok());
  EXPECT_EQ(files.reads["r.thrift"], 1);
  EXPECT_EQ(files.reads["top.thrift"], 1);
  EXPECT_EQ(files.reads["l.thrift"], 1);
}

TEST_F(SchemaTest, LoadRejectsASelfInclude) {
  SchemaFiles files{.files = {
      {"schemas/a.thrift",
       "include \"schemas/a.thrift\"\nstruct A { 1: i32 x; }"},
  }};
  SchemaRegistry r;
  Status s = r.Load("schemas/a.thrift", files.Reader());
  EXPECT_EQ(s.code(), StatusCode::kInvalidConfig);
  EXPECT_NE(s.message().find("include cycle: schemas/a.thrift -> "
                             "schemas/a.thrift"),
            std::string::npos)
      << s;
  // The failed load is remembered, not retried.
  EXPECT_EQ(r.Load("schemas/a.thrift", files.Reader()), s);
  EXPECT_EQ(files.reads["schemas/a.thrift"], 1);
}

TEST_F(SchemaTest, LoadRejectsAThreeCycleNamingIt) {
  SchemaFiles files{.files = {
      {"root.thrift", "include \"a.thrift\""},
      {"a.thrift", "include \"b.thrift\""},
      {"b.thrift", "struct B { 1: i32 x; } include \"c.thrift\""},
      {"c.thrift", "include \"a.thrift\""},
  }};
  SchemaRegistry r;
  Status s = r.Load("root.thrift", files.Reader());
  EXPECT_EQ(s.code(), StatusCode::kInvalidConfig);
  EXPECT_NE(s.message().find(
                "include cycle: a.thrift -> b.thrift -> c.thrift -> a.thrift"),
            std::string::npos)
      << s;
}

TEST_F(SchemaTest, LoadCapsTheIncludeChain) {
  // A chain of n files, each including the next.
  auto chain = [](int n) {
    std::map<std::string, std::string> files;
    for (int i = 0; i < n; ++i) {
      files[StrFormat("f%d.thrift", i)] =
          i + 1 < n ? StrFormat("include \"f%d.thrift\"", i + 1)
                    : std::string("struct Last { 1: i32 x; }");
    }
    return SchemaFiles{.files = std::move(files)};
  };
  SchemaFiles deepest = chain(kMaxIncludeDepth);
  SchemaRegistry ok;
  EXPECT_TRUE(ok.Load("f0.thrift", deepest.Reader()).ok());
  EXPECT_NE(ok.FindStruct("Last"), nullptr);

  SchemaFiles too_deep = chain(kMaxIncludeDepth + 1);
  SchemaRegistry r;
  Status s = r.Load("f0.thrift", too_deep.Reader());
  EXPECT_EQ(s.code(), StatusCode::kInvalidConfig);
  EXPECT_NE(s.message().find("include chain deeper than 64"),
            std::string::npos)
      << s;
}

// `depth` nested list<...> field types, or `depth` nested [...] defaults.
std::string NestedListType(int depth) {
  std::string text = "struct S { 1: optional ";
  for (int i = 0; i < depth; ++i) {
    text += "list<";
  }
  text += "i32";
  text += std::string(depth, '>');
  return text + " f; }";
}
std::string NestedListDefault(int depth) {
  return "struct S { 1: optional list<i32> f = " + std::string(depth, '[') +
         std::string(depth, ']') + "; }";
}

TEST_F(SchemaTest, NestingIsCappedNotAStackOverflow) {
  for (auto nested : {NestedListType, NestedListDefault}) {
    SchemaRegistry at_cap;
    EXPECT_TRUE(
        LoadText(at_cap, nested(kMaxIdlNestingDepth), "s.thrift").ok());
    SchemaRegistry past_cap;
    Status s =
        LoadText(past_cap, nested(kMaxIdlNestingDepth + 1), "s.thrift");
    EXPECT_NE(s.message().find("deeper than 256 levels"), std::string::npos)
        << s;
    // The 100,000-deep repros segfaulted the recursive descent.
    SchemaRegistry hostile;
    EXPECT_FALSE(LoadText(hostile, nested(100'000), "s.thrift").ok());
  }
}

TEST_F(SchemaTest, ImplicitEnumValuePastInt64MaxIsAnError) {
  // An IDL mutant found the signed overflow (UBSan): the implicit value
  // after INT64_MAX.
  SchemaRegistry last;
  EXPECT_TRUE(
      LoadText(last, "enum E { A = 9223372036854775807 }", "e.thrift").ok());
  SchemaRegistry past;
  Status s =
      LoadText(past, "enum E { A = 9223372036854775807, B }", "e.thrift");
  EXPECT_NE(s.message().find("past INT64_MAX"), std::string::npos) << s;
}

TEST_F(SchemaTest, CommentsIgnored) {
  SchemaRegistry r;
  Status s = LoadText(r,
                      "# hash comment\n// line comment\n/* block\ncomment */\n"
                      "struct S { 1: i32 a; /* inline */ 2: i32 b; }",
                      "c.thrift");
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(r.FindStruct("S")->fields.size(), 2u);
}

// ---- Type checking ----------------------------------------------------------

TEST_F(SchemaTest, TypeCheckAcceptsValidConfig) {
  auto config = Json::Parse(R"({
    "name": "cache",
    "priority": 2,
    "tags": ["hot", "pinned"],
    "limits": {"disk_mb": 100},
    "resources": {"cpu": 4, "memory_mb": 2048},
    "level": 2,
    "weight": 1.5,
    "preemptible": true
  })");
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(TypeCheckStruct(registry_, "Job", *config).ok());
}

TEST_F(SchemaTest, TypeCheckRejectsMissingRequired) {
  auto config = Json::Parse(R"({"priority": 2})");
  Status s = TypeCheckStruct(registry_, "Job", *config);
  EXPECT_EQ(s.code(), StatusCode::kInvalidConfig);
  EXPECT_NE(s.message().find("name"), std::string::npos);
}

TEST_F(SchemaTest, TypeCheckRejectsUnknownField) {
  // The typo defense: "nmae" instead of "name".
  auto config = Json::Parse(R"({"nmae": "cache"})");
  Status s = TypeCheckStruct(registry_, "Job", *config);
  EXPECT_EQ(s.code(), StatusCode::kInvalidConfig);
  EXPECT_NE(s.message().find("nmae"), std::string::npos);
}

TEST_F(SchemaTest, TypeCheckRejectsWrongTypes) {
  EXPECT_FALSE(
      TypeCheckStruct(registry_, "Job", *Json::Parse(R"({"name": 5})")).ok());
  EXPECT_FALSE(TypeCheckStruct(registry_, "Job",
                               *Json::Parse(R"({"name": "x", "priority": "hi"})"))
                   .ok());
  EXPECT_FALSE(TypeCheckStruct(registry_, "Job",
                               *Json::Parse(R"({"name": "x", "tags": "notalist"})"))
                   .ok());
}

TEST_F(SchemaTest, TypeCheckRejectsIntOutOfRange) {
  // priority is i32.
  auto config = Json::Parse(R"({"name": "x", "priority": 3000000000})");
  EXPECT_FALSE(TypeCheckStruct(registry_, "Job", *config).ok());
}

TEST_F(SchemaTest, TypeCheckRejectsInvalidEnumValue) {
  auto config = Json::Parse(R"({"name": "x", "level": 9})");
  EXPECT_FALSE(TypeCheckStruct(registry_, "Job", *config).ok());
}

TEST_F(SchemaTest, TypeCheckAcceptsEnumByName) {
  auto config = Json::Parse(R"({"name": "x", "level": "HIGH"})");
  EXPECT_TRUE(TypeCheckStruct(registry_, "Job", *config).ok());
}

TEST_F(SchemaTest, TypeCheckNestedStructErrorsHavePath) {
  auto config =
      Json::Parse(R"({"name": "x", "resources": {"cpu": "lots"}})");
  Status s = TypeCheckStruct(registry_, "Job", *config);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("resources.cpu"), std::string::npos);
}

TEST_F(SchemaTest, TypeCheckListElements) {
  auto config = Json::Parse(R"({"name": "x", "tags": ["ok", 7]})");
  Status s = TypeCheckStruct(registry_, "Job", *config);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("tags[1]"), std::string::npos);
}

TEST_F(SchemaTest, TypeCheckMapValues) {
  auto config = Json::Parse(R"({"name": "x", "limits": {"a": "NaN"}})");
  EXPECT_FALSE(TypeCheckStruct(registry_, "Job", *config).ok());
}

TEST_F(SchemaTest, IntWidensToDoubleButNotViceVersa) {
  EXPECT_TRUE(TypeCheckStruct(registry_, "Job",
                              *Json::Parse(R"({"name": "x", "weight": 2})"))
                  .ok());
  EXPECT_FALSE(TypeCheckStruct(registry_, "Job",
                               *Json::Parse(R"({"name": "x", "priority": 2.5})"))
                   .ok());
}

TEST_F(SchemaTest, ApplyDefaultsFillsAbsentFields) {
  auto config = Json::Parse(R"({"name": "cache"})");
  auto filled = ApplyDefaults(registry_, "Job", *config);
  ASSERT_TRUE(filled.ok());
  EXPECT_EQ(filled->Get("priority")->as_int(), 1);
  EXPECT_EQ(filled->Get("level")->as_int(), 1);
  EXPECT_DOUBLE_EQ(filled->Get("weight")->as_double(), 1.0);
  EXPECT_EQ(filled->Get("preemptible")->as_bool(), false);
  // No default declared for tags/limits/resources: left absent.
  EXPECT_FALSE(filled->Has("tags"));
}

TEST_F(SchemaTest, ApplyDefaultsRecursesIntoNestedStructs) {
  auto config = Json::Parse(R"({"name": "cache", "resources": {"cpu": 8}})");
  auto filled = ApplyDefaults(registry_, "Job", *config);
  ASSERT_TRUE(filled.ok());
  EXPECT_EQ(filled->Get("resources")->Get("memory_mb")->as_int(), 256);
  EXPECT_EQ(filled->Get("resources")->Get("cpu")->as_int(), 8);
}

TEST_F(SchemaTest, ApplyDefaultsKeepsExplicitValues) {
  auto config = Json::Parse(R"({"name": "cache", "priority": 2})");
  auto filled = ApplyDefaults(registry_, "Job", *config);
  ASSERT_TRUE(filled.ok());
  EXPECT_EQ(filled->Get("priority")->as_int(), 2);
}

TEST_F(SchemaTest, DefaultInstance) {
  auto instance = DefaultInstance(registry_, "Resources");
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(instance->Get("cpu")->as_int(), 1);
  EXPECT_EQ(instance->Get("memory_mb")->as_int(), 256);
}

TEST_F(SchemaTest, DefaultInstanceOfASelfReferentialStructIsFinite) {
  SchemaRegistry r;
  ASSERT_TRUE(LoadText(r,
                       "struct A { 1: optional A next; 2: optional i32 v; }\n"
                       "struct P { 1: optional Q q; }\n"
                       "struct Q { 1: optional P p; 2: optional A a; }\n"
                       "struct R { 1: required R next; }\n",
                       "self.thrift")
                  .ok());
  // The recursive optional is left unset; everything else is zeroed.
  auto a = DefaultInstance(r, "A");
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ(a->Dump(), R"({"v": 0})");
  EXPECT_TRUE(TypeCheckStruct(r, "A", *a).ok());
  auto p = DefaultInstance(r, "P");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->Dump(), R"({"q": {"a": {"v": 0}}})");
  // A required field of its own type stays unset too, so the instance is
  // finite and the type check rejects it.
  auto req = DefaultInstance(r, "R");
  ASSERT_TRUE(req.ok()) << req.status();
  EXPECT_EQ(req->Dump(), "{}");
  EXPECT_FALSE(TypeCheckStruct(r, "R", *req).ok());
}

// ---- Robustness ---------------------------------------------------------------

class SchemaFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchemaFuzzTest, RandomIdlSoupNeverCrashes) {
  Rng rng(GetParam());
  const char* fragments[] = {
      "struct ", "enum ",  "include ", "namespace ", "required ", "optional ",
      "i32 ",    "i64 ",   "string ",  "list<",      "map<",      ">",
      "{",       "}",      ";",        ",",           ":",         "=",
      "Name",    "x",      "1",        "42",          "\"s\"",     "// c\n",
      "/*",      "*/",     "\n",       "-7",          "3.5",       "#c\n",
  };
  for (int round = 0; round < 300; ++round) {
    std::string source;
    size_t n = 1 + rng.NextBounded(30);
    for (size_t i = 0; i < n; ++i) {
      source += fragments[rng.NextBounded(std::size(fragments))];
    }
    SchemaRegistry registry;
    // Must not crash; any Status is acceptable.
    (void)LoadText(registry, source, "fuzz.thrift");
    (void)registry.ResolveAll();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchemaFuzzTest, ::testing::Values(1, 2, 3, 4));

// ---- Seeded IDL mutants -------------------------------------------------------

// One include graph: its files and the one a compile would import.
struct IdlCorpus {
  const char* name;
  std::string root;
  std::map<std::string, std::string> files;
};

// The docs/LANGUAGE.md example schema, include graphs (a chain, a diamond,
// a 1-cycle and a 3-cycle), and the inputs that crashed the parser or
// DefaultInstance before their caps, kept as fixed seeds.
std::vector<IdlCorpus> IdlCorpora() {
  return {
      {"docs example",
       "job.thrift",
       {{"job.thrift",
         "include \"common.thrift\"\n\n"
         "enum JobPriority { LOW = 0, NORMAL = 1, HIGH = 2 }\n\n"
         "struct Job {\n"
         "  1: required string name;\n"
         "  2: optional i32 priority = 1;            // Defaults materialize.\n"
         "  3: optional list<string> tags;\n"
         "  4: optional map<string, i64> limits;     // Map keys are strings.\n"
         "  5: optional Resources resources;         // Nested structs.\n"
         "  6: optional JobPriority level = JobPriority.NORMAL;\n"
         "}\n"},
        {"common.thrift",
         "struct Resources {\n"
         "  1: optional i32 cpu = 1;\n"
         "  2: optional i64 memory_mb = 256;\n"
         "  3: optional list<list<double>> weights = [[0.5, 1e3], []];\n"
         "}\n"}}},
      {"chain",
       "c0.thrift",
       {{"c0.thrift",
         "include \"c1.thrift\"\nstruct C0 { 1: optional C1 c; "
         "2: optional E1 e = E1.B; }\n"},
        {"c1.thrift",
         "include \"c2.thrift\"\nenum E1 { A = 1, B = 2 }\n"
         "struct C1 { 1: optional C2 c; 2: required string s = \"x\"; }\n"},
        {"c2.thrift", "struct C2 { 1: optional map<string, C2> m; }\n"}}},
      {"diamond",
       "top.thrift",
       {{"top.thrift", "include \"l.thrift\" include \"r.thrift\"\n"},
        {"l.thrift",
         "include \"base.thrift\"\nstruct L { 1: Base b; 2: K k = K.V; }\n"},
        {"r.thrift",
         "include \"base.thrift\"\nstruct R { 1: list<Base> bs = []; }\n"},
        {"base.thrift", "enum K { V = 7 }\nstruct Base { 1: i32 x = 3; }\n"}}},
      {"1-cycle",
       "schemas/a.thrift",
       {{"schemas/a.thrift",
         "include \"schemas/a.thrift\"\nstruct A { 1: i32 x; }\n"}}},
      {"3-cycle",
       "a.thrift",
       {{"a.thrift", "include \"b.thrift\"\nstruct A { 1: B b; }\n"},
        {"b.thrift", "include \"c.thrift\"\nstruct B { 1: C c; }\n"},
        {"c.thrift", "include \"a.thrift\"\nstruct C { 1: A a; }\n"}}},
      {"100,000-deep list type",
       "deep.thrift",
       {{"deep.thrift", NestedListType(100'000)}}},
      {"100,000-deep default",
       "deep.thrift",
       {{"deep.thrift", NestedListDefault(100'000)}}},
      {"self-referential struct",
       "self.thrift",
       {{"self.thrift",
         "struct A { 1: optional A next; 2: optional list<A> all; }\n"}}},
  };
}

// Loads `corpus.root` and builds a default instance of every struct the load
// registered. Returns whether the load succeeded; what matters is that it
// returns at all.
bool LoadAndInstantiate(const IdlCorpus& corpus) {
  SchemaFiles files{.files = corpus.files};
  SchemaRegistry registry;
  bool loaded = registry.Load(corpus.root, files.Reader()).ok();
  (void)registry.ResolveAll();
  for (const std::string& name : registry.StructNames()) {
    (void)DefaultInstance(registry, name);
  }
  return loaded;
}

TEST(IdlMutationTest, EverySeedAndMutantReturns) {
  constexpr uint64_t kMutants = 150;
  for (const IdlCorpus& corpus : IdlCorpora()) {
    SCOPED_TRACE(corpus.name);
    bool base_loads = LoadAndInstantiate(corpus);
    bool cyclic = std::string(corpus.name).find("cycle") != std::string::npos;
    bool hostile = std::string(corpus.name).find("100,000") != std::string::npos;
    EXPECT_EQ(base_loads, !cyclic && !hostile);

    int loaded = 0;
    for (uint64_t seed = 1; seed <= kMutants; ++seed) {
      // Mutate one file of the graph; the rest stay as written.
      IdlCorpus mutant = corpus;
      auto file = mutant.files.begin();
      std::advance(file, seed % mutant.files.size());
      file->second = Mutant(file->second, seed);
      loaded += LoadAndInstantiate(mutant) ? 1 : 0;
    }
    // Well-formed graphs keep loading under some mutations, so the mutants
    // reach DefaultInstance, not only the parser's error paths.
    if (base_loads) {
      EXPECT_GT(loaded, 0);
    }
  }
}

}  // namespace
}  // namespace configerator
