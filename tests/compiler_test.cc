// End-to-end tests of the Configerator compiler: the paper's Figure 2
// workflow (schema + reusable module + entry config + validator), the §3.1
// dependency example (app.cconf / firewall.cconf sharing app_port.cinc),
// and the compiler's caches — the parse cache and the whole-entry output
// memo, which replays a result while every read its run made returns the
// same.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/lsan_interface.h>
#endif

#include "src/lang/compiler.h"
#include "src/lang/unit_cache.h"
#include "src/obs/metrics.h"

namespace configerator {
namespace {

class CompilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The Figure 2 example, transliterated to CSL.
    sources_.Put("job.thrift",
                 "struct Job {\n"
                 "  1: required string name;\n"
                 "  2: optional i32 memory_mb = 256;\n"
                 "  3: optional list<string> tags;\n"
                 "}\n");
    sources_.Put("create_job.cinc",
                 "import_thrift(\"job.thrift\")\n"
                 "def create_job(name, memory_mb=256):\n"
                 "    job = Job(name=name, memory_mb=memory_mb)\n"
                 "    job.tags = [\"team:\" + name]\n"
                 "    return job\n");
    sources_.Put("cache_job.cconf",
                 "import_python(\"create_job.cinc\", \"*\")\n"
                 "job = create_job(name=\"cache\", memory_mb=1024)\n"
                 "export_if_last(job)\n");
    sources_.Put("job.thrift-cvalidator",
                 "def validate_Job(cfg):\n"
                 "    assert cfg.memory_mb > 0, \"memory must be positive\"\n"
                 "    assert len(cfg.name) > 0, \"name must be nonempty\"\n");
  }

  Result<CompileOutput> Compile(const std::string& entry) {
    ConfigCompiler compiler(sources_.AsReader());
    return compiler.Compile(entry);
  }

  InMemorySources sources_;
};

TEST_F(CompilerTest, CompilesFigure2Example) {
  auto output = Compile("cache_job.cconf");
  ASSERT_TRUE(output.ok()) << output.status();
  ASSERT_EQ(output->configs.size(), 1u);
  const CompiledConfig& config = output->configs[0];
  EXPECT_EQ(config.path, "cache_job.json");
  EXPECT_EQ(config.type_name, "Job");
  EXPECT_EQ(config.content.Get("name")->as_string(), "cache");
  EXPECT_EQ(config.content.Get("memory_mb")->as_int(), 1024);
  EXPECT_EQ(config.content.Get("tags")->as_array()[0].as_string(), "team:cache");
}

TEST_F(CompilerTest, TracksTransitiveDependencies) {
  auto output = Compile("cache_job.cconf");
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->dependencies,
            (std::vector<std::string>{"cache_job.cconf", "create_job.cinc",
                                      "job.thrift", "job.thrift-cvalidator"}));

  // A schema's validator probe is a dependency even when the companion does
  // not exist: adding one later must recompile the entry.
  sources_.Put("tier.thrift", "enum Tier { HOT = 0 }\n");
  sources_.Put("tier.cconf",
               "import_thrift(\"tier.thrift\")\n"
               "export_if_last({\"t\": Tier.HOT})\n");
  auto tier = Compile("tier.cconf");
  ASSERT_TRUE(tier.ok()) << tier.status();
  EXPECT_EQ(tier->dependencies,
            (std::vector<std::string>{"tier.cconf", "tier.thrift",
                                      "tier.thrift-cvalidator"}));
}

TEST_F(CompilerTest, ValidatorRejectsBadConfig) {
  sources_.Put("bad_job.cconf",
               "import_python(\"create_job.cinc\", \"*\")\n"
               "job = create_job(name=\"bad\", memory_mb=-5)\n"
               "export_if_last(job)\n");
  auto output = Compile("bad_job.cconf");
  ASSERT_FALSE(output.ok());
  EXPECT_NE(output.status().message().find("memory must be positive"),
            std::string::npos);
}

TEST_F(CompilerTest, SchemaDefaultsMaterializeInOutput) {
  sources_.Put("minimal.cconf",
               "import_thrift(\"job.thrift\")\n"
               "export_if_last(Job(name=\"tiny\"))\n");
  auto output = Compile("minimal.cconf");
  ASSERT_TRUE(output.ok()) << output.status();
  EXPECT_EQ(output->configs[0].content.Get("memory_mb")->as_int(), 256);
}

TEST_F(CompilerTest, TypeErrorsCaughtAtExport) {
  sources_.Put("wrong_type.cconf",
               "import_thrift(\"job.thrift\")\n"
               "j = Job(name=\"x\")\n"
               "j.memory_mb = \"lots\"\n"
               "export_if_last(j)\n");
  auto output = Compile("wrong_type.cconf");
  ASSERT_FALSE(output.ok());
  EXPECT_EQ(output.status().code(), StatusCode::kInvalidConfig);
}

TEST_F(CompilerTest, SharedConstantDependency) {
  // The §3.1 app/firewall example: both configs import app_port.cinc.
  sources_.Put("app_port.cinc", "APP_PORT = 8089\n");
  sources_.Put("app.cconf",
               "import_python(\"app_port.cinc\", \"*\")\n"
               "export_if_last({\"listen_port\": APP_PORT})\n");
  sources_.Put("firewall.cconf",
               "import_python(\"app_port.cinc\", \"*\")\n"
               "export_if_last({\"allow_port\": APP_PORT})\n");

  auto app = Compile("app.cconf");
  auto firewall = Compile("firewall.cconf");
  ASSERT_TRUE(app.ok());
  ASSERT_TRUE(firewall.ok());
  EXPECT_EQ(app->configs[0].content.Get("listen_port")->as_int(), 8089);
  EXPECT_EQ(firewall->configs[0].content.Get("allow_port")->as_int(), 8089);

  // Changing the shared constant changes both outputs.
  sources_.Put("app_port.cinc", "APP_PORT = 9090\n");
  EXPECT_EQ(Compile("app.cconf")->configs[0].content.Get("listen_port")->as_int(),
            9090);
  EXPECT_EQ(
      Compile("firewall.cconf")->configs[0].content.Get("allow_port")->as_int(),
      9090);
}

TEST_F(CompilerTest, ImportedModuleDoesNotExport) {
  // export_if_last() in an imported module is a no-op (the "if last" rule).
  sources_.Put("lib.cinc", "export_if_last({\"from\": \"lib\"})\nLIB = 1\n");
  sources_.Put("main.cconf",
               "import_python(\"lib.cinc\", \"*\")\n"
               "export_if_last({\"lib\": LIB})\n");
  auto output = Compile("main.cconf");
  ASSERT_TRUE(output.ok()) << output.status();
  ASSERT_EQ(output->configs.size(), 1u);
  EXPECT_EQ(output->configs[0].path, "main.json");
}

TEST_F(CompilerTest, ExplicitExportNames) {
  sources_.Put("multi.cconf",
               "export(\"jobs/a.json\", {\"id\": 1})\n"
               "export(\"jobs/b.json\", {\"id\": 2})\n");
  auto output = Compile("multi.cconf");
  ASSERT_TRUE(output.ok());
  ASSERT_EQ(output->configs.size(), 2u);
  EXPECT_EQ(output->configs[0].path, "jobs/a.json");
  EXPECT_EQ(output->configs[1].path, "jobs/b.json");
}

TEST_F(CompilerTest, DuplicateExportFails) {
  sources_.Put("dup.cconf",
               "export_if_last({\"a\": 1})\n"
               "export_if_last({\"a\": 2})\n");
  EXPECT_FALSE(Compile("dup.cconf").ok());
}

TEST_F(CompilerTest, NoExportFails) {
  sources_.Put("empty.cconf", "x = 1\n");
  auto output = Compile("empty.cconf");
  ASSERT_FALSE(output.ok());
  EXPECT_NE(output.status().message().find("without exporting"),
            std::string::npos);
}

TEST_F(CompilerTest, ImportCycleDetected) {
  sources_.Put("a.cinc", "import_python(\"b.cinc\", \"*\")\nA = 1\n");
  sources_.Put("b.cinc", "import_python(\"a.cinc\", \"*\")\nB = 2\n");
  sources_.Put("cyclic.cconf",
               "import_python(\"a.cinc\", \"*\")\nexport_if_last({\"a\": A})\n");
  auto output = Compile("cyclic.cconf");
  ASSERT_FALSE(output.ok());
  EXPECT_NE(output.status().message().find("cycle"), std::string::npos);
}

TEST_F(CompilerTest, DiamondImportEvaluatedOnce) {
  sources_.Put("counter.cinc", "VALUE = 42\n");
  sources_.Put("left.cinc", "import_python(\"counter.cinc\", \"*\")\nL = VALUE\n");
  sources_.Put("right.cinc", "import_python(\"counter.cinc\", \"*\")\nR = VALUE\n");
  sources_.Put("diamond.cconf",
               "import_python(\"left.cinc\", \"*\")\n"
               "import_python(\"right.cinc\", \"*\")\n"
               "export_if_last({\"sum\": L + R})\n");
  auto output = Compile("diamond.cconf");
  ASSERT_TRUE(output.ok()) << output.status();
  EXPECT_EQ(output->configs[0].content.Get("sum")->as_int(), 84);
}

TEST_F(CompilerTest, SelectiveImport) {
  sources_.Put("lib2.cinc", "A = 1\nB = 2\n");
  sources_.Put("selective.cconf",
               "import_python(\"lib2.cinc\", \"A\")\n"
               "export_if_last({\"a\": A})\n");
  EXPECT_TRUE(Compile("selective.cconf").ok());

  sources_.Put("selective_bad.cconf",
               "import_python(\"lib2.cinc\", \"A\")\n"
               "export_if_last({\"b\": B})\n");
  EXPECT_FALSE(Compile("selective_bad.cconf").ok());
}

TEST_F(CompilerTest, MissingSourceFileFails) {
  auto output = Compile("nonexistent.cconf");
  ASSERT_FALSE(output.ok());
  EXPECT_EQ(output.status().code(), StatusCode::kNotFound);
}

TEST_F(CompilerTest, MissingImportFails) {
  sources_.Put("broken.cconf",
               "import_python(\"ghost.cinc\", \"*\")\nexport_if_last({})\n");
  EXPECT_FALSE(Compile("broken.cconf").ok());
}

TEST_F(CompilerTest, DeterministicOutput) {
  auto first = Compile("cache_job.cconf");
  auto second = Compile("cache_job.cconf");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->configs[0].content.DumpPretty(),
            second->configs[0].content.DumpPretty());
}

TEST_F(CompilerTest, OutputPathDerivation) {
  EXPECT_EQ(ConfigCompiler::OutputPathFor("feed/cache_job.cconf"),
            "feed/cache_job.json");
  EXPECT_EQ(ConfigCompiler::OutputPathFor("noext"), "noext.json");
  EXPECT_EQ(ConfigCompiler::OutputPathFor("dir.v2/file"), "dir.v2/file.json");
}

TEST_F(CompilerTest, ValidatorReturningFalseRejects) {
  sources_.Put("strict.thrift", "struct Strict { 1: optional i32 n = 0; }\n");
  sources_.Put("strict.thrift-cvalidator",
               "def validate_Strict(cfg):\n"
               "    return cfg.n < 100\n");
  sources_.Put("ok.cconf",
               "import_thrift(\"strict.thrift\")\n"
               "export_if_last(Strict(n=5))\n");
  sources_.Put("too_big.cconf",
               "import_thrift(\"strict.thrift\")\n"
               "export_if_last(Strict(n=500))\n");
  EXPECT_TRUE(Compile("ok.cconf").ok());
  EXPECT_FALSE(Compile("too_big.cconf").ok());
}

TEST_F(CompilerTest, SelfReferentialExportRejectedCleanly) {
  sources_.Put("cyclic.cconf",
               "d = {\"name\": \"cycle\"}\n"
               "d[\"self\"] = d\n"
               "export_if_last(d)\n");
  // The cyclic dict itself cannot be reclaimed by reference counting (a
  // documented language limitation); exempt this deliberate leak from LSan.
#if defined(__SANITIZE_ADDRESS__)
  __lsan_disable();
#endif
  auto output = Compile("cyclic.cconf");
#if defined(__SANITIZE_ADDRESS__)
  __lsan_enable();
#endif
  ASSERT_FALSE(output.ok());
  EXPECT_NE(output.status().message().find("depth limit"), std::string::npos);
}

TEST_F(CompilerTest, ConfigInheritanceViaMerge) {
  // The paper's §8 future work: config inheritance. A base typed config is
  // specialized per deployment via merge(); the type tag survives, so the
  // derived config still schema-checks and runs validators.
  sources_.Put("base_job.cinc",
               "import_thrift(\"job.thrift\")\n"
               "BASE = Job(name=\"base\", memory_mb=256)\n"
               "BASE.tags = [\"managed\"]\n");
  sources_.Put("derived.cconf",
               "import_python(\"base_job.cinc\", \"*\")\n"
               "derived = merge(BASE, {\"name\": \"derived\","
               " \"memory_mb\": 2048})\n"
               "export_if_last(derived)\n");
  auto output = Compile("derived.cconf");
  ASSERT_TRUE(output.ok()) << output.status();
  EXPECT_EQ(output->configs[0].type_name, "Job");
  EXPECT_EQ(output->configs[0].content.Get("name")->as_string(), "derived");
  EXPECT_EQ(output->configs[0].content.Get("memory_mb")->as_int(), 2048);
  EXPECT_EQ(output->configs[0].content.Get("tags")->as_array()[0].as_string(),
            "managed");

  // Inherited configs still hit the validator.
  sources_.Put("derived_bad.cconf",
               "import_python(\"base_job.cinc\", \"*\")\n"
               "export_if_last(merge(BASE, {\"memory_mb\": -1}))\n");
  EXPECT_FALSE(Compile("derived_bad.cconf").ok());
}

TEST_F(CompilerTest, ControlFlowInConfigGeneration) {
  sources_.Put("tiered.cconf",
               "tiers = {}\n"
               "for i in range(4):\n"
               "    name = \"tier\" + str(i)\n"
               "    tiers[name] = {\"weight\": i * 10, \"hot\": i == 0}\n"
               "export_if_last({\"tiers\": tiers})\n");
  auto output = Compile("tiered.cconf");
  ASSERT_TRUE(output.ok()) << output.status();
  const Json& tiers = *output->configs[0].content.Get("tiers");
  EXPECT_EQ(tiers.size(), 4u);
  EXPECT_EQ(tiers.Get("tier2")->Get("weight")->as_int(), 20);
  EXPECT_TRUE(tiers.Get("tier0")->Get("hot")->as_bool());
}

// Runtime errors inside a cross-module function are reported against the
// module that defines it, with the chain of call sites wrapped around it.
TEST_F(CompilerTest, CrossModuleErrorsBlameTheDefiningModule) {
  sources_.Put("lib.cinc",
               "def inner(v):\n"
               "    return v + \"s\"\n"       // Fails here: lib.cinc:2.
               "def outer(v):\n"
               "    return inner(v)\n");      // Call site: lib.cinc:4.
  sources_.Put("entry.cconf",
               "import_python(\"lib.cinc\", \"*\")\n"
               "x = outer(3)\n"               // Call site: entry.cconf:2.
               "export_if_last({\"x\": x})\n");
  auto output = Compile("entry.cconf");
  ASSERT_FALSE(output.ok());
  EXPECT_EQ(std::string(output.status().message()),
            "entry.cconf:2: in call: lib.cinc:4: in call: "
            "lib.cinc:2: cannot add int and string");
}

// --- Parse cache ------------------------------------------------------------

TEST(UnitCacheTest, HitsOnSameContentMissesOnChange) {
  CompiledUnitCache cache;
  auto a1 = cache.GetOrParse("m.cinc", "A = 1\n");
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  auto a2 = cache.GetOrParse("m.cinc", "A = 1\n");
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(a1->get(), a2->get()) << "hit must reuse the same module";

  auto b = cache.GetOrParse("m.cinc", "A = 2\n");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_NE(a1->get(), b->get());

  // Failed parses are cached too, and replayed identically.
  auto bad1 = cache.GetOrParse("bad.cinc", "def :\n");
  auto bad2 = cache.GetOrParse("bad.cinc", "def :\n");
  EXPECT_FALSE(bad1.ok());
  EXPECT_EQ(bad1.status(), bad2.status());
}

TEST(UnitCacheTest, KeepsOneSourceCopyPerPath) {
  CompiledUnitCache cache;
  const std::string source = "A = 1\n";
  auto interned = cache.Intern("m.cinc", source).content;
  EXPECT_EQ(cache.Intern("m.cinc", std::string(source)).content, interned)
      << "byte-identical content reuses the stored copy";
  ASSERT_TRUE(cache.GetOrParse("m.cinc", source).ok());
  EXPECT_EQ(cache.Intern("m.cinc", source).content, interned);
  EXPECT_NE(cache.Intern("m.cinc", "A = 2\n").content, interned);
}

// --- Whole-entry output memo ------------------------------------------------

// Sources in a map the test edits in place (files can vanish), with a
// reader over it that fails a missing path the way InMemorySources does.
struct EditableSources {
  std::map<std::string, std::string> files;

  FileReader Reader() {
    return [this](const std::string& path) -> Result<std::string> {
      auto it = files.find(path);
      if (it == files.end()) {
        return NotFoundError("no such source file: " + path);
      }
      return it->second;
    };
  }
};

TEST(OutputMemoTest, SeesTransitiveImportChanges) {
  EditableSources sources;
  sources.files = {
      {"entry.cconf",
       "import_python(\"lib.cinc\", \"*\")\n"
       "export_if_last({\"a\": A})\n"},
      {"lib.cinc",
       "import_python(\"util.cinc\", \"*\")\n"
       "A = BASE + 1\n"},
      {"util.cinc", "BASE = 41\n"},
  };
  CompiledUnitCache cache;
  ConfigCompiler compiler(sources.Reader(), CompilerOptions{&cache, nullptr});
  ASSERT_TRUE(compiler.Compile("entry.cconf").ok());
  ASSERT_TRUE(compiler.Compile("entry.cconf").ok());
  EXPECT_EQ(cache.output_hits(), 1u);

  // A change two imports deep misses although entry.cconf and lib.cinc are
  // byte-identical.
  sources.files["util.cinc"] = "BASE = 42\n";
  auto edited = compiler.Compile("entry.cconf");
  ASSERT_TRUE(edited.ok()) << edited.status();
  EXPECT_EQ(cache.output_misses(), 2u);
  EXPECT_EQ(edited->configs[0].content.Get("a")->as_int(), 43);

  // Files the compile never read do not affect it.
  sources.files["other.cinc"] = "Z = 1\n";
  ASSERT_TRUE(compiler.Compile("entry.cconf").ok());
  EXPECT_EQ(cache.output_hits(), 2u);
  EXPECT_EQ(cache.output_misses(), 2u);
}

// A validator companion that appears or vanishes invalidates the entries
// that import its schema, as an edit to the schema itself does.
TEST(OutputMemoTest, CoversSchemasAndValidators) {
  EditableSources sources;
  sources.files = {
      {"entry.cconf",
       "import_thrift(\"job.thrift\")\n"
       "export_if_last(Job(name=\"x\"))\n"},
      {"job.thrift", "struct Job {\n  1: string name;\n}\n"},
  };
  const std::string validator =
      "def validate_Job(job):\n    return job.name != \"x\"\n";
  CompiledUnitCache cache;
  ConfigCompiler compiler(sources.Reader(), CompilerOptions{&cache, nullptr});
  ASSERT_TRUE(compiler.Compile("entry.cconf").ok());
  ASSERT_TRUE(compiler.Compile("entry.cconf").ok());
  EXPECT_EQ(cache.output_hits(), 1u);

  // The validator appears: the memo misses and the validator runs.
  sources.files["job.thrift-cvalidator"] = validator;
  auto rejected = compiler.Compile("entry.cconf");
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(
      rejected.status().message().find("validator for Job returned False"),
      std::string::npos)
      << rejected.status();
  EXPECT_EQ(cache.output_misses(), 2u);

  // An edit to the schema misses too.
  sources.files["job.thrift"] =
      "struct Job {\n  1: string name;\n  2: i32 mem;\n}\n";
  EXPECT_FALSE(compiler.Compile("entry.cconf").ok());
  EXPECT_EQ(cache.output_misses(), 3u);

  // The validator vanishes: neither kept result read that, so both miss.
  sources.files.erase("job.thrift-cvalidator");
  auto accepted = compiler.Compile("entry.cconf");
  EXPECT_TRUE(accepted.ok()) << accepted.status();
  EXPECT_EQ(cache.output_misses(), 4u);
  EXPECT_EQ(cache.output_hits(), 1u);
}

// Imports that run only when a function is called, or when a default is
// evaluated, are read like any other, and so are the includes the IDL
// parser follows, wherever they sit in the schema: mid-line, in an included
// file, or on both arms of a diamond. An edit to any file the compile read
// (absent validator probes included) misses, and the next compile of the
// same files hits. Each case's output is {"v": V}, where V is 1 in `edited`
// ("V = 1").
TEST(OutputMemoTest, FollowsImportsInsideFunctionBodiesAndDefaults) {
  struct Case {
    const char* name;
    std::vector<std::pair<const char*, const char*>> files;  // Entry first.
    const char* edited;
  };
  const char* kCslDep = "V = 1\n";
  const char* kSchemaEntry =
      "import_thrift(\"schemas/a.thrift\")\n"
      "export_if_last({\"v\": K.V})\n";
  const Case cases[] = {
      {"function body",
       {{"entry.cconf",
         "def load():\n"
         "    import_python(\"dep.cinc\", \"*\")\n"
         "    return V\n"
         "export_if_last({\"v\": load()})\n"},
        {"dep.cinc", kCslDep}},
       "dep.cinc"},
      {"default argument",
       {{"entry.cconf",
         "def pick(v=import_python(\"dep.cinc\", \"V\")):\n"
         "    return V\n"
         "export_if_last({\"v\": pick()})\n"},
        {"dep.cinc", kCslDep}},
       "dep.cinc"},
      {"ternary inside a dict inside a call argument",
       {{"entry.cconf",
         "def id(x):\n"
         "    return x\n"
         "id({\"k\": None if False else import_python(\"dep.cinc\")})\n"
         "export_if_last({\"v\": V})\n"},
        {"dep.cinc", kCslDep}},
       "dep.cinc"},
      {"mid-line include",
       {{"entry.cconf", kSchemaEntry},
        {"schemas/a.thrift", "enum U { X = 0 } include \"schemas/b.thrift\"\n"},
        {"schemas/b.thrift", "enum K { V = 1 }\n"}},
       "schemas/b.thrift"},
      {"include of an include",
       {{"entry.cconf", kSchemaEntry},
        {"schemas/a.thrift", "include \"schemas/b.thrift\"\n"},
        {"schemas/b.thrift",
         "/* the enum */ include \"schemas/c.thrift\"\n"
         "struct B { 1: optional K k = K.V; }\n"},
        {"schemas/c.thrift", "enum K { V = 1 }\n"}},
       "schemas/c.thrift"},
      {"diamond",
       {{"entry.cconf", kSchemaEntry},
        {"schemas/a.thrift",
         "include \"schemas/l.thrift\" include \"schemas/r.thrift\"\n"},
        {"schemas/l.thrift",
         "include \"schemas/k.thrift\"\nstruct L { 1: optional i32 x; }\n"},
        {"schemas/r.thrift",
         "include \"schemas/k.thrift\"\nstruct R { 1: optional i32 x; }\n"},
        {"schemas/k.thrift", "enum K { V = 1 }\n"}},
       "schemas/k.thrift"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EditableSources sources;
    for (const auto& [path, content] : c.files) {
      sources.files[path] = content;
    }
    const std::map<std::string, std::string> written = sources.files;
    const char* entry = c.files.front().first;
    auto baseline = ConfigCompiler(sources.Reader()).Compile(entry);
    ASSERT_TRUE(baseline.ok()) << baseline.status();
    // Every file, plus the absent validator probe of the imported schema.
    bool imports_schema = std::string(c.files.front().second) == kSchemaEntry;
    EXPECT_EQ(baseline->dependencies.size(),
              c.files.size() + (imports_schema ? 1 : 0));

    CompiledUnitCache cache;
    ConfigCompiler compiler(sources.Reader(), CompilerOptions{&cache, nullptr});
    ASSERT_TRUE(compiler.Compile(entry).ok());
    for (const std::string& dep : baseline->dependencies) {
      SCOPED_TRACE(dep);
      auto was = written.find(dep);
      sources.files[dep] =
          (was == written.end() ? "" : was->second) + "# edited\n";
      size_t misses = cache.output_misses();
      size_t hits = cache.output_hits();
      auto edited = compiler.Compile(entry);
      ASSERT_TRUE(edited.ok()) << edited.status();
      EXPECT_EQ(cache.output_misses(), misses + 1) << "the edit must miss";
      EXPECT_EQ(edited->configs[0].content.Get("v")->as_int(), 1);
      ASSERT_TRUE(compiler.Compile(entry).ok());
      EXPECT_EQ(cache.output_hits(), hits + 1) << "no edit, so a hit";
      if (was == written.end()) {
        sources.files.erase(dep);
      } else {
        sources.files[dep] = was->second;
      }
    }

    // The value edits track.
    auto edit = [&](int v) {
      std::string text = written.at(c.edited);
      size_t at = text.find("V = 1");
      ASSERT_NE(at, std::string::npos);
      text.replace(at, 5, "V = " + std::to_string(v));
      sources.files[c.edited] = text;
    };
    auto v1 = compiler.Compile(entry);
    ASSERT_TRUE(v1.ok()) << v1.status();
    EXPECT_EQ(v1->configs[0].content.Get("v")->as_int(), 1);
    edit(2);
    auto v2 = compiler.Compile(entry);
    ASSERT_TRUE(v2.ok()) << v2.status();
    EXPECT_EQ(v2->configs[0].content.Get("v")->as_int(), 2);
    edit(3);
    auto v3 = compiler.Compile(entry);
    ASSERT_TRUE(v3.ok()) << v3.status();
    EXPECT_EQ(v3->configs[0].content.Get("v")->as_int(), 3);
  }
}

// An include cycle, of one schema or of three, fails the compile with an
// error naming the chain; the failure replays from the memo unchanged.
TEST(OutputMemoTest, IncludeCyclesFailTheCompile) {
  struct Case {
    const char* name;
    std::vector<std::pair<const char*, const char*>> schemas;
    const char* chain;
  };
  const Case cases[] = {
      {"self-include",
       {{"schemas/a.thrift",
         "include \"schemas/a.thrift\"\nstruct A { 1: i32 x; }\n"}},
       "schemas/a.thrift -> schemas/a.thrift"},
      {"3-cycle",
       {{"schemas/a.thrift",
         "include \"schemas/b.thrift\"\nstruct A { 1: i32 x; }\n"},
        {"schemas/b.thrift", "include \"schemas/c.thrift\"\n"},
        {"schemas/c.thrift", "enum E { X = 0 } include \"schemas/a.thrift\"\n"}},
       "schemas/a.thrift -> schemas/b.thrift -> schemas/c.thrift -> "
       "schemas/a.thrift"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    InMemorySources sources;
    sources.Put("entry.cconf",
                "import_thrift(\"schemas/a.thrift\")\n"
                "export_if_last(A(x=1))\n");
    for (const auto& [path, content] : c.schemas) {
      sources.Put(path, content);
    }
    CompiledUnitCache cache;
    ConfigCompiler compiler(sources.AsReader(),
                            CompilerOptions{&cache, nullptr});
    auto first = compiler.Compile("entry.cconf");
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.status().code(), StatusCode::kInvalidConfig);
    EXPECT_NE(first.status().message().find(std::string("include cycle: ") +
                                            c.chain),
              std::string::npos)
        << first.status();
    auto replay = compiler.Compile("entry.cconf");
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.status(), first.status());
    EXPECT_EQ(cache.output_misses(), 1u);
    EXPECT_EQ(cache.output_hits(), 1u);
  }
}

TEST(UnitCacheTest, SharedCacheHitsAcrossCompilesAndInvalidatesOnEdit) {
  InMemorySources sources;
  sources.Put("lib.cinc", "A = 1\n");
  sources.Put("e1.cconf",
              "import_python(\"lib.cinc\", \"*\")\n"
              "export_if_last({\"a\": A})\n");
  sources.Put("e2.cconf",
              "import_python(\"lib.cinc\", \"*\")\n"
              "export_if_last({\"a\": A + 1})\n");

  CompiledUnitCache cache;
  MetricsRegistry metrics;
  CompilerOptions options;
  options.unit_cache = &cache;
  options.metrics = &metrics;
  auto counter = [&](const char* name) {
    return metrics.GetCounter(name)->value();
  };

  // The first session parses both modules.
  ASSERT_TRUE(
      ConfigCompiler(sources.AsReader(), options).Compile("e1.cconf").ok());
  uint64_t misses_after_first = counter("csl.unit_cache.misses");
  EXPECT_EQ(misses_after_first, 2u);
  EXPECT_EQ(counter("csl.unit_cache.hits"), 0u);

  // The second entry shares lib.cinc: only its own body misses.
  ASSERT_TRUE(
      ConfigCompiler(sources.AsReader(), options).Compile("e2.cconf").ok());
  EXPECT_EQ(counter("csl.unit_cache.misses"), 3u);
  EXPECT_EQ(counter("csl.unit_cache.hits"), 1u);

  // Editing the shared module invalidates: re-parse, results track the edit.
  sources.Put("lib.cinc", "A = 100\n");
  auto r3 = ConfigCompiler(sources.AsReader(), options).Compile("e1.cconf");
  ASSERT_TRUE(r3.ok()) << r3.status();
  EXPECT_EQ(counter("csl.unit_cache.misses"), misses_after_first + 2);
  EXPECT_EQ(counter("csl.unit_cache.hits"), 2u);
  EXPECT_EQ(r3->configs[0].content.Get("a")->as_int(), 100);
}

TEST(OutputMemoTest, ReplaysWholeEntryOnUnchangedReads) {
  InMemorySources sources;
  sources.Put("job.thrift",
              "struct Job {\n  1: string name;\n  2: i32 mem = 64;\n}\n");
  sources.Put("lib.cinc",
              "import_thrift(\"job.thrift\")\n"
              "def mk(name):\n"
              "    return Job(name=name)\n");
  sources.Put("entry.cconf",
              "import_python(\"lib.cinc\", \"*\")\n"
              "export_if_last(mk(\"a\"))\n");

  CompiledUnitCache cache;
  CompilerOptions options;
  options.unit_cache = &cache;
  ConfigCompiler compiler(sources.AsReader(), options);

  auto o1 = compiler.Compile("entry.cconf");
  ASSERT_TRUE(o1.ok()) << o1.status();
  EXPECT_EQ(cache.output_hits(), 0u);
  EXPECT_EQ(cache.output_misses(), 1u);

  // Nothing the compile read changed: the memoized output replays,
  // bit-identically.
  auto o2 = compiler.Compile("entry.cconf");
  ASSERT_TRUE(o2.ok()) << o2.status();
  EXPECT_EQ(cache.output_hits(), 1u);
  ASSERT_EQ(o1->configs.size(), o2->configs.size());
  EXPECT_EQ(o1->configs[0].path, o2->configs[0].path);
  EXPECT_EQ(o1->configs[0].content.DumpPretty(),
            o2->configs[0].content.DumpPretty());
  EXPECT_EQ(o1->dependencies, o2->dependencies);

  // An edit two hops from the entry (the schema's default) changes what a
  // read returns: the memo misses and the fresh output tracks the edit.
  sources.Put("job.thrift",
              "struct Job {\n  1: string name;\n  2: i32 mem = 256;\n}\n");
  auto o3 = compiler.Compile("entry.cconf");
  ASSERT_TRUE(o3.ok()) << o3.status();
  EXPECT_EQ(cache.output_misses(), 2u);
  EXPECT_EQ(o3->configs[0].content.Get("mem")->as_int(), 256);
}

TEST(OutputMemoTest, CachesDeterministicFailures) {
  InMemorySources sources;
  sources.Put("job.thrift", "struct Job {\n  1: string name;\n}\n");
  sources.Put("job.thrift-cvalidator",
              "def validate_Job(job):\n"
              "    return job.name != \"bad\"\n");
  sources.Put("entry.cconf",
              "import_thrift(\"job.thrift\")\n"
              "export_if_last(Job(name=\"bad\"))\n");

  CompiledUnitCache cache;
  CompilerOptions options;
  options.unit_cache = &cache;
  ConfigCompiler compiler(sources.AsReader(), options);

  auto e1 = compiler.Compile("entry.cconf");
  ASSERT_FALSE(e1.ok());
  auto e2 = compiler.Compile("entry.cconf");
  ASSERT_FALSE(e2.ok());
  EXPECT_EQ(e1.status(), e2.status());
  EXPECT_EQ(cache.output_hits(), 1u) << "failures replay from the memo too";

  // Fixing the validator's input un-caches: new bytes, new (passing) run.
  sources.Put("entry.cconf",
              "import_thrift(\"job.thrift\")\n"
              "export_if_last(Job(name=\"good\"))\n");
  auto ok = compiler.Compile("entry.cconf");
  EXPECT_TRUE(ok.ok()) << ok.status();
}

// A computed import path is read like a literal one, so the entry is
// memoized, and an edit to the computed target invalidates it.
TEST(OutputMemoTest, ComputedImportIsMemoizedAndTracksItsTarget) {
  InMemorySources sources;
  sources.Put("lib.cinc", "A = 7\n");
  sources.Put("entry.cconf",
              "p = \"lib\" + \".cinc\"\n"
              "import_python(p, \"*\")\n"
              "export_if_last({\"a\": A})\n");

  CompiledUnitCache cache;
  ConfigCompiler compiler(sources.AsReader(), CompilerOptions{&cache, nullptr});
  auto o1 = compiler.Compile("entry.cconf");
  ASSERT_TRUE(o1.ok()) << o1.status();
  EXPECT_EQ(o1->dependencies,
            (std::vector<std::string>{"entry.cconf", "lib.cinc"}));
  auto o2 = compiler.Compile("entry.cconf");
  ASSERT_TRUE(o2.ok()) << o2.status();
  EXPECT_EQ(cache.output_hits(), 1u);
  EXPECT_EQ(cache.output_misses(), 1u);
  EXPECT_EQ(o1->configs[0].content.DumpPretty(),
            o2->configs[0].content.DumpPretty());

  sources.Put("lib.cinc", "A = 8\n");
  auto o3 = compiler.Compile("entry.cconf");
  ASSERT_TRUE(o3.ok()) << o3.status();
  EXPECT_EQ(cache.output_misses(), 2u);
  EXPECT_EQ(o3->configs[0].content.Get("a")->as_int(), 8);
}

// An import inside a function nothing calls is never read, so an edit to
// its target keeps the hit, and the replay equals a fresh compile.
TEST(OutputMemoTest, ImportInUncalledFunctionKeepsTheHit) {
  InMemorySources sources;
  sources.Put("dep.cinc", "V = 1\n");
  sources.Put("entry.cconf",
              "def unused():\n"
              "    import_python(\"dep.cinc\", \"*\")\n"
              "    return V\n"
              "export_if_last({\"v\": 1})\n");

  CompiledUnitCache cache;
  ConfigCompiler compiler(sources.AsReader(), CompilerOptions{&cache, nullptr});
  auto o1 = compiler.Compile("entry.cconf");
  ASSERT_TRUE(o1.ok()) << o1.status();
  EXPECT_EQ(o1->dependencies, std::vector<std::string>{"entry.cconf"});

  sources.Put("dep.cinc", "V = 2\n");
  auto o2 = compiler.Compile("entry.cconf");
  ASSERT_TRUE(o2.ok()) << o2.status();
  EXPECT_EQ(cache.output_hits(), 1u);
  auto fresh = ConfigCompiler(sources.AsReader()).Compile("entry.cconf");
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(o2->configs[0].content.DumpPretty(),
            fresh->configs[0].content.DumpPretty());
  EXPECT_EQ(o2->dependencies, fresh->dependencies);
}

// A read that fails is recorded with its status, message included: a
// failure memoized under one reader's NotFound does not replay under a
// reader that fails the same path with another message (a path missing
// from the repository, then deleted by a proposal's overlay).
TEST(OutputMemoTest, FailureReplaysOnlyUnderTheSameReadError) {
  InMemorySources sources;
  sources.Put("entry.cconf",
              "import_python(\"lib.cinc\", \"*\")\n"
              "export_if_last({\"a\": A})\n");
  FileReader repo = sources.AsReader();
  FileReader overlay = [repo](const std::string& path) -> Result<std::string> {
    if (path == "lib.cinc") {
      return NotFoundError("deleted in diff: " + path);
    }
    return repo(path);
  };

  CompiledUnitCache cache;
  auto at_repo = ConfigCompiler(repo, CompilerOptions{&cache, nullptr})
                     .Compile("entry.cconf");
  ASSERT_FALSE(at_repo.ok());
  EXPECT_NE(at_repo.status().message().find("no such source file: lib.cinc"),
            std::string::npos)
      << at_repo.status();

  auto in_overlay = ConfigCompiler(overlay, CompilerOptions{&cache, nullptr})
                        .Compile("entry.cconf");
  ASSERT_FALSE(in_overlay.ok());
  EXPECT_EQ(cache.output_hits(), 0u);
  EXPECT_EQ(in_overlay.status(),
            ConfigCompiler(overlay).Compile("entry.cconf").status());
  EXPECT_NE(in_overlay.status().message().find("deleted in diff: lib.cinc"),
            std::string::npos)
      << in_overlay.status();

  // Under the first reader again, its own failure replays.
  auto again = ConfigCompiler(repo, CompilerOptions{&cache, nullptr})
                   .Compile("entry.cconf");
  EXPECT_EQ(again.status(), at_repo.status());
  EXPECT_EQ(cache.output_hits(), 1u);
}

}  // namespace
}  // namespace configerator
