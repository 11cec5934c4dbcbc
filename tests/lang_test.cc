#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>

#include "src/lang/builtins.h"
#include "src/lang/compiler.h"
#include "src/lang/interp.h"
#include "src/lang/lexer.h"
#include "src/util/rng.h"

namespace configerator {
namespace {

// Evaluates a CSL module and returns the resulting globals (no imports).
class LangTest : public ::testing::Test {
 protected:
  // Runs `source`; on success `globals_` holds the module bindings.
  Status Run(const std::string& source) {
    interp_ = std::make_unique<Interp>(registry_.get(), Interp::Hooks{});
    auto module = ParseCsl(source, "test.cconf");
    if (!module.ok()) {
      return module.status();
    }
    module_ = *module;  // Keep AST alive for closures.
    globals_ = interp_->NewEnvironment(interp_->MakeBaseEnvironment());
    return interp_->EvalModule(*module_, globals_, /*exports_enabled=*/true);
  }

  Value Get(const std::string& name) {
    Value* v = globals_->Find(name);
    EXPECT_NE(v, nullptr) << "undefined: " << name;
    return v == nullptr ? Value::Null() : *v;
  }

  std::unique_ptr<SchemaRegistry> registry_;
  std::unique_ptr<Interp> interp_;
  std::shared_ptr<Module> module_;
  std::shared_ptr<Environment> globals_;
};

// ---- Lexer ------------------------------------------------------------------

TEST(LexerTest, TokenizesBasics) {
  auto tokens = TokenizeCsl("x = 1 + 2.5\n", "t");
  ASSERT_TRUE(tokens.ok());
  ASSERT_GE(tokens->size(), 6u);
  EXPECT_EQ((*tokens)[0].kind, CslToken::Kind::kName);
  EXPECT_EQ((*tokens)[0].text, "x");
  EXPECT_TRUE((*tokens)[1].IsOp("="));
  EXPECT_EQ((*tokens)[2].kind, CslToken::Kind::kInt);
  EXPECT_TRUE((*tokens)[3].IsOp("+"));
  EXPECT_EQ((*tokens)[4].kind, CslToken::Kind::kFloat);
}

TEST(LexerTest, IndentDedent) {
  auto tokens = TokenizeCsl("if x:\n    y = 1\nz = 2\n", "t");
  ASSERT_TRUE(tokens.ok());
  int indents = 0;
  int dedents = 0;
  for (const CslToken& tok : *tokens) {
    if (tok.kind == CslToken::Kind::kIndent) {
      ++indents;
    }
    if (tok.kind == CslToken::Kind::kDedent) {
      ++dedents;
    }
  }
  EXPECT_EQ(indents, 1);
  EXPECT_EQ(dedents, 1);
}

TEST(LexerTest, BlankAndCommentLinesDontAffectIndentation) {
  auto tokens = TokenizeCsl("if x:\n    a = 1\n\n    # comment\n    b = 2\n", "t");
  ASSERT_TRUE(tokens.ok());
  int dedents = 0;
  for (const CslToken& tok : *tokens) {
    if (tok.kind == CslToken::Kind::kDedent) {
      ++dedents;
    }
  }
  EXPECT_EQ(dedents, 1);  // Only the final dedent at EOF.
}

TEST(LexerTest, ImplicitLineJoiningInBrackets) {
  auto tokens = TokenizeCsl("x = [1,\n     2,\n     3]\n", "t");
  ASSERT_TRUE(tokens.ok());
  int newlines = 0;
  for (const CslToken& tok : *tokens) {
    if (tok.kind == CslToken::Kind::kNewline) {
      ++newlines;
    }
  }
  EXPECT_EQ(newlines, 1);  // Only the final logical newline.
}

TEST(LexerTest, StringEscapes) {
  auto tokens = TokenizeCsl(R"(s = "a\nb\t\"c\"")"
                            "\n",
                            "t");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[2].text, "a\nb\t\"c\"");
}

TEST(LexerTest, TripleQuotedString) {
  auto tokens = TokenizeCsl("s = \"\"\"line1\nline2\"\"\"\n", "t");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[2].text, "line1\nline2");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(TokenizeCsl("s = \"oops\n", "t").ok());
}

TEST(LexerTest, InconsistentIndentationFails) {
  EXPECT_FALSE(TokenizeCsl("if x:\n    a = 1\n  b = 2\n", "t").ok());
}

// ---- Expressions ------------------------------------------------------------

TEST_F(LangTest, Arithmetic) {
  ASSERT_TRUE(Run("a = 2 + 3 * 4\n"
                  "b = (2 + 3) * 4\n"
                  "c = 7 / 2\n"
                  "d = 7 // 2\n"
                  "e = 7 % 3\n"
                  "f = -5 + 1\n"
                  "g = 2.5 * 2\n")
                  .ok());
  EXPECT_EQ(Get("a").as_int(), 14);
  EXPECT_EQ(Get("b").as_int(), 20);
  EXPECT_DOUBLE_EQ(Get("c").as_double(), 3.5);
  EXPECT_EQ(Get("d").as_int(), 3);
  EXPECT_EQ(Get("e").as_int(), 1);
  EXPECT_EQ(Get("f").as_int(), -4);
  EXPECT_DOUBLE_EQ(Get("g").as_double(), 5.0);
}

TEST_F(LangTest, PythonFloorDivAndModSemantics) {
  ASSERT_TRUE(Run("a = -7 // 2\nb = -7 % 2\nc = 7 % -2\n").ok());
  EXPECT_EQ(Get("a").as_int(), -4);
  EXPECT_EQ(Get("b").as_int(), 1);
  EXPECT_EQ(Get("c").as_int(), -1);
}

TEST_F(LangTest, DivisionByZeroFails) {
  EXPECT_FALSE(Run("a = 1 / 0\n").ok());
  EXPECT_FALSE(Run("a = 1 % 0\n").ok());
}

TEST_F(LangTest, StringOperations) {
  ASSERT_TRUE(Run("a = \"foo\" + \"bar\"\n"
                  "b = \"ab\" * 3\n"
                  "c = \"ll\" in \"hello\"\n"
                  "d = \"hello\"[1]\n"
                  "e = \"hello\"[-1]\n")
                  .ok());
  EXPECT_EQ(Get("a").as_string(), "foobar");
  EXPECT_EQ(Get("b").as_string(), "ababab");
  EXPECT_TRUE(Get("c").as_bool());
  EXPECT_EQ(Get("d").as_string(), "e");
  EXPECT_EQ(Get("e").as_string(), "o");
}

TEST_F(LangTest, Comparisons) {
  ASSERT_TRUE(Run("a = 1 < 2\n"
                  "b = 2 <= 2\n"
                  "c = \"a\" < \"b\"\n"
                  "d = 1 == 1.0\n"
                  "e = [1, 2] == [1, 2]\n"
                  "f = {\"x\": 1} == {\"x\": 1}\n"
                  "g = 3 != 4\n")
                  .ok());
  for (const char* name : {"a", "b", "c", "d", "e", "f", "g"}) {
    EXPECT_TRUE(Get(name).as_bool()) << name;
  }
}

TEST_F(LangTest, LogicalOperatorsShortCircuit) {
  // `or` returns the deciding operand; the divide-by-zero never evaluates.
  ASSERT_TRUE(Run("a = True or (1 / 0)\n"
                  "b = False and (1 / 0)\n"
                  "c = not False\n"
                  "d = 0 or \"fallback\"\n")
                  .ok());
  EXPECT_TRUE(Get("a").as_bool());
  EXPECT_FALSE(Get("b").as_bool());
  EXPECT_TRUE(Get("c").as_bool());
  EXPECT_EQ(Get("d").as_string(), "fallback");
}

TEST_F(LangTest, TernaryExpression) {
  ASSERT_TRUE(Run("a = \"big\" if 10 > 5 else \"small\"\n"
                  "b = \"big\" if 1 > 5 else \"small\"\n")
                  .ok());
  EXPECT_EQ(Get("a").as_string(), "big");
  EXPECT_EQ(Get("b").as_string(), "small");
}

TEST_F(LangTest, InOperator) {
  ASSERT_TRUE(Run("a = 2 in [1, 2, 3]\n"
                  "b = \"k\" in {\"k\": 1}\n"
                  "c = 5 not in [1, 2]\n")
                  .ok());
  EXPECT_TRUE(Get("a").as_bool());
  EXPECT_TRUE(Get("b").as_bool());
  EXPECT_TRUE(Get("c").as_bool());
}

TEST_F(LangTest, ListsAndDicts) {
  ASSERT_TRUE(Run("l = [1, 2, 3]\n"
                  "l[1] = 20\n"
                  "d = {\"a\": 1}\n"
                  "d[\"b\"] = 2\n"
                  "x = l[1] + d[\"b\"]\n"
                  "n = len(l) + len(d)\n")
                  .ok());
  EXPECT_EQ(Get("x").as_int(), 22);
  EXPECT_EQ(Get("n").as_int(), 5);
}

TEST_F(LangTest, ReferenceSemanticsForContainers) {
  ASSERT_TRUE(Run("a = {\"x\": 1}\n"
                  "b = a\n"
                  "b[\"x\"] = 99\n"
                  "v = a[\"x\"]\n")
                  .ok());
  EXPECT_EQ(Get("v").as_int(), 99);
}

TEST_F(LangTest, AttributeAccessOnDicts) {
  ASSERT_TRUE(Run("cfg = {\"port\": 8089}\n"
                  "p = cfg.port\n"
                  "cfg.port = 9090\n"
                  "q = cfg[\"port\"]\n")
                  .ok());
  EXPECT_EQ(Get("p").as_int(), 8089);
  EXPECT_EQ(Get("q").as_int(), 9090);
}

TEST_F(LangTest, IndexOutOfRangeFails) {
  EXPECT_FALSE(Run("a = [1][5]\n").ok());
  EXPECT_FALSE(Run("a = {\"x\": 1}[\"y\"]\n").ok());
}

TEST_F(LangTest, UndefinedNameFails) {
  Status s = Run("a = nosuchname\n");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("nosuchname"), std::string::npos);
}

TEST_F(LangTest, RuntimeErrorsCarryOriginAndLine) {
  EXPECT_EQ(Run("x = 1\ny = x + \"s\"\n").message(),
            "test.cconf:2: cannot add int and string");
  EXPECT_EQ(Run("v = [1, 2]\nz = v[5]\n").message(),
            "test.cconf:2: list index out of range");
  EXPECT_EQ(Run("assert 1 == 2, \"boom\"\n").message(), "test.cconf:1: boom");
  EXPECT_EQ(Run("nope()\n").message(), "test.cconf:1: undefined name 'nope'");
  EXPECT_EQ(Run("x = 3\nx(1)\n").message(),
            "test.cconf:2: value of type int is not callable");
}

// ---- Statements -------------------------------------------------------------

TEST_F(LangTest, IfElifElse) {
  ASSERT_TRUE(Run("x = 7\n"
                  "if x > 10:\n"
                  "    r = \"big\"\n"
                  "elif x > 5:\n"
                  "    r = \"medium\"\n"
                  "else:\n"
                  "    r = \"small\"\n")
                  .ok());
  EXPECT_EQ(Get("r").as_string(), "medium");
}

TEST_F(LangTest, ForLoopOverList) {
  ASSERT_TRUE(Run("total = 0\n"
                  "for x in [1, 2, 3, 4]:\n"
                  "    total = total + x\n")
                  .ok());
  EXPECT_EQ(Get("total").as_int(), 10);
}

TEST_F(LangTest, ForLoopOverRangeWithBreakContinue) {
  ASSERT_TRUE(Run("total = 0\n"
                  "for i in range(10):\n"
                  "    if i == 3:\n"
                  "        continue\n"
                  "    if i == 6:\n"
                  "        break\n"
                  "    total = total + i\n")
                  .ok());
  EXPECT_EQ(Get("total").as_int(), 0 + 1 + 2 + 4 + 5);
}

TEST_F(LangTest, ForLoopUnpacking) {
  ASSERT_TRUE(Run("acc = \"\"\n"
                  "for k, v in items({\"a\": 1, \"b\": 2}):\n"
                  "    acc = acc + k + str(v)\n")
                  .ok());
  EXPECT_EQ(Get("acc").as_string(), "a1b2");
}

TEST_F(LangTest, ForLoopOverDictYieldsKeys) {
  ASSERT_TRUE(Run("acc = \"\"\n"
                  "for k in {\"b\": 1, \"a\": 2}:\n"
                  "    acc = acc + k\n")
                  .ok());
  EXPECT_EQ(Get("acc").as_string(), "ab");  // Sorted (deterministic).
}

TEST_F(LangTest, WhileLoop) {
  ASSERT_TRUE(Run("n = 0\n"
                  "while n < 5:\n"
                  "    n = n + 1\n")
                  .ok());
  EXPECT_EQ(Get("n").as_int(), 5);
}

TEST_F(LangTest, InfiniteLoopHitsStepLimit) {
  interp_ = std::make_unique<Interp>(nullptr, Interp::Hooks{});
  auto module = ParseCsl("while True:\n    pass\n", "t");
  ASSERT_TRUE(module.ok());
  interp_->set_step_limit(10'000);
  auto globals = interp_->NewEnvironment(interp_->MakeBaseEnvironment());
  Status s = interp_->EvalModule(**module, globals, false);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("step limit"), std::string::npos);
}

TEST_F(LangTest, AugmentedAssignment) {
  ASSERT_TRUE(Run("x = 10\n"
                  "x += 5\n"
                  "x -= 3\n"
                  "x *= 2\n"
                  "d = {\"n\": 1}\n"
                  "d[\"n\"] += 10\n")
                  .ok());
  EXPECT_EQ(Get("x").as_int(), 24);
  EXPECT_EQ(Get("d").as_dict().at("n").as_int(), 11);
}

TEST_F(LangTest, AssertPassesAndFails) {
  EXPECT_TRUE(Run("assert 1 < 2, \"math works\"\n").ok());
  Status s = Run("assert 2 < 1, \"custom failure message\"\n");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("custom failure message"), std::string::npos);
}

// ---- Functions --------------------------------------------------------------

TEST_F(LangTest, FunctionDefinitionAndCall) {
  ASSERT_TRUE(Run("def add(a, b):\n"
                  "    return a + b\n"
                  "r = add(2, 3)\n")
                  .ok());
  EXPECT_EQ(Get("r").as_int(), 5);
}

TEST_F(LangTest, KeywordArgumentsAndDefaults) {
  ASSERT_TRUE(Run("def make(name, size=10, tag=\"x\"):\n"
                  "    return {\"name\": name, \"size\": size, \"tag\": tag}\n"
                  "a = make(\"cache\")\n"
                  "b = make(\"db\", tag=\"y\")\n"
                  "c = make(size=1, name=\"q\")\n")
                  .ok());
  EXPECT_EQ(Get("a").as_dict().at("size").as_int(), 10);
  EXPECT_EQ(Get("b").as_dict().at("tag").as_string(), "y");
  EXPECT_EQ(Get("c").as_dict().at("size").as_int(), 1);
}

TEST_F(LangTest, MissingArgumentFails) {
  Status s = Run("def f(a):\n    return a\nr = f()\n");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("missing required argument"), std::string::npos);
}

TEST_F(LangTest, UnknownKeywordFails) {
  Status s = Run("def f(a):\n    return a\nr = f(a=1, b=2)\n");
  EXPECT_FALSE(s.ok());
}

TEST_F(LangTest, DuplicateBindingFails) {
  Status s = Run("def f(a):\n    return a\nr = f(1, a=2)\n");
  EXPECT_FALSE(s.ok());
}

TEST_F(LangTest, DuplicateKeywordArgumentRejectedAtParse) {
  Status s = Run("def f(a, b=1):\n    return a\nr = f(a=1, a=2)\n");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("duplicate keyword"), std::string::npos);
}

TEST_F(LangTest, NestedAttributeAssignment) {
  ASSERT_TRUE(Run("cfg = {\"outer\": {\"inner\": {\"v\": 1}}}\n"
                  "cfg.outer.inner.v = 42\n"
                  "r = cfg[\"outer\"][\"inner\"][\"v\"]\n")
                  .ok());
  EXPECT_EQ(Get("r").as_int(), 42);
}

TEST_F(LangTest, ClosuresCaptureEnvironment) {
  ASSERT_TRUE(Run("base = 100\n"
                  "def adder(x):\n"
                  "    return base + x\n"
                  "r = adder(5)\n")
                  .ok());
  EXPECT_EQ(Get("r").as_int(), 105);
}

TEST_F(LangTest, RecursionWorksAndIsBounded) {
  ASSERT_TRUE(Run("def fact(n):\n"
                  "    if n <= 1:\n"
                  "        return 1\n"
                  "    return n * fact(n - 1)\n"
                  "r = fact(10)\n")
                  .ok());
  EXPECT_EQ(Get("r").as_int(), 3628800);

  Status s = Run("def loop(n):\n    return loop(n + 1)\nr = loop(0)\n");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("recursion"), std::string::npos);
}

TEST_F(LangTest, ReturnWithoutValueGivesNone) {
  ASSERT_TRUE(Run("def f():\n    return\nr = f()\n").ok());
  EXPECT_TRUE(Get("r").is_null());
}

TEST_F(LangTest, FunctionsAreValues) {
  ASSERT_TRUE(Run("def double(x):\n"
                  "    return x * 2\n"
                  "def apply(f, v):\n"
                  "    return f(v)\n"
                  "r = apply(double, 21)\n")
                  .ok());
  EXPECT_EQ(Get("r").as_int(), 42);
}

// ---- Builtins ---------------------------------------------------------------

TEST_F(LangTest, BuiltinConversions) {
  ASSERT_TRUE(Run("a = int(\"42\")\n"
                  "b = float(\"2.5\")\n"
                  "c = str(7)\n"
                  "d = int(3.9)\n"
                  "e = abs(-4)\n")
                  .ok());
  EXPECT_EQ(Get("a").as_int(), 42);
  EXPECT_DOUBLE_EQ(Get("b").as_double(), 2.5);
  EXPECT_EQ(Get("c").as_string(), "7");
  EXPECT_EQ(Get("d").as_int(), 3);
  EXPECT_EQ(Get("e").as_int(), 4);
}

TEST_F(LangTest, BuiltinIntRejectsGarbage) {
  EXPECT_FALSE(Run("a = int(\"4x\")\n").ok());
}

TEST_F(LangTest, BuiltinCollections) {
  ASSERT_TRUE(Run("l = [3, 1, 2]\n"
                  "s = sorted(l)\n"
                  "mn = min(l)\n"
                  "mx = max(1, 9, 4)\n"
                  "append(l, 10)\n"
                  "extend(l, [11, 12])\n"
                  "n = len(l)\n"
                  "ks = keys({\"b\": 1, \"a\": 2})\n"
                  "vs = values({\"b\": 1, \"a\": 2})\n"
                  "g1 = get({\"a\": 5}, \"a\")\n"
                  "g2 = get({\"a\": 5}, \"z\", -1)\n"
                  "hk = has_key({\"a\": 5}, \"a\")\n")
                  .ok());
  EXPECT_EQ(Get("s").as_list()[0].as_int(), 1);
  EXPECT_EQ(Get("mn").as_int(), 1);
  EXPECT_EQ(Get("mx").as_int(), 9);
  EXPECT_EQ(Get("n").as_int(), 6);
  EXPECT_EQ(Get("ks").as_list()[0].as_string(), "a");
  EXPECT_EQ(Get("vs").as_list()[0].as_int(), 2);
  EXPECT_EQ(Get("g1").as_int(), 5);
  EXPECT_EQ(Get("g2").as_int(), -1);
  EXPECT_TRUE(Get("hk").as_bool());
}

TEST_F(LangTest, BuiltinStringHelpers) {
  ASSERT_TRUE(Run("j = join(\",\", [\"a\", \"b\"])\n"
                  "sp = split(\"a-b-c\", \"-\")\n"
                  "f = format(\"{} has {} cores\", \"host\", 8)\n")
                  .ok());
  EXPECT_EQ(Get("j").as_string(), "a,b");
  EXPECT_EQ(Get("sp").as_list().size(), 3u);
  EXPECT_EQ(Get("f").as_string(), "host has 8 cores");
}

TEST_F(LangTest, BuiltinFail) {
  Status s = Run("fail(\"deliberate\")\n");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("deliberate"), std::string::npos);
}

TEST_F(LangTest, StringBuiltins) {
  ASSERT_TRUE(Run("a = startswith(\"feed/cache.json\", \"feed/\")\n"
                  "b = endswith(\"cache.json\", \".json\")\n"
                  "c = upper(\"abc\")\n"
                  "d = lower(\"AbC\")\n"
                  "e = strip(\"  x \")\n"
                  "f = replace(\"a-b-c\", \"-\", \"/\")\n")
                  .ok());
  EXPECT_TRUE(Get("a").as_bool());
  EXPECT_TRUE(Get("b").as_bool());
  EXPECT_EQ(Get("c").as_string(), "ABC");
  EXPECT_EQ(Get("d").as_string(), "abc");
  EXPECT_EQ(Get("e").as_string(), "x");
  EXPECT_EQ(Get("f").as_string(), "a/b/c");
}

TEST_F(LangTest, StringBuiltinsRejectBadArgs) {
  EXPECT_FALSE(Run("x = startswith(1, \"a\")\n").ok());
  EXPECT_FALSE(Run("x = replace(\"s\", \"\", \"y\")\n").ok());
  EXPECT_FALSE(Run("x = upper(3)\n").ok());
}

TEST_F(LangTest, MergeDeepMergesDicts) {
  ASSERT_TRUE(Run("base = {\"a\": 1, \"nested\": {\"x\": 1, \"y\": 2},"
                  " \"list\": [1, 2]}\n"
                  "child = merge(base, {\"b\": 9, \"nested\": {\"y\": 20},"
                  " \"list\": [3]})\n")
                  .ok());
  const Value::Dict& child = Get("child").as_dict();
  EXPECT_EQ(child.at("a").as_int(), 1);                       // Inherited.
  EXPECT_EQ(child.at("b").as_int(), 9);                       // Added.
  EXPECT_EQ(child.at("nested").as_dict().at("x").as_int(), 1);  // Kept.
  EXPECT_EQ(child.at("nested").as_dict().at("y").as_int(), 20);  // Overridden.
  EXPECT_EQ(child.at("list").as_list().size(), 1u);  // Lists replaced whole.
}

TEST_F(LangTest, MergeDoesNotMutateBase) {
  ASSERT_TRUE(Run("base = {\"a\": 1}\n"
                  "child = merge(base, {\"a\": 2})\n"
                  "orig = base[\"a\"]\n")
                  .ok());
  EXPECT_EQ(Get("orig").as_int(), 1);
  EXPECT_EQ(Get("child").as_dict().at("a").as_int(), 2);
}

TEST_F(LangTest, MergeRequiresDicts) {
  EXPECT_FALSE(Run("x = merge({\"a\": 1}, [1])\n").ok());
  EXPECT_FALSE(Run("x = merge(1, {\"a\": 1})\n").ok());
}

TEST_F(LangTest, RangeVariants) {
  ASSERT_TRUE(Run("a = range(3)\n"
                  "b = range(2, 5)\n"
                  "c = range(10, 0, -3)\n")
                  .ok());
  EXPECT_EQ(Get("a").as_list().size(), 3u);
  EXPECT_EQ(Get("b").as_list()[0].as_int(), 2);
  EXPECT_EQ(Get("c").as_list().size(), 4u);  // 10, 7, 4, 1.
}

// ---- Schema constructors ----------------------------------------------------

class LangSchemaTest : public LangTest {
 protected:
  void SetUp() override {
    registry_ = std::make_unique<SchemaRegistry>();
    ASSERT_TRUE(registry_
                    ->Load("job.thrift",
                           [](const std::string&) -> Result<std::string> {
                             return std::string(
                                 "enum Level { LOW = 0, HIGH = 5 }\n"
                                 "struct Job { 1: required string name; "
                                 "2: optional i32 cpu = 1; "
                                 "3: optional Level level; }");
                           })
                    .ok());
  }
};

TEST_F(LangSchemaTest, ConstructorBuildsTypedValue) {
  ASSERT_TRUE(Run("j = Job(name=\"cache\", cpu=4)\n"
                  "n = j.name\n")
                  .ok());
  EXPECT_EQ(Get("j").type_name(), "Job");
  EXPECT_EQ(Get("n").as_string(), "cache");
}

TEST_F(LangSchemaTest, ConstructorRejectsUnknownField) {
  Status s = Run("j = Job(nmae=\"typo\")\n");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("nmae"), std::string::npos);
}

TEST_F(LangSchemaTest, ConstructorRejectsPositionalArgs) {
  EXPECT_FALSE(Run("j = Job(\"cache\")\n").ok());
}

TEST_F(LangSchemaTest, EnumNamespace) {
  ASSERT_TRUE(Run("v = Level.HIGH\n").ok());
  EXPECT_EQ(Get("v").as_int(), 5);
}

TEST_F(LangSchemaTest, EnumUnknownValueFails) {
  EXPECT_FALSE(Run("v = Level.MEDIUM\n").ok());
}

// ---- Robustness: random inputs never crash the front end ----------------------

class LangFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LangFuzzTest, RandomTokenSoupNeverCrashes) {
  Rng rng(GetParam());
  const char* fragments[] = {
      "def ",   "return ", "if ",  "else:",  "for ",  "in ",    "while ",
      "x",      "y",       "f",    "(",      ")",     "[",      "]",
      "{",      "}",       ":",    ",",      "=",     "==",     "+",
      "-",      "*",       "/",    "\"s\"",  "42",    "3.5",    "True",
      "None",   "not ",    "and ", "or ",    "\n",    "    ",   "assert ",
      "import_python", "export_if_last", ".", "%",    "//",     "<=",
  };
  for (int round = 0; round < 200; ++round) {
    std::string source;
    size_t n = 1 + rng.NextBounded(40);
    for (size_t i = 0; i < n; ++i) {
      source += fragments[rng.NextBounded(std::size(fragments))];
    }
    source += "\n";
    // Must not crash; errors are fine. If it parses, evaluation (with a
    // tight step budget) must not crash either.
    auto module = ParseCsl(source, "fuzz");
    if (!module.ok()) {
      continue;
    }
    Interp interp(nullptr, Interp::Hooks{});
    interp.set_step_limit(50'000);
    auto globals = interp.NewEnvironment(interp.MakeBaseEnvironment());
    (void)interp.EvalModule(**module, globals, false);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LangFuzzTest, ::testing::Values(1, 2, 3, 4, 5));

// ---- Robustness: nesting depth is capped ------------------------------------

std::string Repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    out += s;
  }
  return out;
}

TEST(LangDepthTest, DeepNestingIsAParseErrorNotACrash) {
  std::string nested_blocks;
  for (int i = 0; i < kMaxCslAstDepth + 10; ++i) {
    nested_blocks += std::string(i, ' ') + "if 1:\n";
  }
  nested_blocks += std::string(kMaxCslAstDepth + 10, ' ') + "pass\n";
  const std::string cases[] = {
      "x = " + Repeat("[", 10'000) + "\n",
      "x = " + Repeat("(", 10'000) + "1" + Repeat(")", 10'000) + "\n",
      "x = 1" + Repeat("+1", 20'000) + "\n",
      "x = 1" + Repeat("+1", 100'000) + "\n",
      "x = 1" + Repeat(" * 2 - 1", 5'000) + "\n",
      "x = 1" + Repeat(" and 1", 5'000) + "\n",
      "x = " + Repeat("-", 10'000) + "1\n",
      "x = " + Repeat("not ", 10'000) + "1\n",
      "x = y" + Repeat(".a", 10'000) + "\n",
      "x = y" + Repeat("[0]", 10'000) + "\n",
      "x = f" + Repeat("()", 10'000) + "\n",
      "x = " + Repeat("1 if 1 else ", 10'000) + "1\n",
      "x = " + Repeat("{\"k\": ", 10'000) + "1" + Repeat("}", 10'000) + "\n",
      "x = " + Repeat("f(", 10'000) + "1" + Repeat(")", 10'000) + "\n",
      "if 0:\n    pass\n" + Repeat("elif 0:\n    pass\n", 10'000),
      nested_blocks,
  };
  for (const std::string& source : cases) {
    auto module = ParseCsl(source, "deep.cconf");
    ASSERT_FALSE(module.ok()) << source.substr(0, 40);
    EXPECT_NE(module.status().message().find("nesting deeper than"),
              std::string::npos)
        << module.status();
  }
}

TEST(LangDepthTest, ProgramsUnderTheCapParseAndRun) {
  const int depth = kMaxCslAstDepth - 10;
  ASSERT_TRUE(ParseCsl("x = " + Repeat("[", depth) + Repeat("]", depth) +
                           "\n",
                       "ok.cconf")
                  .ok());
  auto module = ParseCsl("x = 0" + Repeat(" + 1", depth) + "\n", "ok.cconf");
  ASSERT_TRUE(module.ok()) << module.status();
  Interp interp(nullptr, Interp::Hooks{});
  auto globals = interp.NewEnvironment(interp.MakeBaseEnvironment());
  ASSERT_TRUE(interp.EvalModule(**module, globals, false).ok());
  EXPECT_EQ(globals->Find("x")->as_int(), depth);
}

// Each tree is under the cap, but recursion stacks one evaluation on
// another: the interpreter bounds that nesting itself.
TEST_F(LangTest, RecursionThroughDeepExpressionsIsAnErrorNotACrash) {
  Status s = Run("def f(n):\n"
                 "    if n == 0:\n"
                 "        return 0\n"
                 "    return f(n - 1)" + Repeat(" + 1", 240) + "\n"
                 "r = f(190)\n");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("evaluation nested too deeply"),
            std::string::npos);
}

// ---- Value model ------------------------------------------------------------

TEST(ValueTest, Truthiness) {
  ValueArena arena;
  EXPECT_FALSE(Value::Null().Truthy());
  EXPECT_FALSE(Value::Bool(false).Truthy());
  EXPECT_FALSE(Value::Int(0).Truthy());
  EXPECT_FALSE(Value::Str("").Truthy());
  EXPECT_FALSE(arena.MakeList()->Truthy());
  EXPECT_FALSE(arena.MakeDict()->Truthy());
  EXPECT_TRUE(Value::Bool(true).Truthy());
  EXPECT_TRUE(Value::Int(-1).Truthy());
  EXPECT_TRUE(Value::Str("x").Truthy());
}

TEST(ValueTest, JsonRoundTrip) {
  auto json = Json::Parse(R"({"a": [1, 2.5, "x", true, null], "b": {"c": 1}})");
  ASSERT_TRUE(json.ok());
  ValueArena arena;
  auto value = Value::FromJson(*json, arena);
  ASSERT_TRUE(value.ok());
  auto back = value->ToJson();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*json, *back);
}

TEST(ValueTest, SelfReferentialContainersAreSafe) {
  // The language allows `d["self"] = d`; export must fail cleanly (not
  // recurse forever), debug rendering must truncate, and self-comparison
  // must terminate. The cycles are left in place: the arena frees them.
  ValueArena arena;
  Value d = *arena.MakeDict();
  d.as_dict()["self"] = d;
  auto json = d.ToJson();
  ASSERT_FALSE(json.ok());
  EXPECT_NE(json.status().message().find("depth limit"), std::string::npos);
  EXPECT_FALSE(d.ToDebugString().empty());
  EXPECT_TRUE(d.Equals(d).value_or(false));

  Value l = *arena.MakeList();
  l.as_list().push_back(l);
  EXPECT_FALSE(l.ToJson().ok());
  EXPECT_TRUE(l.Equals(l).value_or(false));
}

TEST(ValueTest, FunctionsDontSerialize) {
  Value fn = Value::MakeNative("f", [](ValueArena&, std::vector<Value>&,
                                       std::map<std::string, Value>&)
                                   -> Result<Value> { return Value::Null(); });
  EXPECT_FALSE(fn.ToJson().ok());
}

TEST(ValueTest, DebugStrings) {
  ValueArena arena;
  EXPECT_EQ(Value::Int(3).ToDebugString(), "3");
  EXPECT_EQ(Value::Bool(true).ToDebugString(), "True");
  EXPECT_EQ(Value::Null().ToDebugString(), "None");
  EXPECT_EQ(arena.MakeList({Value::Int(1)})->ToDebugString(), "[1]");
}

// ---- Robustness: what a config builds and walks is bounded ------------------

// A config program and what compiling it must give: an error naming the
// limit it hits, or (with an empty `error`) a successful compile exporting
// `json`, when given.
struct BoundSeed {
  std::string name;
  std::string source;
  std::string error;
  std::string json;
};

std::string Rounds(const std::string& stmt, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    out += stmt + "\n";
  }
  return out;
}

std::vector<BoundSeed> BoundSeeds() {
  const std::string int64_min = "x = -9223372036854775807 - 1\n";
  const std::string shared_28 = "x = [1]\n" + Rounds("x = [x, x]", 28);
  std::string format_call = "s = \"a\" * 50000000\nt = format(\"" +
                            Repeat("{}", 45) + "\"" + Repeat(", s", 45) +
                            ")\n";
  // Each of these crashed, aborted, hung or returned a wrong value before
  // values lived in a bounded arena and every walk was bounded.
  std::vector<BoundSeed> seeds = {
      {"deep_list",
       "x = []\nfor i in range(200000):\n    x = [x]\n"
       "export_if_last({\"x\": x})\n",
       "depth limit", ""},
      {"deep_dict",
       "x = {}\nfor i in range(200000):\n    x = {\"k\": x}\n"
       "export_if_last({\"x\": x})\n",
       "depth limit", ""},
      {"self_lists_equal",
       "a = []\nappend(a, a)\nb = []\nappend(b, b)\nc = a == b\n",
       "depth limit", ""},
      {"self_lists_in",
       "a = []\nappend(a, a)\nb = []\nappend(b, b)\nc = b in a\n",
       "depth limit", ""},
      {"self_dict_merge", "d = {}\nd[\"k\"] = d\nm = merge(d, d)\n",
       "depth limit", ""},
      {"deep_dict_merge",
       "x = {}\nfor i in range(100000):\n    x = {\"k\": x}\nm = merge(x, x)\n",
       "depth limit", ""},
      {"shared_export", shared_28 + "export_if_last({\"a\": x})\n",
       "node", ""},
      {"shared_str",
       shared_28 + "s = str(x)\nexport_if_last({\"long\": len(s) > 1000000})\n",
       "", R"({"long": true})"},
      {"shared_equal",
       "x = [1]\ny = [1]\n" + Rounds("x = [x, x]\ny = [y, y]", 40) +
           "c = x == y\n",
       "node", ""},
      {"floordiv_min", int64_min + "y = x // -1\n", "integer overflow", ""},
      {"mod_min", int64_min + "export_if_last({\"y\": x % -1})\n", "",
       R"({"y": 0})"},
      {"add_overflow", "x = 9223372036854775807 + 1\n", "integer overflow",
       ""},
      {"mul_overflow", "x = 4294967296 * 4294967296\n", "integer overflow",
       ""},
      {"neg_overflow", int64_min + "y = -x\n", "integer overflow", ""},
      {"abs_overflow", int64_min + "y = abs(x)\n", "integer overflow", ""},
      {"int_overflow", "x = int(1e30)\n", "integer overflow", ""},
      {"literal_overflow", "x = 99999999999999999999\n", "int64 range", ""},
      {"range_near_max",
       "export_if_last({\"r\": range(9223372036854775800, "
       "9223372036854775807, 5)})\n",
       "", R"({"r": [9223372036854775800, 9223372036854775805]})"},
      {"list_doubling", "x = [1]\n" + Rounds("x = x + x", 40),
       "memory budget", ""},
      {"huge_range", "r = range(300000000)\n", "memory budget", ""},
      {"extend_doubling", "x = [1]\n" + Rounds("extend(x, x)", 40),
       "memory budget", ""},
      {"dict_big_keys",
       "s = \"a\" * 1000000\nd = {}\nfor i in range(3000):\n"
       "    d[s + str(i)] = i\n",
       "memory budget", ""},
      {"string_repeat", "s = \"a\" * 3000000000\n", "string length limit",
       ""},
      {"string_doubling", "s = \"a\"\n" + Rounds("s = s + s", 40),
       "string length limit", ""},
      {"empty_repeat",
       "export_if_last({\"s\": \"\" * 9223372036854775807})\n", "",
       R"({"s": ""})"},
      {"string_join",
       "s = \"a\" * 1000000\nl = []\nfor i in range(3000):\n    append(l, s)\n"
       "t = join(\",\", l)\n",
       "string length limit", ""},
      {"string_replace", "s = \"a\" * 1000000\nt = replace(s, \"a\", s)\n",
       "string length limit", ""},
      {"string_format", format_call, "string length limit", ""},
      // Appended to the list it was reading (a use-after-free under ASan).
      {"extend_self",
       "l = [1, 2, 3]\nextend(l, l)\nexport_if_last({\"l\": l})\n", "",
       R"({"l": [1, 2, 3, 1, 2, 3]})"},
      // These must keep compiling. A concatenation loop keeps every
      // intermediate list until the compile ends; 2,000 rounds stay well
      // inside the budget.
      {"concat_loop",
       "x = []\nfor i in range(2000):\n    x += [i]\n"
       "export_if_last({\"n\": len(x)})\n",
       "", R"({"n": 2000})"},
      {"append_loop",
       "x = []\nfor i in range(1000000):\n    append(x, i)\n"
       "export_if_last({\"n\": len(x)})\n",
       "", R"({"n": 1000000})"},
  };
  for (BoundSeed& seed : seeds) {
    // A program that should fail before its end still exports there, so a
    // missing error cannot pass as a compile with no output.
    if (seed.source.find("export_if_last") == std::string::npos) {
      seed.source += "export_if_last({\"ok\": True})\n";
    }
  }
  return seeds;
}

// "OK <json>" or "ERR <status>" for compiling `source` as one entry.
std::string CompileOutcome(const std::string& source) {
  InMemorySources sources;
  sources.Put("seed.cconf", source);
  ConfigCompiler compiler(sources.AsReader());
  auto output = compiler.Compile("seed.cconf");
  if (!output.ok()) {
    return "ERR " + output.status().ToString();
  }
  return "OK " + output->configs[0].content.Dump();
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

// Compiles `source` in a forked child under a 2 GiB address-space limit and
// a 10 s alarm, so a regression fails this test instead of exhausting the
// host. Returns the child's outcome, or why it died.
std::string CompileOutcomeInChild(const std::string& source) {
  int fds[2];
  if (pipe(fds) != 0) {
    return "pipe failed";
  }
  pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    rlimit limit{rlim_t{2} << 30, rlim_t{2} << 30};
    setrlimit(RLIMIT_AS, &limit);
    alarm(10);
    std::string outcome;
    try {
      outcome = CompileOutcome(source);
    } catch (const std::exception& e) {  // std::bad_alloc past the limit.
      outcome = std::string("exception: ") + e.what();
    }
    for (size_t done = 0; done < outcome.size();) {
      ssize_t n = write(fds[1], outcome.data() + done, outcome.size() - done);
      if (n <= 0) {
        _exit(1);
      }
      done += static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string outcome;
  char buf[4096];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    outcome.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  if (WIFSIGNALED(wstatus)) {
    return "killed by signal " + std::to_string(WTERMSIG(wstatus));
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return "child failed";
  }
  return outcome;
}

TEST(LangBoundsTest, SeedsReturnAStatusNamingTheirLimit) {
  for (const BoundSeed& seed : BoundSeeds()) {
    auto start = std::chrono::steady_clock::now();
    std::string outcome = kSanitized ? CompileOutcome(seed.source)
                                     : CompileOutcomeInChild(seed.source);
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    if (seed.error.empty()) {
      ASSERT_TRUE(outcome.starts_with("OK ")) << seed.name << ": " << outcome;
      if (!seed.json.empty()) {
        EXPECT_EQ(outcome.substr(3), seed.json) << seed.name;
      }
    } else {
      EXPECT_TRUE(outcome.starts_with("ERR INVALID_CONFIG") ||
                  outcome.starts_with("ERR INVALID_ARGUMENT"))
          << seed.name << ": " << outcome;
      EXPECT_NE(outcome.find(seed.error), std::string::npos)
          << seed.name << ": " << outcome;
    }
    if (!kSanitized) {
      EXPECT_LT(seconds, 10.0) << seed.name;
    }
  }
}
}  // namespace
}  // namespace configerator
