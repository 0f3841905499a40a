// Unit tests for the fdlsp-lint rule engine (analysis/lint.h): every rule
// fires on a fixture snippet, every allow() directive suppresses it, and the
// sanitizer strips the places banned tokens may legitimately appear.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "analysis/project.h"

namespace fdlsp {
namespace {

// Synthetic paths: lint_source never touches the filesystem, so fixtures can
// pretend to live anywhere in the tree.
constexpr const char* kDetPath = "src/algos/fixture.cpp";
constexpr const char* kFreePath = "src/exp/fixture.cpp";

std::vector<std::string> rules_fired(const std::vector<LintDiagnostic>& ds) {
  std::vector<std::string> rules;
  rules.reserve(ds.size());
  for (const LintDiagnostic& d : ds) rules.push_back(d.rule);
  return rules;
}

TEST(LintCatalog, HasAllNineRules) {
  const auto rules = lint_rules();
  ASSERT_EQ(rules.size(), 9u);
  EXPECT_EQ(rules[0].name, "unseeded-rng");
  EXPECT_EQ(rules[1].name, "time-seed");
  EXPECT_EQ(rules[2].name, "unordered-container");
  EXPECT_EQ(rules[3].name, "pointer-key");
  EXPECT_EQ(rules[4].name, "cross-node-state");
  EXPECT_EQ(rules[5].name, "ordered-in-protocol-state");
  EXPECT_EQ(rules[6].name, "heap-in-hot-path");
  EXPECT_EQ(rules[7].name, "unjustified-allow");
  EXPECT_EQ(rules[8].name, "layer-dag");
}

TEST(LintPaths, DeterministicPathClassification) {
  EXPECT_TRUE(lint_deterministic_path("src/algos/dist_mis.cpp"));
  EXPECT_TRUE(lint_deterministic_path("src/sim/async_engine.cpp"));
  EXPECT_TRUE(lint_deterministic_path("src/coloring/greedy.cpp"));
  EXPECT_TRUE(lint_deterministic_path("src/graph/generators.cpp"));
  EXPECT_TRUE(lint_deterministic_path("algos/fixture.cpp"));
  EXPECT_TRUE(lint_deterministic_path("/root/repo/src/sim/trace.h"));
  EXPECT_FALSE(lint_deterministic_path("src/exp/workloads.cpp"));
  EXPECT_FALSE(lint_deterministic_path("src/verify/oracles.cpp"));
  EXPECT_FALSE(lint_deterministic_path("tests/lint_test.cpp"));
}

TEST(LintSanitize, StripsCommentsAndLiterals) {
  const std::string out = lint_sanitize(
      "int x = 1; // std::rand here\n"
      "/* std::mt19937 in a block\n"
      "   comment */ int y;\n"
      "const char* s = \"std::unordered_map\";\n");
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_EQ(out.find("mt19937"), std::string::npos);
  EXPECT_EQ(out.find("unordered_map"), std::string::npos);
  // Line structure is preserved so diagnostics keep real line numbers.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("int x = 1;"), std::string::npos);
  EXPECT_NE(out.find("int y;"), std::string::npos);
}

TEST(LintSanitize, DigitSeparatorIsNotACharLiteral) {
  // The apostrophes in 1'000'000 must not open a char literal and swallow
  // the rest of the file.
  const std::string out = lint_sanitize(
      "std::size_t cap = 1'000'000;\n"
      "std::unordered_map<int, int> m;\n");
  EXPECT_NE(out.find("unordered_map"), std::string::npos);
}

TEST(LintSanitize, CharLiteralStripped) {
  const std::string out = lint_sanitize("char c = 'x'; int rand_free = 0;\n");
  EXPECT_EQ(out.find('x'), std::string::npos);
  EXPECT_NE(out.find("rand_free"), std::string::npos);
}

TEST(LintUnseededRng, FiresEverywhereEvenOutsideDeterministicPaths) {
  const auto diagnostics =
      lint_source(kFreePath, "std::mt19937 gen(std::random_device{}());\n");
  ASSERT_GE(diagnostics.size(), 2u);  // mt19937 and random_device
  for (const LintDiagnostic& d : diagnostics) {
    EXPECT_EQ(d.rule, "unseeded-rng");
    EXPECT_EQ(d.line, 1u);
    EXPECT_EQ(d.file, kFreePath);
  }
}

TEST(LintUnseededRng, FiresOnCLibraryRand) {
  const auto diagnostics =
      lint_source(kFreePath, "int draw() { return rand() % 6; }\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "unseeded-rng");
}

TEST(LintUnseededRng, IdentifierBoundariesRespected) {
  // "rand" embedded in a longer identifier is not ambient randomness.
  const auto diagnostics = lint_source(
      kDetPath, "int operand = 1; int random_walks = 2; int strand = 3;\n");
  // random_walks contains token "random_walks" != any banned token; operand
  // and strand embed "rand" without identifier boundaries.
  EXPECT_TRUE(diagnostics.empty());
}

TEST(LintTimeSeed, FiresOnlyInDeterministicPaths) {
  const std::string snippet =
      "std::uint64_t seed() { return time(nullptr); }\n"
      "double t = std::chrono::steady_clock::now().time_since_epoch()"
      ".count();\n";
  const auto det = lint_source(kDetPath, snippet);
  ASSERT_GE(det.size(), 2u);
  for (const LintDiagnostic& d : det) EXPECT_EQ(d.rule, "time-seed");
  EXPECT_TRUE(lint_source(kFreePath, snippet).empty());
}

TEST(LintTimeSeed, PlainIdentifiersDoNotFire) {
  // `time` as a variable and `clock` without a call are fine.
  const auto diagnostics = lint_source(
      kDetPath, "double time = 0.0; int clock_skew = clock_skew_base;\n");
  EXPECT_TRUE(diagnostics.empty());
}

TEST(LintUnorderedContainer, FiresInDeterministicPathsOnly) {
  const std::string snippet = "std::unordered_map<int, int> counts;\n";
  const auto det = lint_source(kDetPath, snippet);
  ASSERT_EQ(det.size(), 1u);
  EXPECT_EQ(det[0].rule, "unordered-container");
  EXPECT_EQ(det[0].line, 1u);
  EXPECT_TRUE(lint_source(kFreePath, snippet).empty());
}

TEST(LintUnorderedContainer, AllFourVariantsFire) {
  const auto diagnostics = lint_source(
      kDetPath,
      "std::unordered_set<int> a;\n"
      "std::unordered_map<int, int> b;\n"
      "std::unordered_multiset<int> c;\n"
      "std::unordered_multimap<int, int> d;\n");
  ASSERT_EQ(diagnostics.size(), 4u);
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    EXPECT_EQ(diagnostics[i].rule, "unordered-container");
    EXPECT_EQ(diagnostics[i].line, i + 1);
  }
}

TEST(LintPointerKey, FiresOnPointerKeyedContainersAnywhere) {
  const auto diagnostics = lint_source(
      kFreePath,
      "std::map<Node*, int> by_ptr;\n"
      "std::set<const Program*> owners;\n");
  ASSERT_EQ(diagnostics.size(), 2u);
  EXPECT_EQ(diagnostics[0].rule, "pointer-key");
  EXPECT_EQ(diagnostics[1].rule, "pointer-key");
}

TEST(LintPointerKey, ValueTypePointersAreFine) {
  const auto diagnostics = lint_source(
      kFreePath,
      "std::map<int, Node*> by_id;\n"
      "std::set<std::size_t> ids;\n");
  EXPECT_TRUE(diagnostics.empty());
}

// A fixture class that derives from SyncProgramSet and breaks isolation in the
// two ways the rule recognises: naming an engine type and calling
// .program() / ->program().
constexpr const char* kPeekingProgram =
    "class BadProgram : public SyncProgramSet {\n"
    " public:\n"
    "  void on_round(SyncContext& ctx, std::span<const Message> inbox) {\n"
    "    auto& peer = engine_->program(self_ + 1);\n"
    "  }\n"
    " private:\n"
    "  SyncEngine* engine_;\n"
    "};\n";

TEST(LintCrossNodeState, FiresInsideProgramClasses) {
  const auto diagnostics = lint_source(kDetPath, kPeekingProgram);
  const auto rules = rules_fired(diagnostics);
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0], "cross-node-state");  // ->program( call, line 4
  EXPECT_EQ(diagnostics[0].line, 4u);
  EXPECT_EQ(rules[1], "cross-node-state");  // SyncEngine member, line 7
  EXPECT_EQ(diagnostics[1].line, 7u);
}

TEST(LintCrossNodeState, SameCodeOutsideProgramClassesIsFine) {
  // Drivers and tests legitimately hold engines and read programs out.
  const auto diagnostics = lint_source(
      kDetPath,
      "void drive(SyncEngine& engine) {\n"
      "  auto& p = engine.program(0);\n"
      "}\n");
  EXPECT_TRUE(diagnostics.empty());
}

TEST(LintCrossNodeState, ForwardDeclarationOpensNoRegion) {
  const auto diagnostics = lint_source(
      kDetPath,
      "class SyncProgramSet;\n"
      "SyncEngine* global_engine;\n");
  EXPECT_TRUE(diagnostics.empty());
}

// A protocol kernel outside any program class that names an engine and
// reads a peer program. Annotated as program code, the way
// algos/competition.h is, both lines are flagged as inside a program
// class; the same names after its body are not.
constexpr const char* kPeekingKernel =
    "class Kernel {\n"
    " public:\n"
    "  void step(NodeId v) {\n"
    "    auto& peer = engine_->program(v + 1);\n"
    "  }\n"
    "  SyncEngine* engine_;\n"
    "};\n"
    "SyncEngine* driver_engine;\n";

TEST(LintCrossNodeState, FiresInsideAnnotatedKernels) {
  const std::string annotated =
      std::string("// fdlsp-lint: program — node code a set delegates to\n") +
      kPeekingKernel;
  const auto diagnostics = lint_source(kDetPath, annotated);
  const auto rules = rules_fired(diagnostics);
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0], "cross-node-state");  // ->program( call, line 5
  EXPECT_EQ(diagnostics[0].line, 5u);
  EXPECT_EQ(rules[1], "cross-node-state");  // SyncEngine member, line 7
  EXPECT_EQ(diagnostics[1].line, 7u);
  // Without the annotation the kernel is ordinary code.
  EXPECT_TRUE(lint_source(kDetPath, kPeekingKernel).empty());
}

TEST(LintAllow, SuppressesExactlyTheNamedRule) {
  const std::string snippet =
      "// Lookup-only cache, never iterated.\n"
      "// fdlsp-lint: allow(unordered-container)\n"
      "std::unordered_map<int, int> cache;\n"
      "int r = rand();\n";
  const auto diagnostics = lint_source(kDetPath, snippet);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "unseeded-rng");  // not suppressed
}

TEST(LintAllow, CommaListSuppressesMultipleRules) {
  const std::string snippet =
      "// Fixture: tolerated ambient randomness, justified for the test.\n"
      "// fdlsp-lint: allow(unseeded-rng, time-seed)\n"
      "std::mt19937 gen;\n"
      "std::uint64_t t = time(nullptr);\n";
  EXPECT_TRUE(lint_source(kDetPath, snippet).empty());
}

TEST(LintAllow, EveryRuleHasAWorkingEscapeHatch) {
  struct Fixture {
    const char* rule;
    const char* path;
    const char* snippet;
  };
  const Fixture fixtures[] = {
      {"unseeded-rng", kDetPath, "std::mt19937 gen;\n"},
      {"time-seed", kDetPath, "auto t = time(nullptr);\n"},
      {"unordered-container", kDetPath, "std::unordered_set<int> s;\n"},
      // pointer-key under a harness path, where ordered-in-protocol-state
      // does not also fire on the same std::map.
      {"pointer-key", kFreePath, "std::map<Node*, int> m;\n"},
      {"cross-node-state", kDetPath,
       "struct P : SyncProgramSet {\n  SyncEngine* engine_;\n};\n"},
      {"ordered-in-protocol-state", kDetPath, "std::set<int> ids;\n"},
      {"heap-in-hot-path", kFreePath,
       "// fdlsp-lint: hot\nvoid send() {\n  auto p = new int;\n}\n"},
  };
  for (const Fixture& fixture : fixtures) {
    const auto fired = lint_source(fixture.path, fixture.snippet);
    ASSERT_FALSE(fired.empty()) << fixture.rule << " did not fire";
    EXPECT_EQ(fired[0].rule, fixture.rule);
    const std::string allowed =
        std::string("// Fixture justification: known-safe in this test.\n") +
        "// fdlsp-lint: allow(" + fixture.rule + ")\n" + fixture.snippet;
    EXPECT_TRUE(lint_source(fixture.path, allowed).empty())
        << "allow(" << fixture.rule << ") did not suppress";
  }
}

TEST(LintDiagnostics, ToStringIsClickable) {
  LintDiagnostic d;
  d.file = "src/algos/x.cpp";
  d.line = 12;
  d.rule = "time-seed";
  d.message = "wall-clock read";
  EXPECT_EQ(to_string(d), "src/algos/x.cpp:12: [time-seed] wall-clock read");
}

TEST(LintTokensInProse, CommentsAndStringsNeverFire) {
  const auto diagnostics = lint_source(
      kDetPath,
      "// std::unordered_map is banned here; see rand() and ::now().\n"
      "const char* doc = \"never call srand or gettimeofday\";\n");
  EXPECT_TRUE(diagnostics.empty());
}

TEST(LintSanitize, RawStringLiteralsStripped) {
  const std::string out = lint_sanitize(
      "const char* a = R\"(std::rand inside raw)\";\n"
      "std::size_t n = 0;\n"
      "const char* b = R\"delim(std::mt19937 \" )\" still raw)delim\";\n"
      "int tail = 1;\n");
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_EQ(out.find("mt19937"), std::string::npos);
  EXPECT_NE(out.find("std::size_t n = 0;"), std::string::npos);
  EXPECT_NE(out.find("int tail = 1;"), std::string::npos);
}

TEST(LintSanitize, MultilineRawStringKeepsLineStructure) {
  const std::string out = lint_sanitize(
      "const char* s = R\"(line one srand\n"
      "line two gettimeofday\n"
      ")\";\n"
      "int after = 2;\n");
  EXPECT_EQ(out.find("srand"), std::string::npos);
  EXPECT_EQ(out.find("gettimeofday"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("int after = 2;"), std::string::npos);
}

TEST(LintSanitize, IdentifierEndingInRIsNotARawPrefix) {
  // FOO_R ends in R but is an ordinary identifier, so the adjacent string
  // is a normal literal, terminated at its first unescaped quote.
  const std::string out =
      lint_sanitize("int a = FOO_R\"text\"; int live = 2;\n");
  EXPECT_NE(out.find("int live = 2;"), std::string::npos);
  EXPECT_EQ(out.find("text"), std::string::npos);
}

TEST(LintOrderedInProtocolState, FiresInProtocolPaths) {
  const std::string snippet = "std::map<ArcId, Color> colors_;\n";
  const auto sim = lint_source("src/sim/fixture.cpp", snippet);
  ASSERT_EQ(sim.size(), 1u);
  EXPECT_EQ(sim[0].rule, "ordered-in-protocol-state");
  const auto algos = lint_source(kDetPath, snippet);
  ASSERT_EQ(algos.size(), 1u);
  EXPECT_EQ(algos[0].rule, "ordered-in-protocol-state");
  // Harness paths are free to use ordered containers.
  EXPECT_TRUE(lint_source(kFreePath, snippet).empty());
}

TEST(LintOrderedInProtocolState, FiresInsideProgramClassesAnywhere) {
  // coloring/ is deterministic but not a protocol-state path; the rule
  // still applies inside a program class body.
  const auto diagnostics = lint_source(
      "src/coloring/fixture.cpp",
      "struct P : SyncProgramSet {\n"
      "  std::set<int> pending_;\n"
      "};\n"
      "std::set<int> driver_scratch;\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "ordered-in-protocol-state");
  EXPECT_EQ(diagnostics[0].line, 2u);
}

TEST(LintOrderedInProtocolState, UnqualifiedNamesDoNotFire) {
  // Only std::-qualified map/set fire: bare `map`/`set` are ordinary
  // identifiers (and FlatHashMap/FlatHashSet must not self-trigger).
  const auto diagnostics = lint_source(
      "src/sim/fixture.cpp",
      "FlatHashMap<ArcId, Color> colors_;\n"
      "int map = 1; int set = 2;\n");
  EXPECT_TRUE(diagnostics.empty());
}

TEST(LintHeapInHotPath, FiresOnlyInsideAnnotatedFunctions) {
  const auto diagnostics = lint_source(
      kFreePath,
      "// fdlsp-lint: hot\n"
      "void send(Message m) {\n"
      "  buffer.push_back(m);\n"
      "  queue.resize(10);\n"
      "  auto p = new int;\n"
      "  auto q = std::make_unique<int>(1);\n"
      "}\n"
      "void cold() { other.resize(5); auto r = new char; }\n");
  const auto rules = rules_fired(diagnostics);
  ASSERT_EQ(rules.size(), 3u);
  for (const std::string& rule : rules)
    EXPECT_EQ(rule, "heap-in-hot-path");
  EXPECT_EQ(diagnostics[0].line, 4u);  // .resize(
  EXPECT_EQ(diagnostics[1].line, 5u);  // new
  EXPECT_EQ(diagnostics[2].line, 6u);  // make_unique
}

TEST(LintHeapInHotPath, AnnotatedPrototypeOpensNoRegion) {
  const auto diagnostics = lint_source(
      kFreePath,
      "// fdlsp-lint: hot\n"
      "void send(Message m);\n"
      "void later() { x.resize(3); }\n");
  EXPECT_TRUE(diagnostics.empty());
}

TEST(LintHeapInHotPath, ReserveCallsAndReserveIdentifiersDiffer) {
  const auto diagnostics = lint_source(
      kFreePath,
      "// fdlsp-lint: hot\n"
      "void send() {\n"
      "  std::size_t reserve = 4;  int renew = reserve;\n"
      "  pool_.reserve(reserve);\n"
      "}\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "heap-in-hot-path");
  EXPECT_EQ(diagnostics[0].line, 4u);
}

TEST(LintUnjustifiedAllow, BareDirectiveFires) {
  const auto diagnostics = lint_source(
      kFreePath,
      "// fdlsp-lint: allow(unordered-container)\n"
      "std::size_t x = 0;\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "unjustified-allow");
  EXPECT_EQ(diagnostics[0].line, 1u);
}

TEST(LintUnjustifiedAllow, JustifiedDirectivesPass) {
  EXPECT_TRUE(lint_source(kFreePath,
                          "// Lookup-only cache, never iterated.\n"
                          "// fdlsp-lint: allow(unordered-container)\n")
                  .empty());
  EXPECT_TRUE(
      lint_source(kFreePath,
                  "// fdlsp-lint: allow(unordered-container) never iterated\n")
          .empty());
}

TEST(LintUnjustifiedAllow, UnknownRuleNameFires) {
  const auto diagnostics = lint_source(
      kFreePath,
      "// Justified in prose, but the rule does not exist.\n"
      "// fdlsp-lint: allow(frobnicator)\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "unjustified-allow");
  EXPECT_NE(diagnostics[0].message.find("frobnicator"), std::string::npos);
}

TEST(LintUnjustifiedAllow, CannotSuppressItself) {
  // An allow(unjustified-allow) directive must not silence the rule that
  // polices allows — and a directive preceded only by another directive
  // has no justification.
  const auto diagnostics = lint_source(
      kFreePath,
      "// fdlsp-lint: allow(unjustified-allow)\n"
      "// fdlsp-lint: allow(unordered-container)\n");
  EXPECT_EQ(diagnostics.size(), 2u);
  for (const LintDiagnostic& d : diagnostics)
    EXPECT_EQ(d.rule, "unjustified-allow");
}

TEST(LintUnjustifiedAllow, DocPlaceholdersAreNotDirectives) {
  // `allow(<rule>)` in documentation is prose, not a directive operand.
  EXPECT_TRUE(
      lint_source(kFreePath, "//     // fdlsp-lint: allow(<rule>)\n").empty());
}

TEST(LintProtocolStatePaths, Classification) {
  EXPECT_TRUE(lint_protocol_state_path("src/sim/sync_engine.cpp"));
  EXPECT_TRUE(lint_protocol_state_path("src/algos/dist_mis.cpp"));
  EXPECT_TRUE(lint_protocol_state_path("algos/fixture.cpp"));
  EXPECT_FALSE(lint_protocol_state_path("src/coloring/greedy.cpp"));
  EXPECT_FALSE(lint_protocol_state_path("src/exp/workloads.cpp"));
}

TEST(ProjectLayers, ModuleOfParsesPaths) {
  EXPECT_EQ(lint_module_of("src/sim/sync_engine.cpp"), "sim");
  EXPECT_EQ(lint_module_of("/root/repo/src/support/rng.h"), "support");
  EXPECT_EQ(lint_module_of("algos/dist_mis.cpp"), "algos");
  EXPECT_EQ(lint_module_of("tests/lint_test.cpp"), "");
  EXPECT_EQ(lint_module_of("src/unknown/x.cpp"), "");
}

TEST(ProjectLayers, RanksMatchTheDeclaredDag) {
  EXPECT_EQ(lint_layer_rank("support"), 0);
  EXPECT_EQ(lint_layer_rank("graph"), 1);
  EXPECT_EQ(lint_layer_rank("sim"), 2);
  EXPECT_EQ(lint_layer_rank("coloring"), 3);
  EXPECT_EQ(lint_layer_rank("algos"), 3);
  EXPECT_EQ(lint_layer_rank("tdma"), 3);
  EXPECT_EQ(lint_layer_rank("soak"), 4);
  EXPECT_EQ(lint_layer_rank("verify"), 4);
  EXPECT_EQ(lint_layer_rank("analysis"), 4);
  EXPECT_EQ(lint_layer_rank("nonsense"), -1);
}

TEST(ProjectLayerDag, UpwardIncludeFlagged) {
  const std::vector<ProjectFile> files{
      {"src/sim/x.cpp", "#include \"verify/oracles.h\"\n"}};
  const auto diagnostics = lint_layer_dag(files);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "layer-dag");
  EXPECT_EQ(diagnostics[0].line, 1u);
  EXPECT_NE(diagnostics[0].message.find("upward include"), std::string::npos);
}

TEST(ProjectLayerDag, DownwardAndSameLayerIncludesPass) {
  const std::vector<ProjectFile> files{
      {"src/algos/a.cpp",
       "#include \"coloring/c.h\"\n#include \"sim/engine.h\"\n"
       "#include \"support/s.h\"\n#include <map>\n"},
      {"src/coloring/c.cpp", "#include \"graph/g.h\"\n"}};
  EXPECT_TRUE(lint_layer_dag(files).empty());
}

TEST(ProjectLayerDag, SameLayerCycleFlagged) {
  const std::vector<ProjectFile> files{
      {"src/algos/a.cpp", "#include \"coloring/x.h\"\n"},
      {"src/coloring/x.cpp", "#include \"tdma/y.h\"\n"},
      {"src/tdma/y.cpp", "#include \"algos/a.h\"\n"}};
  const auto diagnostics = lint_layer_dag(files);
  ASSERT_EQ(diagnostics.size(), 3u);  // every edge participates in the cycle
  for (const LintDiagnostic& d : diagnostics) {
    EXPECT_EQ(d.rule, "layer-dag");
    EXPECT_NE(d.message.find("module cycle"), std::string::npos);
  }
}

TEST(ProjectLayerDag, CommentedIncludesIgnored) {
  const std::vector<ProjectFile> files{
      {"src/sim/x.cpp", "// #include \"verify/oracles.h\"\n"}};
  EXPECT_TRUE(lint_layer_dag(files).empty());
}

}  // namespace
}  // namespace fdlsp
