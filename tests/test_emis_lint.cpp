// Fixture tests for the emis_lint rule engine: every rule has a positive
// fixture (violating source → finding), a negative fixture (idiomatic source
// → clean), and a suppression fixture (violation + waiver → suppressed, not
// reported). The suite ends with the acceptance gate: the real tree must lint
// clean.
#include "tools/emis_lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

namespace {

using emis_lint::Finding;
using emis_lint::LintSource;
using emis_lint::Report;

bool HasRule(const Report& r, std::string_view rule) {
  return std::any_of(r.findings.begin(), r.findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

// ---------------------------------------------------------------------------
// banned-random

TEST(BannedRandom, FlagsRandCallAndMt19937) {
  const Report r = LintSource("src/core/bad.cpp",
                              "int f() { return rand() % 7; }\n"
                              "std::mt19937 gen(42);\n");
  EXPECT_EQ(r.findings.size(), 2u);
  EXPECT_TRUE(HasRule(r, "banned-random"));
}

TEST(BannedRandom, FlagsRandomDeviceSeed) {
  const Report r = LintSource("bench/bad.cpp",
                              "std::random_device rd;\n"
                              "auto seed = rd();\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "banned-random");
  EXPECT_EQ(r.findings[0].line, 1);
}

TEST(BannedRandom, CleanOnEmisRngAndObsScope) {
  // Idiomatic: seed-addressed Rng. Also: src/obs/ is exempt.
  EXPECT_TRUE(LintSource("src/core/ok.cpp",
                         "emis::Rng rng(seed);\n"
                         "auto child = rng.Split(3);\n")
                  .findings.empty());
  EXPECT_TRUE(LintSource("src/obs/ok.cpp", "std::random_device rd;\n")
                  .findings.empty());
}

TEST(BannedRandom, IgnoresCommentsAndStrings) {
  EXPECT_TRUE(LintSource("src/core/ok.cpp",
                         "// rand() is banned here\n"
                         "const char* msg = \"no rand() allowed\";\n"
                         "/* std::mt19937 would be wrong */\n")
                  .findings.empty());
}

TEST(BannedRandom, SuppressedByAllowComment) {
  const Report r = LintSource(
      "src/core/waived.cpp",
      "int f() { return rand(); }  // emis-lint: allow(banned-random)\n");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed, 1u);
}

// ---------------------------------------------------------------------------
// banned-clock

TEST(BannedClock, FlagsSteadyClockOutsideObs) {
  const Report r = LintSource(
      "src/verify/bad.cpp",
      "double now() { return std::chrono::steady_clock::now().time_since_epoch().count(); }\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "banned-clock");
}

TEST(BannedClock, FlagsPosixClockInTools) {
  const Report r = LintSource("tools/bad.cpp",
                              "void f(timespec* t) { clock_gettime(0, t); }\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "banned-clock");
}

TEST(BannedClock, ObsAndBenchAreSanctioned) {
  // src/obs/ is the sanctioned clock layer; benches time themselves freely.
  EXPECT_TRUE(LintSource("src/obs/timer.hpp",
                         "auto t = std::chrono::steady_clock::now();\n")
                  .findings.empty());
  EXPECT_TRUE(LintSource("bench/bench_x.cpp",
                         "auto t = std::chrono::steady_clock::now();\n")
                  .findings.empty());
}

TEST(BannedClock, IncludeLineDoesNotTrigger) {
  EXPECT_TRUE(
      LintSource("src/core/ok.cpp", "#include <chrono>\nint x = 0;\n")
          .findings.empty());
}

TEST(BannedClock, LineAboveWaiverSuppresses) {
  const Report r = LintSource("src/core/waived.cpp",
                              "// emis-lint: allow(banned-clock)\n"
                              "auto t = std::chrono::system_clock::now();\n");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed, 1u);
}

// ---------------------------------------------------------------------------
// unordered-iteration

TEST(UnorderedIteration, FlagsAccumulatingRangeFor) {
  const Report r = LintSource(
      "src/core/bad.cpp",
      "std::unordered_map<int, double> m;\n"
      "double total = 0;\n"
      "void f(std::vector<int>* out) {\n"
      "  for (const auto& [k, v] : m) { total += v; out->push_back(k); }\n"
      "}\n");
  ASSERT_FALSE(r.findings.empty());
  EXPECT_EQ(r.findings[0].rule, "unordered-iteration");
  EXPECT_EQ(r.findings[0].line, 4);
}

TEST(UnorderedIteration, FlagsThroughTypeAlias) {
  const Report r = LintSource(
      "src/core/bad.cpp",
      "using NodeSet = std::unordered_set<int>;\n"
      "void f(NodeSet s, std::vector<int>* out) {\n"
      "  for (int v : s) out->push_back(v);\n"
      "}\n");
  EXPECT_TRUE(HasRule(r, "unordered-iteration"));
}

TEST(UnorderedIteration, ReadOnlyBodyAndOrderedMapAreClean) {
  // Pure reads over unordered containers are order-insensitive; ordered maps
  // may accumulate freely.
  EXPECT_TRUE(LintSource("src/core/ok.cpp",
                         "std::unordered_set<int> s;\n"
                         "bool f(int x) {\n"
                         "  bool found = false;\n"
                         "  for (int v : s) if (v == x) found = true;\n"
                         "  return found;\n"
                         "}\n")
                  .findings.empty());
  EXPECT_TRUE(LintSource("src/core/ok.cpp",
                         "std::map<int, int> m;\n"
                         "void f(std::vector<int>* out) {\n"
                         "  for (const auto& [k, v] : m) out->push_back(k);\n"
                         "}\n")
                  .findings.empty());
}

TEST(UnorderedIteration, FlagsAccumulatingIteratorLoop) {
  // The iterator form walks the same unspecified bucket order as the range
  // form; an explicit .begin() loop must not slip past the rule.
  const Report r = LintSource(
      "src/core/bad.cpp",
      "std::unordered_map<int, double> m;\n"
      "void f(std::vector<int>* out) {\n"
      "  for (auto it = m.begin(); it != m.end(); ++it) {\n"
      "    out->push_back(it->first);\n"
      "  }\n"
      "}\n");
  ASSERT_FALSE(r.findings.empty());
  EXPECT_EQ(r.findings[0].rule, "unordered-iteration");
  EXPECT_EQ(r.findings[0].line, 3);
}

TEST(UnorderedIteration, FlagsIteratorLoopThroughAlias) {
  const Report r = LintSource(
      "src/core/bad.cpp",
      "using Pending = std::unordered_set<int>;\n"
      "void f(Pending pending, std::vector<int>* out) {\n"
      "  for (auto it = pending.cbegin(); it != pending.cend(); ++it) {\n"
      "    out->push_back(*it);\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(HasRule(r, "unordered-iteration"));
}

TEST(UnorderedIteration, ReadOnlyIteratorLoopAndIndexLoopAreClean) {
  // A read-only iterator walk is order-insensitive, and an index loop over a
  // vector (the SoA lane idiom) has a deterministic order by construction.
  EXPECT_TRUE(LintSource("src/core/ok.cpp",
                         "std::unordered_set<int> s;\n"
                         "bool f(int x) {\n"
                         "  for (auto it = s.begin(); it != s.end(); ++it)\n"
                         "    if (*it == x) return true;\n"
                         "  return false;\n"
                         "}\n")
                  .findings.empty());
  EXPECT_TRUE(LintSource("src/core/ok.cpp",
                         "std::vector<int> lanes;\n"
                         "void f(std::vector<int>* out) {\n"
                         "  for (std::size_t v = 0; v < lanes.size(); ++v)\n"
                         "    out->push_back(lanes[v]);\n"
                         "}\n")
                  .findings.empty());
}

TEST(UnorderedIteration, SuppressedByWaiver) {
  const Report r = LintSource(
      "src/core/waived.cpp",
      "std::unordered_set<int> s;\n"
      "void f(std::vector<int>* out) {\n"
      "  // commutative dedup: emitted order is re-sorted by the caller\n"
      "  // emis-lint: allow(unordered-iteration)\n"
      "  for (int v : s) out->push_back(v);\n"
      "}\n");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed, 1u);
}

// ---------------------------------------------------------------------------
// raw-assert

TEST(RawAssert, FlagsAssertCall) {
  const Report r =
      LintSource("src/core/bad.cpp", "void f(int x) { assert(x > 0); }\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "raw-assert");
}

TEST(RawAssert, ContractMacrosAndStaticAssertAreClean) {
  EXPECT_TRUE(LintSource("src/core/ok.cpp",
                         "void f(int x) {\n"
                         "  EMIS_EXPECTS(x > 0, \"x positive\");\n"
                         "  static_assert(sizeof(int) >= 4);\n"
                         "}\n")
                  .findings.empty());
}

TEST(RawAssert, SuppressedByWaiver) {
  const Report r = LintSource(
      "tools/waived.cpp",
      "void f(int x) { assert(x); }  // emis-lint: allow(raw-assert)\n");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed, 1u);
}

// ---------------------------------------------------------------------------
// io-in-library

TEST(IoInLibrary, FlagsCoutAndPrintf) {
  const Report r = LintSource("src/core/bad.cpp",
                              "void f() {\n"
                              "  std::cout << \"hi\";\n"
                              "  printf(\"%d\", 3);\n"
                              "}\n");
  EXPECT_EQ(r.findings.size(), 2u);
  EXPECT_TRUE(HasRule(r, "io-in-library"));
}

TEST(IoInLibrary, ObsToolsAndBenchAreExempt) {
  EXPECT_TRUE(LintSource("src/obs/sink.cpp", "std::cout << x;\n").findings.empty());
  EXPECT_TRUE(LintSource("tools/cli.cpp", "printf(\"ok\\n\");\n").findings.empty());
  EXPECT_TRUE(LintSource("bench/b.cpp", "std::cout << x;\n").findings.empty());
}

TEST(IoInLibrary, SuppressedByWaiver) {
  const Report r = LintSource(
      "src/core/waived.cpp",
      "std::cerr << \"x\";  // emis-lint: allow(io-in-library)\n");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(IoInLibrary, FlagsFileWritesAnywhereInSrc) {
  // File-writing is banned across ALL of src/ — including src/obs/, where
  // console I/O is otherwise sanctioned.
  const Report r = LintSource("src/radio/bad.cpp",
                              "void Dump(const char* path) {\n"
                              "  std::ofstream out(path);\n"
                              "  out << 42;\n"
                              "}\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "io-in-library");
  EXPECT_EQ(r.findings[0].line, 2);

  const Report in_obs = LintSource("src/obs/unsanctioned.cpp",
                                   "void f() { FILE* fp = fopen(\"x\", \"w\"); }\n");
  ASSERT_EQ(in_obs.findings.size(), 1u);
  EXPECT_EQ(in_obs.findings[0].rule, "io-in-library");
}

TEST(IoInLibrary, StreamSinkOpenerIsTheOnlyWaivedWriter) {
  // The exact path on the waiver list passes; a sibling with identical
  // content does not — the sanction is per-file, not per-directory.
  const std::string body =
      "std::ofstream stream(path, std::ios::out);\n";
  EXPECT_TRUE(LintSource("src/obs/stream_sink.cpp", body).findings.empty());
  EXPECT_FALSE(LintSource("src/obs/other_sink.cpp", body).findings.empty());
  EXPECT_EQ(emis_lint::detail::IoWriteWaivers().count("src/obs/stream_sink.cpp"),
            1u);
}

TEST(IoInLibrary, ReadsAndToolWritersStayClean) {
  // ifstream reads are fine in the library; tools/bench own their output.
  EXPECT_TRUE(LintSource("src/obs/report.cpp",
                         "std::ifstream in(path);\n")
                  .findings.empty());
  EXPECT_TRUE(LintSource("tools/cli.cpp", "std::ofstream out(path);\n")
                  .findings.empty());
  EXPECT_TRUE(LintSource("bench/b.cpp", "FILE* f = fopen(\"x\", \"w\");\n")
                  .findings.empty());
}

// ---------------------------------------------------------------------------
// float-accumulate-in-reduce

TEST(FloatAccumulateInReduce, FlagsFloatPlusEqualsInMerge) {
  const Report r = LintSource("src/obs/bad.cpp",
                              "struct H {\n"
                              "  double sum_ = 0;\n"
                              "  void MergeFrom(const H& o) { sum_ += o.sum_; }\n"
                              "};\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "float-accumulate-in-reduce");
  EXPECT_EQ(r.findings[0].line, 3);
}

TEST(FloatAccumulateInReduce, SeesSiblingHeaderDeclaration) {
  // The member's type lives in the .hpp; the += lives in the .cpp. The
  // corpus-level symbol pool must connect them through the shared path stem.
  emis_lint::Corpus corpus;
  corpus.files.push_back(emis_lint::Lex("src/obs/thing.hpp",
                                        "struct Thing {\n"
                                        "  double total_ = 0;\n"
                                        "  void Merge(const Thing& o);\n"
                                        "};\n"));
  corpus.files.push_back(emis_lint::Lex(
      "src/obs/thing.cpp",
      "void Thing::Merge(const Thing& o) { total_ += o.total_; }\n"));
  const Report r = emis_lint::Lint(corpus);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "float-accumulate-in-reduce");
  EXPECT_EQ(r.findings[0].file, "src/obs/thing.cpp");
}

TEST(FloatAccumulateInReduce, IntegerAccumulationAndNonReduceAreClean) {
  // Integral += in a merge is exact; float += outside reduce paths is fine.
  EXPECT_TRUE(LintSource("src/obs/ok.cpp",
                         "struct H {\n"
                         "  std::uint64_t n_ = 0;\n"
                         "  void MergeFrom(const H& o) { n_ += o.n_; }\n"
                         "};\n")
                  .findings.empty());
  EXPECT_TRUE(LintSource("src/obs/ok.cpp",
                         "struct H {\n"
                         "  double sum_ = 0;\n"
                         "  void Observe(double x) { sum_ += x; }\n"
                         "};\n")
                  .findings.empty());
}

TEST(FloatAccumulateInReduce, SuppressedByWaiver) {
  const Report r = LintSource(
      "src/obs/waived.cpp",
      "struct H {\n"
      "  double sum_ = 0;\n"
      "  void MergeFrom(const H& o) {\n"
      "    sum_ += o.sum_;  // emis-lint: allow(float-accumulate-in-reduce)\n"
      "  }\n"
      "};\n");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed, 1u);
}

// ---------------------------------------------------------------------------
// rng-seed-from-draw

TEST(RngSeedFromDraw, FlagsConstructionFromDraw) {
  const Report r = LintSource("src/core/bad.cpp",
                              "void f(emis::Rng& parent) {\n"
                              "  Rng child(parent.NextU64());\n"
                              "}\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "rng-seed-from-draw");
  EXPECT_EQ(r.findings[0].line, 2);
}

TEST(RngSeedFromDraw, FlagsBraceInitFromDraw) {
  const Report r = LintSource("src/core/bad.cpp",
                              "Rng MakeChild(Rng& p) { return Rng{p.UniformBelow(99)}; }\n");
  EXPECT_TRUE(HasRule(r, "rng-seed-from-draw"));
}

TEST(RngSeedFromDraw, SplitAndNamedSeedsAreClean) {
  EXPECT_TRUE(LintSource("src/core/ok.cpp",
                         "void f(emis::Rng& parent, std::uint64_t seed) {\n"
                         "  Rng direct(seed);\n"
                         "  Rng child = parent.Split(7);\n"
                         "  Rng hashed(CounterHash(seed, 12));\n"
                         "}\n")
                  .findings.empty());
}

TEST(RngSeedFromDraw, ClassDefinitionDoesNotTrigger) {
  // `class Rng { ... NextU64 ... }` is the type defining its own draw
  // methods, not a stream seeded from a draw.
  EXPECT_TRUE(LintSource("src/radio/ok.hpp",
                         "class Rng {\n"
                         " public:\n"
                         "  std::uint64_t NextU64() noexcept { return gen_(); }\n"
                         "};\n")
                  .findings.empty());
}

TEST(RngSeedFromDraw, SuppressedByWaiver) {
  const Report r = LintSource(
      "src/core/waived.cpp",
      "Rng child(parent.NextU64());  // emis-lint: allow(rng-seed-from-draw)\n");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed, 1u);
}

// ---------------------------------------------------------------------------
// raw-thread

TEST(RawThread, FlagsThreadJthreadAndAsync) {
  const Report r = LintSource("src/core/bad.cpp",
                              "void f() {\n"
                              "  std::thread t([] {});\n"
                              "  std::jthread j([] {});\n"
                              "  auto fut = std::async([] { return 1; });\n"
                              "}\n");
  ASSERT_EQ(r.findings.size(), 3u);
  EXPECT_EQ(r.findings[0].rule, "raw-thread");
  EXPECT_EQ(r.findings[0].line, 2);
  EXPECT_EQ(r.findings[1].line, 3);
  EXPECT_EQ(r.findings[2].line, 4);
}

TEST(RawThread, PoolFileAndConcurrencyReadAreClean) {
  // The pool implementation is the sanctioned spawner; everyone else may
  // still read the machine shape.
  EXPECT_TRUE(LintSource("src/verify/parallel.cpp",
                         "void Pool() { std::thread t([] {}); t.join(); }\n")
                  .findings.empty());
  EXPECT_TRUE(LintSource("bench/bench_x.cpp",
                         "unsigned n = std::thread::hardware_concurrency();\n")
                  .findings.empty());
  // Member named `thread` without the std:: qualifier is someone's field,
  // not a spawn.
  EXPECT_TRUE(LintSource("src/core/ok.cpp", "int thread = 3;\n").findings.empty());
}

TEST(RawThread, FlagsInBenchAndTools) {
  EXPECT_TRUE(HasRule(LintSource("bench/bad.cpp",
                                 "void f() { std::thread t([] {}); t.join(); }\n"),
                      "raw-thread"));
  EXPECT_TRUE(HasRule(LintSource("tools/bad.cpp",
                                 "auto r = std::async([] { return 2; });\n"),
                      "raw-thread"));
}

TEST(RawThread, SuppressedByWaiver) {
  const Report r = LintSource(
      "src/core/waived.cpp",
      "std::thread t([] {});  // emis-lint: allow(raw-thread)\n");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed, 1u);
}

// ---------------------------------------------------------------------------
// Engine mechanics

TEST(Engine, FileWideWaiverSuppressesAllInstances) {
  const Report r = LintSource("src/core/waived.cpp",
                              "// emis-lint: allow-file(banned-random)\n"
                              "int a = rand();\n"
                              "int b = rand();\n");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed, 2u);
}

TEST(Engine, WaiverForOtherRuleDoesNotSuppress) {
  const Report r = LintSource(
      "src/core/bad.cpp",
      "int a = rand();  // emis-lint: allow(banned-clock)\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "banned-random");
}

TEST(Engine, RawStringContentIsOpaque) {
  EXPECT_TRUE(LintSource("src/core/ok.cpp",
                         "const char* doc = R\"(call rand() and\n"
                         "std::chrono::steady_clock freely in prose)\";\n")
                  .findings.empty());
}

TEST(Engine, FindingsAreSortedByFileLineRule) {
  emis_lint::Corpus corpus;
  corpus.files.push_back(emis_lint::Lex("src/z.cpp", "int a = rand();\n"));
  corpus.files.push_back(
      emis_lint::Lex("src/a.cpp", "int b = rand();\nint c = rand();\n"));
  const Report r = emis_lint::Lint(corpus);
  ASSERT_EQ(r.findings.size(), 3u);
  EXPECT_EQ(r.findings[0].file, "src/a.cpp");
  EXPECT_EQ(r.findings[0].line, 1);
  EXPECT_EQ(r.findings[1].line, 2);
  EXPECT_EQ(r.findings[2].file, "src/z.cpp");
}

TEST(Engine, JsonReportCarriesSchemaAndFindings) {
  const Report r = LintSource("src/core/bad.cpp", "int a = rand();\n");
  const std::string json = emis_lint::ToJson(r, "/repo");
  EXPECT_NE(json.find("\"schema\": \"emis-lint-report/2\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"banned-random\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"symbols_indexed\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"call_edges\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\": "), std::string::npos);
  EXPECT_NE(json.find("\"suppressed_by_rule\": {}"), std::string::npos);
  // Token findings carry no symbol/witness keys.
  EXPECT_EQ(json.find("\"symbol\""), std::string::npos);
  EXPECT_EQ(json.find("\"witness\""), std::string::npos);
}

TEST(Engine, JsonEscapesControlAndQuoteCharacters) {
  EXPECT_EQ(emis_lint::JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// ---------------------------------------------------------------------------
// Pass 1: symbol index

TEST(SymbolIndex, IndexesDefinitionsCallsAndRegions) {
  emis_lint::Corpus corpus;
  corpus.files.push_back(emis_lint::Lex(
      "src/radio/x.cpp",
      "void Scheduler::RunRound() {\n"
      "  Prepare();\n"
      "  par::ParallelFor(jobs_, shards_, [&](std::uint64_t s, unsigned w) {\n"
      "    ShardPass(s);\n"
      "  });\n"
      "}\n"
      "void Scheduler::Prepare() { counter_ = 0; }\n"));
  const emis_lint::SymbolIndex index = emis_lint::BuildIndex(corpus);
  ASSERT_EQ(index.functions.size(), 2u);
  EXPECT_EQ(index.functions[0].qualified, "Scheduler::RunRound");
  EXPECT_EQ(index.functions[0].line, 1);
  ASSERT_EQ(index.regions.size(), 1u);
  EXPECT_EQ(index.regions[0].enclosing, "RunRound");
  EXPECT_EQ(index.regions[0].line, 3);
  EXPECT_TRUE(index.regions[0].captures_by_ref);
  ASSERT_EQ(index.regions[0].params.size(), 2u);
  EXPECT_EQ(index.regions[0].params[0], "s");
  EXPECT_EQ(index.regions[0].params[1], "w");
  ASSERT_EQ(index.regions[0].calls.size(), 1u);
  EXPECT_EQ(index.regions[0].calls[0].name, "ShardPass");
  EXPECT_GT(index.call_edges, 0u);
}

TEST(SymbolIndex, ReceiverRootDisambiguatesQualifiedCalls) {
  emis_lint::Corpus corpus;
  corpus.files.push_back(emis_lint::Lex(
      "src/verify/x.cpp",
      "void F() {\n"
      "  Pool::Instance().Run(jobs, dispatch);\n"
      "  scheduler.Run();\n"
      "}\n"));
  const emis_lint::SymbolIndex index = emis_lint::BuildIndex(corpus);
  ASSERT_EQ(index.functions.size(), 1u);
  const auto& calls = index.functions[0].calls;
  ASSERT_EQ(calls.size(), 3u);  // Instance, Run, Run
  EXPECT_EQ(calls[1].name, "Run");
  EXPECT_EQ(calls[1].receiver, "Pool");
  EXPECT_EQ(calls[2].name, "Run");
  EXPECT_EQ(calls[2].receiver, "scheduler");
}

TEST(SymbolIndex, GuardReadIsDistinguishedFromAssignment) {
  emis_lint::Corpus corpus;
  corpus.files.push_back(emis_lint::Lex(
      "src/verify/parallel.cpp",
      // Run only ASSIGNS the flag (dispatcher marker); ParallelFor READS it.
      "void Run() { tl_in_pool_worker = true; Work(); tl_in_pool_worker = false; }\n"
      "void ParallelFor(unsigned jobs) { if (jobs <= 1 || tl_in_pool_worker) return; }\n"));
  const emis_lint::SymbolIndex index = emis_lint::BuildIndex(corpus);
  ASSERT_EQ(index.functions.size(), 2u);
  EXPECT_FALSE(index.functions[0].reads_pool_guard);
  EXPECT_TRUE(index.functions[1].reads_pool_guard);
}

// ---------------------------------------------------------------------------
// nested-dispatch — the PR 8 deadlock fixture
//
// Three files shaped like the pre-fix PR 8 tree: a pool whose ParallelFor
// does NOT read tl_in_pool_worker, a scheduler whose sharded round body
// transitively reaches ParallelFor, and the sweep that dispatches trials.

namespace fixtures {

// Pre-fix dispatcher: the serial-inline branch tests only jobs/count, so a
// nested call from a worker re-enters Pool::Run and deadlocks.
constexpr const char* kPoolPreFix =
    "namespace emis::par {\n"
    "thread_local bool tl_in_pool_worker = false;\n"
    "void Pool::Run(unsigned jobs, Dispatch& dispatch) {\n"
    "  tl_in_pool_worker = true;\n"
    "  dispatch.RunWorker(0);\n"
    "  tl_in_pool_worker = false;\n"
    "}\n"
    "void ParallelFor(unsigned jobs, std::uint64_t count, const IndexFn& fn) {\n"
    "  if (jobs <= 1 || count <= 1) {\n"
    "    for (std::uint64_t i = 0; i < count; ++i) fn(i, 0);\n"
    "    return;\n"
    "  }\n"
    "  Dispatch dispatch;\n"
    "  Pool::Instance().Run(jobs, dispatch);\n"
    "}\n"
    "}\n";

// The fixed dispatcher: identical but for the tl_in_pool_worker READ in the
// inline guard (the PR 8 fix).
constexpr const char* kPoolFixed =
    "namespace emis::par {\n"
    "thread_local bool tl_in_pool_worker = false;\n"
    "void Pool::Run(unsigned jobs, Dispatch& dispatch) {\n"
    "  tl_in_pool_worker = true;\n"
    "  dispatch.RunWorker(0);\n"
    "  tl_in_pool_worker = false;\n"
    "}\n"
    "void ParallelFor(unsigned jobs, std::uint64_t count, const IndexFn& fn) {\n"
    "  if (jobs <= 1 || count <= 1 || tl_in_pool_worker) {\n"
    "    for (std::uint64_t i = 0; i < count; ++i) fn(i, 0);\n"
    "    return;\n"
    "  }\n"
    "  Dispatch dispatch;\n"
    "  Pool::Instance().Run(jobs, dispatch);\n"
    "}\n"
    "}\n";

// Sharded scheduler round: the shard body reaches ParallelFor two hops down.
constexpr const char* kScheduler =
    "void Scheduler::RunRound() {\n"
    "  par::ParallelFor(jobs_, shards_, [&](std::uint64_t s, unsigned) {\n"
    "    ShardPass(s);\n"
    "  });\n"
    "}\n"
    "void Scheduler::ShardPass(std::uint64_t s) { Relax(s); }\n"
    "void Scheduler::Relax(std::uint64_t s) {\n"
    "  par::ParallelFor(2, 8, [&](std::uint64_t i, unsigned) { Work(i); });\n"
    "}\n";

emis_lint::Corpus DeadlockTree(bool fixed) {
  emis_lint::Corpus corpus;
  corpus.files.push_back(emis_lint::Lex("src/verify/parallel.cpp",
                                        fixed ? kPoolFixed : kPoolPreFix));
  corpus.files.push_back(emis_lint::Lex("src/radio/scheduler.cpp", kScheduler));
  return corpus;
}

}  // namespace fixtures

TEST(NestedDispatch, FiresOnPreFixPoolWithWitnessChain) {
  const Report r = emis_lint::Lint(fixtures::DeadlockTree(/*fixed=*/false));
  ASSERT_TRUE(HasRule(r, "nested-dispatch"));
  const auto it =
      std::find_if(r.findings.begin(), r.findings.end(),
                   [](const Finding& f) { return f.rule == "nested-dispatch"; });
  EXPECT_EQ(it->file, "src/radio/scheduler.cpp");
  EXPECT_EQ(it->line, 2);  // the outer ParallelFor region
  EXPECT_EQ(it->symbol, "RunRound");
  // Witness walks region → ShardPass → Relax → the unguarded ParallelFor.
  ASSERT_EQ(it->witness.size(), 3u);
  EXPECT_NE(it->witness[0].find("ShardPass"), std::string::npos);
  EXPECT_NE(it->witness[1].find("Relax"), std::string::npos);
  EXPECT_NE(it->witness[2].find("ParallelFor"), std::string::npos);
}

TEST(NestedDispatch, SilentOnFixedPool) {
  // The only difference is ParallelFor's tl_in_pool_worker READ: nested
  // calls run inline, so the same chain is safe and must not be flagged.
  const Report r = emis_lint::Lint(fixtures::DeadlockTree(/*fixed=*/true));
  EXPECT_FALSE(HasRule(r, "nested-dispatch"));
}

TEST(NestedDispatch, FlagsDirectPoolRunFromRegionEvenWhenGuarded) {
  // Pool::Run itself carries no guard — reaching it directly from a region
  // deadlocks regardless of ParallelFor's inline branch.
  emis_lint::Corpus corpus = fixtures::DeadlockTree(/*fixed=*/true);
  corpus.files.push_back(emis_lint::Lex(
      "src/verify/experiment.cpp",
      "void RunSweep() {\n"
      "  par::ParallelFor(2, 8, [&](std::uint64_t t, unsigned) {\n"
      "    Dispatch d;\n"
      "    Pool::Instance().Run(2, d);\n"
      "  });\n"
      "}\n"));
  const Report r = emis_lint::Lint(corpus);
  ASSERT_TRUE(HasRule(r, "nested-dispatch"));
  const auto it =
      std::find_if(r.findings.begin(), r.findings.end(),
                   [](const Finding& f) { return f.rule == "nested-dispatch"; });
  EXPECT_EQ(it->file, "src/verify/experiment.cpp");
  EXPECT_NE(it->message.find("Pool::Run"), std::string::npos);
}

TEST(NestedDispatch, SuppressedByWaiver) {
  emis_lint::Corpus corpus;
  corpus.files.push_back(emis_lint::Lex("src/verify/parallel.cpp",
                                        fixtures::kPoolPreFix));
  corpus.files.push_back(emis_lint::Lex(
      "src/radio/scheduler.cpp",
      "void Scheduler::RunRound() {\n"
      "  // emis-lint: allow(nested-dispatch)\n"
      "  par::ParallelFor(jobs_, shards_, [&](std::uint64_t s, unsigned) {\n"
      "    par::ParallelFor(2, 8, [&](std::uint64_t i, unsigned) { W(i); });\n"
      "  });\n"
      "}\n"));
  const Report r = emis_lint::Lint(corpus);
  EXPECT_FALSE(HasRule(r, "nested-dispatch"));
  EXPECT_GE(r.suppressed_by_rule.count("nested-dispatch"), 1u);
}

// ---------------------------------------------------------------------------
// parallel-region-mutation

TEST(ParallelRegionMutation, FlagsSharedWriteSkipsLocalsAndSanctioned) {
  const Report r = LintSource(
      "src/radio/x.cpp",
      "void Scheduler::Pass() {\n"
      "  par::ParallelFor(jobs_, n_, [&](std::uint64_t v, unsigned worker) {\n"
      "    total_ += v;\n"                       // shared accumulator: flagged
      "    ctx_hot_[v].now = v;\n"               // sanctioned shard-local slot
      "    std::uint64_t local = v * 2;\n"       // declaration, not a write
      "    local += 1;\n"                        // write to a local
      "    v = local;\n"                         // write to a lambda param
      "  });\n"
      "}\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "parallel-region-mutation");
  EXPECT_EQ(r.findings[0].line, 3);
  EXPECT_EQ(r.findings[0].symbol, "total_");
}

TEST(ParallelRegionMutation, MemberChainRootsAndMutatingCallsAreCaught) {
  const Report r = LintSource(
      "src/radio/x.cpp",
      "void F() {\n"
      "  par::ParallelFor(2, n_, [&](std::uint64_t v, unsigned) {\n"
      "    stats_.rounds += 1;\n"
      "    results_.push_back(v);\n"
      "  });\n"
      "}\n");
  ASSERT_EQ(r.findings.size(), 2u);
  EXPECT_EQ(r.findings[0].symbol, "stats_");
  EXPECT_EQ(r.findings[1].symbol, "results_");
}

TEST(ParallelRegionMutation, ValueCapturesAndSlotAliasesAreClean) {
  // Explicit value captures are the lambda's own copies; a by-ref local
  // bound to a per-index slot is the sanctioned slot idiom (and a known
  // false-negative edge for true aliasing, documented in DESIGN.md §14).
  EXPECT_TRUE(LintSource("src/radio/x.cpp",
                         "void F() {\n"
                         "  par::ParallelFor(2, n_, [acc](std::uint64_t v,\n"
                         "                                unsigned) mutable {\n"
                         "    acc += v;\n"
                         "  });\n"
                         "}\n")
                  .findings.empty());
  EXPECT_TRUE(LintSource("src/verify/x.cpp",
                         "void F() {\n"
                         "  par::ParallelFor(2, n_, [&](std::uint64_t t, unsigned) {\n"
                         "    TrialOutcome& out = outcomes[t];\n"
                         "    out.valid = true;\n"
                         "  });\n"
                         "}\n")
                  .findings.empty());
}

TEST(ParallelRegionMutation, RowOwnerSanctionCoversOnlyResidualRows) {
  // The retire passes' shape: per-row metadata keyed by a neighbor id, and
  // a row shrunk into its overlay slot through a local pointer. Sanctioned
  // for ResidualGraph's rows_ (row-owner disjoint); the same writes to any
  // other array are still flagged.
  const Report r = LintSource(
      "src/radio/x.cpp",
      "void ResidualGraph::Pass() {\n"
      "  par::ParallelFor(jobs, parts, [&](std::uint64_t part, unsigned) {\n"
      "    std::uint32_t out = 0;\n"
      "    rows_[w].scan_len = 0;\n"                 // sanctioned
      "    NodeId* slot = Slot(w);\n"                // a local
      "    slot[out++] = u;\n"                       // through the local
      "    row_meta_[w].scan_len = 0;\n"             // same shape: flagged
      "    entries_[begin + out++] = u;\n"           // same shape: flagged
      "  });\n"
      "}\n");
  ASSERT_EQ(r.findings.size(), 2u);
  EXPECT_EQ(r.findings[0].symbol, "row_meta_");
  EXPECT_EQ(r.findings[0].line, 7);
  EXPECT_EQ(r.findings[1].symbol, "entries_");
  EXPECT_EQ(r.findings[1].line, 8);
}

TEST(ParallelRegionMutation, GraphBuilderSanctionCoversOnlyItsSlices) {
  // The shapes of the G(n, p) sampler's chunk decode and Build's
  // source-partitioned count, scatter and row pass. Sanctioned for
  // edge_slots, part_cursors, csr_adjacency and deduped_degree (each part
  // writes only its own slice or rows); the same writes to any other array
  // are still flagged.
  const Report r = LintSource(
      "src/radio/x.cpp",
      "void GraphBuilder::Pass() {\n"
      "  par::ParallelFor(jobs, parts, [&](std::uint64_t part, unsigned) {\n"
      "    std::uint64_t* cursor = part_cursors[part].data();\n"  // a local
      "    edge_slots[part * kChunk + i] = rows.Decode(at);\n"    // sanctioned
      "    ++part_cursors[part][e.u];\n"                          // sanctioned
      "    csr_adjacency[cursor[e.u]++] = e.v;\n"                 // sanctioned
      "    deduped_degree[v] = degree;\n"                         // sanctioned
      "    pending_edges[part * kChunk + i] = rows.Decode(at);\n"    // flagged
      "    ++row_counts[part][e.u];\n"                               // flagged
      "    adjacency[cursor[e.u]++] = e.v;\n"                        // flagged
      "  });\n"
      "}\n");
  ASSERT_EQ(r.findings.size(), 3u);
  EXPECT_EQ(r.findings[0].symbol, "pending_edges");
  EXPECT_EQ(r.findings[0].line, 8);
  EXPECT_EQ(r.findings[1].symbol, "row_counts");
  EXPECT_EQ(r.findings[1].line, 9);
  EXPECT_EQ(r.findings[2].symbol, "adjacency");
  EXPECT_EQ(r.findings[2].line, 10);
}

TEST(ParallelRegionMutation, SuppressedByWaiver) {
  const Report r = LintSource(
      "src/radio/x.cpp",
      "void F() {\n"
      "  par::ParallelFor(2, n_, [&](std::uint64_t v, unsigned) {\n"
      "    total_ += v;  // emis-lint: allow(parallel-region-mutation)\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed_by_rule.at("parallel-region-mutation"), 1u);
}

// ---------------------------------------------------------------------------
// banned-random-taint / banned-clock-taint

TEST(BannedRandomTaint, FlagsTransitiveReachAtDefinition) {
  const Report r = LintSource("src/core/util.cpp",
                              "int Noise() { return rand(); }\n"
                              "int Jitter() { return Noise(); }\n"
                              "int Calm() { return 7; }\n");
  // The direct use is the token rule's finding; the caller is the taint
  // rule's, anchored at its definition with the chain down to rand().
  ASSERT_EQ(r.findings.size(), 2u);
  EXPECT_EQ(r.findings[0].rule, "banned-random");
  EXPECT_EQ(r.findings[0].line, 1);
  EXPECT_EQ(r.findings[1].rule, "banned-random-taint");
  EXPECT_EQ(r.findings[1].line, 2);
  EXPECT_EQ(r.findings[1].symbol, "Jitter");
  ASSERT_EQ(r.findings[1].witness.size(), 2u);
  EXPECT_NE(r.findings[1].witness[0].find("Noise"), std::string::npos);
  EXPECT_NE(r.findings[1].witness[1].find("rand"), std::string::npos);
}

TEST(BannedRandomTaint, WaivedDirectUseDoesNotSeedTaint) {
  // A justified waiver at the source is a deliberate boundary: it must not
  // cascade into taint findings at every caller.
  const Report r = LintSource(
      "src/core/util.cpp",
      "int Noise() { return rand(); }  // emis-lint: allow(banned-random)\n"
      "int Jitter() { return Noise(); }\n");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed_by_rule.at("banned-random"), 1u);
}

TEST(BannedClockTaint, ObsIsABarrierNotASource) {
  emis_lint::Corpus corpus;
  corpus.files.push_back(emis_lint::Lex(
      "src/obs/timing.cpp",
      "double MonotonicSeconds() {\n"
      "  return std::chrono::duration<double>(\n"
      "      std::chrono::steady_clock::now().time_since_epoch()).count();\n"
      "}\n"));
  corpus.files.push_back(emis_lint::Lex(
      "src/core/runner.cpp",
      "double Elapsed() { return MonotonicSeconds(); }\n"));
  // steady_clock inside src/obs is sanctioned, and callers of the obs
  // wrapper are clean — the barrier does not propagate taint outward.
  EXPECT_TRUE(emis_lint::Lint(corpus).findings.empty());
}

TEST(BannedClockTaint, FlagsChainIntoUnsanctionedClockRead) {
  const Report r = LintSource(
      "src/core/bad.cpp",
      "long SteadyNow() { return clock_gettime(0, nullptr); }\n"
      "long Now() { return SteadyNow(); }\n");
  EXPECT_TRUE(HasRule(r, "banned-clock"));
  ASSERT_TRUE(HasRule(r, "banned-clock-taint"));
  const auto it = std::find_if(
      r.findings.begin(), r.findings.end(),
      [](const Finding& f) { return f.rule == "banned-clock-taint"; });
  EXPECT_EQ(it->line, 2);
  EXPECT_EQ(it->symbol, "Now");
}

// ---------------------------------------------------------------------------
// observable-commit-order

TEST(ObservableCommitOrder, FlagsDirectObservableInRegion) {
  const Report r = LintSource(
      "src/verify/x.cpp",
      "void Sweep() {\n"
      "  par::ParallelFor(2, 8, [&](std::uint64_t t, unsigned) {\n"
      "    sink_->EmitRoundTrace(t);\n"
      "  });\n"
      "}\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "observable-commit-order");
  EXPECT_EQ(r.findings[0].line, 3);  // direct calls anchor at their own line
  EXPECT_EQ(r.findings[0].symbol, "EmitRoundTrace");
}

TEST(ObservableCommitOrder, FlagsTransitiveReachWithWitness) {
  const Report r = LintSource(
      "src/verify/x.cpp",
      "void Sweep() {\n"
      "  par::ParallelFor(2, 8, [&](std::uint64_t t, unsigned) { Helper(t); });\n"
      "}\n"
      "void Helper(std::uint64_t t) { ledger_->ChargeListen(t, 1); }\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "observable-commit-order");
  EXPECT_EQ(r.findings[0].line, 2);  // deep chains anchor at the region
  ASSERT_EQ(r.findings[0].witness.size(), 2u);
  EXPECT_NE(r.findings[0].witness[0].find("Helper"), std::string::npos);
  EXPECT_NE(r.findings[0].witness[1].find("ChargeListen"), std::string::npos);
}

TEST(ObservableCommitOrder, RngDrawInRegionIsAnObservable) {
  const Report r = LintSource(
      "src/radio/x.cpp",
      "void F() {\n"
      "  par::ParallelFor(2, 8, [&](std::uint64_t t, unsigned) {\n"
      "    const std::uint64_t x = rng_.NextU64();\n"
      "    Use(x);\n"
      "  });\n"
      "}\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "observable-commit-order");
  EXPECT_EQ(r.findings[0].symbol, "NextU64");
}

TEST(ObservableCommitOrder, SanctionedSerialCommitFunctionsStopTraversal) {
  // The sharded scheduler's pass functions and RunMis are the sanctioned
  // entry points — observables behind them commit serially by design.
  EXPECT_TRUE(LintSource("src/radio/x.cpp",
                         "void Round() {\n"
                         "  par::ParallelFor(2, 8, [&](std::uint64_t s, unsigned) {\n"
                         "    ShardListenPass(s);\n"
                         "  });\n"
                         "}\n"
                         "void ShardListenPass(std::uint64_t s) {\n"
                         "  ledger_->ChargeListen(s, 1);\n"
                         "}\n")
                  .findings.empty());
}

TEST(ObservableCommitOrder, SecondCallSurfacesAfterFirstIsWaived) {
  // Direct observables dedup per line, so a second call to the same sink
  // still surfaces when the first carries a waiver. (The calls are separated
  // by a line because a same-line waiver also covers the line below it.)
  const Report r = LintSource(
      "src/verify/x.cpp",
      "void Sweep() {\n"
      "  par::ParallelFor(2, 8, [&](std::uint64_t t, unsigned) {\n"
      "    sink_->EmitControl(t);  // emis-lint: allow(observable-commit-order)\n"
      "    Prepare(t);\n"
      "    sink_->EmitControl(t);\n"
      "  });\n"
      "}\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].line, 5);
  EXPECT_EQ(r.suppressed_by_rule.at("observable-commit-order"), 1u);
}

// ---------------------------------------------------------------------------
// Per-rule waiver accounting + baseline gate

TEST(WaiverAccounting, SuppressedByRuleSumsToSuppressed) {
  const Report r = LintSource(
      "src/core/waived.cpp",
      "int a = rand();  // emis-lint: allow(banned-random)\n"
      "int b = rand();  // emis-lint: allow(banned-random)\n"
      "assert(a);  // emis-lint: allow(raw-assert)\n");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed, 3u);
  EXPECT_EQ(r.suppressed_by_rule.at("banned-random"), 2u);
  EXPECT_EQ(r.suppressed_by_rule.at("raw-assert"), 1u);
}

TEST(WaiverBaseline, ParsesRulesSkippingCommentsAndBlanks) {
  std::istringstream in(
      "# comment\n"
      "\n"
      "banned-clock 2\n"
      "io-in-library 1\n");
  const auto baseline = emis_lint::ParseWaiverBaseline(in);
  ASSERT_EQ(baseline.size(), 2u);
  EXPECT_EQ(baseline.at("banned-clock"), 2u);
  EXPECT_EQ(baseline.at("io-in-library"), 1u);
}

TEST(WaiverBaseline, FailsClosedOnNewWaiversPassesAtOrBelow) {
  Report r;
  r.suppressed_by_rule["banned-clock"] = 2;
  std::map<std::string, std::uint64_t> baseline{{"banned-clock", 2}};
  EXPECT_EQ(emis_lint::DiffWaiverBaseline(r, baseline), "");
  baseline["banned-clock"] = 3;  // shrinking below the baseline is fine
  EXPECT_EQ(emis_lint::DiffWaiverBaseline(r, baseline), "");
  baseline["banned-clock"] = 1;  // a new waiver fails closed
  EXPECT_NE(emis_lint::DiffWaiverBaseline(r, baseline), "");
  // A rule absent from the baseline allows zero waivers.
  r.suppressed_by_rule["nested-dispatch"] = 1;
  baseline["banned-clock"] = 2;
  EXPECT_NE(emis_lint::DiffWaiverBaseline(r, baseline), "");
}

TEST(WaiverBaseline, GraphFindingJsonCarriesSymbolAndWitness) {
  const Report r = LintSource("src/core/util.cpp",
                              "int Noise() { return rand(); }\n"
                              "int Jitter() { return Noise(); }\n");
  const std::string json = emis_lint::ToJson(r, "/repo");
  EXPECT_NE(json.find("\"symbol\": \"Jitter\""), std::string::npos);
  EXPECT_NE(json.find("\"witness\": ["), std::string::npos);
  EXPECT_NE(json.find("src/core/util.cpp:1 rand"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Acceptance gate: the real tree lints clean under all rules (token AND
// graph), and the committed waiver baseline matches reality exactly.

#ifdef EMIS_SOURCE_ROOT
TEST(FullTree, RepositoryLintsClean) {
  const emis_lint::Corpus corpus = emis_lint::LoadCorpus(EMIS_SOURCE_ROOT);
  ASSERT_GT(corpus.files.size(), 50u) << "corpus load found too few files; "
                                         "EMIS_SOURCE_ROOT miswired?";
  const Report r = emis_lint::Lint(corpus);
  for (const Finding& f : r.findings) {
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
  }
  EXPECT_TRUE(r.findings.empty());

  // The graph rules actually ran: the index saw the tree's functions and
  // its ParallelFor regions (sweep trials + sharded scheduler passes).
  const emis_lint::SymbolIndex index = emis_lint::BuildIndex(corpus);
  EXPECT_EQ(r.symbols_indexed, index.functions.size());
  EXPECT_GT(index.functions.size(), 300u);
  EXPECT_GE(index.regions.size(), 5u);
  EXPECT_GT(r.call_edges, 1000u);
}

TEST(FullTree, WaiverBaselineMatchesRealityExactly) {
  // DiffWaiverBaseline only fails on NEW waivers; this test additionally
  // pins equality so the committed baseline can never drift stale.
  const emis_lint::Corpus corpus = emis_lint::LoadCorpus(EMIS_SOURCE_ROOT);
  const Report r = emis_lint::Lint(corpus);
  std::ifstream in(std::string(EMIS_SOURCE_ROOT) +
                   "/tools/lint_waiver_baseline.txt");
  ASSERT_TRUE(in.good()) << "tools/lint_waiver_baseline.txt missing";
  const auto baseline = emis_lint::ParseWaiverBaseline(in);
  EXPECT_EQ(emis_lint::DiffWaiverBaseline(r, baseline), "");
  for (const auto& [rule, count] : baseline) {
    const auto it = r.suppressed_by_rule.find(rule);
    EXPECT_TRUE(it != r.suppressed_by_rule.end() && it->second == count)
        << "baseline entry '" << rule << " " << count
        << "' no longer matches the tree (now "
        << (it == r.suppressed_by_rule.end() ? 0 : it->second)
        << ") — ratchet tools/lint_waiver_baseline.txt down";
  }
}
#endif

}  // namespace
