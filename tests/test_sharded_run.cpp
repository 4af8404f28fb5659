// Intra-run sharding and the emis-csr/1 binary graph format.
//
// Sharding contract (DESIGN.md §13): a flat-engine run partitioned over any
// shard count is BIT-IDENTICAL to the single-shard run — same decisions,
// same rounds, same energy totals, same full trace hash. Pinned here:
//   * fingerprint equality across shards {1, 2, 3, 4, 8} for every MIS core
//     across loss {0, 0.1}, and at 4 shards on a graph whose runs mix
//     dispatched and one-part rounds;
//   * the frozen golden trace hashes of tests/test_residual_compaction.cpp
//     reproduce at 4 shards (equivalence to the frozen behavior, not merely
//     to today's single-shard build);
//   * a graph big enough to cross the scheduler's inline-below threshold
//     (kParallelMinNodes) so real pool threads execute the round passes,
//     and a 4-shard run below it that merges nothing (every pass one part);
//   * pinned graph.compactions / graph.edges_reclaimed /
//     graph.retire_rebuilds / chan.edges_scanned / chan.push_rounds /
//     chan.pull_rounds for both engines at shards 1-4 on a graph dense
//     enough that the row-owner retire passes dispatch to the pool;
//   * observed runs (timeline, ledger, telemetry) produce emis-run-report/1
//     documents, telemetry streams and flamegraph lines identical across
//     shard counts outside the declared cost observables (run.shards,
//     chan.merge_words, parallel.* gauges, wall-clock timers, alloc), and
//     run.shards reports the shard count that ran, not the one requested;
//   * each phase's residual_edges_end is the residual at its boundary
//     round, on both engines and at 1 and 4 shards;
//   * EMIS_SHARDS / EMIS_ENGINE typos and unknown emis_cli flags fail
//     closed (exit 2), never run on the default.
// Format contract: pack -> mmap round-trips the exact CSR arrays, and the
// loader rejects truncation, bad magic, bad version, foreign endianness,
// header sizes whose arithmetic overflows and non-monotone row offsets; a
// run rejects adjacency ids ≥ n, self-loops, rows out of order and
// asymmetric rows before reading by them, and a residual graph refuses an
// asymmetric walk before it writes its overlay.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include "core/contracts.hpp"
#include "core/mis_cd.hpp"
#include "core/mis_nocd.hpp"
#include "core/runner.hpp"
#include "obs/energy_ledger.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timeline.hpp"
#include "obs/report.hpp"
#include "obs/stream_sink.hpp"
#include "radio/graph.hpp"
#include "radio/graph_generators.hpp"
#include "radio/graph_io.hpp"
#include "radio/scheduler.hpp"
#include "radio/trace.hpp"
#include "trace_hash.hpp"

namespace emis {
namespace {

// ---------------------------------------------------------------------------
// emis-csr/1 round-trip and rejection

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void PackTo(const std::string& path, const Graph& g) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.good());
  WriteBinaryCsr(out, g);
  out.flush();
  ASSERT_TRUE(out.good());
}

TEST(BinaryCsr, PackThenMapRoundTripsExactArrays) {
  Rng rng(31337);
  const Graph g = gen::ErdosRenyi(300, 0.05, rng);
  const std::string path = TempPath("roundtrip.csr");
  PackTo(path, g);

  const Graph mapped = MapBinaryCsr(path);
  ASSERT_EQ(mapped.NumNodes(), g.NumNodes());
  EXPECT_EQ(mapped.NumEdges(), g.NumEdges());
  EXPECT_EQ(mapped.MaxDegree(), g.MaxDegree());
  ASSERT_EQ(mapped.RowOffsets().size(), g.RowOffsets().size());
  for (std::size_t i = 0; i < g.RowOffsets().size(); ++i) {
    ASSERT_EQ(mapped.RowOffsets()[i], g.RowOffsets()[i]) << "offset " << i;
  }
  ASSERT_EQ(mapped.Adjacency().size(), g.Adjacency().size());
  for (std::size_t i = 0; i < g.Adjacency().size(); ++i) {
    ASSERT_EQ(mapped.Adjacency()[i], g.Adjacency()[i]) << "entry " << i;
  }
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ASSERT_EQ(mapped.Degree(v), g.Degree(v)) << "node " << v;
  }
}

TEST(BinaryCsr, MappedGraphSurvivesCopyAndMove) {
  Rng rng(4);
  const Graph g = gen::ErdosRenyi(64, 0.1, rng);
  const std::string path = TempPath("copy.csr");
  PackTo(path, g);

  Graph mapped = MapBinaryCsr(path);
  const Graph copy = mapped;               // shares the mapping
  const Graph moved = std::move(mapped);   // steals it; views stay valid
  EXPECT_EQ(copy.NumEdges(), g.NumEdges());
  EXPECT_EQ(moved.NumEdges(), g.NumEdges());
  EXPECT_EQ(copy.Degree(0), moved.Degree(0));
}

TEST(BinaryCsr, EmptyGraphRoundTrips) {
  const Graph g = GraphBuilder(0).Build();
  const std::string path = TempPath("empty.csr");
  PackTo(path, g);
  const Graph mapped = MapBinaryCsr(path);
  EXPECT_EQ(mapped.NumNodes(), 0u);
  EXPECT_EQ(mapped.NumEdges(), 0u);
}

TEST(BinaryCsr, RejectsTruncatedFile) {
  Rng rng(5);
  const Graph g = gen::ErdosRenyi(128, 0.06, rng);
  const std::string full = TempPath("full.csr");
  PackTo(full, g);
  std::ifstream in(full, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 64u);

  // Cut inside the adjacency section: header parses, file_size disagrees.
  const std::string cut = TempPath("cut.csr");
  std::ofstream out(cut, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 8));
  out.close();
  EXPECT_THROW(MapBinaryCsr(cut), PreconditionError);

  // Cut inside the header: too small to even decode.
  const std::string stub = TempPath("stub.csr");
  std::ofstream out2(stub, std::ios::binary);
  out2.write(bytes.data(), 20);
  out2.close();
  EXPECT_THROW(MapBinaryCsr(stub), PreconditionError);
}

void CorruptByte(const std::string& src, const std::string& dst,
                 std::size_t at, char value) {
  std::ifstream in(src, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), at);
  bytes[at] = value;
  std::ofstream out(dst, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(BinaryCsr, RejectsBadMagicVersionAndForeignEndianness) {
  Rng rng(6);
  const Graph g = gen::ErdosRenyi(64, 0.1, rng);
  const std::string good = TempPath("good.csr");
  PackTo(good, g);
  EXPECT_NO_THROW(MapBinaryCsr(good));

  const std::string bad_magic = TempPath("bad_magic.csr");
  CorruptByte(good, bad_magic, 0, 'X');  // magic starts at byte 0
  EXPECT_THROW(MapBinaryCsr(bad_magic), PreconditionError);

  // The endian tag (bytes 8..11) stores 0x01020304 in native order; a
  // byte-swapped tag is what this machine would read from a file written on
  // an opposite-endian host. Swapping bytes 8 and 11 produces exactly that.
  const std::string foreign = TempPath("foreign.csr");
  {
    std::ifstream in(good, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::swap(bytes[8], bytes[11]);
    std::swap(bytes[9], bytes[10]);
    std::ofstream out(foreign, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(MapBinaryCsr(foreign), PreconditionError);

  const std::string bad_version = TempPath("bad_version.csr");
  CorruptByte(good, bad_version, 12, 9);  // version field at bytes 12..15
  EXPECT_THROW(MapBinaryCsr(bad_version), PreconditionError);
}

/// Copies `src` to `dst` with each (byte offset, value) u64 patched in.
void PatchU64(const std::string& src, const std::string& dst,
              const std::vector<std::pair<std::size_t, std::uint64_t>>& patches) {
  std::ifstream in(src, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  for (const auto& [at, value] : patches) {
    ASSERT_GE(bytes.size(), at + sizeof(value));
    std::memcpy(bytes.data() + at, &value, sizeof(value));
  }
  std::ofstream out(dst, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void ExpectOverflowRejected(const std::string& path) {
  try {
    MapBinaryCsr(path);
    ADD_FAILURE() << path << " was accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos) << e.what();
  }
  // The CLI turns the typed error into a usage exit, never a crash.
  const std::string cmd = std::string(EMIS_CLI_PATH) + " run --graph csr:" + path +
                          " --alg cd --quiet 2>/dev/null";
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << cmd;
  EXPECT_EQ(WEXITSTATUS(status), 2) << cmd;
}

TEST(BinaryCsr, RejectsHeaderSizesThatOverflow) {
  Rng rng(7);
  const Graph g = gen::ErdosRenyi(64, 0.1, rng);
  const std::string good = TempPath("sizes_good.csr");
  PackTo(good, g);
  constexpr std::size_t kAdjEntriesAt = 24;
  constexpr std::size_t kOffsetsStartAt = 40;
  constexpr std::size_t kOffsetsAt = 64;  // the packer's offsets_start

  // adj_entries * 4 wraps to 0. The last row offset is patched to match, so
  // only the overflow check stands between this file and a 2^62-entry view.
  const std::uint64_t huge = std::uint64_t{1} << 62;
  const std::string entries = TempPath("adj_entries_overflow.csr");
  PatchU64(good, entries,
           {{kAdjEntriesAt, huge}, {kOffsetsAt + 8 * std::size_t{g.NumNodes()}, huge}});
  ExpectOverflowRejected(entries);

  // offsets_start + (n + 1) * 8 wraps past 2^64 to a small, in-bounds end
  // (still 64-byte aligned, so the alignment check alone would pass it).
  const std::string start = TempPath("offsets_start_overflow.csr");
  PatchU64(good, start, {{kOffsetsStartAt, ~std::uint64_t{0} - 63}});
  ExpectOverflowRejected(start);
}

std::uint64_t ReadU64(const std::string& path, std::size_t at) {
  std::ifstream in(path, std::ios::binary);
  in.seekg(static_cast<std::streamoff>(at));
  std::uint64_t value = 0;
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  EXPECT_TRUE(in.good()) << path;
  return value;
}

/// Copies `src` to `dst` with the u32 at byte offset `at` set to `value`.
void PatchU32(const std::string& src, const std::string& dst, std::size_t at,
              std::uint32_t value) {
  std::ifstream in(src, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GE(bytes.size(), at + sizeof(value));
  std::memcpy(bytes.data() + at, &value, sizeof(value));
  std::ofstream out(dst, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Runs `emis_cli ARGS --quiet` and expects a usage exit (2) whose output
/// contains `what`, so one rejection cannot pass for another (a bad flag
/// for a bad file, say).
void ExpectUsageError(const std::string& args, const std::string& what) {
  const std::string cmd = std::string(EMIS_CLI_PATH) + " " + args + " --quiet 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr) << cmd;
  std::string output;
  char buffer[256];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) output += buffer;
  const int status = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status)) << cmd;
  EXPECT_EQ(WEXITSTATUS(status), 2) << cmd;
  EXPECT_NE(output.find(what), std::string::npos) << cmd << "\n" << output;
}

// Three one-field patches of a packed path:n=2 that used to crash
// `emis_cli run` (exit 139) or be accepted. Each is now a typed error and
// exit 2 — on both engines. Interior offsets are checked at map time (an
// O(n) pass); ids and self-loops by the first run on the mapping
// (Graph::RequireValidAdjacency), so loading still faults in no adjacency
// page.
TEST(BinaryCsr, RejectsAdjacencyARunWouldTrust) {
  const std::string good = TempPath("path2.csr");
  PackTo(good, gen::Path(2));  // offsets {0, 1, 2}, adjacency {1, 0}
  constexpr std::size_t kOffsetsAt = 64;          // the packer's offsets_start
  constexpr std::size_t kAdjacencyStartAt = 48;   // header field
  const std::size_t adjacency_at = ReadU64(good, kAdjacencyStartAt);

  const std::string big_id = TempPath("id_out_of_range.csr");
  PatchU32(good, big_id, adjacency_at, 7'000'000);
  const std::string offset = TempPath("interior_offset.csr");
  PatchU64(good, offset, {{kOffsetsAt + 8, 5}});  // offsets {0, 5, 2}
  const std::string loop = TempPath("self_loop.csr");
  PatchU32(good, loop, adjacency_at, 0);  // row 0 = {0}

  try {
    MapBinaryCsr(offset);
    ADD_FAILURE() << offset << " was accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("monotone"), std::string::npos) << e.what();
  }
  const std::pair<std::string, const char*> faults[] = {
      {big_id, "node id"}, {offset, "monotone"}, {loop, "self-loop"}};
  for (const auto& [path, what] : faults) {
    if (path != offset) {
      const Graph g = MapBinaryCsr(path);
      try {
        (void)RunMis(g, MisRunConfig{});
        ADD_FAILURE() << path << " ran";
      } catch (const PreconditionError& e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
      }
    }
    for (const char* flags : {"", " --alg nocd", " --engine flat --shards 4",
                              " --alg nocd --engine flat"}) {
      ExpectUsageError("run --graph csr:" + path + flags, what);
    }
  }
}

// A header max_degree (Δ, which sizes every backoff window) that is not the
// longest row: 0 and 1 on path:n=3 (Δ = 2), and 0xFFFFFFFF on path:n=2,
// which a run used to accept and silently run with a 2^32 - 1 window. The
// map-time offsets pass recomputes Δ, so each is a typed error and exit 2
// on both engines.
TEST(BinaryCsr, RejectsMaxDegreeThatDoesNotMatchTheRows) {
  constexpr std::size_t kMaxDegreeAt = 32;  // header field
  const std::pair<Graph, std::uint32_t> cases[] = {
      {gen::Path(3), 0}, {gen::Path(3), 1}, {gen::Path(2), 0xFFFFFFFFu}};
  for (const auto& [g, patched] : cases) {
    const std::string name = "max_degree_" + std::to_string(g.NumNodes()) + "_" +
                             std::to_string(patched);
    const std::string good = TempPath(name + "_good.csr");
    const std::string bad = TempPath(name + ".csr");
    PackTo(good, g);
    EXPECT_EQ(MapBinaryCsr(good).MaxDegree(), g.MaxDegree());
    PatchU32(good, bad, kMaxDegreeAt, patched);
    try {
      MapBinaryCsr(bad);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("max_degree does not match its rows"),
                std::string::npos)
          << e.what();
    }
    for (const char* flags : {"", " --alg nocd", " --engine flat", " --alg nocd --engine flat"}) {
      ExpectUsageError("run --graph csr:" + bad + flags, "max_degree does not match its rows");
    }
  }
}

// Rows out of order: path:n=3's middle row {0, 2} and star:n=4's hub row
// {1, 2, 3}, each with two entries swapped and with an entry repeated
// (in-range, loop-free ids, so only the order check catches them). The
// walk's row slices and the rebuild's stable filter trust
// ascending rows, so each file is a typed error and exit 2 — on both
// engines — and stays one on a second run of the same mapping (a failed
// check is not remembered as passed).
TEST(BinaryCsr, RejectsRowsThatAreNotStrictlyAscending) {
  constexpr std::size_t kAdjacencyStartAt = 48;  // header field
  std::vector<std::string> files;
  // Packs `g`, then overwrites adjacency entry i with id for each {i, id}.
  const auto patch = [&](const Graph& g, const std::string& name,
                         std::vector<std::pair<std::size_t, std::uint32_t>> entries) {
    const std::string good = TempPath(name + ".csr");
    PackTo(good, g);
    const std::size_t adjacency_at = ReadU64(good, kAdjacencyStartAt);
    std::string from = good;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const std::string to = TempPath(name + "_" + std::to_string(i) + ".csr");
      PatchU32(from, to, adjacency_at + 4 * entries[i].first, entries[i].second);
      from = to;
    }
    files.push_back(from);
  };
  // path:n=3 adjacency {1 | 0, 2 | 1}; star:n=4 {1, 2, 3 | 0 | 0 | 0}.
  patch(gen::Path(3), "path3_swapped", {{1, 2}, {2, 0}});
  patch(gen::Path(3), "path3_repeated", {{2, 0}});
  patch(gen::Star(4), "star4_swapped", {{0, 2}, {1, 1}});
  patch(gen::Star(4), "star4_repeated", {{1, 1}});
  for (const std::string& path : files) {
    const Graph g = MapBinaryCsr(path);  // map time stays O(n): accepted
    for (const ExecutionEngine engine :
         {ExecutionEngine::kCoroutine, ExecutionEngine::kFlat}) {
      for (int attempt = 0; attempt < 2; ++attempt) {
        MisRunConfig cfg;
        cfg.engine = engine;
        try {
          (void)RunMis(g, cfg);
          ADD_FAILURE() << path << " ran: " << ToString(engine);
        } catch (const PreconditionError& e) {
          EXPECT_NE(std::string(e.what()).find("strictly ascending"), std::string::npos)
              << e.what();
        }
      }
    }
    for (const char* flags : {"", " --alg nocd", " --engine flat --shards 4",
                              " --engine flat"}) {
      ExpectUsageError("run --graph csr:" + path + flags, "strictly ascending");
    }
  }
}

// An asymmetric file whose rows are each ascending, in range and loop-free:
// hub 0 lists 1..100, whose rows are empty, and 101..151 list 0, which does
// not list them back. A run rejects it up front (the adjacency check's pair
// hash): a typed error and exit 2 on both engines.
// Below the check, a residual built on it directly must still refuse it:
// retiring 101..151 in one walked batch counts 51 deaths against the hub
// that its row never held, so its ½ trigger fires at a live degree of 49
// while all 100 of its entries live. The move stages those entries before
// sizing the overlay (75 entries here), and the mismatch is a typed error
// before anything is copied — at one part and at four, where the hub's
// block would otherwise spill into its neighbours' and past the end.
TEST(BinaryCsr, AsymmetricRowsAreATypedErrorNotAnOverflow) {
  constexpr NodeId kHubDegree = 100;
  constexpr NodeId kNodes = 1 + kHubDegree + 51;
  std::vector<std::uint64_t> offsets{0, kHubDegree};
  std::vector<NodeId> adjacency;
  for (NodeId v = 1; v <= kHubDegree; ++v) adjacency.push_back(v);
  for (NodeId v = 1; v < kNodes; ++v) {
    if (v > kHubDegree) adjacency.push_back(0);
    offsets.push_back(adjacency.size());
  }
  const std::string path = TempPath("asymmetric_hub.csr");
  PackTo(path, Graph::FromMappedCsr(std::make_shared<int>(0), offsets.data(), kNodes,
                                    adjacency.data(), adjacency.size(), kHubDegree));
  const Graph g = MapBinaryCsr(path);
  ASSERT_EQ(g.NumEdges(), 75u);
  for (const ExecutionEngine engine :
       {ExecutionEngine::kCoroutine, ExecutionEngine::kFlat}) {
    MisRunConfig cfg;
    cfg.engine = engine;
    try {
      (void)RunMis(g, cfg);
      ADD_FAILURE() << "ran: " << ToString(engine);
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("not symmetric"), std::string::npos) << e.what();
    }
  }
  for (const char* flags : {"", " --alg nocd", " --engine flat --shards 4",
                            " --alg nocd --engine flat"}) {
    ExpectUsageError("run --graph csr:" + path + flags, "not symmetric");
  }

  std::vector<NodeId> ghosts;
  for (NodeId v = kHubDegree + 1; v < kNodes; ++v) ghosts.push_back(v);
  const std::vector<NodeId> cuts[] = {{0, kNodes}, {0, 1, 60, 120, kNodes}};
  for (const std::vector<NodeId>& cut : cuts) {
    ResidualGraph residual(g);
    try {
      residual.RetireBatch(ghosts, cut, 4);
      ADD_FAILURE() << "asymmetric batch retired at " << cut.size() - 1 << " parts";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("not symmetric"), std::string::npos) << e.what();
    }
    EXPECT_TRUE(residual.Overlay().empty());
    EXPECT_EQ(residual.Rebuilds(), 0u);  // the batch was walked
  }
}

TEST(BinaryCsr, MappedGraphRunsIdenticallyToOwnedGraph) {
  Rng rng(11);
  const Graph owned = gen::ErdosRenyi(200, 0.05, rng);
  const std::string path = TempPath("run.csr");
  PackTo(path, owned);
  const Graph mapped = MapBinaryCsr(path);

  MisRunConfig cfg;
  cfg.algorithm = MisAlgorithm::kCd;
  cfg.seed = 3;
  cfg.engine = ExecutionEngine::kFlat;
  const MisRunResult a = RunMis(owned, cfg);
  const MisRunResult b = RunMis(mapped, cfg);
  EXPECT_TRUE(a.Valid());
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.stats.rounds_used, b.stats.rounds_used);
  EXPECT_EQ(a.energy.TotalAwake(), b.energy.TotalAwake());
}

// ---------------------------------------------------------------------------
// Sharded-run bit-identity

struct RunFingerprint {
  std::vector<MisStatus> status;
  Round rounds = 0;
  std::uint64_t total_awake = 0;
  std::uint64_t max_awake = 0;
  std::uint64_t trace_hash = 0;
  // Residual-graph and channel work counters from an attached registry.
  // graph.compactions / graph.edges_reclaimed depend on the order nodes
  // retire in and graph.retire_rebuilds on how retirees group into
  // batches, so they pin the retire pass, not just the radio.
  std::uint64_t compactions = 0;
  std::uint64_t edges_reclaimed = 0;
  std::uint64_t retire_rebuilds = 0;
  std::uint64_t edges_scanned = 0;
  // The accounting model's direction split (scheduler.hpp ResolveDirection),
  // which must not depend on the direction the channel physically scans.
  std::uint64_t push_rounds = 0;
  std::uint64_t pull_rounds = 0;

  friend bool operator==(const RunFingerprint&, const RunFingerprint&) = default;
};

RunFingerprint ShardedFingerprint(const Graph& g, unsigned shards,
                                  MisAlgorithm algorithm, double loss,
                                  ExecutionEngine engine = ExecutionEngine::kFlat) {
  HashTrace trace;
  obs::MetricsRegistry metrics;
  MisRunConfig cfg;
  cfg.algorithm = algorithm;
  cfg.seed = 7;
  cfg.engine = engine;
  cfg.shards = shards;
  cfg.trace = &trace;
  cfg.metrics = &metrics;
  cfg.link_loss = loss;
  const MisRunResult r = RunMis(g, cfg);
  EXPECT_TRUE(r.Valid() || loss > 0.0);
  return {r.status,
          r.stats.rounds_used,
          r.energy.TotalAwake(),
          r.energy.MaxAwake(),
          trace.Value(),
          metrics.GetCounter("graph.compactions").Value(),
          metrics.GetCounter("graph.edges_reclaimed").Value(),
          metrics.GetCounter("graph.retire_rebuilds").Value(),
          metrics.GetCounter("chan.edges_scanned").Value(),
          metrics.GetCounter("chan.push_rounds").Value(),
          metrics.GetCounter("chan.pull_rounds").Value()};
}

constexpr MisAlgorithm kCores[] = {
    MisAlgorithm::kCd, MisAlgorithm::kCdNaive, MisAlgorithm::kNoCd,
    MisAlgorithm::kNoCdDaviesProfile, MisAlgorithm::kNoCdRoundEfficient};

TEST(ShardedRun, BitIdenticalAcrossShardCountsForEveryCore) {
  // 96 nodes: every pass runs as one part at any shard count; 8 shards is
  // more than the natural cut count for 96 nodes on small shards. At 1100
  // nodes the spawn pass and the early, all-awake rounds reach
  // kParallelMinNodes and dispatch (pull, merged part bitsets) while the
  // later rounds run as one part (push-capable, nothing merged), so a
  // 4-shard run mixes both.
  Rng rng(909);
  const Graph small = gen::ErdosRenyi(96, 0.07, rng);
  const Graph mixed = gen::ErdosRenyi(1100, 0.006, rng);
  for (MisAlgorithm algorithm : kCores) {
    for (double loss : {0.0, 0.1}) {
      const RunFingerprint reference = ShardedFingerprint(small, 1, algorithm, loss);
      for (unsigned shards : {2u, 3u, 4u, 8u}) {
        EXPECT_EQ(ShardedFingerprint(small, shards, algorithm, loss), reference)
            << ToString(algorithm) << " loss " << loss << " shards " << shards;
      }
    }
    EXPECT_EQ(ShardedFingerprint(mixed, 4, algorithm, 0.0),
              ShardedFingerprint(mixed, 1, algorithm, 0.0))
        << ToString(algorithm) << ", 1100 nodes";
  }
}

TEST(ShardedRun, ReproducesPinnedGoldenTraceHashesAtFourShards) {
  // The constants test_residual_compaction.cpp froze for the coroutine
  // engine; the sharded flat path must reproduce the frozen behavior.
  Rng rng(424242);
  const Graph g = gen::RandomGeometric(64, 0.22, rng);
  EXPECT_EQ(ShardedFingerprint(g, 4, MisAlgorithm::kCd, 0.0).trace_hash,
            0xB54A7384D88D1E30ULL);
  EXPECT_EQ(ShardedFingerprint(g, 4, MisAlgorithm::kCd, 0.3).trace_hash,
            0x0FA217956D3014ABULL);
  EXPECT_EQ(ShardedFingerprint(g, 4, MisAlgorithm::kNoCd, 0.0).trace_hash,
            0xE8D014E39E2297D4ULL);
}

TEST(ShardedRun, BitIdenticalAboveTheInlineThreshold) {
  // 4096 nodes crosses Scheduler::kParallelMinNodes, so the round passes
  // genuinely dispatch onto pool threads (the small-graph tests above run
  // the shard loops inline). This is the TSan-meaningful configuration.
  Rng rng(616);
  const Graph g = gen::ErdosRenyi(4096, 0.002, rng);
  const RunFingerprint reference =
      ShardedFingerprint(g, 1, MisAlgorithm::kCd, 0.0);
  for (unsigned shards : {2u, 4u}) {
    EXPECT_EQ(ShardedFingerprint(g, shards, MisAlgorithm::kCd, 0.0),
              reference)
        << "shards " << shards;
  }
}

TEST(ShardedRun, ResidualCountersPinnedWhereRetirePassesDispatch) {
  // Average degree ~96 over 4096 nodes (~390K scan entries): the early
  // Luby phases' retire batches are far above the scheduler's retire
  // dispatch threshold, so at 2+ shards the row-owner retire passes — walk
  // and rebuild alike — run on pool threads. The order-dependent compaction
  // counters and the rebuild count were recorded when big batches began to
  // be rebuilt (a rebuild shrinks every row it filters at once, where the
  // walk only shrank rows past the ½ trigger: 4191 → 1418 and 4627 → 2798
  // compactions), and the push/pull round split from the build whose
  // rounds still had a separate sharded body; both engines at every shard
  // count must reproduce them and the single-shard flat fingerprint
  // exactly.
  Rng rng(2718);
  const Graph g = gen::ErdosRenyi(4096, 0.0234375, rng);
  struct Pinned {
    MisAlgorithm algorithm;
    std::uint64_t compactions;
    std::uint64_t retire_rebuilds;
    std::uint64_t edges_scanned;
    std::uint64_t push_rounds;
    std::uint64_t pull_rounds;
  };
  for (const Pinned& pinned :
       {Pinned{MisAlgorithm::kCd, 1418, 4, 495458, 98, 57},
        Pinned{MisAlgorithm::kNoCd, 2798, 5, 5619579, 67932, 5363}}) {
    const std::string what(ToString(pinned.algorithm));
    const RunFingerprint reference =
        ShardedFingerprint(g, 1, pinned.algorithm, 0.0);
    EXPECT_EQ(reference.compactions, pinned.compactions) << what;
    EXPECT_EQ(reference.retire_rebuilds, pinned.retire_rebuilds) << what;
    EXPECT_EQ(reference.edges_reclaimed, 2 * g.NumEdges()) << what;
    EXPECT_EQ(reference.edges_scanned, pinned.edges_scanned) << what;
    EXPECT_EQ(reference.push_rounds, pinned.push_rounds) << what;
    EXPECT_EQ(reference.pull_rounds, pinned.pull_rounds) << what;
    for (ExecutionEngine engine : {ExecutionEngine::kFlat, ExecutionEngine::kCoroutine}) {
      for (unsigned shards : {1u, 2u, 3u, 4u}) {
        EXPECT_EQ(ShardedFingerprint(g, shards, pinned.algorithm, 0.0, engine),
                  reference)
            << what << " " << ToString(engine) << " shards " << shards;
      }
    }
  }
}

TEST(ShardedRun, ShardCountExceedingNodesIsClamped) {
  const Graph g = gen::Path(5);
  const RunFingerprint reference =
      ShardedFingerprint(g, 1, MisAlgorithm::kCd, 0.0);
  EXPECT_EQ(ShardedFingerprint(g, 64, MisAlgorithm::kCd, 0.0), reference);
}

// ---------------------------------------------------------------------------
// Reports across shard counts

/// An observed flat run at `shards` — timeline, ledger and telemetry all
/// attached — rendered as its emis-run-report/1 minus the declared cost
/// observables (run.shards, the chan.merge_words / parallel.* gauges, the
/// wall-clock timers and the alloc section), then its telemetry stream and
/// its flamegraph lines. What remains must be identical at any shard count.
std::string NormalizedShardReport(const Graph& g, MisAlgorithm algorithm,
                                  unsigned shards) {
  obs::MetricsRegistry metrics;
  obs::PhaseTimeline timeline;
  obs::EnergyLedger ledger(g.NumNodes());
  obs::StreamSink telemetry(obs::StreamSinkConfig{.heartbeat_every = 64});
  MisRunConfig cfg;
  cfg.algorithm = algorithm;
  cfg.seed = 21;
  cfg.engine = ExecutionEngine::kFlat;
  cfg.shards = shards;
  cfg.metrics = &metrics;
  cfg.timeline = &timeline;
  cfg.ledger = &ledger;
  cfg.telemetry = &telemetry;
  const MisRunResult r = RunMis(g, cfg);
  EXPECT_TRUE(r.Valid());
  EXPECT_EQ(telemetry.DroppedEvents(), 0u);
  const std::string name(ToString(algorithm));
  obs::JsonValue doc = obs::BuildRunReport({.algorithm = name,
                                            .graph = "er-shard-parity",
                                            .preset = "practical",
                                            .seed = 21,
                                            .nodes = g.NumNodes(),
                                            .edges = g.NumEdges(),
                                            .max_degree = g.MaxDegree(),
                                            .shards = r.shards,
                                            .valid_mis = r.Valid(),
                                            .mis_size = r.MisSize(),
                                            .stats = &r.stats,
                                            .energy = &r.energy,
                                            .timeline = &timeline,
                                            .metrics = &metrics,
                                            .ledger = &ledger});
  EXPECT_EQ(obs::ValidateRunReport(doc), "");
  // The run block must record what actually executed.
  EXPECT_EQ(doc.Find("run")->Find("shards")->AsNumber(),
            static_cast<double>(shards));
  EXPECT_NE(doc.Find("energy_attribution"), nullptr);
  obs::JsonValue normalized = obs::JsonValue::MakeObject();
  for (const auto& [key, value] : doc.Entries()) {
    if (key == "alloc") continue;
    if (key == "run") {
      obs::JsonValue run_doc = obs::JsonValue::MakeObject();
      for (const auto& [rkey, rvalue] : value.Entries()) {
        if (rkey != "shards") run_doc.Set(rkey, rvalue);
      }
      normalized.Set("run", std::move(run_doc));
      continue;
    }
    if (key != "metrics") {
      normalized.Set(key, value);
      continue;
    }
    obs::JsonValue metrics_doc = obs::JsonValue::MakeObject();
    for (const auto& [mkey, mvalue] : value.Entries()) {
      if (mkey == "timers") continue;
      if (mkey != "gauges") {
        metrics_doc.Set(mkey, mvalue);
        continue;
      }
      obs::JsonValue gauges = obs::JsonValue::MakeObject();
      for (const auto& [gkey, gvalue] : mvalue.Entries()) {
        if (gkey.starts_with("parallel.") || gkey == "chan.merge_words") continue;
        gauges.Set(gkey, gvalue);
      }
      metrics_doc.Set("gauges", std::move(gauges));
    }
    normalized.Set("metrics", std::move(metrics_doc));
  }
  std::ostringstream flame;
  ledger.WriteCollapsed(flame, name);
  return normalized.Dump(2) + "\n--- telemetry\n" + telemetry.DrainToString() +
         "--- flamegraph\n" + flame.str();
}

TEST(ShardedRun, ReportsIdenticalAcrossShardCountsOutsideCostKeys) {
  // Large enough that the boundary passes, where every undecided node
  // annotates its phase, reach kParallelMinNodes and step on the pool.
  Rng rng(77);
  const Graph g = gen::ErdosRenyi(4096, 0.01, rng);
  for (MisAlgorithm algorithm : {MisAlgorithm::kCd, MisAlgorithm::kNoCd}) {
    const std::string reference = NormalizedShardReport(g, algorithm, 1);
    EXPECT_NE(reference.find("\"event\":\"phase\""), std::string::npos);
    EXPECT_EQ(NormalizedShardReport(g, algorithm, 2), reference)
        << ToString(algorithm);
    EXPECT_EQ(NormalizedShardReport(g, algorithm, 4), reference)
        << ToString(algorithm);
  }
}

TEST(ShardedRun, PassesBelowTheDispatchThresholdRunTheOneShardRound) {
  // 512 nodes: no pass (spawn, wake drain, round, resume) reaches
  // kParallelMinNodes, so every pass of a 4-shard run is one part — the
  // one-shard round, which registers transmitters with the channel directly
  // and merges no shard bitsets — and its report is the one-shard report
  // outside the cost keys.
  Rng rng(77);
  const Graph g = gen::ErdosRenyi(512, 0.02, rng);
  for (MisAlgorithm algorithm : {MisAlgorithm::kCd, MisAlgorithm::kNoCd}) {
    obs::MetricsRegistry metrics;
    MisRunConfig cfg{.algorithm = algorithm, .seed = 21};
    cfg.engine = ExecutionEngine::kFlat;
    cfg.shards = 4;
    cfg.metrics = &metrics;
    const MisRunResult r = RunMis(g, cfg);
    EXPECT_TRUE(r.Valid());
    EXPECT_EQ(r.shards, 4u);
    EXPECT_EQ(metrics.GetGauge("chan.merge_words").Value(), 0.0)
        << ToString(algorithm);
    EXPECT_EQ(NormalizedShardReport(g, algorithm, 4),
              NormalizedShardReport(g, algorithm, 1))
        << ToString(algorithm);
  }
}

// ---------------------------------------------------------------------------
// The phase residual is the boundary residual

/// Edges whose endpoints are both undecided: what RunMis's timeline probe
/// counts.
std::uint64_t UndecidedEdges(const Graph& g, const std::vector<MisStatus>& status) {
  std::uint64_t edges = 0;
  for (const Edge& e : g.EdgeList()) {
    edges += status[e.u] == MisStatus::kUndecided &&
             status[e.v] == MisStatus::kUndecided;
  }
  return edges;
}

/// The level-0 spans of an observed RunMis.
std::vector<obs::PhaseSpan> ObservedPhases(const Graph& g, MisRunConfig cfg) {
  obs::PhaseTimeline timeline;
  cfg.timeline = &timeline;
  const MisRunResult r = RunMis(g, cfg);
  EXPECT_TRUE(r.Valid());
  std::vector<obs::PhaseSpan> phases;
  for (const obs::PhaseSpan& span : timeline.Spans()) {
    if (span.level == 0) phases.push_back(span);
  }
  return phases;
}

TEST(ShardedRun, PhaseResidualIsTheBoundaryResidual) {
  // Each level-0 span's residual_edges_end must be the residual once every
  // node stepped into its end round r has decided, whichever node annotated
  // first. The truth comes from an unobserved run of the same protocol
  // driven with RunUntil (the E20 decay leg's method) to r + 1: RunUntil(r)
  // stops before the wakes due at r are stepped, and no-CD nodes that slept
  // out a shallow check decide in that wake; round r itself, the first
  // competition round of the next phase, decides nothing in either
  // protocol. n = 4096 puts the boundary passes over kParallelMinNodes at
  // 4 shards.
  Rng rng(11);
  const Graph g = gen::ErdosRenyi(4096, 0.01, rng);
  const NodeId n = g.NumNodes();
  const CdParams cd = CdParams::Practical(n);
  const NoCdParams nocd = NoCdParams::Practical(n, g.MaxDegree());
  for (MisAlgorithm algorithm : {MisAlgorithm::kCd, MisAlgorithm::kNoCd}) {
    const bool is_cd = algorithm == MisAlgorithm::kCd;
    MisRunConfig cfg{.algorithm = algorithm, .seed = 1};
    if (is_cd) {
      cfg.cd_params = cd;
    } else {
      cfg.nocd_params = nocd;
    }
    cfg.engine = ExecutionEngine::kCoroutine;
    cfg.shards = 1;
    const std::vector<obs::PhaseSpan> phases = ObservedPhases(g, cfg);
    ASSERT_GE(phases.size(), 2u) << ToString(algorithm);

    std::vector<MisStatus> status(n, MisStatus::kUndecided);
    Scheduler truth(g, {.model = ModelFor(algorithm)}, cfg.seed);
    truth.Spawn(is_cd ? MisCdProtocol(cd, &status) : MisNoCdProtocol(nocd, &status));
    for (const obs::PhaseSpan& span : phases) {
      ASSERT_TRUE(span.has_residual) << span.label;
      truth.RunUntil(span.end_round + 1);
      EXPECT_EQ(span.residual_edges_end, UndecidedEdges(g, status))
          << ToString(algorithm) << " " << span.label << " ends at round "
          << span.end_round;
    }

    // Every engine and shard count reports the same spans.
    for (unsigned shards : {1u, 4u}) {
      cfg.engine = ExecutionEngine::kFlat;
      cfg.shards = shards;
      const std::vector<obs::PhaseSpan> flat = ObservedPhases(g, cfg);
      ASSERT_EQ(flat.size(), phases.size()) << shards << " shards";
      for (std::size_t i = 0; i < flat.size(); ++i) {
        EXPECT_EQ(flat[i].label, phases[i].label);
        EXPECT_EQ(flat[i].end_round, phases[i].end_round);
        EXPECT_EQ(flat[i].residual_edges_begin, phases[i].residual_edges_begin)
            << ToString(algorithm) << " " << flat[i].label << ", " << shards
            << " shards";
        EXPECT_EQ(flat[i].residual_edges_end, phases[i].residual_edges_end)
            << ToString(algorithm) << " " << flat[i].label << ", " << shards
            << " shards";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The shard count a run reports, and the environment defaults

/// `emis_cli run` on path:n=3 with the given flags; returns run.shards from
/// the report it wrote.
double ReportedShards(const std::string& flags) {
  const std::string report = TempPath("reported_shards.json");
  std::remove(report.c_str());
  const std::string cmd = std::string(EMIS_CLI_PATH) +
                          " run --graph path:n=3 --alg cd " + flags +
                          " --report-out " + report + " --quiet";
  const int status = std::system(cmd.c_str());
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << cmd;
  std::ifstream in(report);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  return obs::ParseJson(text).Find("run")->Find("shards")->AsNumber();
}

TEST(ShardedRun, CoroutineEngineReportsOneShard) {
  // The coroutine engine always runs one shard, whatever was requested.
  EXPECT_EQ(ReportedShards("--engine coroutine --shards 4"), 1.0);
  const MisRunResult r = RunMis(
      gen::Path(3), {.engine = ExecutionEngine::kCoroutine, .shards = 4});
  EXPECT_EQ(r.shards, 1u);
}

TEST(ShardedRun, FlatEngineReportsShardsClampedToNodes) {
  // Three nodes cannot fill eight shards; the scheduler runs three.
  EXPECT_EQ(ReportedShards("--engine flat --shards 8"), 3.0);
  const MisRunResult r =
      RunMis(gen::Path(3), {.engine = ExecutionEngine::kFlat, .shards = 8});
  EXPECT_EQ(r.shards, 3u);
}

TEST(ShardedRun, ParseShardsAcceptsOnlyTheDocumentedRange) {
  EXPECT_EQ(ParseShards("1", "--shards"), 1u);
  EXPECT_EQ(ParseShards("4", "EMIS_SHARDS"), 4u);
  EXPECT_EQ(ParseShards("256", "--shards"), 256u);
  for (const char* bad : {"", "0", "257", "four", "4x", " 4", "+4", "-1",
                          "99999999999999999999"}) {
    try {
      ParseShards(bad, "EMIS_SHARDS");
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("EMIS_SHARDS"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ShardedRun, ParseExecutionEngineRejectsUnknownNames) {
  EXPECT_EQ(ParseExecutionEngine("flat", "EMIS_ENGINE"), ExecutionEngine::kFlat);
  EXPECT_EQ(ParseExecutionEngine("coroutine", "EMIS_ENGINE"),
            ExecutionEngine::kCoroutine);
  for (const char* bad : {"", "flta", "Flat", "flat "}) {
    EXPECT_THROW(ParseExecutionEngine(bad, "EMIS_ENGINE"), PreconditionError)
        << "'" << bad << "'";
  }
}

TEST(ShardedRun, EnvironmentTyposExitWithUsageError) {
  // A set but invalid default must fail the run (exit 2), not quietly run
  // on the default — a typo in a CI matrix would otherwise test nothing.
  // An empty value still means "unset".
  const std::string run = std::string(EMIS_CLI_PATH) +
                          " run --graph path:n=3 --alg cd --quiet 2>/dev/null";
  for (const char* env : {"EMIS_SHARDS=four", "EMIS_ENGINE=flta"}) {
    const std::string cmd = std::string(env) + " " + run;
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << cmd;
    EXPECT_EQ(WEXITSTATUS(status), 2) << cmd;
  }
  for (const char* env : {"EMIS_SHARDS=", "EMIS_ENGINE="}) {
    const std::string cmd = std::string(env) + " " + run;
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << cmd;
    EXPECT_EQ(WEXITSTATUS(status), 0) << cmd;
  }
}

TEST(ShardedRun, FlagTyposExitWithUsageError) {
  // A removed or misspelt flag must fail the command (exit 2) and name the
  // flag, never run on defaults: `--shard 4` would otherwise run one shard.
  const struct {
    const char* args;
    const char* flag;
  } kCases[] = {
      {"run --graph path:n=3 --alg cd --resolution pull", "--resolution"},
      {"run --graph path:n=3 --alg cd --compaction off", "--compaction"},
      {"sweep --alg cd --family er --sizes 16 --seeds 1 --compaction off", "--compaction"},
      {"run --graph path:n=3 --alg cd --engine flat --shard 4", "--shard"},
      {"run --graph path:n=3 --alg cd --trace trace.csv", "--trace"},
      {"sweep --alg cd --family er --sizes 16 --seeds 1 --graph path:n=3", "--graph"},
  };
  for (const auto& c : kCases) {
    ExpectUsageError(c.args, std::string("unknown flag ") + c.flag + " ");
  }
}

}  // namespace
}  // namespace emis
