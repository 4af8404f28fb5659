#include "radio/graph_io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <vector>

#include "radio/graph_generators.hpp"
#include "radio/hugepages.hpp"

namespace emis {

void WriteEdgeList(std::ostream& out, const Graph& graph) {
  out << graph.NumNodes() << ' ' << graph.NumEdges() << '\n';
  for (const Edge& e : graph.EdgeList()) out << e.u << ' ' << e.v << '\n';
}

namespace {

constexpr char kCsrMagic[8] = {'E', 'M', 'I', 'S', 'C', 'S', 'R', '1'};
constexpr std::uint32_t kCsrEndianTag = 0x01020304u;
constexpr std::uint32_t kCsrVersion = 1;
constexpr std::uint64_t kCsrHeaderBytes = 64;
constexpr std::uint64_t kCsrAlign = 64;

constexpr std::uint64_t AlignUp(std::uint64_t value) noexcept {
  return (value + kCsrAlign - 1) & ~(kCsrAlign - 1);
}

/// The fixed 64-byte header, decoded from / encoded to raw bytes with
/// memcpy so the on-disk layout never depends on struct padding.
struct CsrHeader {
  std::uint32_t endian_tag = kCsrEndianTag;
  std::uint32_t version = kCsrVersion;
  std::uint64_t num_nodes = 0;
  std::uint64_t adj_entries = 0;
  std::uint32_t max_degree = 0;
  std::uint64_t offsets_start = 0;
  std::uint64_t adjacency_start = 0;
  std::uint64_t file_size = 0;

  std::array<char, kCsrHeaderBytes> Encode() const {
    std::array<char, kCsrHeaderBytes> raw{};
    std::memcpy(raw.data(), kCsrMagic, sizeof(kCsrMagic));
    std::memcpy(raw.data() + 8, &endian_tag, 4);
    std::memcpy(raw.data() + 12, &version, 4);
    std::memcpy(raw.data() + 16, &num_nodes, 8);
    std::memcpy(raw.data() + 24, &adj_entries, 8);
    std::memcpy(raw.data() + 32, &max_degree, 4);
    // bytes [36, 40) reserved, zero
    std::memcpy(raw.data() + 40, &offsets_start, 8);
    std::memcpy(raw.data() + 48, &adjacency_start, 8);
    std::memcpy(raw.data() + 56, &file_size, 8);
    return raw;
  }

  static CsrHeader Decode(const char* raw) {
    EMIS_REQUIRE(std::memcmp(raw, kCsrMagic, sizeof(kCsrMagic)) == 0,
                 "not an emis-csr file (bad magic)");
    CsrHeader h;
    std::memcpy(&h.endian_tag, raw + 8, 4);
    EMIS_REQUIRE(h.endian_tag != __builtin_bswap32(kCsrEndianTag),
                 "emis-csr file written on a foreign-endian machine");
    EMIS_REQUIRE(h.endian_tag == kCsrEndianTag,
                 "emis-csr file has a corrupt endianness tag");
    std::memcpy(&h.version, raw + 12, 4);
    EMIS_REQUIRE(h.version == kCsrVersion, "unsupported emis-csr version");
    std::memcpy(&h.num_nodes, raw + 16, 8);
    std::memcpy(&h.adj_entries, raw + 24, 8);
    std::memcpy(&h.max_degree, raw + 32, 4);
    std::memcpy(&h.offsets_start, raw + 40, 8);
    std::memcpy(&h.adjacency_start, raw + 48, 8);
    std::memcpy(&h.file_size, raw + 56, 8);
    return h;
  }
};

void WriteZeroPad(std::ostream& out, std::uint64_t from, std::uint64_t to) {
  static constexpr char kZeros[kCsrAlign] = {};
  EMIS_ASSERT(to - from <= kCsrAlign, "section gap exceeds one alignment unit");
  out.write(kZeros, static_cast<std::streamsize>(to - from));
}

}  // namespace

void WriteBinaryCsr(std::ostream& out, const Graph& graph) {
  const std::span<const std::uint64_t> offsets = graph.RowOffsets();
  const std::span<const NodeId> adjacency = graph.Adjacency();
  CsrHeader header;
  header.num_nodes = graph.NumNodes();
  header.adj_entries = adjacency.size();
  header.max_degree = graph.MaxDegree();
  header.offsets_start = kCsrHeaderBytes;
  const std::uint64_t offsets_end =
      header.offsets_start + offsets.size_bytes();
  header.adjacency_start = AlignUp(offsets_end);
  header.file_size = header.adjacency_start + adjacency.size_bytes();

  const std::array<char, kCsrHeaderBytes> raw = header.Encode();
  out.write(raw.data(), raw.size());
  out.write(reinterpret_cast<const char*>(offsets.data()),
            static_cast<std::streamsize>(offsets.size_bytes()));
  WriteZeroPad(out, offsets_end, header.adjacency_start);
  out.write(reinterpret_cast<const char*>(adjacency.data()),
            static_cast<std::streamsize>(adjacency.size_bytes()));
  EMIS_REQUIRE(out.good(), "emis-csr write failed");
}

Graph MapBinaryCsr(const std::string& path) {
  struct FdGuard {
    int fd;
    ~FdGuard() {
      if (fd >= 0) ::close(fd);
    }
  };
  const FdGuard fd{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  EMIS_REQUIRE(fd.fd >= 0, "cannot open graph file: " + path);
  struct ::stat st = {};
  EMIS_REQUIRE(::fstat(fd.fd, &st) == 0, "cannot stat graph file: " + path);
  const auto size = static_cast<std::uint64_t>(st.st_size);
  EMIS_REQUIRE(size >= kCsrHeaderBytes,
               "emis-csr file truncated: shorter than its header");

  void* base =
      ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd.fd, 0);
  EMIS_REQUIRE(base != MAP_FAILED, "cannot mmap graph file: " + path);
  // Owner constructed immediately so every validation failure below
  // unmaps; the fd can close now (the mapping keeps its own reference).
  std::shared_ptr<const void> owner(
      base, [size](const void* p) { ::munmap(const_cast<void*>(p), size); });

  const CsrHeader header = CsrHeader::Decode(static_cast<const char*>(base));
  EMIS_REQUIRE(header.file_size == size,
               "emis-csr file truncated or padded: size does not match header");
  EMIS_REQUIRE(header.num_nodes < ~NodeId{0}, "emis-csr node count overflows NodeId");
  // Every size and end below comes from untrusted header fields, so each
  // product and sum is overflow-checked: a wrapped value could otherwise
  // pass the bounds test and point the views outside the mapping.
  std::uint64_t offsets_bytes = 0;
  std::uint64_t adjacency_bytes = 0;
  std::uint64_t offsets_end = 0;
  std::uint64_t adjacency_end = 0;
  EMIS_REQUIRE(!__builtin_mul_overflow(header.num_nodes + 1, sizeof(std::uint64_t),
                                       &offsets_bytes) &&
                   !__builtin_mul_overflow(header.adj_entries, sizeof(NodeId),
                                           &adjacency_bytes) &&
                   !__builtin_add_overflow(header.offsets_start, offsets_bytes,
                                           &offsets_end) &&
                   !__builtin_add_overflow(header.adjacency_start, adjacency_bytes,
                                           &adjacency_end),
               "emis-csr header sizes overflow");
  EMIS_REQUIRE(header.offsets_start % kCsrAlign == 0 &&
                   header.adjacency_start % kCsrAlign == 0,
               "emis-csr sections must be 64-byte aligned");
  EMIS_REQUIRE(header.offsets_start >= kCsrHeaderBytes &&
                   offsets_end <= header.adjacency_start && adjacency_end <= size,
               "emis-csr section bounds exceed the file");

  const char* bytes = static_cast<const char*>(base);
  const auto* offsets =
      reinterpret_cast<const std::uint64_t*>(bytes + header.offsets_start);
  const auto* adjacency =
      reinterpret_cast<const NodeId*>(bytes + header.adjacency_start);
  EMIS_REQUIRE(offsets[0] == 0 && offsets[header.num_nodes] == header.adj_entries,
               "emis-csr offset array does not span the adjacency section");
  // Monotone offsets keep every row inside the adjacency section, and the
  // header's max_degree (Δ, which sizes every backoff window) must be the
  // longest row: one O(n) pass over the offset array. The O(m) adjacency
  // content (ids < n, no self-loops, strictly ascending and symmetric rows)
  // is checked by the first run on the graph (Graph::RequireValidAdjacency,
  // once per mapping), so loading never faults in the full edge array.
  bool descending = false;
  std::uint64_t longest_row = 0;
  for (std::uint64_t v = 0; v < header.num_nodes; ++v) {
    descending |= offsets[v + 1] < offsets[v];
    longest_row = std::max(longest_row, offsets[v + 1] - offsets[v]);
  }
  EMIS_REQUIRE(!descending, "emis-csr row offsets are not monotone");
  EMIS_REQUIRE(longest_row == header.max_degree,
               "emis-csr max_degree does not match its rows");
  AdviseHugePages(const_cast<char*>(bytes), size);
  return Graph::FromMappedCsr(std::move(owner), offsets,
                              static_cast<NodeId>(header.num_nodes), adjacency,
                              header.adj_entries, header.max_degree);
}

Graph ReadEdgeList(std::istream& in) {
  // Token stream that skips '#' comments to end of line.
  auto next_token = [&in](std::string& tok) -> bool {
    while (in >> tok) {
      if (tok[0] == '#') {
        std::string rest;
        std::getline(in, rest);
        continue;
      }
      return true;
    }
    return false;
  };
  auto next_u64 = [&next_token](const char* what) {
    std::string tok;
    EMIS_REQUIRE(next_token(tok), std::string("edge list truncated: expected ") + what);
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), value);
    EMIS_REQUIRE(ec == std::errc{} && ptr == tok.data() + tok.size(),
                 std::string("bad integer '") + tok + "' for " + what);
    return value;
  };

  const std::uint64_t n = next_u64("node count");
  EMIS_REQUIRE(n <= kInvalidNode, "node count too large");
  const std::uint64_t m = next_u64("edge count");
  GraphBuilder builder(static_cast<NodeId>(n));
  for (std::uint64_t i = 0; i < m; ++i) {
    const std::uint64_t u = next_u64("edge endpoint");
    const std::uint64_t v = next_u64("edge endpoint");
    EMIS_REQUIRE(u < n && v < n, "edge endpoint out of range");
    builder.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  return std::move(builder).Build();
}

namespace {

struct SpecArgs {
  std::string family;
  std::map<std::string, std::string> kv;

  std::uint64_t GetU64(const std::string& key) const {
    const auto it = kv.find(key);
    EMIS_REQUIRE(it != kv.end(),
                 "graph spec '" + family + "' missing parameter '" + key + "'");
    std::uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(it->second.data(), it->second.data() + it->second.size(), value);
    EMIS_REQUIRE(ec == std::errc{} && ptr == it->second.data() + it->second.size(),
                 "bad integer for '" + key + "' in graph spec");
    return value;
  }

  /// GetU64 for a 32-bit parameter (a node count, an attachment count, a
  /// degree): larger values are rejected, never truncated.
  std::uint32_t GetU32(const std::string& key) const {
    static_assert(sizeof(NodeId) == sizeof(std::uint32_t));
    const std::uint64_t value = GetU64(key);
    EMIS_REQUIRE(value <= ~std::uint32_t{0}, "graph spec '" + family + "' parameter '" +
                                                 key + "' too large (max 4294967295)");
    return static_cast<std::uint32_t>(value);
  }

  double GetDouble(const std::string& key) const {
    const auto it = kv.find(key);
    EMIS_REQUIRE(it != kv.end(),
                 "graph spec '" + family + "' missing parameter '" + key + "'");
    try {
      std::size_t pos = 0;
      const double value = std::stod(it->second, &pos);
      EMIS_REQUIRE(pos == it->second.size(), "trailing junk in '" + key + "'");
      return value;
    } catch (const PreconditionError&) {
      throw;
    } catch (const std::exception&) {  // stod's invalid_argument/out_of_range
      throw PreconditionError("bad number for '" + key + "' in graph spec");
    }
  }
};

SpecArgs ParseSpec(std::string_view spec) {
  SpecArgs args;
  const auto colon = spec.find(':');
  args.family = std::string(spec.substr(0, colon));
  if (colon == std::string_view::npos) return args;
  std::string params(spec.substr(colon + 1));
  std::istringstream ss(params);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    EMIS_REQUIRE(eq != std::string::npos,
                 "graph spec parameter '" + item + "' is not key=value");
    args.kv.emplace(item.substr(0, eq), item.substr(eq + 1));
  }
  return args;
}

/// The node count x * y (or x + y) a family derives from two parameters;
/// rejected when it does not fit a NodeId, before any generator sees it.
NodeId NodeProduct(const SpecArgs& a, NodeId x, NodeId y) {
  NodeId out = 0;
  EMIS_REQUIRE(!__builtin_mul_overflow(x, y, &out),
               "graph spec '" + a.family + "' node count too large");
  return out;
}
NodeId NodeSum(const SpecArgs& a, NodeId x, NodeId y) {
  NodeId out = 0;
  EMIS_REQUIRE(!__builtin_add_overflow(x, y, &out),
               "graph spec '" + a.family + "' node count too large");
  return out;
}

}  // namespace

Graph GraphFromSpec(std::string_view spec, Rng& rng) {
  const SpecArgs a = ParseSpec(spec);
  const auto n = [&a] { return a.GetU32("n"); };
  if (a.family == "er") return gen::ErdosRenyi(n(), a.GetDouble("p"), rng);
  if (a.family == "gnm") return gen::GnM(n(), a.GetU64("m"), rng);
  if (a.family == "udg") return gen::RandomGeometric(n(), a.GetDouble("r"), rng);
  if (a.family == "grid") {
    const NodeId rows = a.GetU32("rows"), cols = a.GetU32("cols");
    NodeProduct(a, rows, cols);
    return gen::Grid(rows, cols);
  }
  if (a.family == "path") return gen::Path(n());
  if (a.family == "cycle") return gen::Cycle(n());
  if (a.family == "star") return gen::Star(n());
  if (a.family == "complete") return gen::Complete(n());
  if (a.family == "bipartite") {
    const NodeId left = a.GetU32("left"), right = a.GetU32("right");
    NodeSum(a, left, right);
    return gen::CompleteBipartite(left, right);
  }
  if (a.family == "tree") return gen::RandomTree(n(), rng);
  if (a.family == "ba") return gen::BarabasiAlbert(n(), a.GetU32("m"), rng);
  if (a.family == "regular") return gen::NearRegular(n(), a.GetU32("d"), rng);
  if (a.family == "matching") return gen::MatchingPlusIsolated(n());
  if (a.family == "cliques") {
    const NodeId count = a.GetU32("count"), size = a.GetU32("size");
    NodeProduct(a, count, size);
    return gen::DisjointCliques(count, size);
  }
  if (a.family == "caterpillar") {
    const NodeId spine = a.GetU32("spine"), legs = a.GetU32("legs");
    NodeProduct(a, spine, NodeSum(a, legs, 1));
    return gen::Caterpillar(spine, legs);
  }
  if (a.family == "empty") return gen::Empty(n());
  throw PreconditionError("unknown graph family '" + a.family + "'; known: " +
                          GraphSpecHelp());
}

std::string GraphSpecHelp() {
  return "er:n,p  gnm:n,m  udg:n,r  grid:rows,cols  path:n  cycle:n  star:n  "
         "complete:n  bipartite:left,right  tree:n  ba:n,m  regular:n,d  "
         "matching:n  cliques:count,size  caterpillar:spine,legs  empty:n";
}

}  // namespace emis
