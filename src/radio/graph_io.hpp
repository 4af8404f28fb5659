// Graph serialization and a tiny topology-spec language.
//
// Edge-list format (whitespace-separated, '#' comments):
//     n m
//     u v          (m lines, 0-based node ids)
//
// Spec strings name a generator plus parameters, e.g.
//     "er:n=1000,p=0.05"     "udg:n=500,r=0.08"    "grid:rows=8,cols=16"
//     "path:n=30"            "cycle:n=30"          "star:n=100"
//     "complete:n=20"        "bipartite:left=8,right=9"
//     "tree:n=50"            "ba:n=200,m=3"        "regular:n=100,d=6"
//     "matching:n=64"        "cliques:count=6,size=5"  "empty:n=10"
// Used by the CLI tool and by randomized tests.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "radio/graph.hpp"
#include "radio/rng.hpp"

namespace emis {

/// Writes the edge-list representation.
void WriteEdgeList(std::ostream& out, const Graph& graph);

/// Parses an edge list; throws PreconditionError on malformed input
/// (bad counts, out-of-range ids, self-loops, duplicates).
Graph ReadEdgeList(std::istream& in);

// --- emis-csr/1: versioned binary CSR container ----------------------------
//
// The text edge list is quadratic to rebuild (parse + sort + CSR assembly);
// the binary container stores the CSR arrays directly so a packed graph
// loads zero-copy via mmap. Layout (all integers in the writer's native
// byte order, declared by the endianness tag):
//
//   byte  0  magic "EMISCSR1" (8 bytes)
//   byte  8  endianness tag u32 = 0x01020304 (foreign-order files rejected)
//   byte 12  format version u32 = 1
//   byte 16  num_nodes u64
//   byte 24  adj_entries u64 (directed: each undirected edge appears twice)
//   byte 32  max_degree u32
//   byte 36  reserved u32 = 0
//   byte 40  offsets section start u64 (bytes from file start, 64-aligned)
//   byte 48  adjacency section start u64 (bytes, 64-aligned)
//   byte 56  total file size u64 (truncation check)
//   ----     offsets section: (num_nodes + 1) x u64
//   ----     adjacency section: adj_entries x u32, rows sorted ascending
//
// Both sections start 64-byte aligned (cache-line- and SIMD-friendly for
// the word-scan kernels; mmap bases are page-aligned so in-memory alignment
// follows from in-file alignment). Gaps are zero-filled.

/// Serializes `graph` as emis-csr/1. The stream must be binary-clean
/// (opened with std::ios::binary when it is a file).
void WriteBinaryCsr(std::ostream& out, const Graph& graph);

/// Memory-maps an emis-csr/1 file read-only and wraps it as a Graph without
/// copying: the header (magic, endianness, version, section bounds, file
/// size) and the row offsets (monotone, and the longest row equal to the
/// header's max_degree: one O(n) pass) are validated, so
/// the load never faults in an adjacency page — those fault lazily on
/// first scan, and the first run on the graph checks their content then
/// (Graph::RequireValidAdjacency, once per mapping).
/// The mapping is advised towards huge pages and stays alive as long as
/// any copy of the returned Graph does. Throws PreconditionError on
/// malformed, foreign-endian, or truncated files.
Graph MapBinaryCsr(const std::string& path);

/// Builds a graph from a spec string (see header comment). Randomized
/// families consume from `rng`; deterministic ones ignore it. Throws
/// PreconditionError for unknown families or missing/extra parameters.
Graph GraphFromSpec(std::string_view spec, Rng& rng);

/// The list of spec family names, for help text.
std::string GraphSpecHelp();

}  // namespace emis
