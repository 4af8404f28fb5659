#include "radio/graph_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "radio/graph_generators.hpp"

namespace emis {
namespace {

TEST(GraphIo, RoundTrip) {
  Rng rng(1);
  const Graph g = gen::ErdosRenyi(60, 0.1, rng);
  std::stringstream ss;
  WriteEdgeList(ss, g);
  const Graph back = ReadEdgeList(ss);
  EXPECT_EQ(back.NumNodes(), g.NumNodes());
  EXPECT_EQ(back.EdgeList(), g.EdgeList());
}

TEST(GraphIo, RoundTripEmptyAndEdgeless) {
  for (NodeId n : {NodeId{0}, NodeId{5}}) {
    std::stringstream ss;
    WriteEdgeList(ss, gen::Empty(n));
    const Graph back = ReadEdgeList(ss);
    EXPECT_EQ(back.NumNodes(), n);
    EXPECT_EQ(back.NumEdges(), 0u);
  }
}

TEST(GraphIo, ReadsComments) {
  std::istringstream in("# a graph\n3 2\n0 1\n# middle comment\n1 2\n");
  const Graph g = ReadEdgeList(in);
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(1, 2));
}

TEST(GraphIo, RejectsMalformedInput) {
  {
    std::istringstream in("3");  // truncated
    EXPECT_THROW(ReadEdgeList(in), PreconditionError);
  }
  {
    std::istringstream in("3 1\n0");  // truncated edge
    EXPECT_THROW(ReadEdgeList(in), PreconditionError);
  }
  {
    std::istringstream in("3 1\n0 7\n");  // out of range
    EXPECT_THROW(ReadEdgeList(in), PreconditionError);
  }
  {
    std::istringstream in("3 1\n1 1\n");  // self loop
    EXPECT_THROW(ReadEdgeList(in), PreconditionError);
  }
  {
    std::istringstream in("3 2\n0 1\n1 0\n");  // duplicate
    EXPECT_THROW(ReadEdgeList(in), PreconditionError);
  }
  {
    std::istringstream in("x 1\n");  // not a number
    EXPECT_THROW(ReadEdgeList(in), PreconditionError);
  }
}

TEST(GraphSpec, BuildsEveryFamily) {
  Rng rng(2);
  EXPECT_EQ(GraphFromSpec("path:n=5", rng).NumEdges(), 4u);
  EXPECT_EQ(GraphFromSpec("cycle:n=5", rng).NumEdges(), 5u);
  EXPECT_EQ(GraphFromSpec("star:n=5", rng).MaxDegree(), 4u);
  EXPECT_EQ(GraphFromSpec("complete:n=5", rng).NumEdges(), 10u);
  EXPECT_EQ(GraphFromSpec("grid:rows=3,cols=4", rng).NumNodes(), 12u);
  EXPECT_EQ(GraphFromSpec("bipartite:left=2,right=3", rng).NumEdges(), 6u);
  EXPECT_EQ(GraphFromSpec("tree:n=20", rng).NumEdges(), 19u);
  EXPECT_EQ(GraphFromSpec("gnm:n=10,m=13", rng).NumEdges(), 13u);
  EXPECT_EQ(GraphFromSpec("matching:n=16", rng).NumEdges(), 4u);
  EXPECT_EQ(GraphFromSpec("cliques:count=3,size=4", rng).NumNodes(), 12u);
  EXPECT_EQ(GraphFromSpec("caterpillar:spine=3,legs=2", rng).NumNodes(), 9u);
  EXPECT_EQ(GraphFromSpec("empty:n=7", rng).NumEdges(), 0u);
  EXPECT_EQ(GraphFromSpec("ba:n=30,m=2", rng).NumNodes(), 30u);
  EXPECT_GT(GraphFromSpec("er:n=50,p=0.2", rng).NumEdges(), 0u);
  EXPECT_GT(GraphFromSpec("udg:n=50,r=0.3", rng).NumEdges(), 0u);
  EXPECT_LE(GraphFromSpec("regular:n=20,d=3", rng).MaxDegree(), 3u);
}

TEST(GraphSpec, RejectsBadSpecs) {
  Rng rng(3);
  EXPECT_THROW(GraphFromSpec("nosuch:n=5", rng), PreconditionError);
  EXPECT_THROW(GraphFromSpec("er:n=5", rng), PreconditionError);       // missing p
  EXPECT_THROW(GraphFromSpec("er:p=0.5", rng), PreconditionError);     // missing n
  EXPECT_THROW(GraphFromSpec("er:n=5,p=zebra", rng), PreconditionError);
  EXPECT_THROW(GraphFromSpec("path:n=x", rng), PreconditionError);
  EXPECT_THROW(GraphFromSpec("grid:rows=3", rng), PreconditionError);  // missing cols
  EXPECT_THROW(GraphFromSpec("er:n=5 p=1", rng), PreconditionError);   // not k=v
}

/// The message GraphFromSpec(spec) throws, or "" if it builds a graph.
std::string SpecError(const std::string& spec) {
  Rng rng(4);
  try {
    (void)GraphFromSpec(spec, rng);
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

// Integer parameters and derived node counts that do not fit a NodeId are
// rejected with "too large" instead of being truncated (er n = 2^32 + 2 used
// to build a 2-node graph) or reaching an allocator or the builder.
TEST(GraphSpec, OversizedNodeCountsAreRejected) {
  for (const char* family : {"er:p=0.5,n=", "gnm:m=1,n=", "udg:r=0.1,n=", "path:n=",
                             "cycle:n=", "star:n=", "complete:n=", "tree:n=",
                             "ba:m=2,n=", "regular:d=2,n=", "matching:n=", "empty:n="}) {
    const std::string message = SpecError(std::string(family) + "4294967298");
    EXPECT_NE(message.find("too large"), std::string::npos) << family << ": " << message;
  }
}

TEST(GraphSpec, OversizedBarabasiAlbertAttachmentIsRejected) {
  // m = 2^32 + 1 used to run as m = 1.
  EXPECT_NE(SpecError("ba:n=10,m=4294967297").find("too large"), std::string::npos);
}

TEST(GraphSpec, OversizedRegularDegreeIsRejected) {
  EXPECT_NE(SpecError("regular:n=10,d=4294967299").find("too large"), std::string::npos);
}

TEST(GraphSpec, OversizedGridIsRejected) {
  // 65537^2 > 2^32: used to wrap and fail in the builder as "node out of range".
  EXPECT_NE(SpecError("grid:rows=65537,cols=65537").find("too large"), std::string::npos);
  EXPECT_NE(SpecError("grid:rows=4294967296,cols=1").find("too large"), std::string::npos);
}

TEST(GraphSpec, OversizedCliquesAreRejected) {
  // 65536 * 65537 > 2^32: used to wrap and end in std::bad_alloc.
  EXPECT_NE(SpecError("cliques:count=65536,size=65537").find("too large"), std::string::npos);
}

TEST(GraphSpec, OversizedCaterpillarIsRejected) {
  EXPECT_NE(SpecError("caterpillar:spine=65536,legs=65536").find("too large"),
            std::string::npos);
  EXPECT_NE(SpecError("caterpillar:spine=1,legs=4294967295").find("too large"),
            std::string::npos);
}

TEST(GraphSpec, OversizedBipartiteIsRejected) {
  EXPECT_NE(SpecError("bipartite:left=4294967295,right=1").find("too large"),
            std::string::npos);
}

TEST(GraphSpec, DeterministicGivenRng) {
  Rng a(7), b(7);
  EXPECT_EQ(GraphFromSpec("er:n=40,p=0.2", a).EdgeList(),
            GraphFromSpec("er:n=40,p=0.2", b).EdgeList());
}

TEST(GraphSpec, HelpMentionsFamilies) {
  const std::string help = GraphSpecHelp();
  for (const char* fam : {"er:", "udg:", "tree:", "matching:"}) {
    EXPECT_NE(help.find(fam), std::string::npos) << fam;
  }
}

}  // namespace
}  // namespace emis
