#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/greedy_connect.hpp"
#include "core/kmcds.hpp"
#include "core/mis.hpp"
#include "exact/brute_force.hpp"
#include "graph/small_graph.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"
#include "udg/instance.hpp"

/// \file test_core_kmcds.cpp
/// The (k,m)-CDS family: phase-1 m-fold domination, the k=2
/// articulation-elimination phase, the witness validators, and the
/// differential suite against the exact (1,m) brute-force oracle. The
/// Km* suite names route these tests into the sanitizer CI legs.

namespace {

using mcds::graph::Graph;
using mcds::graph::NodeId;
using namespace mcds::core;

Graph corpus_udg(std::uint64_t seed, std::size_t nodes = 48,
                 double side = 8.0, double radius = 1.9) {
  mcds::udg::InstanceParams params;
  params.nodes = nodes;
  params.side = side;
  params.radius = radius;
  auto inst = mcds::udg::generate_connected_instance(params, seed);
  EXPECT_TRUE(inst.has_value()) << "graph seed " << seed;
  return inst->graph;
}

std::size_t coverage_of(const Graph& g, const std::vector<NodeId>& set,
                        NodeId v) {
  std::size_t count = 0;
  for (const NodeId u : g.neighbors(v)) {
    if (std::binary_search(set.begin(), set.end(), u)) ++count;
  }
  return count;
}

const std::vector<KmParams> kVariants = {{1, 1}, {1, 2}, {2, 1}, {2, 2}};

// One kmcds_weighted result: its input, digests of the dominators, the
// connectors in pick order and the backbone, and the backbone weight.
struct WeightedRow {
  std::uint64_t seed;
  std::string_view weights;
  std::uint32_t m;
  std::uint64_t dominators;
  std::uint64_t connectors;
  std::size_t backbone_size;
  std::uint64_t backbone;
  double weight;

  bool operator==(const WeightedRow&) const = default;
};

std::string format(const WeightedRow& r) {
  std::ostringstream os;
  os << "{" << r.seed << ", \"" << r.weights << "\", " << r.m << ", 0x"
     << std::hex << r.dominators << ", 0x" << r.connectors << ", "
     << std::dec << r.backbone_size << ", 0x" << std::hex << r.backbone
     << ", " << std::hexfloat << r.weight << "},";
  return os.str();
}

// FNV-1a (64-bit) over the list's length, then each id, byte by byte.
std::uint64_t digest(const std::vector<NodeId>& ids) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto add = [&h](std::uint64_t value, std::size_t bytes) {
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= (value >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  add(ids.size(), sizeof(std::size_t));
  for (const NodeId v : ids) add(v, sizeof(NodeId));
  return h;
}

}  // namespace

TEST(KmCds, ParamsValidate) {
  EXPECT_NO_THROW((KmParams{1, 1}.validate()));
  EXPECT_NO_THROW((KmParams{2, 3}.validate()));
  EXPECT_THROW((KmParams{0, 1}.validate()), std::invalid_argument);
  EXPECT_THROW((KmParams{3, 1}.validate()), std::invalid_argument);
  EXPECT_THROW((KmParams{1, 0}.validate()), std::invalid_argument);
}

// m = 1 adds nothing on top of the BFS MIS: the deficit greedy starts
// with zero deficit and must return the seed untouched.
TEST(KmCds, MFoldWithM1IsExactlyTheBfsMis) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = corpus_udg(seed);
    std::vector<NodeId> mis = bfs_first_fit_mis(g).mis;
    std::sort(mis.begin(), mis.end());
    EXPECT_EQ(m_fold_dominators(g, 1), mis) << "seed " << seed;
  }
}

TEST(KmCds, MFoldCoverageHolds) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = corpus_udg(seed);
    for (const std::uint32_t m : {2u, 3u}) {
      const std::vector<NodeId> d = m_fold_dominators(g, m);
      ASSERT_TRUE(std::is_sorted(d.begin(), d.end()));
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (std::binary_search(d.begin(), d.end(), v)) continue;
        EXPECT_GE(coverage_of(g, d, v), m)
            << "node " << v << " under-covered, seed " << seed << " m " << m;
      }
    }
  }
}

// Every shipped variant must pass its own witness validator on the
// random-UDG corpus, and the backbone must be the exact union of the
// three construction layers.
TEST(KmCds, AllVariantsPassCheckOnCorpus) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g = corpus_udg(seed);
    for (const KmParams params : kVariants) {
      const KmCdsResult r = kmcds(g, params);
      const KmCheck check = check_kmcds(g, r.backbone, params);
      EXPECT_TRUE(check.ok)
          << "seed " << seed << " (" << params.k << "," << params.m
          << "): " << check.describe();

      std::vector<NodeId> expect = r.dominators;
      expect.insert(expect.end(), r.connectors.begin(), r.connectors.end());
      expect.insert(expect.end(), r.augmenters.begin(), r.augmenters.end());
      std::sort(expect.begin(), expect.end());
      EXPECT_EQ(r.backbone, expect);
      EXPECT_EQ(r.weight, static_cast<double>(r.backbone.size()));
      if (params.k == 1) {
        EXPECT_TRUE(r.augmenters.empty());
      }
    }
  }
}

// (1,1) degenerates to the paper's Section IV algorithm over the same
// engine — identical CDS, not merely an equivalent one.
TEST(KmCds, PlainVariantMatchesGreedyCds) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = corpus_udg(seed);
    EXPECT_EQ(kmcds(g, {1, 1}).backbone, greedy_cds(g).cds) << "seed " << seed;
  }
}

// Uniform weights rank candidates identically to unit gains (the ratio
// is the gain itself), so the weighted pipeline must reproduce the
// unweighted backbone node for node.
TEST(KmCds, WeightedWithUniformWeightsMatchesUnweighted) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = corpus_udg(seed);
    const std::vector<double> uniform(g.num_nodes(), 1.0);
    const KmCdsResult w = kmcds_weighted(g, 2, uniform);
    const KmCdsResult u = kmcds(g, {1, 2});
    EXPECT_EQ(w.backbone, u.backbone) << "seed " << seed;
    EXPECT_EQ(w.weight, static_cast<double>(w.backbone.size()));
  }
}

TEST(KmCds, WeightedValidatesAndSumsWeights) {
  const Graph g = corpus_udg(2);
  std::vector<double> weight(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    weight[v] = 1.0 + 0.25 * static_cast<double>(v % 7);
  }
  const KmCdsResult r = kmcds_weighted(g, 2, weight);
  const KmCheck check = check_kmcds(g, r.backbone, {1, 2});
  EXPECT_TRUE(check.ok) << check.describe();
  double sum = 0.0;
  for (const NodeId v : r.backbone) sum += weight[v];
  EXPECT_DOUBLE_EQ(r.weight, sum);

  const std::vector<double> short_weight(g.num_nodes() - 1, 1.0);
  EXPECT_THROW((void)kmcds_weighted(g, 2, short_weight),
               std::invalid_argument);
  std::vector<double> zero_weight(g.num_nodes(), 1.0);
  zero_weight[0] = 0.0;
  EXPECT_THROW((void)kmcds_weighted(g, 2, zero_weight),
               std::invalid_argument);
}

// Golden outputs of the node-weighted pipeline under non-uniform
// weights, where gain per unit of weight ranks candidates differently
// from the plain gain: three seeded fields, two weight schemes, m = 1, 2
// and 3. Each row pins the phase-1 dominators, the phase-2 connectors in
// pick order, the backbone and its summed weight, recorded from a
// known-good build. A change that moves one of these constants changed
// which backbone kmcds_weighted returns and must say so.
TEST(KmCds, WeightedGolden) {
  struct Field {
    std::uint64_t seed;
    std::size_t nodes;
    double side;
  };
  const Field fields[] = {{3, 120, 12.0}, {5, 200, 15.0}, {8, 300, 19.0}};
  const std::vector<WeightedRow> want = {
      {3, "mod7", 1, 0xdd91fa524622fa1c, 0xa13e42de30760f5a,
       39, 0xa11be822f7af6e03, 0x1.d6p+5},
      {3, "mod7", 2, 0x19d107e48ee748df, 0xb89a3d2438fdf33b,
       46, 0xaa0f43a74f7f6e33, 0x1.18p+6},
      {3, "mod7", 3, 0x2be0d0d77b6cb930, 0xf051bf53ef60d172,
       56, 0x9a375e9925703d5f, 0x1.55p+6},
      {3, "drawn", 1, 0xdd91fa524622fa1c, 0x2662425fe60d635d,
       42, 0x8281c8b6a417bb54, 0x1.3aa2947982ac8p+6},
      {3, "drawn", 2, 0x3aabf5934db2313b, 0x6341b5ad8e44e404,
       50, 0x6ffe7c06adccb4b4, 0x1.7af546e5eb391p+6},
      {3, "drawn", 3, 0xd06a020aa3306adc, 0x68741b4a3c8bf46c,
       59, 0x975de4e0f8e5cd4d, 0x1.ce2d2bd914075p+6},
      {5, "mod7", 1, 0xba3d92026809d54, 0x58710d16c3525698,
       64, 0x4dda7f44212047e7, 0x1.99p+6},
      {5, "mod7", 2, 0x6157ed3638594a3, 0xc7fc79be3fc5b710,
       73, 0x2322b835a985763e, 0x1.c3p+6},
      {5, "mod7", 3, 0x5ae0d6ff0ed8b870, 0x2359881b74678de4,
       83, 0xe5d55f23435e1531, 0x1.f6p+6},
      {5, "drawn", 1, 0xba3d92026809d54, 0xc164e4b583f51645,
       65, 0x7231c4a90a1a6578, 0x1.e0b0b0ac44d68p+6},
      {5, "drawn", 2, 0xdd64bc9a20d51c9a, 0x1c8cb7d8c20097a6,
       76, 0xb3f2f38603d4edb7, 0x1.0946b61c4f481p+7},
      {5, "drawn", 3, 0xd9a5ed2660edf03e, 0x590b68eca83a7d47,
       88, 0x1a54130085e540ac, 0x1.2a50cf7521a81p+7},
      {8, "mod7", 1, 0x16366688a5248b45, 0x979f4213157036ab,
       107, 0xf6c726fc4519221f, 0x1.4f8p+7},
      {8, "mod7", 2, 0x39b57c9e84d0fe8e, 0x5016866cc775c96,
       117, 0xbde82f7201d3526d, 0x1.68p+7},
      {8, "mod7", 3, 0x8bc47a6fc1142bd6, 0x4e64425f596b0b1f,
       141, 0x6787bb2af218a430, 0x1.b28p+7},
      {8, "drawn", 1, 0x16366688a5248b45, 0x35f4e04878902273,
       108, 0xd4de25f0463966c9, 0x1.a5c71a0caac13p+7},
      {8, "drawn", 2, 0x90a5f39ebbac82b5, 0x3ca5d959e82d59ff,
       119, 0xf175944a7816064f, 0x1.caa07b79d95b8p+7},
      {8, "drawn", 3, 0x47fda7062e3cac24, 0x11702f1d16e5ded1,
       141, 0x1c0feeb05b58bf2c, 0x1.0cf3e21dff9d1p+8},
  };
  std::vector<WeightedRow> got;
  std::size_t differs_from_unit = 0;
  for (const Field& f : fields) {
    const Graph g = corpus_udg(f.seed, f.nodes, f.side);
    std::vector<double> mod7(g.num_nodes());
    std::vector<double> drawn(g.num_nodes());
    mcds::sim::Rng rng(f.seed);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      mod7[v] = 1.0 + 0.25 * static_cast<double>(v % 7);
      drawn[v] = rng.uniform(0.5, 4.0);
    }
    for (const auto& [scheme, weight] :
         {std::pair{"mod7", &mod7}, std::pair{"drawn", &drawn}}) {
      for (const std::uint32_t m : {1u, 2u, 3u}) {
        const KmCdsResult r = kmcds_weighted(g, m, *weight);
        EXPECT_TRUE(check_kmcds(g, r.backbone, {1, m}).ok)
            << "seed " << f.seed << " " << scheme << " m " << m;
        if (r.backbone != kmcds(g, {1, m}).backbone) ++differs_from_unit;
        got.push_back({f.seed, scheme, m, digest(r.dominators),
                       digest(r.connectors), r.backbone.size(),
                       digest(r.backbone), r.weight});
      }
    }
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "observed:\n" << format(got[i]);
  }
  // The weights steer the order: every row leaves the unit backbone.
  EXPECT_EQ(differs_from_unit, want.size());
}

TEST(KmCds, DisconnectedGraphThrows) {
  const Graph g = mcds::test::make_graph(4, {{0, 1}, {2, 3}});
  EXPECT_THROW((void)kmcds(g, {1, 2}), std::invalid_argument);
  EXPECT_THROW((void)m_fold_dominators(g, 2), std::invalid_argument);
}

TEST(KmCds, SingleNodeGraph) {
  const Graph g = mcds::test::make_graph(1, {});
  for (const KmParams params : kVariants) {
    const KmCdsResult r = kmcds(g, params);
    EXPECT_EQ(r.backbone, std::vector<NodeId>{0});
    EXPECT_TRUE(check_kmcds(g, r.backbone, params).ok);
  }
}

// ----------------------------------------------------------- validators

TEST(KmCheck, EmptySetIsRejectedWithDescription) {
  const Graph g = mcds::test::make_graph(3, {{0, 1}, {1, 2}});
  const KmCheck check = check_kmcds(g, {}, {1, 1});
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.defect, KmDefect::kEmpty);
  EXPECT_FALSE(check.describe().empty());
}

TEST(KmCheck, UnderCoveredNamesNodeAndShortfall) {
  const Graph g = mcds::test::make_graph(3, {{0, 1}, {1, 2}});  // path 0-1-2
  const std::vector<NodeId> set = {0};
  const KmCheck check = check_kmcds(g, set, {1, 2});
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.defect, KmDefect::kUnderCovered);
  EXPECT_EQ(check.witness, 1u);
  EXPECT_EQ(check.observed, 1u);
  EXPECT_EQ(check.required, 2u);
}

TEST(KmCheck, DisconnectedNamesBothFragments) {
  const Graph g = mcds::test::make_graph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});  // C4
  const std::vector<NodeId> set = {0, 2};
  const KmCheck check = check_kmcds(g, set, {1, 1});
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.defect, KmDefect::kDisconnected);
  EXPECT_EQ(check.witness, 0u);
  EXPECT_EQ(check.witness2, 2u);
}

// On a path the middle member is a cut vertex, but G - 1 itself
// separates the ends: the topology, not the construction, is at fault,
// so the cut is excused.
TEST(KmCheck, TopologyForcedCutVertexIsExcused) {
  const Graph g = mcds::test::make_graph(3, {{0, 1}, {1, 2}});
  const std::vector<NodeId> set = {0, 1, 2};
  EXPECT_TRUE(check_kmcds(g, set, {2, 1}).ok);
}

// On C4 the backbone 0-1-2 has an avoidable cut at 1: node 3 offers a
// way around that the construction failed to take.
TEST(KmCheck, AvoidableCutVertexIsNamed) {
  const Graph g = mcds::test::make_graph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const std::vector<NodeId> set = {0, 1, 2};
  const KmCheck check = check_kmcds(g, set, {2, 1});
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.defect, KmDefect::kCutVertex);
  EXPECT_EQ(check.witness, 1u);
  EXPECT_EQ(check.witness2, 2u);
  // The same set is fine as a (1,1) backbone, and kmcds' own (2,1)
  // construction on C4 must avoid the defect the validator names.
  EXPECT_TRUE(check_kmcds(g, set, {1, 1}).ok);
  const KmCdsResult r = kmcds(g, {2, 1});
  EXPECT_TRUE(check_kmcds(g, r.backbone, {2, 1}).ok);
}

TEST(KmCheck, OutOfRangeAndBadParamsThrow) {
  const Graph g = mcds::test::make_graph(2, {{0, 1}});
  const std::vector<NodeId> bad = {5};
  EXPECT_THROW((void)check_kmcds(g, bad, {1, 1}), std::invalid_argument);
  const std::vector<NodeId> ok = {0};
  EXPECT_THROW((void)check_kmcds(g, ok, {3, 1}), std::invalid_argument);
}

TEST(KmCheck, ComponentsMemberlessIslandIsUnderCovered) {
  // Two triangles, members only in the first.
  const Graph g = mcds::test::make_graph(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  const std::vector<NodeId> set = {0};
  const KmCheck check = check_kmcds_components(g, set, {1, 1});
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.defect, KmDefect::kUnderCovered);
  EXPECT_EQ(check.witness, 3u);
  EXPECT_EQ(check.observed, 0u);
}

TEST(KmCheck, ComponentsForestAcceptsPerIslandBackbones) {
  const Graph g = mcds::test::make_graph(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  const std::vector<NodeId> set = {0, 3};
  EXPECT_TRUE(check_kmcds_components(g, set, {1, 1}).ok);
  EXPECT_TRUE(check_kmcds_components(g, set, {2, 1}).ok);  // < 3 members/island
}

TEST(KmCheck, ComponentsAppliesCutVertexCheckPerIsland) {
  // C4 plus a far-away edge; the C4 members have an avoidable cut.
  const Graph g = mcds::test::make_graph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}});
  const std::vector<NodeId> set = {0, 1, 2, 4};
  const KmCheck check = check_kmcds_components(g, set, {2, 1});
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.defect, KmDefect::kCutVertex);
  EXPECT_EQ(check.witness, 1u);
  EXPECT_TRUE(check_kmcds_components(g, set, {1, 1}).ok);
}

// ---------------------------------------------------- differential suite

// Exhaustive agreement between the (1,m) predicate of check_kmcds and
// the bitmask brute-force predicate, over every subset of small random
// connected UDGs.
TEST(KmDifferential, PredicateAgreesWithBruteForceOnAllSubsets) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = corpus_udg(seed, /*nodes=*/9, /*side=*/3.0,
                               /*radius=*/1.4);
    const mcds::graph::SmallGraph sg(g);
    const mcds::graph::Mask end = sg.all();
    for (const std::uint32_t m : {1u, 2u, 3u}) {
      for (mcds::graph::Mask s = 0;; ++s) {
        std::vector<NodeId> set;
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          if ((s >> v) & 1u) set.push_back(v);
        }
        const bool oracle = mcds::exact::is_m_fold_cds(sg, s, m);
        const bool checked = check_kmcds(g, set, {1, m}).ok;
        ASSERT_EQ(oracle, checked)
            << "seed " << seed << " m " << m << " mask " << s;
        if (s == end) break;
      }
    }
  }
}

// The greedy (1,m) construction is valid and never beats the exact
// optimum the oracle enumerates (n <= 16 per the satellite spec).
TEST(KmDifferential, GreedyIsValidAndBoundedByExactOptimum) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = corpus_udg(seed, /*nodes=*/12, /*side=*/3.5,
                               /*radius=*/1.5);
    const mcds::graph::SmallGraph sg(g);
    for (const std::uint32_t m : {1u, 2u}) {
      const std::size_t opt = mcds::exact::m_fold_cds_number_brute_force(sg, m);
      const KmCdsResult r = kmcds(g, {1, m});
      EXPECT_TRUE(check_kmcds(g, r.backbone, {1, m}).ok);
      EXPECT_GE(r.backbone.size(), opt) << "seed " << seed << " m " << m;
      EXPECT_LE(r.backbone.size(), g.num_nodes());
      // The m = 1 oracle is the plain connected-domination number.
      if (m == 1) {
        EXPECT_EQ(opt,
                  mcds::exact::connected_domination_number_brute_force(sg));
      }
    }
  }
}
