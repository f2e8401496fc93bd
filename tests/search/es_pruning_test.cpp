/// \file es_pruning_test.cpp
/// Bound pruning must not change what exhaustive search returns. A
/// forwarding cost that hides the lower bound makes the same engine
/// enumerate blind; the pruned run must return the same winner, cost,
/// initial cost, evaluation count and exhausted flag, with or without an
/// evaluation budget, and its node counters must account for every node the
/// blind run entered. A second suite pins the symmetry rule: CDCM is
/// searched unrestricted, which finds optima the first-tile collapse
/// missed.

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "nocmap/mapping/cost.hpp"
#include "nocmap/noc/mesh.hpp"
#include "nocmap/noc/topology.hpp"
#include "nocmap/search/exhaustive.hpp"
#include "nocmap/workload/random_cdcg.hpp"

namespace nocmap::search {
namespace {

/// Forwards cost() and everything ES reads, except the lower bound.
class Blind final : public mapping::CostFunction {
 public:
  explicit Blind(const mapping::CostFunction& inner) : inner_(inner) {}
  double cost(const mapping::Mapping& m) const override {
    return inner_.cost(m);
  }
  std::string name() const override { return inner_.name(); }
  std::size_t num_cores() const override { return inner_.num_cores(); }
  void begin_search() const override { inner_.begin_search(); }
  bool symmetry_invariant() const override {
    return inner_.symmetry_invariant();
  }

 private:
  const mapping::CostFunction& inner_;
};

graph::Cdcg random_cdcg(std::uint32_t cores, std::uint64_t seed) {
  workload::RandomCdcgParams params;
  params.num_cores = cores;
  params.num_packets = cores * 4;
  params.total_bits = params.num_packets * 256;
  util::Rng rng(seed);
  return workload::generate_random_cdcg(params, rng);
}

void expect_same_result(const SearchResult& pruned, const SearchResult& blind) {
  EXPECT_EQ(pruned.best, blind.best);
  EXPECT_EQ(pruned.best_cost, blind.best_cost);
  EXPECT_EQ(pruned.initial_cost, blind.initial_cost);
  EXPECT_EQ(pruned.evaluations, blind.evaluations);
  EXPECT_EQ(pruned.exhausted, blind.exhausted);
  EXPECT_EQ(pruned.node_budget, 0u);
  EXPECT_EQ(blind.node_budget, 0u);
  // The blind run tests nothing and enters every node.
  EXPECT_EQ(blind.nodes_tested, 0u);
  EXPECT_EQ(blind.nodes_pruned, 0u);
  if (blind.exhausted) {
    EXPECT_EQ(pruned.nodes_visited + pruned.nodes_pruned, blind.nodes_visited);
  }
}

class EsPruningTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EsPruningTest, PrunedEqualsBlindForCwmAndCdcm) {
  const std::unique_ptr<noc::Topology> topo =
      noc::make_topology(GetParam(), 3, 3);
  const energy::Technology tech = energy::technology_0_07u();
  for (const std::uint64_t seed : {3u, 11u}) {
    const graph::Cdcg cdcg = random_cdcg(5, seed);
    const graph::Cwg cwg = cdcg.to_cwg();
    const mapping::CwmCost cwm(cwg, *topo, tech);
    const mapping::CdcmCost cdcm(cdcg, *topo, tech);
    for (const mapping::CostFunction* cost :
         {static_cast<const mapping::CostFunction*>(&cwm),
          static_cast<const mapping::CostFunction*>(&cdcm)}) {
      for (const bool symmetry : {true, false}) {
        SCOPED_TRACE(cost->name() + " seed " + std::to_string(seed) +
                     (symmetry ? " symmetry" : " full"));
        EsOptions options;
        options.use_symmetry = symmetry;
        const SearchResult blind =
            exhaustive_search(Blind(*cost), *topo, options);
        const SearchResult pruned = exhaustive_search(*cost, *topo, options);
        expect_same_result(pruned, blind);
        EXPECT_TRUE(pruned.exhausted);
        EXPECT_GT(pruned.nodes_pruned, 0u);  // The bound actually cuts.
        EXPECT_LT(pruned.nodes_visited, blind.nodes_visited);

        // Budgets, including cuts inside pruned subtrees and at the exact
        // size of the space.
        const std::uint64_t total = blind.evaluations;
        for (const std::uint64_t budget :
             {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{17},
              std::uint64_t{250}, std::uint64_t{1001}, total / 2, total - 1,
              total, total + 1}) {
          SCOPED_TRACE("budget " + std::to_string(budget));
          options.max_evaluations = budget;
          expect_same_result(exhaustive_search(*cost, *topo, options),
                             exhaustive_search(Blind(*cost), *topo, options));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, EsPruningTest,
                         ::testing::Values("mesh", "torus", "xmesh"));

/// The regression instance: on a 3x3 XY mesh the first-tile collapse hides
/// the CDCM optimum of this CDCG (2.041962e-08 J found vs 2.015566e-08 J).
graph::Cdcg symmetry_regression_cdcg() {
  workload::RandomCdcgParams params;
  params.num_cores = 7;
  params.num_packets = 40;
  params.total_bits = 40'000;
  params.parallelism = 5.0;
  util::Rng rng(3);
  return workload::generate_random_cdcg(params, rng);
}

TEST(EsSymmetryTest, CdcmOptimumMatchesUnrestrictedEnumeration) {
  const noc::Mesh mesh(3, 3);
  const energy::Technology tech = energy::technology_0_07u();
  const graph::Cdcg cdcg = symmetry_regression_cdcg();
  const mapping::CdcmCost cost(cdcg, mesh, tech);
  const SearchResult es = exhaustive_search(cost, mesh);  // Default options.

  // The oracle: every injective placement, priced by a fresh CdcmCost in
  // plain recursion; the first strict minimum in lexicographic order.
  const mapping::CdcmCost oracle_cost(cdcg, mesh, tech);
  std::vector<noc::TileId> assignment(cdcg.num_cores());
  std::vector<bool> used(mesh.num_tiles(), false);
  double best = std::numeric_limits<double>::infinity();
  std::vector<noc::TileId> best_assignment;
  std::uint64_t placements = 0;
  const std::function<void(std::size_t)> enumerate = [&](std::size_t core) {
    if (core == assignment.size()) {
      ++placements;
      const double c = oracle_cost.cost(
          mapping::Mapping::from_assignment(mesh, assignment));
      if (c < best) {
        best = c;
        best_assignment = assignment;
      }
      return;
    }
    for (noc::TileId t = 0; t < mesh.num_tiles(); ++t) {
      if (used[t]) continue;
      used[t] = true;
      assignment[core] = t;
      enumerate(core + 1);
      used[t] = false;
    }
  };
  enumerate(0);

  EXPECT_EQ(es.best_cost, best);
  EXPECT_EQ(es.best, mapping::Mapping::from_assignment(mesh, best_assignment));
  EXPECT_EQ(es.evaluations, placements);  // 9P7: nothing collapsed.
  EXPECT_EQ(placements, 181'440u);
  EXPECT_NEAR(best, 2.015566e-08, 1e-14);

  // The collapsed enumeration the engine used to run misses it (the
  // batched engine collapses whenever use_symmetry is set, the default).
  const EsOptions collapsed;
  const SearchResult old = exhaustive_search_batched(
      cdcg.num_cores(), mesh,
      [&](const mapping::Mapping* maps, std::size_t count, double* costs) {
        for (std::size_t i = 0; i < count; ++i) costs[i] = cost.cost(maps[i]);
      },
      collapsed);
  EXPECT_GT(old.best_cost, best);
  EXPECT_NEAR(old.best_cost, 2.041962e-08, 1e-14);
}

}  // namespace
}  // namespace nocmap::search
