#include "nocmap/noc/mesh.hpp"
#include "nocmap/search/exhaustive.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "nocmap/search/simulated_annealing.hpp"
#include "nocmap/workload/paper_example.hpp"

namespace nocmap::search {
namespace {

struct Fixture {
  graph::Cdcg cdcg = workload::paper_example_cdcg();
  noc::Mesh mesh = workload::paper_example_mesh();
  energy::Technology tech = energy::example_technology();
};

TEST(PlacementCountTest, CountsPartialPermutations) {
  EXPECT_EQ(placement_count(4, 4), 24u);
  EXPECT_EQ(placement_count(6, 5), 720u);
  EXPECT_EQ(placement_count(6, 6), 720u);
  EXPECT_EQ(placement_count(9, 2), 72u);
  EXPECT_EQ(placement_count(5, 0), 1u);
}

TEST(PlacementCountTest, SaturatesInsteadOfOverflowing) {
  EXPECT_EQ(placement_count(120, 100),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ExhaustiveTest, FindsGlobalOptimumOnPaperExample) {
  Fixture f;
  const mapping::CdcmCost cost(f.cdcg, f.mesh, f.tech);
  const SearchResult result = exhaustive_search(cost, f.mesh);
  EXPECT_DOUBLE_EQ(result.best_cost, 399e-12);  // Mapping (b)'s value.
  EXPECT_TRUE(result.exhausted);
  EXPECT_TRUE(result.best.is_valid());
}

// Symmetry pruning is exact only for a symmetry-invariant objective: CWM.
TEST(ExhaustiveTest, SymmetryPruningPreservesTheOptimum) {
  Fixture f;
  const graph::Cwg cwg = f.cdcg.to_cwg();
  const mapping::CwmCost cost(cwg, f.mesh, f.tech);
  EsOptions full;
  full.use_symmetry = false;
  EsOptions pruned;
  pruned.use_symmetry = true;
  const SearchResult a = exhaustive_search(cost, f.mesh, full);
  const SearchResult b = exhaustive_search(cost, f.mesh, pruned);
  EXPECT_DOUBLE_EQ(a.best_cost, b.best_cost);
  // Square 2x2 mesh: the symmetry group has 8 elements; core 0 is pinned to
  // a single representative tile, so the pruned run is ~4-8x smaller.
  EXPECT_EQ(a.evaluations, 24u);
  EXPECT_EQ(b.evaluations, 6u);
}

TEST(ExhaustiveTest, SymmetryPruningOnRectangularMesh) {
  Fixture f;
  const noc::Mesh mesh(4, 2);
  const graph::Cwg cwg = f.cdcg.to_cwg();
  const mapping::CwmCost cost(cwg, mesh, f.tech);
  EsOptions full;
  full.use_symmetry = false;
  const SearchResult a = exhaustive_search(cost, mesh, full);
  const SearchResult b = exhaustive_search(cost, mesh);
  EXPECT_DOUBLE_EQ(a.best_cost, b.best_cost);
  // 8P4 = 1680 placements; group of 4 -> core 0 restricted to 2 of 8 tiles.
  EXPECT_EQ(a.evaluations, 1680u);
  EXPECT_EQ(b.evaluations, 420u);
}

// CDCM is not symmetry-invariant (a reflection maps XY routes onto YX
// routes), so use_symmetry leaves its search space whole.
TEST(ExhaustiveTest, SymmetryPruningSkipsNonInvariantObjectives) {
  Fixture f;
  const mapping::CdcmCost cost(f.cdcg, f.mesh, f.tech);
  EsOptions pruned;
  pruned.use_symmetry = true;
  EXPECT_EQ(exhaustive_search(cost, f.mesh, pruned).evaluations, 24u);
}

TEST(ExhaustiveTest, BudgetCapsEvaluationsAndFlagsNonExhausted) {
  Fixture f;
  const mapping::CdcmCost cost(f.cdcg, f.mesh, f.tech);
  EsOptions options;
  options.use_symmetry = false;
  options.max_evaluations = 10;
  const SearchResult result = exhaustive_search(cost, f.mesh, options);
  EXPECT_FALSE(result.exhausted);
  EXPECT_EQ(result.evaluations, 10u);
  EXPECT_TRUE(result.best.is_valid());
}

TEST(ExhaustiveTest, AgreesWithSimulatedAnnealingOnSmallNoCs) {
  // The paper: "for small NoC sizes, both ES and SA methods reached the
  // same results".
  Fixture f;
  const mapping::CdcmCost cost(f.cdcg, f.mesh, f.tech);
  const SearchResult es = exhaustive_search(cost, f.mesh);
  util::Rng rng(2024);
  const SearchResult sa = anneal(cost, f.mesh, rng);
  EXPECT_DOUBLE_EQ(es.best_cost, sa.best_cost);
}

TEST(ExhaustiveTest, FewerCoresThanTilesEnumeratesPartialPlacements) {
  Fixture f;
  // Map only 2 cores of a 2-core application onto 2x2.
  graph::Cdcg small;
  const auto a = small.add_core("a");
  const auto b = small.add_core("b");
  small.add_packet(a, b, 1, 8);
  const mapping::CdcmCost cost(small, f.mesh, f.tech);
  EsOptions options;
  options.use_symmetry = false;
  const SearchResult result = exhaustive_search(cost, f.mesh, options);
  EXPECT_EQ(result.evaluations, 12u);  // 4P2.
  EXPECT_TRUE(result.exhausted);
  // Optimum: adjacent tiles, K = 2: 8 bits * 3 pJ + static.
  const auto best_sim = cost.evaluate(result.best);
  EXPECT_EQ(best_sim.packets[0].num_routers, 2u);
}

TEST(ExhaustiveTest, MoreCoresThanTilesThrows) {
  Fixture f;
  graph::Cdcg big;
  std::vector<graph::CoreId> cores;
  for (int i = 0; i < 5; ++i) {
    cores.push_back(big.add_core("c" + std::to_string(i)));
  }
  big.add_packet(cores[0], cores[1], 1, 1);
  const mapping::CdcmCost cost(big, f.mesh, f.tech);
  EXPECT_THROW(exhaustive_search(cost, f.mesh), std::invalid_argument);
}

}  // namespace
}  // namespace nocmap::search
