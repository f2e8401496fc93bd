#include "nocmap/mapping/cost.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "nocmap/util/rng.hpp"
#include "nocmap/workload/random_cdcg.hpp"

namespace nocmap::mapping {
namespace {

graph::Cdcg random_workload(std::uint32_t cores, util::Rng& rng) {
  workload::RandomCdcgParams params;
  params.num_cores = cores;
  params.num_packets = cores * 4;
  params.total_bits = static_cast<std::uint64_t>(params.num_packets) * 256;
  return workload::generate_random_cdcg(params, rng);
}

/// Draw a random partial placement: a random subset of cores on random
/// distinct tiles, pushed through the evaluator.
struct PartialPlacement {
  std::vector<graph::CoreId> cores;   ///< Placed cores, in push order.
  std::vector<noc::TileId> tiles;     ///< Their tiles.
  std::vector<graph::CoreId> rest;    ///< Unplaced cores.
  std::vector<noc::TileId> free;      ///< Unoccupied tiles.
};

PartialPlacement random_partial(std::size_t num_cores,
                                std::uint32_t num_tiles, util::Rng& rng) {
  PartialPlacement p;
  std::vector<graph::CoreId> cores(num_cores);
  std::iota(cores.begin(), cores.end(), graph::CoreId{0});
  std::vector<noc::TileId> tiles(num_tiles);
  std::iota(tiles.begin(), tiles.end(), noc::TileId{0});
  // Fisher-Yates with the library RNG (std::shuffle is unspecified across
  // standard libraries).
  for (std::size_t i = cores.size(); i > 1; --i) {
    std::swap(cores[i - 1], cores[rng.index(i)]);
  }
  for (std::size_t i = tiles.size(); i > 1; --i) {
    std::swap(tiles[i - 1], tiles[rng.index(i)]);
  }
  const std::size_t placed = rng.index(num_cores + 1);  // 0..num_cores.
  p.cores.assign(cores.begin(), cores.begin() + placed);
  p.rest.assign(cores.begin() + placed, cores.end());
  p.tiles.assign(tiles.begin(), tiles.begin() + placed);
  p.free.assign(tiles.begin() + placed, tiles.end());
  return p;
}

/// Complete `p` with a random placement of the remaining cores and return
/// the full assignment (indexed by core).
std::vector<noc::TileId> random_completion(const PartialPlacement& p,
                                           std::size_t num_cores,
                                           util::Rng& rng) {
  std::vector<noc::TileId> free = p.free;
  for (std::size_t i = free.size(); i > 1; --i) {
    std::swap(free[i - 1], free[rng.index(i)]);
  }
  std::vector<noc::TileId> assignment(num_cores, 0);
  for (std::size_t i = 0; i < p.cores.size(); ++i) {
    assignment[p.cores[i]] = p.tiles[i];
  }
  for (std::size_t i = 0; i < p.rest.size(); ++i) {
    assignment[p.rest[i]] = free[i];
  }
  return assignment;
}

/// The satellite property: over random partial placements on every
/// topology kind, bound(prefix) <= cost(any completion); and on complete
/// placements the CWM bound equals the exact cost bitwise while the CDCM
/// bound stays below the simulated cost — all with no rounding tolerance.
TEST(LowerBoundPropertyTest, AdmissibleOnRandomPartialsAcrossTopologies) {
  const energy::Technology tech = energy::technology_0_07u();
  util::Rng rng(0xB0CD);
  constexpr int kTrialsPerTopology = 170;  // ~500 partials over 3 kinds.
  constexpr int kCompletionsPerTrial = 4;

  for (const std::string& kind : {std::string("mesh"), std::string("torus"),
                                  std::string("xmesh")}) {
    SCOPED_TRACE(kind);
    const std::unique_ptr<noc::Topology> topo = noc::make_topology(kind, 4, 3);
    const std::uint32_t tiles = topo->num_tiles();
    const std::uint32_t cores = 8;  // Fewer cores than tiles: empty tiles too.
    const graph::Cdcg cdcg = random_workload(cores, rng);
    const graph::Cwg cwg = cdcg.to_cwg();
    const CwmCost cwm(cwg, *topo, tech);
    const CdcmCost cdcm(cdcg, *topo, tech);
    const std::unique_ptr<CostFunction::LowerBound> cwm_lb =
        cwm.make_lower_bound();
    const std::unique_ptr<CostFunction::LowerBound> cdcm_lb =
        cdcm.make_lower_bound();

    for (int trial = 0; trial < kTrialsPerTopology; ++trial) {
      SCOPED_TRACE(trial);
      const PartialPlacement p = random_partial(cores, tiles, rng);
      cwm_lb->reset();
      cdcm_lb->reset();
      for (std::size_t i = 0; i < p.cores.size(); ++i) {
        cwm_lb->place(p.cores[i], p.tiles[i]);
        cdcm_lb->place(p.cores[i], p.tiles[i]);
      }
      const double cwm_bound = cwm_lb->bound();
      const double cdcm_bound = cdcm_lb->bound();
      for (int c = 0; c < kCompletionsPerTrial; ++c) {
        const std::vector<noc::TileId> assignment =
            random_completion(p, cores, rng);
        const Mapping m = Mapping::from_assignment(*topo, assignment);
        const double cwm_cost = cwm.cost(m);
        const double cdcm_cost = cdcm.cost(m);
        EXPECT_LE(cwm_bound, cwm_cost);
        EXPECT_LE(cdcm_bound, cdcm_cost);
      }
      // Push the rest of the cores: on the now-complete placement the CWM
      // bound is the exact cost, bitwise.
      const std::vector<noc::TileId> assignment =
          random_completion(p, cores, rng);
      for (const graph::CoreId core : p.rest) {
        cwm_lb->place(core, assignment[core]);
        cdcm_lb->place(core, assignment[core]);
      }
      const Mapping m = Mapping::from_assignment(*topo, assignment);
      EXPECT_EQ(cwm_lb->bound(), cwm.cost(m));
      EXPECT_LE(cdcm_lb->bound(), cdcm.cost(m));
      // Unwind the whole placement through unplace(): the evaluator must
      // return to the empty-prefix bound exactly (bound() prices the
      // placement fresh, so nothing drifts).
      const double empty_before = [&] {
        cwm_lb->reset();
        return cwm_lb->bound();
      }();
      cwm_lb->reset();
      for (std::size_t i = 0; i < p.cores.size(); ++i) {
        cwm_lb->place(p.cores[i], p.tiles[i]);
      }
      for (std::size_t i = p.cores.size(); i-- > 0;) {
        cwm_lb->unplace(p.cores[i], p.tiles[i]);
      }
      EXPECT_EQ(cwm_lb->bound(), empty_before);
    }
  }
}

TEST(LowerBoundTest, PlaceUnplaceMirrorsBoundExactly) {
  const energy::Technology tech = energy::technology_0_07u();
  util::Rng rng(7);
  const graph::Cdcg cdcg = random_workload(6, rng);
  const graph::Cwg cwg = cdcg.to_cwg();
  const std::unique_ptr<noc::Topology> topo = noc::make_topology("mesh", 3, 3);
  const CwmCost cwm(cwg, *topo, tech);
  const std::unique_ptr<CostFunction::LowerBound> lb = cwm.make_lower_bound();
  lb->place(0, 4);
  lb->place(1, 1);
  const double two_placed = lb->bound();
  lb->place(2, 7);
  lb->unplace(2, 7);
  EXPECT_EQ(lb->bound(), two_placed);
}

TEST(LowerBoundTest, CoreTrafficSumsIncidentBits) {
  const energy::Technology tech = energy::technology_0_07u();
  graph::Cwg cwg;
  const graph::CoreId a = cwg.add_core("a");
  const graph::CoreId b = cwg.add_core("b");
  const graph::CoreId c = cwg.add_core("c");
  cwg.add_traffic(a, b, 100);
  cwg.add_traffic(b, c, 40);
  const std::unique_ptr<noc::Topology> topo = noc::make_topology("mesh", 2, 2);
  const CwmCost cwm(cwg, *topo, tech);
  const std::unique_ptr<CostFunction::LowerBound> lb = cwm.make_lower_bound();
  EXPECT_EQ(lb->core_traffic(a), 100u);
  EXPECT_EQ(lb->core_traffic(b), 140u);
  EXPECT_EQ(lb->core_traffic(c), 40u);
}

TEST(LowerBoundTest, HybridDelegatesToCdcm) {
  const energy::Technology tech = energy::technology_0_07u();
  util::Rng rng(3);
  const graph::Cdcg cdcg = random_workload(4, rng);
  const std::unique_ptr<noc::Topology> topo = noc::make_topology("mesh", 2, 2);
  const HybridCost hybrid(cdcg, *topo, tech);
  ASSERT_TRUE(hybrid.has_lower_bound());
  const std::unique_ptr<CostFunction::LowerBound> lb =
      hybrid.make_lower_bound();
  lb->place(0, 0);
  lb->place(1, 1);
  lb->place(2, 2);
  lb->place(3, 3);
  const Mapping m = Mapping::from_assignment(*topo, {0, 1, 2, 3});
  // Hybrid cost() is the exact CDCM objective; its bound must sit below it.
  EXPECT_LE(lb->bound(), hybrid.cost(m));
}

TEST(LowerBoundTest, DefaultCostFunctionThrows) {
  class Stub final : public CostFunction {
   public:
    double cost(const Mapping&) const override { return 0.0; }
    std::string name() const override { return "stub"; }
    std::size_t num_cores() const override { return 1; }
  };
  const Stub stub;
  EXPECT_FALSE(stub.has_lower_bound());
  EXPECT_FALSE(stub.symmetry_invariant());
  EXPECT_THROW(stub.make_lower_bound(), std::logic_error);
}

}  // namespace
}  // namespace nocmap::mapping
