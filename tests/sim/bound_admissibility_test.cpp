/// \file bound_admissibility_test.cpp
/// The partial-placement lower bounds that prune exhaustive search and
/// branch and bound, checked in floating point against the simulator:
///
///  * admissibility, bitwise: bound(partial) <= bound(any completion) <=
///    the double cost() returns, with no tolerance, on every topology kind,
///    XY and odd-even routing, the link-claim and flit backends, and a
///    technology whose clock period is not an integer;
///  * tightness, against an independent oracle: on a single dependence
///    chain no two packets are ever in flight at once, so nothing contends
///    and the simulated cost is exactly the contention-free critical path
///    the CDCM bound prices — the complete-placement bound must meet it up
///    to the bound's floating-point safety factor.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "nocmap/mapping/cost.hpp"
#include "nocmap/noc/topology.hpp"
#include "nocmap/util/rng.hpp"
#include "nocmap/workload/random_cdcg.hpp"

namespace nocmap::sim {
namespace {

using mapping::CdcmCost;
using mapping::CostFunction;
using mapping::CwmCost;
using mapping::Mapping;

/// 0.07u with a clock period that is not a dyadic rational, so every
/// latency in the simulator is rounded.
energy::Technology odd_clock_technology() {
  energy::Technology tech = energy::technology_0_07u();
  tech.clock_period_ns = 0.7;
  return tech;
}

struct Backend {
  std::string label;
  SimOptions options;
};

std::vector<Backend> backends() {
  SimOptions link;
  SimOptions flit;
  flit.backend = SimBackend::kFlit;
  flit.buffer_depth = 1;  // Binds: stalls and backpressure everywhere.
  SimOptions onoff = flit;
  onoff.buffer_depth = 2;
  onoff.flow_control = FlowControl::kOnOff;
  return {{"link", link}, {"flit-credit-1", flit}, {"flit-onoff-2", onoff}};
}

/// Fisher-Yates with the library RNG.
template <typename T>
void shuffle(std::vector<T>& v, util::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.index(i)]);
  }
}

TEST(BoundAdmissibilityTest, PartialBelowCompletionBelowCostBitwise) {
  util::Rng rng(0xAD31);
  std::uint64_t checks = 0;
  for (const std::string kind : {"mesh", "torus", "xmesh"}) {
    const std::unique_ptr<noc::Topology> topo = noc::make_topology(kind, 4, 3);
    const std::uint32_t tiles = topo->num_tiles();
    for (const noc::RoutingAlgorithm routing :
         {noc::RoutingAlgorithm::kXY, noc::RoutingAlgorithm::kOddEven}) {
      for (const energy::Technology& tech :
           {energy::technology_0_07u(), odd_clock_technology()}) {
        for (const Backend& backend : backends()) {
          SCOPED_TRACE(kind + " " + backend.label + " routing " +
                       std::to_string(static_cast<int>(routing)) +
                       " clock " + std::to_string(tech.clock_period_ns));
          workload::RandomCdcgParams params;
          params.num_cores = 8;
          params.num_packets = 40;
          params.total_bits = 40 * 300;
          params.parallelism = 4.0;
          const graph::Cdcg cdcg = workload::generate_random_cdcg(params, rng);
          const graph::Cwg cwg = cdcg.to_cwg();
          const CwmCost cwm(cwg, *topo, tech, routing);
          const CdcmCost cdcm(cdcg, *topo, tech, routing, backend.options);
          const std::unique_ptr<CostFunction::LowerBound> cwm_lb =
              cwm.make_lower_bound();
          const std::unique_ptr<CostFunction::LowerBound> cdcm_lb =
              cdcm.make_lower_bound();

          for (int trial = 0; trial < 40; ++trial) {
            std::vector<graph::CoreId> cores(params.num_cores);
            std::iota(cores.begin(), cores.end(), graph::CoreId{0});
            std::vector<noc::TileId> free(tiles);
            std::iota(free.begin(), free.end(), noc::TileId{0});
            shuffle(cores, rng);
            shuffle(free, rng);
            const std::size_t placed = rng.index(params.num_cores + 1);
            std::vector<noc::TileId> assignment(params.num_cores, 0);
            cwm_lb->reset();
            cdcm_lb->reset();
            for (std::size_t i = 0; i < placed; ++i) {
              assignment[cores[i]] = free[i];
              cwm_lb->place(cores[i], free[i]);
              cdcm_lb->place(cores[i], free[i]);
            }
            const double cwm_partial = cwm_lb->bound();
            const double cdcm_partial = cdcm_lb->bound();
            for (int completion = 0; completion < 3; ++completion) {
              std::vector<noc::TileId> rest(free.begin() + placed, free.end());
              shuffle(rest, rng);
              for (std::size_t i = placed; i < params.num_cores; ++i) {
                assignment[cores[i]] = rest[i - placed];
                cwm_lb->place(cores[i], rest[i - placed]);
                cdcm_lb->place(cores[i], rest[i - placed]);
              }
              const Mapping m = Mapping::from_assignment(*topo, assignment);
              const double cwm_complete = cwm_lb->bound();
              const double cdcm_complete = cdcm_lb->bound();
              EXPECT_LE(cwm_partial, cwm_complete);
              EXPECT_EQ(cwm_complete, cwm.cost(m));
              EXPECT_LE(cdcm_partial, cdcm_complete);
              EXPECT_LE(cdcm_complete, cdcm.cost(m));
              checks += 4;
              for (std::size_t i = params.num_cores; i-- > placed;) {
                cwm_lb->unplace(cores[i], rest[i - placed]);
                cdcm_lb->unplace(cores[i], rest[i - placed]);
              }
              // Unwinding restores the partial bound exactly.
              EXPECT_EQ(cwm_lb->bound(), cwm_partial);
              EXPECT_EQ(cdcm_lb->bound(), cdcm_partial);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(checks, 3u * 2u * 2u * 3u * 40u * 3u * 4u);
}

/// A single chain: packet i + 1 depends on packet i, each from core i % n
/// to core (i + 1) % n.
graph::Cdcg chain(std::uint32_t cores, std::uint32_t packets,
                  util::Rng& rng) {
  graph::Cdcg cdcg;
  for (std::uint32_t c = 0; c < cores; ++c) {
    cdcg.add_core("c" + std::to_string(c));
  }
  graph::PacketId prev = 0;
  for (std::uint32_t i = 0; i < packets; ++i) {
    const graph::PacketId p = cdcg.add_packet(
        i % cores, (i + 1) % cores, 1 + rng.index(7), 8 + rng.index(500));
    if (i > 0) cdcg.add_dependence(prev, p);
    prev = p;
  }
  return cdcg;
}

TEST(BoundTightnessTest, CompleteBoundMeetsSimulatedCostOnAChain) {
  util::Rng rng(0xC4A1);
  for (const std::string kind : {"mesh", "torus", "xmesh"}) {
    const std::unique_ptr<noc::Topology> topo = noc::make_topology(kind, 3, 3);
    // The flit backend only at a depth that never binds: a lone worm
    // stalls on a shallow buffer even with nothing to contend with.
    SimOptions deep;
    deep.backend = SimBackend::kFlit;
    deep.buffer_depth = 64;
    for (const energy::Technology& tech :
         {energy::technology_0_07u(), odd_clock_technology()}) {
      for (const Backend& backend :
           {Backend{"link", SimOptions{}}, Backend{"flit-64", deep}}) {
        SCOPED_TRACE(kind + " " + backend.label);
        const graph::Cdcg cdcg = chain(6, 30, rng);
        const CdcmCost cdcm(cdcg, *topo, tech, noc::RoutingAlgorithm::kXY,
                            backend.options);
        const std::unique_ptr<CostFunction::LowerBound> lb =
            cdcm.make_lower_bound();
        for (int trial = 0; trial < 5; ++trial) {
          std::vector<noc::TileId> tiles(topo->num_tiles());
          std::iota(tiles.begin(), tiles.end(), noc::TileId{0});
          shuffle(tiles, rng);
          tiles.resize(cdcg.num_cores());
          lb->reset();
          for (graph::CoreId c = 0; c < cdcg.num_cores(); ++c) {
            lb->place(c, tiles[c]);
          }
          const Mapping m = Mapping::from_assignment(*topo, tiles);
          const SimulationResult truth = cdcm.evaluate(m);
          ASSERT_EQ(truth.total_contention_ns, 0.0);  // The oracle's premise.
          const double cost = cdcm.cost(m);
          const double bound = lb->bound();
          EXPECT_LE(bound, cost);
          EXPECT_GE(bound, cost * (1.0 - 1e-11));
        }
      }
    }
  }
}

}  // namespace
}  // namespace nocmap::sim
