/// \file heap_path_test.cpp
/// Equivalence of the simulator's general heap loop across its entry points.
///
/// The heap loop keeps the event it processes out of the heap (a header's
/// next hop is handed straight back when it precedes every queued key) and,
/// in scalar link-claim runs, fuses the final ejection into the last link
/// claim. Both are meant to leave every pop where it was. These tests walk
/// SA-like random swap sequences on one reused Simulator and require, at
/// every step, that the scalar run(), run_traced() on the same instance and
/// a freshly constructed sim::simulate() agree bit for bit:
///
///  * on the 10x10 and 12x10 suite boards, whose worst-case horizon is past
///    the bucket calendar's cap (so scalar runs take the heap loop), and on
///    the 8x8 board, which stays on the calendar;
///  * at a non-integral clock (0.7 ns), which keeps every run off the
///    calendar, on mesh, torus and xmesh under XY and odd-even routing;
///  * with tr_cycles = 0;
///  * under the flit backend at a buffer depth that never binds, which must
///    also equal the link-claim result.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nocmap/noc/topology.hpp"
#include "nocmap/sim/schedule.hpp"
#include "nocmap/sim/simulator.hpp"
#include "nocmap/util/rng.hpp"
#include "nocmap/workload/random_cdcg.hpp"
#include "nocmap/workload/suite.hpp"

namespace nocmap::sim {
namespace {

/// The scalar fields a caller of Simulator::run() can observe.
struct Scalars {
  double texec_ns, dynamic_j, static_j, contention_ns;
  std::size_t contended;
  double stall_ns, backpressure_ns, max_occupancy;
};

Scalars scalars_of(const SimulationResult& r) {
  return Scalars{r.texec_ns,
                 r.energy.dynamic_j,
                 r.energy.static_j,
                 r.total_contention_ns,
                 r.num_contended_packets,
                 r.flit_stall_ns,
                 r.flit_backpressure_ns,
                 r.flit_max_occupancy};
}

void expect_same_scalars(const Scalars& a, const Scalars& b,
                         const std::string& what) {
  EXPECT_EQ(a.texec_ns, b.texec_ns) << what;
  EXPECT_EQ(a.dynamic_j, b.dynamic_j) << what;
  EXPECT_EQ(a.static_j, b.static_j) << what;
  EXPECT_EQ(a.contention_ns, b.contention_ns) << what;
  EXPECT_EQ(a.contended, b.contended) << what;
  EXPECT_EQ(a.stall_ns, b.stall_ns) << what;
  EXPECT_EQ(a.backpressure_ns, b.backpressure_ns) << what;
  EXPECT_EQ(a.max_occupancy, b.max_occupancy) << what;
}

/// Per-packet records and per-resource occupancy, bitwise.
void expect_same_traces(const SimulationResult& a, const SimulationResult& b,
                        const std::string& what) {
  ASSERT_EQ(a.packets.size(), b.packets.size()) << what;
  for (std::size_t p = 0; p < a.packets.size(); ++p) {
    const PacketTrace& x = a.packets[p];
    const PacketTrace& y = b.packets[p];
    ASSERT_EQ(x.inject_ns, y.inject_ns) << what << " packet " << p;
    ASSERT_EQ(x.delivered_ns, y.delivered_ns) << what << " packet " << p;
    ASSERT_EQ(x.contention_ns, y.contention_ns) << what << " packet " << p;
    ASSERT_EQ(x.hops.size(), y.hops.size()) << what << " packet " << p;
    for (std::size_t h = 0; h < x.hops.size(); ++h) {
      ASSERT_EQ(x.hops[h].resource, y.hops[h].resource) << what;
      ASSERT_EQ(x.hops[h].start_ns, y.hops[h].start_ns) << what;
      ASSERT_EQ(x.hops[h].end_ns, y.hops[h].end_ns) << what;
    }
  }
  ASSERT_EQ(a.occupancy.size(), b.occupancy.size()) << what;
  for (std::size_t r = 0; r < a.occupancy.size(); ++r) {
    ASSERT_EQ(a.occupancy[r].size(), b.occupancy[r].size()) << what;
    for (std::size_t i = 0; i < a.occupancy[r].size(); ++i) {
      const Occupancy& x = a.occupancy[r][i];
      const Occupancy& y = b.occupancy[r][i];
      ASSERT_EQ(x.packet, y.packet) << what << " resource " << r;
      ASSERT_EQ(x.start_ns, y.start_ns) << what << " resource " << r;
      ASSERT_EQ(x.end_ns, y.end_ns) << what << " resource " << r;
      ASSERT_EQ(x.contended, y.contended) << what << " resource " << r;
    }
  }
}

/// An SA-like walk: each step swaps two random tiles (either may be empty)
/// and, like a rejected Metropolis move, undoes about a third of them on
/// the next step. At every step the reused Simulator's scalar run, its
/// traced run and a fresh simulate() must agree bitwise. Returns the
/// scalar results, step by step.
std::vector<Scalars> check_walk(const graph::Cdcg& cdcg,
                                const noc::Topology& topo,
                                const energy::Technology& tech,
                                const SimOptions& options, std::uint64_t seed,
                                int steps, const std::string& what) {
  util::Rng rng(seed);
  mapping::Mapping m = mapping::Mapping::random(topo, cdcg.num_cores(), rng);
  Simulator sim(cdcg, topo, tech, options);
  std::vector<Scalars> walk;
  noc::TileId undo_a = 0;
  noc::TileId undo_b = 0;
  bool can_undo = false;
  for (int step = 0; step < steps; ++step) {
    if (can_undo && rng.index(3) == 0) {
      m.swap_tiles(undo_a, undo_b);
      can_undo = false;
    } else {
      undo_a = static_cast<noc::TileId>(rng.index(topo.num_tiles()));
      undo_b = static_cast<noc::TileId>(rng.index(topo.num_tiles()));
      m.swap_tiles(undo_a, undo_b);
      can_undo = true;
    }
    const std::string at = what + " step " + std::to_string(step);
    const Scalars scalar = scalars_of(sim.run(m));
    const SimulationResult traced = sim.run_traced(m);
    const SimulationResult fresh = simulate(cdcg, topo, m, tech, options);
    expect_same_scalars(scalar, scalars_of(traced), at + " run/run_traced");
    expect_same_scalars(scalar, scalars_of(fresh), at + " run/simulate");
    expect_same_traces(traced, fresh, at + " run_traced/simulate");
    walk.push_back(scalar);
  }
  return walk;
}

/// A contended random application: multi-flit worms on a dense mapping.
graph::Cdcg random_app(std::uint64_t seed, std::uint32_t max_cores) {
  util::Rng rng(seed);
  workload::RandomCdcgParams params;
  params.num_cores = 4 + static_cast<std::uint32_t>(rng.index(max_cores - 3));
  params.num_packets =
      params.num_cores + static_cast<std::uint32_t>(rng.index(40));
  params.total_bits = params.num_packets * (8 + rng.index(400));
  params.parallelism = 2.0 + rng.uniform01() * 4.0;
  return workload::generate_random_cdcg(params, rng);
}

energy::Technology narrow_links(double clock_ns) {
  energy::Technology tech = energy::example_technology();
  tech.clock_period_ns = clock_ns;
  tech.flit_width_bits = 8;
  return tech;
}

TEST(HeapPathTest, SuiteBoardsAgreeAcrossEntryPoints) {
  for (const workload::SuiteEntry& e : workload::table1_suite()) {
    if (e.name.rfind("random-big-", 0) != 0) continue;
    const std::unique_ptr<noc::Topology> mesh =
        noc::make_topology("mesh", e.noc_width, e.noc_height);
    SimOptions options;
    options.record_traces = false;
    check_walk(e.cdcg, *mesh, energy::technology_0_07u(), options, 7, 12,
               e.name);
  }
}

TEST(HeapPathTest, NonIntegralClockAgreesOnEveryTopologyAndRouting) {
  const noc::RoutingAlgorithm algos[] = {noc::RoutingAlgorithm::kXY,
                                         noc::RoutingAlgorithm::kOddEven};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const graph::Cdcg cdcg = random_app(seed, 9);
    for (const char* kind : {"mesh", "torus", "xmesh"}) {
      const std::unique_ptr<noc::Topology> topo =
          noc::make_topology(kind, static_cast<std::uint32_t>(3 + seed % 2),
                              static_cast<std::uint32_t>(3 + seed / 4));
      for (const noc::RoutingAlgorithm algo : algos) {
        SimOptions options;
        options.routing = algo;
        check_walk(cdcg, *topo, narrow_links(0.7), options, seed, 25,
                   std::string(kind) + "/" +
                       noc::routing_algorithm_name(algo) + " seed " +
                       std::to_string(seed));
      }
    }
  }
}

TEST(HeapPathTest, ZeroRouterLatencyAgrees) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const graph::Cdcg cdcg = random_app(seed + 100, 9);
    const std::unique_ptr<noc::Topology> mesh =
        noc::make_topology("mesh", 3, 3);
    for (const double clock : {0.7, 1.0}) {
      energy::Technology tech = narrow_links(clock);
      tech.tr_cycles = 0;
      check_walk(cdcg, *mesh, tech, SimOptions{}, seed, 25,
                 "tr=0 clock " + std::to_string(clock) + " seed " +
                     std::to_string(seed));
    }
  }
}

TEST(HeapPathTest, FlitBackendAtNeverBindingDepthMatchesLinkClaim) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const graph::Cdcg cdcg = random_app(seed + 200, 9);
    for (const char* kind : {"mesh", "torus", "xmesh"}) {
      const std::unique_ptr<noc::Topology> topo =
          noc::make_topology(kind, 3, 3);
      for (const double clock : {0.7, 1.0}) {
        const energy::Technology tech = narrow_links(clock);
        std::uint64_t max_flits = 1;
        for (graph::PacketId p = 0; p < cdcg.num_packets(); ++p) {
          max_flits = std::max(max_flits, tech.flits(cdcg.packet(p).bits));
        }
        SimOptions flit;
        flit.backend = SimBackend::kFlit;
        flit.buffer_depth = static_cast<std::uint32_t>(max_flits + 2);
        const std::string what = std::string(kind) + " clock " +
                                 std::to_string(clock) + " seed " +
                                 std::to_string(seed);
        const std::vector<Scalars> link =
            check_walk(cdcg, *topo, tech, SimOptions{}, seed, 20, what);
        const std::vector<Scalars> worm =
            check_walk(cdcg, *topo, tech, flit, seed, 20, what + " flit");
        ASSERT_EQ(link.size(), worm.size());
        for (std::size_t i = 0; i < link.size(); ++i) {
          EXPECT_EQ(worm[i].texec_ns, link[i].texec_ns) << what;
          EXPECT_EQ(worm[i].static_j, link[i].static_j) << what;
          EXPECT_EQ(worm[i].contention_ns, link[i].contention_ns) << what;
          EXPECT_EQ(worm[i].contended, link[i].contended) << what;
          EXPECT_EQ(worm[i].stall_ns, 0.0) << what;
          EXPECT_EQ(worm[i].backpressure_ns, 0.0) << what;
        }
      }
    }
  }
}

}  // namespace
}  // namespace nocmap::sim
