#include "nocmap/noc/mesh.hpp"
#include "nocmap/sim/simulator.hpp"

#include <gtest/gtest.h>

#include "nocmap/sim/schedule.hpp"
#include "nocmap/workload/paper_example.hpp"
#include "nocmap/workload/random_cdcg.hpp"

namespace nocmap::sim {
namespace {

graph::Cdcg random_cdcg(std::uint32_t cores, std::uint64_t seed) {
  workload::RandomCdcgParams params;
  params.num_cores = cores;
  params.num_packets = cores * 5;
  params.total_bits = params.num_packets * 200;
  util::Rng rng(seed);
  return workload::generate_random_cdcg(params, rng);
}

void expect_same_scalars(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_DOUBLE_EQ(a.texec_ns, b.texec_ns);
  EXPECT_DOUBLE_EQ(a.energy.dynamic_j, b.energy.dynamic_j);
  EXPECT_DOUBLE_EQ(a.energy.static_j, b.energy.static_j);
  EXPECT_DOUBLE_EQ(a.total_contention_ns, b.total_contention_ns);
  EXPECT_EQ(a.num_contended_packets, b.num_contended_packets);
}

TEST(SimulatorTest, RunMatchesSimulateOnThePaperExample) {
  const graph::Cdcg cdcg = workload::paper_example_cdcg();
  const noc::Mesh mesh = workload::paper_example_mesh();
  const energy::Technology tech = energy::example_technology();
  SimOptions options;
  options.record_traces = false;

  Simulator simulator(cdcg, mesh, tech, options);
  util::Rng rng(1);
  for (int trial = 0; trial < 12; ++trial) {
    const mapping::Mapping m =
        mapping::Mapping::random(mesh, cdcg.num_cores(), rng);
    expect_same_scalars(simulator.run(m),
                        simulate(cdcg, mesh, m, tech, options));
  }
}

TEST(SimulatorTest, ArenaReuseMatchesSimulateOnRandomWorkloads) {
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    const graph::Cdcg cdcg = random_cdcg(10, seed);
    const noc::Mesh mesh(4, 3);
    const energy::Technology tech = energy::technology_0_07u();
    SimOptions options;
    options.record_traces = false;

    Simulator simulator(cdcg, mesh, tech, options);
    util::Rng rng(seed * 13 + 1);
    for (int trial = 0; trial < 25; ++trial) {
      const mapping::Mapping m =
          mapping::Mapping::random(mesh, cdcg.num_cores(), rng);
      expect_same_scalars(simulator.run(m),
                          simulate(cdcg, mesh, m, tech, options));
    }
  }
}

TEST(SimulatorTest, RepeatedRunsOfTheSameMappingAreIdentical) {
  const graph::Cdcg cdcg = random_cdcg(8, 21);
  const noc::Mesh mesh(3, 3);
  const energy::Technology tech = energy::technology_0_07u();
  SimOptions options;
  options.record_traces = false;

  Simulator simulator(cdcg, mesh, tech, options);
  util::Rng rng(9);
  const mapping::Mapping m =
      mapping::Mapping::random(mesh, cdcg.num_cores(), rng);
  const SimulationResult first = simulator.run(m);  // Copy the scalars.
  for (int i = 0; i < 10; ++i) {
    // Interleave other mappings to dirty the arena between the checks.
    const mapping::Mapping other =
        mapping::Mapping::random(mesh, cdcg.num_cores(), rng);
    simulator.run(other);
    expect_same_scalars(simulator.run(m), first);
  }
}

TEST(SimulatorTest, ScalarRunLeavesTraceVectorsEmpty) {
  const graph::Cdcg cdcg = workload::paper_example_cdcg();
  const noc::Mesh mesh = workload::paper_example_mesh();
  Simulator simulator(cdcg, mesh, energy::example_technology());
  const mapping::Mapping m(mesh, cdcg.num_cores());
  const SimulationResult& r = simulator.run(m);
  EXPECT_TRUE(r.packets.empty());
  EXPECT_TRUE(r.occupancy.empty());
  EXPECT_GT(r.texec_ns, 0.0);
}

TEST(SimulatorTest, RunTracedMatchesSimulateIncludingTraces) {
  const graph::Cdcg cdcg = random_cdcg(9, 33);
  const noc::Mesh mesh(3, 3);
  const energy::Technology tech = energy::technology_0_07u();
  SimOptions options;  // record_traces = true.

  Simulator simulator(cdcg, mesh, tech, options);
  util::Rng rng(77);
  const mapping::Mapping m =
      mapping::Mapping::random(mesh, cdcg.num_cores(), rng);
  const SimulationResult a = simulator.run_traced(m);
  const SimulationResult b = simulate(cdcg, mesh, m, tech, options);

  expect_same_scalars(a, b);
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t p = 0; p < a.packets.size(); ++p) {
    EXPECT_DOUBLE_EQ(a.packets[p].ready_ns, b.packets[p].ready_ns);
    EXPECT_DOUBLE_EQ(a.packets[p].inject_ns, b.packets[p].inject_ns);
    EXPECT_DOUBLE_EQ(a.packets[p].delivered_ns, b.packets[p].delivered_ns);
    EXPECT_DOUBLE_EQ(a.packets[p].contention_ns, b.packets[p].contention_ns);
    EXPECT_EQ(a.packets[p].num_routers, b.packets[p].num_routers);
    ASSERT_EQ(a.packets[p].hops.size(), b.packets[p].hops.size());
    for (std::size_t h = 0; h < a.packets[p].hops.size(); ++h) {
      EXPECT_EQ(a.packets[p].hops[h].resource, b.packets[p].hops[h].resource);
      EXPECT_DOUBLE_EQ(a.packets[p].hops[h].start_ns,
                       b.packets[p].hops[h].start_ns);
      EXPECT_DOUBLE_EQ(a.packets[p].hops[h].end_ns,
                       b.packets[p].hops[h].end_ns);
    }
  }
  ASSERT_EQ(a.occupancy.size(), b.occupancy.size());
  for (std::size_t r = 0; r < a.occupancy.size(); ++r) {
    ASSERT_EQ(a.occupancy[r].size(), b.occupancy[r].size());
    for (std::size_t i = 0; i < a.occupancy[r].size(); ++i) {
      EXPECT_EQ(a.occupancy[r][i].packet, b.occupancy[r][i].packet);
      EXPECT_DOUBLE_EQ(a.occupancy[r][i].start_ns, b.occupancy[r][i].start_ns);
      EXPECT_DOUBLE_EQ(a.occupancy[r][i].end_ns, b.occupancy[r][i].end_ns);
      EXPECT_EQ(a.occupancy[r][i].contended, b.occupancy[r][i].contended);
    }
  }
}

TEST(SimulatorTest, RejectsForeignMappings) {
  const graph::Cdcg cdcg = workload::paper_example_cdcg();
  const noc::Mesh mesh = workload::paper_example_mesh();
  Simulator simulator(cdcg, mesh, energy::example_technology());

  const noc::Mesh other(3, 3);
  const mapping::Mapping wrong_mesh(other, cdcg.num_cores());
  EXPECT_THROW(simulator.run(wrong_mesh), std::invalid_argument);
  const mapping::Mapping wrong_cores(mesh, 2);
  EXPECT_THROW(simulator.run(wrong_cores), std::invalid_argument);
}

}  // namespace
}  // namespace nocmap::sim
