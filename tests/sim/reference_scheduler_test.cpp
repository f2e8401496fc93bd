/// \file reference_scheduler_test.cpp
/// An independent oracle for the link-claim CDCM scheduler.
///
/// Every other equivalence suite compares two optimized paths of one
/// Simulator (flit vs link-claim, checkpoints vs full, scalar vs traced),
/// so a fault in the core they share would pass them all. This file keeps a
/// deliberately naive scheduler written straight from Section 4 of the
/// paper and Equations 6-9, sharing nothing with sim::Simulator but the
/// energy equations and the topology's routing function:
///
///  * routes come from noc::compute_route(), once per packet;
///  * the next event is found by a linear scan over every packet (least
///    time, then least packet id — a packet has at most one header in
///    flight, so its hop never decides);
///  * state is plain per-packet structs, rebuilt from nothing on each call.
///
/// Section 4's timing, in the technology's units (lambda = clock period):
/// a packet is ready when its last predecessor has been delivered (roots
/// at 0); after t_aq * lambda of computation its header crosses the local
/// link (tl) into the source router. At each of the K routers the header
/// takes tr; at the first K - 1 it must also win the outgoing link, which
/// stays busy until the worm's n flits have crossed it (n * tl after the
/// header leaves), and any wait for it is contention added on top of the
/// arrival. The header then crosses the link (tl) to the next router. From
/// the last router the worm streams into the destination core, never
/// blocked, and is delivered n * tl after its header left. Uncontended,
/// that is Equation 8, (K (tr + tl) + tl n) lambda; texec is the last
/// delivery; the energy is Equation 4 (dynamic) plus Equation 9 (static).
///
/// The oracle uses the same association of double operations as the
/// model's definition (arrival + wait + tr), so the simulator must match it
/// bitwise on both its heap-loop and bucket-calendar paths, randomized over
/// CDCG x mapping x topology x routing, and on the paper's worked example
/// (100 ns contended vs 90 ns contention-free).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nocmap/energy/energy_model.hpp"
#include "nocmap/noc/routing.hpp"
#include "nocmap/noc/topology.hpp"
#include "nocmap/sim/simulator.hpp"
#include "nocmap/util/rng.hpp"
#include "nocmap/workload/paper_example.hpp"
#include "nocmap/workload/random_cdcg.hpp"

namespace nocmap::sim {
namespace {

struct OraclePacket {
  enum class State { kWaiting, kInFlight, kDelivered };
  State state = State::kWaiting;
  std::size_t preds_left = 0;
  double ready = 0.0;      ///< Latest predecessor delivery.
  double inject = 0.0;     ///< ready + computation time.
  double at = 0.0;         ///< The in-flight header's next arrival.
  std::size_t hop = 0;     ///< The router it arrives at.
  double contention = 0.0;
  double delivered = 0.0;
  noc::Route route;
};

struct OracleResult {
  double texec_ns = 0.0;
  double dynamic_j = 0.0;
  double static_j = 0.0;
  double total_contention_ns = 0.0;
  std::size_t num_contended_packets = 0;
  std::vector<OraclePacket> packets;
};

OracleResult naive_schedule(const graph::Cdcg& cdcg, const noc::Topology& topo,
                            const mapping::Mapping& mapping,
                            const energy::Technology& tech,
                            noc::RoutingAlgorithm routing) {
  const double lambda = tech.clock_period_ns;
  const double tr = static_cast<double>(tech.tr_cycles) * lambda;
  const double tl = static_cast<double>(tech.tl_cycles) * lambda;
  const std::size_t n = cdcg.num_packets();

  OracleResult r;
  r.packets.resize(n);
  std::vector<double> link_free(topo.num_resources(), 0.0);

  const auto comp_ns = [&](graph::PacketId p) {
    return static_cast<double>(cdcg.packet(p).comp_time) * lambda;
  };
  const auto n_tl = [&](graph::PacketId p) {
    return static_cast<double>(tech.flits(cdcg.packet(p).bits)) * tl;
  };
  const auto inject = [&](graph::PacketId p) {
    OraclePacket& pk = r.packets[p];
    pk.state = OraclePacket::State::kInFlight;
    pk.inject = pk.ready + comp_ns(p);
    pk.at = pk.inject + tl;  // Across the local link into the source router.
    pk.hop = 0;
  };

  for (graph::PacketId p = 0; p < n; ++p) {
    const graph::Packet& pk = cdcg.packet(p);
    r.packets[p].route = noc::compute_route(topo, mapping.tile_of(pk.src),
                                            mapping.tile_of(pk.dst), routing);
    r.packets[p].preds_left = cdcg.predecessors(p).size();
  }
  for (graph::PacketId p = 0; p < n; ++p) {
    if (r.packets[p].preds_left == 0) inject(p);
  }

  for (std::size_t done = 0; done < n;) {
    // The next event: the earliest in-flight header, lowest packet id first.
    graph::PacketId next = n;
    for (graph::PacketId p = 0; p < n; ++p) {
      if (r.packets[p].state != OraclePacket::State::kInFlight) continue;
      if (next == n || r.packets[p].at < r.packets[next].at) next = p;
    }
    if (next == n) {
      ADD_FAILURE() << "oracle: no packet in flight, schedule stalled";
      return r;
    }
    OraclePacket& pk = r.packets[next];
    const std::size_t routers = pk.route.routers.size();
    if (pk.hop + 1 < routers) {
      // Claim the outgoing link; FIFO arbitration in event order.
      const noc::ResourceId link = pk.route.links[pk.hop];
      const double wait = std::max(0.0, link_free[link] - pk.at);
      pk.contention += wait;
      r.total_contention_ns += wait;
      const double header_out = pk.at + wait + tr;
      link_free[link] = header_out + n_tl(next);
      pk.at = header_out + tl;
      ++pk.hop;
    } else {
      // Eject into the destination core.
      pk.delivered = (pk.at + tr) + n_tl(next);
      pk.state = OraclePacket::State::kDelivered;
      ++done;
      r.texec_ns = std::max(r.texec_ns, pk.delivered);
      if (pk.contention > 0.0) ++r.num_contended_packets;
      for (const graph::PacketId s : cdcg.successors(next)) {
        OraclePacket& succ = r.packets[s];
        succ.ready = std::max(succ.ready, pk.delivered);
        if (--succ.preds_left == 0) inject(s);
      }
    }
  }

  for (graph::PacketId p = 0; p < n; ++p) {
    r.dynamic_j += energy::dynamic_packet_energy(
        tech, cdcg.packet(p).bits, r.packets[p].route.num_routers());
  }
  r.static_j = energy::static_noc_energy(tech, topo.num_tiles(), r.texec_ns);
  return r;
}

void expect_matches_oracle(const OracleResult& want,
                           const SimulationResult& got,
                           const std::string& what) {
  EXPECT_EQ(got.texec_ns, want.texec_ns) << what;
  EXPECT_EQ(got.energy.dynamic_j, want.dynamic_j) << what;
  EXPECT_EQ(got.energy.static_j, want.static_j) << what;
  EXPECT_EQ(got.total_contention_ns, want.total_contention_ns) << what;
  EXPECT_EQ(got.num_contended_packets, want.num_contended_packets) << what;
  for (std::size_t p = 0; p < got.packets.size(); ++p) {
    ASSERT_EQ(got.packets[p].inject_ns, want.packets[p].inject) << what;
    ASSERT_EQ(got.packets[p].delivered_ns, want.packets[p].delivered) << what;
    ASSERT_EQ(got.packets[p].contention_ns, want.packets[p].contention)
        << what;
  }
}

/// Random application, mapping and board. `bulk` scales every packet so
/// far up that the worst-case schedule horizon passes the bucket
/// calendar's cap and scalar runs take the heap loop with integer times.
struct Case {
  graph::Cdcg cdcg;
  std::unique_ptr<noc::Topology> topo;
  mapping::Mapping mapping;
};

Case random_case(std::uint64_t seed, const std::string& kind, bool bulk) {
  util::Rng rng(seed * 31 + 7);
  workload::RandomCdcgParams params;
  params.num_cores = 4 + static_cast<std::uint32_t>(rng.index(6));
  params.num_packets =
      params.num_cores + static_cast<std::uint32_t>(rng.index(40));
  params.total_bits = params.num_packets * (8 + rng.index(400)) *
                      (bulk ? 1000000ull : 1ull);
  params.parallelism = 2.0 + rng.uniform01() * 4.0;
  graph::Cdcg cdcg = workload::generate_random_cdcg(params, rng);
  const std::uint32_t w = 3 + static_cast<std::uint32_t>(rng.index(2));
  const std::uint32_t h = 3 + static_cast<std::uint32_t>(rng.index(2));
  std::unique_ptr<noc::Topology> topo = noc::make_topology(kind, w, h);
  mapping::Mapping m =
      mapping::Mapping::random(*topo, params.num_cores, rng);
  return Case{std::move(cdcg), std::move(topo), std::move(m)};
}

// Randomized CDCG x mapping x topology x routing cases on three paths of
// Simulator::run(): the bucket calendar (integer clock, small packets), the
// heap loop with integer times (bulk packets, horizon past the cap) and the
// heap loop at a non-integral clock. Traced runs take the heap loop always.
TEST(ReferenceSchedulerTest, SimulatorMatchesTheNaiveOracle) {
  struct Timing {
    const char* name;
    double clock_ns;
    bool bulk;
  };
  const Timing timings[] = {{"calendar", 1.0, false},
                            {"heap/integral", 1.0, true},
                            {"heap/0.7ns", 0.7, false}};
  const noc::RoutingAlgorithm algos[] = {noc::RoutingAlgorithm::kXY,
                                         noc::RoutingAlgorithm::kOddEven};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const char* kind : {"mesh", "torus", "xmesh"}) {
      for (const Timing& timing : timings) {
        const Case c = random_case(seed, kind, timing.bulk);
        energy::Technology tech = energy::example_technology();
        tech.clock_period_ns = timing.clock_ns;
        tech.flit_width_bits = 8;
        for (const noc::RoutingAlgorithm algo : algos) {
          SimOptions options;
          options.routing = algo;
          options.record_traces = false;
          const std::string what =
              std::string(kind) + "/" + noc::routing_algorithm_name(algo) +
              " " + timing.name + " seed " + std::to_string(seed);
          const OracleResult want =
              naive_schedule(c.cdcg, *c.topo, c.mapping, tech, algo);
          Simulator sim(c.cdcg, *c.topo, tech, options);
          expect_matches_oracle(want, sim.run(c.mapping), what + " run");
          expect_matches_oracle(want, sim.run_traced(c.mapping),
                                what + " run_traced");
        }
      }
    }
  }
}

// The paper's worked example (Section 4.1, Figures 3-5): mapping (a)
// contends on A->F and takes 100 ns; mapping (b) is contention-free and
// takes 90 ns.
TEST(ReferenceSchedulerTest, WorkedExampleIs100VersusNinetyNanoseconds) {
  const graph::Cdcg cdcg = workload::paper_example_cdcg();
  const noc::Mesh mesh = workload::paper_example_mesh();
  const energy::Technology tech = energy::example_technology();
  const mapping::Mapping a = workload::paper_mapping_a();
  const mapping::Mapping b = workload::paper_mapping_b();
  const OracleResult want_a =
      naive_schedule(cdcg, mesh, a, tech, noc::RoutingAlgorithm::kXY);
  const OracleResult want_b =
      naive_schedule(cdcg, mesh, b, tech, noc::RoutingAlgorithm::kXY);
  EXPECT_EQ(want_a.texec_ns, 100.0);
  EXPECT_EQ(want_b.texec_ns, 90.0);
  EXPECT_GT(want_a.total_contention_ns, 0.0);
  EXPECT_EQ(want_b.total_contention_ns, 0.0);
  Simulator sim(cdcg, mesh, tech);
  expect_matches_oracle(want_a, sim.run(a), "mapping (a)");
  expect_matches_oracle(want_b, sim.run(b), "mapping (b)");
  expect_matches_oracle(want_a, sim.run_traced(a), "mapping (a) traced");
  expect_matches_oracle(want_b, sim.run_traced(b), "mapping (b) traced");
}

}  // namespace
}  // namespace nocmap::sim
