// Ablation A4 — router buffer capacity. The paper's example assumes
// unbounded input buffers (a blocked worm is fully absorbed); real routers
// have finite buffers and blocked worms back-pressure their upstream link.
// This bench evaluates the same CDCM-optimized mappings under the
// link-claim model (unbounded buffers) and under the flit-accurate backend
// (wormhole, credit flow control) at decreasing buffer depths.
//
//   ./bench_buffer_ablation

#include <iostream>

#include "nocmap/noc/mesh.hpp"
#include "nocmap/core/explorer.hpp"
#include "nocmap/sim/schedule.hpp"
#include "nocmap/util/strings.hpp"
#include "nocmap/util/table.hpp"
#include "nocmap/workload/suite.hpp"

int main() {
  using namespace nocmap;
  const energy::Technology tech = energy::technology_0_07u();

  util::TextTable t({"application", "buffer (flits)", "texec", "contention",
                     "contended pkts", "energy"});
  t.set_title("Buffer-capacity ablation (mapping fixed to the CDCM optimum "
              "found under unbounded buffers)");

  const char* picks[] = {"objrec-v2", "imgenc-v2", "random-6"};
  for (const workload::SuiteEntry& e : workload::table1_suite()) {
    bool selected = false;
    for (const char* p : picks) selected |= (e.name == p);
    if (!selected) continue;

    const noc::Mesh mesh(e.noc_width, e.noc_height);
    std::cerr << "[buffers] " << e.name << " ..." << std::endl;
    core::ExplorerOptions options;
    options.tech = tech;
    options.seed = 0xB0F;
    options.es_auto_threshold = 50'000;
    const core::Explorer explorer(e.cdcg, mesh, options);
    const core::ModelOutcome best = explorer.optimize_cdcm();

    for (const std::uint32_t buffer : {0u, 64u, 8u, 2u}) {
      sim::SimOptions sim_options;
      if (buffer != 0) {
        sim_options.backend = sim::SimBackend::kFlit;
        sim_options.buffer_depth = buffer;
      }
      const auto result =
          sim::simulate(e.cdcg, mesh, best.mapping, tech, sim_options);
      t.add_row({e.name, buffer == 0 ? "unbounded" : std::to_string(buffer),
                 util::format_time_ns(result.texec_ns),
                 util::format_time_ns(result.total_contention_ns),
                 std::to_string(result.num_contended_packets),
                 util::format_energy_j(result.energy.total_j())});
    }
    t.add_separator();
  }

  std::cout << t;
  std::cout << "\nShallower buffers add admission stalls and backpressure "
               "to this fixed mapping's\nschedule, but delaying one worm can "
               "hand a link to another, so execution time\nneed not grow "
               "monotonically (flit-accurate backend; see "
               "docs/simulation.md).\n";
  return 0;
}
