// Regenerates Table 1: "Summary of NoC/application features" — the 18-app
// suite statistics, printed next to the paper's values. All rows must match
// exactly except the documented 14-core row (docs/workloads.md,
// substitution 4).
//
//   ./bench_table1 [--csv]

#include <cstring>
#include <iostream>

#include "nocmap/util/strings.hpp"
#include "nocmap/util/table.hpp"
#include "nocmap/workload/suite.hpp"

int main(int argc, char** argv) {
  using namespace nocmap;
  const bool csv = argc > 1 && std::strcmp(argv[1], "--csv") == 0;

  util::TextTable t({"NoC size", "application", "cores (paper)",
                     "packets (paper)", "total bits (paper)", "match"});
  t.set_title(
      "Table 1 - Summary of NoC/application features (built vs paper)");

  std::string previous_size;
  int mismatches = 0;
  for (const workload::SuiteEntry& e : workload::table1_suite()) {
    if (!previous_size.empty() && e.noc_size_label() != previous_size) {
      t.add_separator();
    }
    previous_size = e.noc_size_label();

    const bool cores_match = e.cdcg.num_cores() == e.paper_cores;
    const bool packets_match = e.cdcg.num_packets() == e.paper_packets;
    const bool bits_match = e.cdcg.total_bits() == e.paper_bits;
    const bool all = cores_match && packets_match && bits_match;
    if (!all) ++mismatches;

    auto cell = [](std::uint64_t built, std::uint64_t paper) {
      std::string s = std::to_string(built);
      s += " (" + std::to_string(paper) + ")";
      return s;
    };
    t.add_row({e.noc_size_label(), e.name,
               cell(e.cdcg.num_cores(), e.paper_cores),
               cell(e.cdcg.num_packets(), e.paper_packets),
               util::format_grouped(e.cdcg.total_bits()) + " (" +
                   util::format_grouped(e.paper_bits) + ")",
               all ? "yes" : "cores differ (see docs/workloads.md)"});
  }

  std::cout << (csv ? t.to_csv() : t.to_string());
  std::cout << "\n" << (18 - mismatches)
            << "/18 rows match Table 1 exactly; " << mismatches
            << " documented deviation(s) (the 14-cores-on-12-tiles row).\n";
  return 0;
}
