// The benchmark program for the nocmap library.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//
// Runs one workload single-threaded, checks every output, and prints as its
// last stdout line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). The line before it is a report object with the host
// fingerprint and the sample counts behind the numbers. Exits 2 on a usage
// error and 1 when the run itself fails.

#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "nocmap/core/explorer.hpp"
#include "nocmap/energy/technology.hpp"
#include "nocmap/workload/paper_example.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every name here must match BENCHMARK.json; the smoke test checks it.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_rps", "1/s"},
    {"request_p50_ms", "ms"},
    {"request_p99_ms", "ms"},
    {"cwm_cost_geomean_j", "J"},
    {"cdcm_texec_geomean_ns", "sim_ns"},
    {"cdcm_energy_geomean_j", "J"},
    {"served_cost_geomean_j", "J"},
};

// A layer a workload does not exercise reports 0 (README, "Per-layer").
const std::vector<MetricSpec> kPerLayer = {
    {"workload.build_ms", "ms"},
    {"graph.to_cwg_us", "us"},
    {"noc.route_table_us", "us"},
    {"core.cwm_phase_s", "s"},
    {"core.cdcm_phase_s", "s"},
    {"core.ground_truth_ms", "ms"},
    {"core.etr_mean_pct", "%"},
    {"core.ecs_mean_pct", "%"},
    {"search.es_placements", "count"},
    {"search.es_self_ms", "ms"},
    {"search.sa_moves", "count"},
    {"search.sa_self_ms", "ms"},
    {"sim.batch_evals", "count"},
    {"sim.batch_eval_us", "us"},
    {"sim.self_ms", "ms"},
    {"sim.ckpt_replay_frac", "ratio"},
    {"sim.ckpt_delta_us", "us"},
    {"sim.ckpt_restored_runs", "count"},
    {"mapping.self_ms", "ms"},
    {"mapping.cwm_full_calls", "count"},
    {"mapping.cwm_delta_calls", "count"},
    {"mapping.cwm_delta_ns", "ns"},
    {"mapping.cwm_accept_ratio", "ratio"},
    {"mapping.cdcm_ctor_us", "us"},
    {"mapping.cdcm_full_calls", "count"},
    {"mapping.cdcm_full_us", "us"},
    {"mapping.cdcm_delta_calls", "count"},
    {"mapping.cdcm_delta_us", "us"},
    {"mapping.cdcm_accept_ratio", "ratio"},
    {"serve.self_ms", "ms"},
    {"serve.canonicalize_us", "us"},
    {"serve.hit_us_p50", "us"},
    {"serve.cold_ms_p50", "ms"},
    {"serve.warm_ms_p50", "ms"},
    {"serve.exact_hit_rate", "ratio"},
    {"serve.warm_rate", "ratio"},
    {"serve.cold_rate", "ratio"},
    {"serve.cache_evictions", "count"},
    {"serve.verify_rejects", "count"},
    {"serve.warm_cost_ratio", "ratio"},
    {"trace.wall_s", "s"},
    {"trace.untraced_wall_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.unattributed_ms", "ms"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload table2-small|table2-large|"
               "serve-stream --seed N --seconds S --trace 0|1 [--smoke]\n";
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig c;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      c.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (arg == "--workload") {
        c.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        c.seed = std::stoull(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
      } else if (arg == "--seconds") {
        c.seconds = std::stod(value, &used);
        if (used != value.size() || !(c.seconds > 0.0)) {
          throw std::invalid_argument(value);
        }
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") throw std::invalid_argument(value);
        c.trace = value == "1";
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  return c;
}

/// The paper's worked example (Section 4.1) at its example technology: the
/// CWM winner runs in 100 ns, the CDCM winner in 90 ns.
void check_worked_example(Checks& checks) {
  const nocmap::graph::Cdcg cdcg = nocmap::workload::paper_example_cdcg();
  const nocmap::noc::Mesh mesh = nocmap::workload::paper_example_mesh();
  nocmap::core::ExplorerOptions options;
  options.tech = nocmap::energy::example_technology();
  const nocmap::core::Comparison c =
      nocmap::core::Explorer(cdcg, mesh, options).compare();
  checks.attempt();
  checks.expect(c.cwm.sim.texec_ns == 100.0 && c.cdcm.sim.texec_ns == 90.0,
                "worked example gives " + num(c.cwm.sim.texec_ns) + " ns -> " +
                    num(c.cdcm.sim.texec_ns) + " ns, not 100 ns -> 90 ns");
}

int run(const RunConfig& config) {
  Checks checks;
  check_worked_example(checks);
  WorkloadResult result;
  if (config.workload == "table2-small" || config.workload == "table2-large") {
    result = run_table2(config, config.workload == "table2-large", checks);
  } else if (config.workload == "serve-stream") {
    result = run_serve_stream(config, checks);
  } else {
    usage("unknown workload " + config.workload);
  }

  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : result.metrics) by_name[m.name] = &m;
  const std::vector<MetricSpec>& specs = config.trace ? kPerLayer : kEndToEnd;
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    const auto it = by_name.find(spec.name);
    double value = 0.0;
    if (it != by_name.end()) {
      if (it->second->unit != spec.unit) {
        std::cerr << "perfbench: " << spec.name << " measured in "
                  << it->second->unit << ", declared in " << spec.unit << '\n';
        return 1;
      }
      value = it->second->value;
      by_name.erase(it);
    } else if (!config.trace) {
      std::cerr << "perfbench: end-to-end metric " << spec.name
                << " was not measured\n";
      return 1;
    }
    if (!std::isfinite(value)) {
      std::cerr << "perfbench: " << spec.name << " is not finite\n";
      return 1;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += quote(spec.name) + ": {\"value\": " + num(value) +
               ", \"unit\": " + quote(spec.unit) + "}";
  }
  if (!by_name.empty()) {
    std::cerr << "perfbench: undeclared metric " << by_name.begin()->first
              << '\n';
    return 1;
  }

  std::cout << "{\"report\": {\"workload\": " << quote(config.workload)
            << ", \"seed\": " << config.seed << ", \"trace\": "
            << (config.trace ? 1 : 0) << ", " << host_fingerprint()
            << (result.report.empty() ? "" : ", ") << result.report << "}}\n";
  std::cout << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << checks.attempted()
            << ", \"failed\": " << checks.failed() << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::RunConfig config = perfbench::parse(argc, argv);
  try {
    return perfbench::run(config);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
