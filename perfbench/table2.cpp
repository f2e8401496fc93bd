// Table 2 workloads: Explorer::compare() on the paper's Table-1 suite.
//
// Untraced runs time whole compare() calls. The traced run re-runs the same
// comparisons three ways and requires each to reproduce the untraced
// winners bitwise:
//  * the core split: optimize_cwm() followed by an optimize_cdcm() seeded
//    with the CWM winner through ExplorerOptions::seed_assignment;
//  * the layer decomposition: the searches driven directly with the
//    Explorer's own options and random stream, through TracedCost and a
//    timing wrapper around sim::BatchEvaluator::evaluate_costs;
//  * on the large boards, the checkpoint shadow: every CDCM annealing walk
//    priced a second time with SimOptions::checkpoints on.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "nocmap/core/explorer.hpp"
#include "nocmap/mapping/cost.hpp"
#include "nocmap/noc/mesh.hpp"
#include "nocmap/noc/route_table.hpp"
#include "nocmap/search/exhaustive.hpp"
#include "nocmap/sim/batch_evaluator.hpp"
#include "nocmap/sim/schedule.hpp"
#include "nocmap/util/rng.hpp"
#include "nocmap/workload/suite.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = nocmap::core;
namespace graph = nocmap::graph;
namespace mapping = nocmap::mapping;
namespace noc = nocmap::noc;
namespace search = nocmap::search;
namespace sim = nocmap::sim;

struct App {
  std::size_t suite_index = 0;  ///< Table-1 row; fixes the geomean order.
  std::string name;
  graph::Cdcg cdcg;
  std::unique_ptr<noc::Mesh> mesh;
};

/// The Table-1 applications of one board class, in the seed's order. The
/// inputs themselves are the paper's fixed suite (README, "Seeds").
std::vector<App> build_apps(bool large, bool smoke, std::uint64_t seed) {
  std::vector<nocmap::workload::SuiteEntry> suite =
      nocmap::workload::table1_suite();
  std::vector<App> apps;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    nocmap::workload::SuiteEntry& e = suite[i];
    const std::uint32_t tiles = e.noc_width * e.noc_height;
    // The paper searches boards of up to 12 tiles exhaustively.
    if ((tiles > 12) != large) continue;
    if (smoke && (large ? e.name != "random-big-1" : tiles != 6)) continue;
    apps.push_back(App{i, e.name, std::move(e.cdcg),
                       std::make_unique<noc::Mesh>(e.noc_width, e.noc_height)});
  }
  nocmap::util::Rng rng(seed);
  std::vector<App> ordered;
  ordered.reserve(apps.size());
  for (const std::size_t k : rng.permutation(apps.size())) {
    ordered.push_back(std::move(apps[k]));
  }
  return ordered;
}

core::ExplorerOptions explorer_options(const RunConfig& config, bool large) {
  core::ExplorerOptions options;  // Paper defaults: kAuto, seed 1, 1 thread.
  if (config.smoke && large) options.sa.max_steps = 2;
  return options;
}

bool same_outcome(const core::ModelOutcome& a, const core::ModelOutcome& b) {
  return a.mapping == b.mapping && same_bits(a.objective_j, b.objective_j) &&
         same_bits(a.sim.texec_ns, b.sim.texec_ns) &&
         same_bits(a.sim.energy.total_j(), b.sim.energy.total_j());
}

bool same_comparison(const core::Comparison& a, const core::Comparison& b) {
  return same_outcome(a.cwm, b.cwm) && same_outcome(a.cdcm, b.cdcm);
}

/// Checks one comparison against independent evaluations. Returns "" when
/// every check holds, else what failed.
std::string check_comparison(const App& app, const core::ExplorerOptions& o,
                             const core::Comparison& c) {
  const graph::Cwg cwg = app.cdcg.to_cwg();
  const sim::SimOptions so = sim_options(o);
  for (const core::ModelOutcome* m : {&c.cwm, &c.cdcm}) {
    if (!injective(assignment_of(m->mapping), app.cdcg.num_cores(),
                   app.mesh->num_tiles())) {
      return m->model + " winner is not an injective mapping";
    }
    const double fresh =
        m == &c.cwm
            ? mapping::CwmCost(cwg, *app.mesh, o.tech, o.routing)
                  .cost(m->mapping)
            : mapping::CdcmCost(app.cdcg, *app.mesh, o.tech, o.routing, so)
                  .cost(m->mapping);
    if (!same_bits(fresh, m->objective_j)) {
      return m->model + " objective " + num(m->objective_j) +
             " differs from a fresh evaluation " + num(fresh);
    }
    const sim::SimulationResult truth =
        sim::simulate(app.cdcg, *app.mesh, m->mapping, o.tech, so);
    if (!same_bits(truth.texec_ns, m->sim.texec_ns) ||
        !same_bits(truth.energy.total_j(), m->sim.energy.total_j())) {
      return m->model + " ground truth differs from a fresh sim::simulate";
    }
  }
  return "";
}

/// Quality geomeans over the apps in Table-1 order, so that the value is
/// bitwise the same whatever order the seed ran them in.
struct Quality {
  double cwm_cost = 0.0, cdcm_texec = 0.0, cdcm_energy = 0.0, cdcm_cost = 0.0;
  double etr_mean_pct = 0.0, ecs_mean_pct = 0.0;
};

Quality quality(const std::vector<App>& apps,
                const std::vector<core::Comparison>& results) {
  std::vector<std::size_t> idx(apps.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return apps[a].suite_index < apps[b].suite_index;
  });
  std::vector<double> cwm, texec, energy, cost;
  Quality q;
  for (const std::size_t i : idx) {
    const core::Comparison& c = results[i];
    cwm.push_back(c.cwm.objective_j);
    texec.push_back(c.cdcm.sim.texec_ns);
    energy.push_back(c.cdcm.sim.energy.total_j());
    cost.push_back(c.cdcm.objective_j);
    q.etr_mean_pct += 100.0 * c.execution_time_reduction();
    q.ecs_mean_pct += 100.0 * c.energy_saving();
  }
  q.cwm_cost = geomean(cwm);
  q.cdcm_texec = geomean(texec);
  q.cdcm_energy = geomean(energy);
  q.cdcm_cost = geomean(cost);
  q.etr_mean_pct /= static_cast<double>(idx.size());
  q.ecs_mean_pct /= static_cast<double>(idx.size());
  return q;
}

/// Median per-board RouteTable construction time in microseconds.
double route_table_us(const std::vector<App>& apps) {
  std::vector<double> times;
  for (const App& app : apps) {
    time_setup(
        [&] { return noc::RouteTable(*app.mesh, noc::RoutingAlgorithm::kXY); },
        times);
  }
  return 1e6 * median(times);
}

/// One pass of untraced compare() calls; per-app seconds go to `latency`.
std::vector<core::Comparison> compare_pass(const std::vector<App>& apps,
                                           const core::ExplorerOptions& o,
                                           std::vector<double>& latency) {
  std::vector<core::Comparison> out;
  out.reserve(apps.size());
  latency.clear();
  for (const App& app : apps) {
    const Clock::time_point start = Clock::now();
    const core::Explorer explorer(app.cdcg, *app.mesh, o);
    out.push_back(explorer.compare());
    latency.push_back(seconds_since(start));
  }
  return out;
}

WorkloadResult untraced(const RunConfig& config, bool large, Checks& checks) {
  const auto build = [&] {
    return build_apps(large, config.smoke, config.seed);
  };
  std::vector<double> setup_times;
  time_setup(build, setup_times);
  const std::vector<App> apps = build();
  const core::ExplorerOptions options = explorer_options(config, large);

  std::vector<core::Comparison> reference;
  std::vector<double> pass_s, latency, mean_ms, slowest_ms;
  double timed_s = 0.0;
  do {
    const Clock::time_point start = Clock::now();
    std::vector<core::Comparison> got = compare_pass(apps, options, latency);
    pass_s.push_back(seconds_since(start));
    timed_s += pass_s.back();
    mean_ms.push_back(1e3 * pass_s.back() / static_cast<double>(apps.size()));
    slowest_ms.push_back(1e3 *
                         *std::max_element(latency.begin(), latency.end()));
    for (std::size_t i = 0; i < apps.size(); ++i) {
      checks.attempt();
      if (reference.empty()) {
        const std::string why = check_comparison(apps[i], options, got[i]);
        checks.expect(why.empty(), apps[i].name + ": " + why);
      } else {
        checks.expect(same_comparison(got[i], reference[i]),
                      apps[i].name + ": pass " +
                          std::to_string(pass_s.size()) +
                          " differs from the first pass");
      }
    }
    if (reference.empty()) reference = std::move(got);
    time_setup(build, setup_times);
  } while (!config.smoke && timed_s < config.seconds);

  const Quality q = quality(apps, reference);

  WorkloadResult r;
  add(r.metrics, "setup_s", median(setup_times), "s");
  add(r.metrics, "wall_s", median(pass_s), "s");
  add(r.metrics, "peak_rss_mb", peak_rss_mb(), "MB");
  add(r.metrics, "throughput_rps",
      static_cast<double>(apps.size()) / median(pass_s), "1/s");
  // Every app is its own request class and runs once per pass, so no
  // percentile over them has ten samples beyond it. A pass's typical request
  // is its mean latency and its tail the slowest request; both are reported
  // as medians over passes (README).
  add(r.metrics, "request_p50_ms", median(mean_ms), "ms");
  add(r.metrics, "request_p99_ms", median(slowest_ms), "ms");
  add(r.metrics, "cwm_cost_geomean_j", q.cwm_cost, "J");
  add(r.metrics, "cdcm_texec_geomean_ns", q.cdcm_texec, "sim_ns");
  add(r.metrics, "cdcm_energy_geomean_j", q.cdcm_energy, "J");
  add(r.metrics, "served_cost_geomean_j", q.cdcm_cost, "J");
  r.report = "\"apps\": " + std::to_string(apps.size()) +
             ", \"passes\": " + std::to_string(pass_s.size()) +
             ", \"wall_s_pass_range\": " + num(range_spread(pass_s)) +
             ", \"request_samples\": " +
             std::to_string(apps.size() * pass_s.size()) +
             ", \"setup_samples\": " + std::to_string(setup_times.size()) +
             ", \"etr_mean_pct\": " + num(q.etr_mean_pct) +
             ", \"ecs_mean_pct\": " + num(q.ecs_mean_pct);
  return r;
}

// --- Traced run --------------------------------------------------------------

/// compare() rebuilt from the search engines, every layer timed.
core::Comparison decomposed_compare(const App& app,
                                    const core::ExplorerOptions& o, Tally& t,
                                    std::vector<double>* cdcm_walk) {
  Clock::time_point start = Clock::now();
  const graph::Cwg cwg = app.cdcg.to_cwg();
  t.graph_s += seconds_since(start);
  ++t.cwgs;
  start = Clock::now();
  const bool exhaustive =
      core::Explorer(app.cdcg, *app.mesh, o).would_use_exhaustive();
  t.core_s += seconds_since(start);

  // CWM half (Equation 3).
  start = Clock::now();
  const mapping::CwmCost cwm_inner(cwg, *app.mesh, o.tech, o.routing);
  t.cwm.ctor.seconds += seconds_since(start);
  ++t.cwm.ctor.calls;
  search::SearchResult cwm_sr = [&] {
    if (!exhaustive) {
      return traced_anneal(cwm_inner, t.cwm, *app.mesh, o, nullptr, t);
    }
    const TracedCost cost(cwm_inner, t.cwm);
    const double before = t.cwm.calls_seconds();
    const Clock::time_point es_start = Clock::now();
    search::SearchResult sr = search::exhaustive_search(cost, *app.mesh, o.es);
    t.es_self_s += seconds_since(es_start) - (t.cwm.calls_seconds() - before);
    t.es_placements += sr.evaluations;
    return sr;
  }();
  core::ModelOutcome cwm{"CWM", cwm_sr.best, cwm_sr.best_cost,
                         ground_truth(app.cdcg, *app.mesh, o, cwm_sr.best, t),
                         cwm_sr.evaluations, exhaustive};

  // CDCM half (Equation 10), seeded with the CWM winner.
  search::SearchResult cdcm_sr = [&] {
    if (exhaustive) {
      sim::SimOptions so = sim_options(o);
      so.record_traces = false;
      const Clock::time_point setup = Clock::now();
      sim::BatchEvaluator evaluator(app.cdcg, *app.mesh, o.tech, so, 1);
      t.batch_setup_s += seconds_since(setup);
      double eval_s = 0.0;
      const Clock::time_point es_start = Clock::now();
      search::SearchResult sr = search::exhaustive_search_batched(
          app.cdcg.num_cores(), *app.mesh,
          [&](const mapping::Mapping* maps, std::size_t count, double* costs) {
            const Clock::time_point e = Clock::now();
            evaluator.evaluate_costs(maps, count, costs);
            eval_s += seconds_since(e);
            t.batch_evals += count;
          },
          o.es, std::max<std::uint32_t>(1, o.es_batch_size));
      t.es_self_s += seconds_since(es_start) - eval_s;
      t.batch_s += eval_s;
      t.es_placements += sr.evaluations;
      return sr;
    }
    const Clock::time_point ctor = Clock::now();
    const mapping::CdcmCost inner(app.cdcg, *app.mesh, o.tech, o.routing,
                                  sim_options(o));
    t.cdcm.ctor.seconds += seconds_since(ctor);
    ++t.cdcm.ctor.calls;
    return traced_anneal(inner, t.cdcm, *app.mesh, o, &cwm.mapping, t,
                         cdcm_walk);
  }();
  core::ModelOutcome cdcm{"CDCM", cdcm_sr.best, cdcm_sr.best_cost,
                          ground_truth(app.cdcg, *app.mesh, o, cdcm_sr.best, t),
                          cdcm_sr.evaluations, exhaustive};
  return core::Comparison{std::move(cwm), std::move(cdcm)};
}

WorkloadResult traced(const RunConfig& config, bool large, Checks& checks) {
  const auto build = [&] {
    return build_apps(large, config.smoke, config.seed);
  };
  std::vector<double> setup_times;
  for (int r = 0; r < 5; ++r) time_setup(build, setup_times);
  const std::vector<App> apps = build();
  const core::ExplorerOptions options = explorer_options(config, large);

  // The untraced reference the traced passes must reproduce.
  std::vector<double> latency;
  Clock::time_point start = Clock::now();
  const std::vector<core::Comparison> reference =
      compare_pass(apps, options, latency);
  const double untraced_s = seconds_since(start);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    checks.attempt();
    const std::string why = check_comparison(apps[i], options, reference[i]);
    checks.expect(why.empty(), apps[i].name + ": " + why);
  }

  // Core split: optimize_cwm() then a seeded optimize_cdcm().
  double cwm_phase_s = 0.0, cdcm_phase_s = 0.0;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const App& app = apps[i];
    start = Clock::now();
    const core::ModelOutcome cwm =
        core::Explorer(app.cdcg, *app.mesh, options).optimize_cwm();
    cwm_phase_s += seconds_since(start);
    core::ExplorerOptions seeded = options;
    seeded.seed_assignment = assignment_of(cwm.mapping);
    start = Clock::now();
    const core::ModelOutcome cdcm =
        core::Explorer(app.cdcg, *app.mesh, seeded).optimize_cdcm();
    cdcm_phase_s += seconds_since(start);
    checks.attempt();
    checks.expect(same_outcome(cwm, reference[i].cwm) &&
                      same_outcome(cdcm, reference[i].cdcm),
                  app.name + ": optimize_cwm + seeded optimize_cdcm differs "
                             "from compare()");
  }

  // Layer decomposition.
  Tally t;
  std::vector<std::vector<double>> walks(apps.size());
  start = Clock::now();
  std::vector<core::Comparison> decomposed;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    decomposed.push_back(decomposed_compare(apps[i], options, t,
                                            large ? &walks[i] : nullptr));
  }
  const double traced_s = seconds_since(start);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    checks.attempt();
    checks.expect(same_comparison(decomposed[i], reference[i]),
                  apps[i].name + ": traced decomposition differs from "
                                 "compare()");
  }
  // Checkpoint shadow: the same CDCM annealing walks with checkpoints on.
  sim::CheckpointStats ckpt;
  CostTally shadow;
  if (large) {
    for (std::size_t i = 0; i < apps.size(); ++i) {
      if (walks[i].empty()) continue;  // Exhaustive CDCM half: no walk.
      const App& app = apps[i];
      sim::SimOptions so = sim_options(options);
      so.checkpoints = true;
      const mapping::CdcmCost inner(app.cdcg, *app.mesh, options.tech,
                                    options.routing, so);
      std::vector<double> walk;
      Tally scratch;
      const search::SearchResult sr =
          traced_anneal(inner, shadow, *app.mesh, options,
                        &reference[i].cwm.mapping, scratch, &walk);
      const sim::CheckpointStats& s = inner.checkpoint_stats();
      ckpt.runs += s.runs;
      ckpt.restored_runs += s.restored_runs;
      ckpt.pops_total += s.pops_total;
      ckpt.pops_replayed += s.pops_replayed;
      checks.attempt();
      checks.expect(
          walk.size() == walks[i].size() &&
              std::memcmp(walk.data(), walks[i].data(),
                          walk.size() * sizeof(double)) == 0 &&
              sr.best == reference[i].cdcm.mapping &&
              same_bits(sr.best_cost, reference[i].cdcm.objective_j),
          app.name + ": checkpointed CDCM pricing differs from plain pricing");
    }
  }

  const Quality q = quality(apps, reference);
  WorkloadResult r;
  auto& m = r.metrics;
  add(m, "workload.build_ms", 1e3 * median(setup_times), "ms");
  add(m, "noc.route_table_us", route_table_us(apps), "us");
  add(m, "core.cwm_phase_s", cwm_phase_s, "s");
  add(m, "core.cdcm_phase_s", cdcm_phase_s, "s");
  add(m, "core.etr_mean_pct", q.etr_mean_pct, "%");
  add(m, "core.ecs_mean_pct", q.ecs_mean_pct, "%");
  add_cost_metrics(m, t);
  add(m, "sim.ckpt_replay_frac", ckpt.runs == 0 ? 0.0 : ckpt.replay_frac(),
      "ratio");
  add(m, "sim.ckpt_delta_us", per_call(shadow.delta, 1e6), "us");
  add(m, "sim.ckpt_restored_runs", static_cast<double>(ckpt.restored_runs),
      "count");
  check_accounting(checks, m, traced_s, untraced_s,
                   t.graph_s + t.mapping_s() + t.search_s() + t.sim_s() +
                       t.core_total_s());
  r.report = "\"apps\": " + std::to_string(apps.size()) +
             ", \"traced_passes\": 1";
  return r;
}

}  // namespace

WorkloadResult run_table2(const RunConfig& config, bool large,
                          Checks& checks) {
  return config.trace ? traced(config, large, checks)
                      : untraced(config, large, checks);
}

}  // namespace perfbench
