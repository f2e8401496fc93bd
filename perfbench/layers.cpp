#include "layers.hpp"

#include <algorithm>
#include <cstring>

#include "nocmap/search/simulated_annealing.hpp"
#include "nocmap/util/rng.hpp"

namespace perfbench {

namespace core = nocmap::core;
namespace mapping = nocmap::mapping;
namespace search = nocmap::search;
namespace sim = nocmap::sim;

sim::SimOptions sim_options(const core::ExplorerOptions& o) {
  sim::SimOptions so;
  so.routing = o.routing;
  so.backend = o.sim_backend;
  so.buffer_depth = o.buffer_depth;
  so.flow_control = o.flow_control;
  so.switching = o.switching;
  so.checkpoints = o.cdcm_checkpoints;
  so.checkpoint_interval = o.ckpt_interval;
  return so;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

search::SearchResult traced_anneal(const mapping::CostFunction& inner,
                                   CostTally& tally,
                                   const nocmap::noc::Topology& topo,
                                   const core::ExplorerOptions& o,
                                   const mapping::Mapping* initial, Tally& t,
                                   std::vector<double>* walk) {
  const TracedCost cost(inner, tally, walk);
  const double before = tally.calls_seconds();
  const std::uint64_t moves_before = tally.delta.calls;
  nocmap::util::Rng rng(o.seed);
  const Clock::time_point start = Clock::now();
  search::SearchResult sr = search::anneal(cost, topo, rng, o.sa, initial);
  t.sa_self_s += seconds_since(start) - (tally.calls_seconds() - before);
  t.sa_moves += tally.delta.calls - moves_before;
  return sr;
}

sim::SimulationResult ground_truth(const nocmap::graph::Cdcg& cdcg,
                                   const nocmap::noc::Topology& topo,
                                   const core::ExplorerOptions& o,
                                   const mapping::Mapping& best, Tally& t) {
  const Clock::time_point start = Clock::now();
  const mapping::CdcmCost evaluator(cdcg, topo, o.tech, o.routing,
                                    sim_options(o));
  sim::SimulationResult r = evaluator.evaluate(best);
  t.ground_truth_s += seconds_since(start);
  return r;
}

double per_call(const CallTally& c, double scale) {
  return c.calls == 0 ? 0.0
                      : scale * c.seconds / static_cast<double>(c.calls);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

void add(std::vector<Metric>& out, const std::string& name, double value,
         const std::string& unit) {
  out.push_back(Metric{name, value, unit});
}

void check_accounting(Checks& checks, std::vector<Metric>& out,
                      double traced_s, double untraced_s,
                      double attributed_s) {
  const double unattributed_s = traced_s - attributed_s;
  const double overhead_s = traced_s - untraced_s;
  checks.attempt();
  checks.expect(
      unattributed_s <= std::max({overhead_s, 0.01 * traced_s, 1e-3}),
      "per-layer times leave " + num(unattributed_s) +
          " s of the traced pass unattributed (tracing overhead " +
          num(overhead_s) + " s)");
  add(out, "trace.wall_s", traced_s, "s");
  add(out, "trace.untraced_wall_s", untraced_s, "s");
  add(out, "trace.overhead_frac", overhead_s / untraced_s, "ratio");
  add(out, "trace.unattributed_ms", 1e3 * unattributed_s, "ms");
}

void add_cost_metrics(std::vector<Metric>& m, const Tally& t) {
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  add(m, "graph.to_cwg_us",
      t.cwgs == 0 ? 0.0 : 1e6 * t.graph_s / count(t.cwgs), "us");
  add(m, "core.ground_truth_ms", 1e3 * t.ground_truth_s, "ms");
  add(m, "search.es_placements", count(t.es_placements), "count");
  add(m, "search.es_self_ms", 1e3 * t.es_self_s, "ms");
  add(m, "search.sa_moves", count(t.sa_moves), "count");
  add(m, "search.sa_self_ms", 1e3 * t.sa_self_s, "ms");
  add(m, "sim.batch_evals", count(t.batch_evals), "count");
  add(m, "sim.batch_eval_us",
      t.batch_evals == 0 ? 0.0 : 1e6 * t.batch_s / count(t.batch_evals),
      "us");
  add(m, "sim.self_ms", 1e3 * t.sim_s(), "ms");
  add(m, "mapping.self_ms", 1e3 * t.mapping_s(), "ms");
  add(m, "mapping.cwm_full_calls", count(t.cwm.full.calls), "count");
  add(m, "mapping.cwm_delta_calls", count(t.cwm.delta.calls), "count");
  add(m, "mapping.cwm_delta_ns", per_call(t.cwm.delta, 1e9), "ns");
  add(m, "mapping.cwm_accept_ratio",
      ratio(t.cwm.apply.calls, t.cwm.delta.calls), "ratio");
  add(m, "mapping.cdcm_ctor_us", per_call(t.cdcm.ctor, 1e6), "us");
  add(m, "mapping.cdcm_full_calls", count(t.cdcm.full.calls), "count");
  add(m, "mapping.cdcm_full_us", per_call(t.cdcm.full, 1e6), "us");
  add(m, "mapping.cdcm_delta_calls", count(t.cdcm.delta.calls), "count");
  add(m, "mapping.cdcm_delta_us", per_call(t.cdcm.delta, 1e6), "us");
  add(m, "mapping.cdcm_accept_ratio",
      ratio(t.cdcm.apply.calls, t.cdcm.delta.calls), "ratio");
}

}  // namespace perfbench
