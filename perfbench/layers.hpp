#pragma once
// Pieces of the traced runs shared by every workload: the per-layer tally
// and the search and evaluation calls rebuilt from the library's public
// API exactly as core::Explorer makes them, each timed from outside.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "nocmap/core/explorer.hpp"
#include "nocmap/graph/cdcg.hpp"
#include "nocmap/mapping/cost.hpp"
#include "nocmap/noc/topology.hpp"
#include "nocmap/search/search_result.hpp"
#include "nocmap/sim/schedule.hpp"
#include "traced_cost.hpp"

namespace perfbench {

/// Per-pass counters of a traced decomposition, by library module.
struct Tally {
  CostTally cwm, cdcm;            ///< mapping: the objectives.
  double graph_s = 0.0;           ///< graph: Cdcg::to_cwg.
  std::uint64_t cwgs = 0;
  double es_self_s = 0.0;         ///< search: exhaustive engine minus pricing.
  std::uint64_t es_placements = 0;
  double sa_self_s = 0.0;         ///< search: annealing minus cost calls.
  std::uint64_t sa_moves = 0;
  double batch_setup_s = 0.0;     ///< sim: BatchEvaluator construction.
  double batch_s = 0.0;           ///< sim: inside evaluate_costs.
  std::uint64_t batch_evals = 0;
  double ground_truth_s = 0.0;    ///< core: winner evaluation.
  double core_s = 0.0;            ///< core: other Explorer work.

  double mapping_s() const { return cwm.seconds() + cdcm.seconds(); }
  double search_s() const { return es_self_s + sa_self_s; }
  double sim_s() const { return batch_setup_s + batch_s; }
  double core_total_s() const { return ground_truth_s + core_s; }
};

/// The SimOptions an Explorer with options `o` evaluates with.
nocmap::sim::SimOptions sim_options(const nocmap::core::ExplorerOptions& o);

bool same_bits(double a, double b);

/// search::anneal through TracedCost, as Explorer runs its single chain:
/// chain 0 draws from Rng(o.seed). Engine self time goes to t.sa_self_s.
nocmap::search::SearchResult traced_anneal(
    const nocmap::mapping::CostFunction& inner, CostTally& tally,
    const nocmap::noc::Topology& topo, const nocmap::core::ExplorerOptions& o,
    const nocmap::mapping::Mapping* initial, Tally& t,
    std::vector<double>* walk = nullptr);

/// The Explorer's ground-truth evaluation of a winner, timed into
/// t.ground_truth_s.
nocmap::sim::SimulationResult ground_truth(
    const nocmap::graph::Cdcg& cdcg, const nocmap::noc::Topology& topo,
    const nocmap::core::ExplorerOptions& o,
    const nocmap::mapping::Mapping& best, Tally& t);

/// Mean seconds per call times `scale`; 0 when there were no calls.
double per_call(const CallTally& c, double scale);
/// num / den; 0 when den is 0.
double ratio(std::uint64_t num, std::uint64_t den);

void add(std::vector<Metric>& out, const std::string& name, double value,
         const std::string& unit);

/// The traced pass must be accounted for by its per-layer times: the time
/// left unattributed may not exceed the tracing overhead (traced minus
/// untraced pass), with a floor of 1 % of the pass or 1 ms for passes too
/// short to measure an overhead. Self times are spans minus the calls timed
/// inside them, so this bounds only the time left untimed between spans, not
/// which layer a time is given to. Adds the trace.* metrics.
void check_accounting(Checks& checks, std::vector<Metric>& out,
                      double traced_s, double untraced_s,
                      double attributed_s);

/// The mapping- and search-layer metrics every traced run reports.
void add_cost_metrics(std::vector<Metric>& out, const Tally& t);

}  // namespace perfbench
