#include "nocmap/search/exhaustive.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>

namespace nocmap::search {

std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t s = a + b;
  return s < a ? std::numeric_limits<std::uint64_t>::max() : s;
}

std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
  if (b != 0 && a > std::numeric_limits<std::uint64_t>::max() / b) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return a * b;
}

std::uint64_t placement_count(std::uint32_t num_tiles,
                              std::uint32_t num_cores) {
  std::uint64_t count = 1;
  for (std::uint32_t i = 0; i < num_cores; ++i) {
    count = saturating_mul(count, num_tiles - i);
  }
  return count;
}

std::vector<noc::TileId> symmetry_first_tiles(const noc::Topology& topo,
                                              bool use_symmetry) {
  const std::uint32_t num_tiles = topo.num_tiles();
  std::vector<noc::TileId> first_tiles;
  if (use_symmetry) {
    const auto& maps = topo.symmetry_maps();
    for (noc::TileId t = 0; t < num_tiles; ++t) {
      noc::TileId rep = t;
      for (const auto& map : maps) rep = std::min(rep, map[t]);
      if (rep == t) first_tiles.push_back(t);
    }
  } else {
    for (noc::TileId t = 0; t < num_tiles; ++t) first_tiles.push_back(t);
  }
  return first_tiles;
}

SearchResult exhaustive_search(const mapping::CostFunction& cost,
                               const noc::Topology& topo,
                               const EsOptions& options) {
  const std::size_t num_cores = cost.num_cores();
  const std::uint32_t num_tiles = topo.num_tiles();
  if (num_cores > num_tiles) {
    throw std::invalid_argument("exhaustive_search: more cores than tiles");
  }
  cost.begin_search();

  // The first-tile collapse is exact only for objectives invariant under
  // the topology's symmetry group (the rule branch_and_bound follows too).
  const std::vector<noc::TileId> first_tiles = symmetry_first_tiles(
      topo, options.use_symmetry && cost.symmetry_invariant());
  const std::unique_ptr<mapping::CostFunction::LowerBound> lb =
      cost.has_lower_bound() ? cost.make_lower_bound() : nullptr;

  // What a node with d cores placed stands for: leaves[d] complete
  // placements and nodes[d] tree nodes (itself included). Saturating.
  std::vector<std::uint64_t> leaves(num_cores + 1, 1);
  std::vector<std::uint64_t> nodes(num_cores + 1, 1);
  for (std::size_t d = num_cores; d-- > 0;) {
    const std::uint64_t fanout = num_tiles - d;
    leaves[d] = saturating_mul(fanout, leaves[d + 1]);
    nodes[d] = saturating_add(1, saturating_mul(fanout, nodes[d + 1]));
  }

  SearchResult result{mapping::Mapping(topo, num_cores),
                      std::numeric_limits<double>::infinity(), 0.0, 0, true};
  bool first_eval = true;

  std::vector<noc::TileId> assignment(num_cores);
  std::vector<bool> used(num_tiles, false);
  mapping::Mapping leaf(topo, num_cores);  // Reused via set_assignment.

  const auto budget_hit = [&] {
    return options.max_evaluations != 0 &&
           result.evaluations >= options.max_evaluations;
  };

  // Depth-first enumeration of injective placements. `core` cores are
  // placed; returns false once the budget stops the search.
  auto recurse = [&](auto&& self, std::size_t core) -> bool {
    if (budget_hit()) {
      result.exhausted = false;
      return false;  // Budget exceeded: stop everywhere.
    }
    if (core == num_cores) {
      leaf.set_assignment(assignment);
      const double c = cost.cost(leaf);
      ++result.evaluations;
      if (first_eval) {
        result.initial_cost = c;
        first_eval = false;
      }
      if (c < result.best_cost) {
        result.best_cost = c;
        result.best = leaf;
      }
      return true;
    }
    const auto visit = [&](noc::TileId t) -> bool {
      assignment[core] = t;
      used[t] = true;
      bool keep_going = true;
      if (lb) lb->place(static_cast<graph::CoreId>(core), t);
      // No leaf under this node can beat the incumbent strictly once its
      // admissible bound reaches it: skip the subtree, but count its
      // placements as covered so `evaluations` and the budget cut land
      // exactly where the unpruned enumeration's would.
      bool prune = false;
      if (lb && result.best_cost < std::numeric_limits<double>::infinity() &&
          !budget_hit()) {
        ++result.nodes_tested;
        prune = lb->bound(result.best_cost) >= result.best_cost;
      }
      if (prune) {
        result.nodes_pruned =
            saturating_add(result.nodes_pruned, nodes[core + 1]);
        const std::uint64_t covered = leaves[core + 1];
        if (options.max_evaluations != 0 &&
            covered > options.max_evaluations - result.evaluations) {
          result.evaluations = options.max_evaluations;
          result.exhausted = false;
          keep_going = false;
        } else {
          result.evaluations = saturating_add(result.evaluations, covered);
        }
      } else {
        ++result.nodes_visited;
        keep_going = self(self, core + 1);
      }
      if (lb) lb->unplace(static_cast<graph::CoreId>(core), t);
      used[t] = false;
      return keep_going;
    };
    if (core == 0) {
      // Core 0 is restricted to symmetry-orbit representatives.
      for (noc::TileId t : first_tiles) {
        if (!visit(t)) return false;
      }
      return true;
    }
    for (noc::TileId t = 0; t < num_tiles; ++t) {
      if (used[t]) continue;
      if (!visit(t)) return false;
    }
    return true;
  };
  recurse(recurse, 0);
  return result;
}

SearchResult exhaustive_search_batched(std::size_t num_cores,
                                       const noc::Topology& topo,
                                       const BatchCostFn& evaluate,
                                       const EsOptions& options,
                                       std::size_t batch_size) {
  const std::uint32_t num_tiles = topo.num_tiles();
  if (num_cores > num_tiles) {
    throw std::invalid_argument("exhaustive_search: more cores than tiles");
  }
  if (num_cores == 0) {
    throw std::invalid_argument("exhaustive_search: application has no cores");
  }
  if (batch_size == 0) batch_size = 1;

  const std::vector<noc::TileId> first_tiles =
      symmetry_first_tiles(topo, options.use_symmetry);

  SearchResult result{mapping::Mapping(topo, num_cores),
                      std::numeric_limits<double>::infinity(), 0.0, 0, true};
  bool first_eval = true;

  // The shard: candidate mappings are materialized into preallocated
  // Mapping slots (set_assignment reuses their storage), priced in one
  // evaluate() call, then reduced in enumeration order — which makes the
  // outcome independent of both the shard size and however evaluate()
  // parallelizes internally.
  std::vector<mapping::Mapping> batch(batch_size,
                                      mapping::Mapping(topo, num_cores));
  std::vector<double> costs(batch_size, 0.0);
  std::size_t filled = 0;

  const auto flush = [&] {
    if (filled == 0) return;
    evaluate(batch.data(), filled, costs.data());
    for (std::size_t i = 0; i < filled; ++i) {
      ++result.evaluations;
      if (first_eval) {
        result.initial_cost = costs[i];
        first_eval = false;
      }
      if (costs[i] < result.best_cost) {
        result.best_cost = costs[i];
        result.best = batch[i];
      }
    }
    filled = 0;
  };

  std::vector<noc::TileId> assignment(num_cores);
  std::vector<bool> used(num_tiles, false);
  std::uint64_t enumerated = 0;

  auto recurse = [&](auto&& self, std::size_t core) -> bool {
    if (options.max_evaluations != 0 &&
        enumerated >= options.max_evaluations) {
      result.exhausted = false;
      return false;  // Budget exceeded: stop everywhere.
    }
    if (core == num_cores) {
      batch[filled].set_assignment(assignment);
      ++enumerated;
      if (++filled == batch.size()) flush();
      return true;
    }
    if (core == 0) {
      for (noc::TileId t : first_tiles) {
        assignment[0] = t;
        used[t] = true;
        const bool keep_going = self(self, 1);
        used[t] = false;
        if (!keep_going) return false;
      }
      return true;
    }
    for (noc::TileId t = 0; t < num_tiles; ++t) {
      if (used[t]) continue;
      assignment[core] = t;
      used[t] = true;
      const bool keep_going = self(self, core + 1);
      used[t] = false;
      if (!keep_going) return false;
    }
    return true;
  };
  recurse(recurse, 0);
  flush();
  return result;
}

}  // namespace nocmap::search
