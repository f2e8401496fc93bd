#pragma once
/// \file search_result.hpp
/// Common result type for all mapping search engines.

#include <cstdint>
#include <optional>

#include "nocmap/mapping/mapping.hpp"

namespace nocmap::search {

struct SearchResult {
  mapping::Mapping best;          ///< Best mapping found.
  double best_cost = 0.0;         ///< Its objective value.
  double initial_cost = 0.0;      ///< Cost of the starting mapping.
  std::uint64_t evaluations = 0;  ///< Objective queries: full cost() calls
                                  ///< plus incremental swap_delta() pricings
                                  ///< (engines using the delta protocol do
                                  ///< much less work per query). Exhaustive
                                  ///< search: placements covered, priced or
                                  ///< bound-pruned.
  bool exhausted = false;         ///< Exhaustive search: searched everything
                                  ///< (false when the evaluation budget was
                                  ///< hit first).

  // --- Tree-search counters: branch and bound and exhaustive search (zero
  // --- for every other engine; ES leaves node_budget at zero) --------------
  // A "node" is one partial placement of the enumeration tree.
  // nodes_visited counts nodes actually expanded (their lower-bound test
  // passed; at full depth the mapping was priced). nodes_pruned counts the
  // nodes *eliminated* by failing bound tests: the failing node plus every
  // descendant placement that was consequently never generated (saturating
  // at UINT64_MAX), i.e. the work a bound-less enumeration of the same
  // space would have expanded. nodes_pruned / (nodes_visited + nodes_pruned)
  // is therefore the fraction of the tree the bound cut away.
  std::uint64_t nodes_visited = 0;
  std::uint64_t nodes_pruned = 0;
  /// Lower-bound tests performed: nodes_visited plus the number of *failing*
  /// tests (each failing test eliminates a whole subtree, which is why this
  /// is far smaller than nodes_pruned). This is the engine's actual work,
  /// and the quantity node_budget caps.
  std::uint64_t nodes_tested = 0;
  std::uint64_t node_budget = 0;  ///< Budget on nodes_tested; 0 = unlimited.
};

}  // namespace nocmap::search
