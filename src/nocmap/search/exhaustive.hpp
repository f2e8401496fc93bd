#pragma once
/// \file exhaustive.hpp
/// Exhaustive mapping search with bound pruning and optional
/// topology-symmetry pruning.
///
/// The paper uses exhaustive search (ES) on small NoCs "to compare the
/// quality of solutions against an absolute optimum", reporting that ES and
/// SA reach the same results up to 3x4 / 2x5 meshes. The search space for n
/// cores on m tiles is m!/(m-n)! placements. Two prunings keep the answer
/// of the full enumeration:
///
///  * Symmetry: an objective that is exactly invariant under the
///    topology's symmetry group (CostFunction::symmetry_invariant — CWM)
///    only has core 0 enumerated on one representative tile per orbit
///    (Topology::symmetry_maps — 4 elements for a W != H mesh, 8 for a
///    square one, multiplied by the ring rotations on a torus). CDCM is
///    searched unrestricted.
///  * Bounds: when the objective has an admissible lower bound
///    (CostFunction::has_lower_bound), a subtree is skipped as soon as its
///    bound reaches the incumbent. No leaf in it could beat the incumbent
///    strictly, so the winner, its cost, initial_cost, evaluations and
///    exhausted are those of the unpruned enumeration, budget included.

#include <cstdint>
#include <functional>

#include "nocmap/mapping/cost.hpp"
#include "nocmap/search/search_result.hpp"

namespace nocmap::search {

struct EsOptions {
  /// Prune symmetric placements; exhaustive_search applies it only to
  /// objectives that report symmetry_invariant() (exact pruning).
  bool use_symmetry = true;
  /// Abort after this many evaluations; the result then carries
  /// exhausted == false. 0 means unlimited.
  std::uint64_t max_evaluations = 0;
};

/// Enumerate placements of cost.num_cores() cores on topo's tiles and
/// return the first optimum in enumeration order (or the best found before
/// the budget ran out). `evaluations` counts placements covered: priced
/// leaves plus the volume of every pruned subtree. nodes_visited,
/// nodes_pruned and nodes_tested count the work as in branch and bound
/// (nodes entered, nodes eliminated by failing bound tests, bound tests).
SearchResult exhaustive_search(const mapping::CostFunction& cost,
                               const noc::Topology& topo,
                               const EsOptions& options = {});

/// Prices one contiguous shard of the enumeration: costs[i] must receive
/// the objective of mappings[i]. Called from one thread; the implementation
/// may parallelize internally (sim::BatchEvaluator does).
using BatchCostFn = std::function<void(
    const mapping::Mapping* mappings, std::size_t count, double* costs)>;

/// Batched exhaustive search: the enumeration of exhaustive_search without
/// bound pruning (the callback prices blind), and with the first-tile
/// symmetry collapse whenever options.use_symmetry is set — the caller
/// vouches for the objective's invariance. Candidates are materialized
/// into fixed-size shards and priced through `evaluate`, e.g. on a
/// sim::BatchEvaluator's thread pool. The reduction walks costs in
/// enumeration order with a strict '<', so over the same space the winner,
/// its cost, `initial_cost` and `evaluations` equal the serial engine's for
/// every shard size and thread count.
SearchResult exhaustive_search_batched(std::size_t num_cores,
                                       const noc::Topology& topo,
                                       const BatchCostFn& evaluate,
                                       const EsOptions& options = {},
                                       std::size_t batch_size = 1024);

/// a + b and a * b, saturating at UINT64_MAX (tree-size accounting shared
/// by the exhaustive and branch-and-bound engines).
std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b);
std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b);

/// The number of placements ES would enumerate without symmetry pruning:
/// m! / (m - n)!; saturates at UINT64_MAX on overflow.
std::uint64_t placement_count(std::uint32_t num_tiles, std::uint32_t num_cores);

/// The tiles core 0 may occupy under first-tile symmetry collapse: the
/// minimal representative of each symmetry orbit (every tile when
/// use_symmetry is false). Shared by the exhaustive engines and
/// branch_and_bound, so they restrict the search space identically.
std::vector<noc::TileId> symmetry_first_tiles(const noc::Topology& topo,
                                              bool use_symmetry);

}  // namespace nocmap::search
