#include "nocmap/mapping/cost.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "nocmap/energy/energy_model.hpp"

namespace nocmap::mapping {

double CostFunction::swap_delta(const Mapping&, noc::TileId,
                                noc::TileId) const {
  throw std::logic_error("swap_delta: not implemented by " + name());
}

std::unique_ptr<CostFunction::LowerBound> CostFunction::make_lower_bound()
    const {
  throw std::logic_error("make_lower_bound: not implemented by " + name());
}

void CostFunction::apply_swap(Mapping& m, noc::TileId a, noc::TileId b) const {
  m.swap_tiles(a, b);
}

double CostFunction::move_delta(
    Mapping& m, const std::pair<noc::TileId, noc::TileId>* swaps,
    std::size_t count) const {
  if (count == 1) return swap_delta(m, swaps[0].first, swaps[0].second);
  // Price the sequence cumulatively, then restore `m` by undoing the
  // involutions in reverse. The undo uses raw tile swaps, so implementations
  // with internal incremental state (CdcmCost's cost caches) must override.
  double delta = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    delta += swap_delta(m, swaps[i].first, swaps[i].second);
    m.swap_tiles(swaps[i].first, swaps[i].second);
  }
  for (std::size_t i = count; i-- > 0;) {
    m.swap_tiles(swaps[i].first, swaps[i].second);
  }
  return delta;
}

void CostFunction::apply_move(Mapping& m,
                              const std::pair<noc::TileId, noc::TileId>* swaps,
                              std::size_t count) const {
  for (std::size_t i = 0; i < count; ++i) {
    apply_swap(m, swaps[i].first, swaps[i].second);
  }
}

void CostFunction::swap_deltas(const Mapping& m,
                               const std::pair<noc::TileId, noc::TileId>* cands,
                               std::size_t count, double* out) const {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = swap_delta(m, cands[i].first, cands[i].second);
  }
}

CwmCost::CwmCost(const graph::Cwg& cwg, const noc::Topology& topo,
                 const energy::Technology& tech, noc::RoutingAlgorithm routing)
    : edges_(cwg.edges()),
      topo_(&topo),
      table_(topo, routing),
      tech_(tech),
      routing_(routing),
      num_cores_(cwg.num_cores()) {
  tech_.validate();

  // CSR incident-edge lists (counting sort by endpoint core).
  inc_offsets_.assign(num_cores_ + 1, 0);
  for (const graph::CwgEdge& e : edges_) {
    ++inc_offsets_[e.src + 1];
    ++inc_offsets_[e.dst + 1];
  }
  for (std::size_t c = 1; c <= num_cores_; ++c) {
    inc_offsets_[c] += inc_offsets_[c - 1];
  }
  const std::size_t entries = inc_offsets_[num_cores_];
  inc_other_.resize(entries);
  inc_bits_.resize(entries);
  inc_out_.resize(entries);
  std::vector<std::uint32_t> fill(inc_offsets_.begin(),
                                  inc_offsets_.end() - 1);
  for (const graph::CwgEdge& e : edges_) {
    const std::uint32_t s = fill[e.src]++;
    inc_other_[s] = e.dst;
    inc_bits_[s] = static_cast<double>(e.bits);
    inc_out_[s] = 1;
    const std::uint32_t d = fill[e.dst]++;
    inc_other_[d] = e.src;
    inc_bits_[d] = static_cast<double>(e.bits);
    inc_out_[d] = 0;
  }

  // Per-hop-count energy per bit up to the diameter:
  // bits * ebit_[k] reproduces dynamic_packet_energy(tech, bits, k) bitwise
  // (the packet energy is defined as exactly that product), so the table
  // turns every hot-loop pricing into one gather and one multiply.
  std::uint32_t max_k = 1;
  const std::uint32_t num_tiles = topo.num_tiles();
  for (noc::TileId s = 0; s < num_tiles; ++s) {
    for (noc::TileId d = 0; d < num_tiles; ++d) {
      max_k = std::max(max_k, table_.hops(s, d));
    }
  }
  ebit_.resize(max_k + 1, 0.0);
  for (std::uint32_t k = 1; k <= max_k; ++k) {
    ebit_[k] = energy::dynamic_bit_energy(tech_, k);
  }
}

double CwmCost::cost(const Mapping& m) const {
  double energy_j = 0.0;
  for (const graph::CwgEdge& e : edges_) {
    const std::uint32_t k = table_.hops(m.tile_of(e.src), m.tile_of(e.dst));
    energy_j += static_cast<double>(e.bits) * ebit_[k];
  }
  return energy_j;
}

namespace {

/// Repricing of one edge: shared by the scalar and batched paths so both
/// build the identical expression tree (and therefore identical rounding).
inline double reprice(double bits, double ebit_new, double ebit_old) {
  return bits * ebit_new - bits * ebit_old;
}

}  // namespace

// Collect (weight, old hops, new hops) for every edge the swap (a, b)
// reprices, in scalar pricing order: the edges of the core on `a` first
// (the mutual ca<->cb edge repriced with both endpoints moved), then the
// edges of the core on `b` minus the mutual ones.
std::size_t CwmCost::gather_swap(const Mapping& m, noc::TileId a,
                                 noc::TileId b) const {
  std::size_t n = 0;
  const std::optional<graph::CoreId> ca = m.core_on(a);
  const std::optional<graph::CoreId> cb = m.core_on(b);
  const std::size_t cap =
      (ca ? inc_offsets_[*ca + 1] - inc_offsets_[*ca] : 0) +
      (cb ? inc_offsets_[*cb + 1] - inc_offsets_[*cb] : 0);
  if (batch_w_.size() < cap) {
    batch_w_.resize(cap);
    batch_k_old_.resize(cap);
    batch_k_new_.resize(cap);
  }
  if (ca) {
    for (std::uint32_t i = inc_offsets_[*ca]; i < inc_offsets_[*ca + 1]; ++i) {
      const graph::CoreId other = inc_other_[i];
      const bool outgoing = inc_out_[i] != 0;
      if (cb && other == *cb) {
        // Both endpoints move: a<->b. Reprice with both new tiles.
        batch_w_[n] = inc_bits_[i];
        batch_k_old_[n] = outgoing ? table_.hops(a, b) : table_.hops(b, a);
        batch_k_new_[n] = outgoing ? table_.hops(b, a) : table_.hops(a, b);
        ++n;
        continue;
      }
      const noc::TileId far = m.tile_of(other);
      batch_w_[n] = inc_bits_[i];
      batch_k_old_[n] = outgoing ? table_.hops(a, far) : table_.hops(far, a);
      batch_k_new_[n] = outgoing ? table_.hops(b, far) : table_.hops(far, b);
      ++n;
    }
  }
  if (cb) {
    for (std::uint32_t i = inc_offsets_[*cb]; i < inc_offsets_[*cb + 1]; ++i) {
      const graph::CoreId other = inc_other_[i];
      // ca<->cb edges were fully repriced in the loop above.
      if (ca && other == *ca) continue;
      const bool outgoing = inc_out_[i] != 0;
      const noc::TileId far = m.tile_of(other);
      batch_w_[n] = inc_bits_[i];
      batch_k_old_[n] = outgoing ? table_.hops(b, far) : table_.hops(far, b);
      batch_k_new_[n] = outgoing ? table_.hops(a, far) : table_.hops(far, a);
      ++n;
    }
  }
  return n;
}

double CwmCost::swap_delta(const Mapping& m, noc::TileId a,
                           noc::TileId b) const {
  if (a == b) return 0.0;
  const std::size_t n = gather_swap(m, a, b);
  // Reduce over the flat scratch arrays: two gathers from the ebit table
  // and a multiply-subtract per edge, no branches. An unchanged hop count
  // contributes an exact +0.0, so no filtering is needed.
  const double* w = batch_w_.data();
  const std::uint32_t* k_old = batch_k_old_.data();
  const std::uint32_t* k_new = batch_k_new_.data();
  const double* ebit = ebit_.data();
  double delta = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    delta += reprice(w[i], ebit[k_new[i]], ebit[k_old[i]]);
  }
  return delta;
}

void CwmCost::swap_deltas(const Mapping& m,
                          const std::pair<noc::TileId, noc::TileId>* cands,
                          std::size_t count, double* out) const {
  const double* ebit = ebit_.data();
  for (std::size_t c = 0; c < count; ++c) {
    if (cands[c].first == cands[c].second) {
      out[c] = 0.0;
      continue;
    }
    const std::size_t n = gather_swap(m, cands[c].first, cands[c].second);
    const double* w = batch_w_.data();
    const std::uint32_t* k_old = batch_k_old_.data();
    const std::uint32_t* k_new = batch_k_new_.data();
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      delta += reprice(w[i], ebit[k_new[i]], ebit[k_old[i]]);
    }
    out[c] = delta;
  }
}

namespace {

/// Minimum-cost assignment of `rows` x `cols` matrix `a` (row-major,
/// rows <= cols): the Hungarian algorithm with potentials and shortest
/// augmenting paths, O(rows^2 * cols). Returns the summed cost of the
/// optimal matching (summed directly over the chosen entries, so the value
/// is an actual matching cost even under floating-point rounding).
double min_cost_assignment(const double* a, std::size_t rows,
                           std::size_t cols, std::vector<double>& u,
                           std::vector<double>& v, std::vector<int>& match,
                           std::vector<double>& minv, std::vector<int>& way,
                           std::vector<char>& used) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  u.assign(rows + 1, 0.0);
  v.assign(cols + 1, 0.0);
  match.assign(cols + 1, 0);  // match[j] = 1-based row occupying column j.
  way.assign(cols + 1, 0);
  for (std::size_t i = 1; i <= rows; ++i) {
    match[0] = static_cast<int>(i);
    std::size_t j0 = 0;
    minv.assign(cols + 1, kInf);
    used.assign(cols + 1, 0);
    do {
      used[j0] = 1;
      const std::size_t i0 = static_cast<std::size_t>(match[j0]);
      double delta = kInf;
      std::size_t j1 = 0;
      const double* row = a + (i0 - 1) * cols;
      for (std::size_t j = 1; j <= cols; ++j) {
        if (used[j]) continue;
        const double cur = row[j - 1] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = static_cast<int>(j0);
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= cols; ++j) {
        if (used[j]) {
          u[static_cast<std::size_t>(match[j])] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (match[j0] != 0);
    do {
      const std::size_t j1 = static_cast<std::size_t>(way[j0]);
      match[j0] = match[j1];
      j0 = j1;
    } while (j0 != 0);
  }
  double cost = 0.0;
  for (std::size_t j = 1; j <= cols; ++j) {
    if (match[j] != 0) {
      cost += a[(static_cast<std::size_t>(match[j]) - 1) * cols + (j - 1)];
    }
  }
  return cost;
}

/// The minimal hop count between distinct tiles: the router count K of the
/// shortest route any two cores can be given.
std::uint32_t minimal_pair_hops(const noc::Topology& topo) {
  std::uint32_t min_k = std::numeric_limits<std::uint32_t>::max();
  for (noc::TileId a = 0; a < topo.num_tiles(); ++a) {
    for (noc::TileId b = 0; b < topo.num_tiles(); ++b) {
      if (a != b) min_k = std::min(min_k, topo.distance(a, b) + 1);
    }
  }
  return min_k;
}

constexpr noc::TileId kUnplaced = std::numeric_limits<noc::TileId>::max();

/// Placement-aware floor on the CDCM static energy (Equation 9): the
/// critical path of the dependence DAG with every packet delivered at its
/// contention-free Equation-8 latency. A packet with both endpoints placed
/// is priced at the router count of its bound route; a packet with one
/// placed endpoint at the fewest routers from (or to) that tile to any free
/// tile, where the partner must land; a packet with neither placed at
/// minimal_pair_hops. Contention only adds waits, so every simulated
/// delivery — and therefore texec — is at least this one, and static
/// energy is monotone in texec. Built per LowerBound, never by the CdcmCost
/// constructor.
class CriticalPathFloor {
 public:
  CriticalPathFloor(const graph::Cdcg& cdcg, const noc::Topology& topo,
                    const energy::Technology& tech, std::uint32_t max_k)
      : tech_(tech),
        num_tiles_(topo.num_tiles()),
        min_pair_k_(minimal_pair_hops(topo)) {
    // Packets are stored in topological order, predecessors as positions in
    // that order (CSR), so one forward pass prices the whole DAG.
    const std::vector<graph::PacketId> order = cdcg.topological_order();
    std::vector<std::uint32_t> pos(order.size(), 0);
    for (std::uint32_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
    pred_off_.push_back(0);
    for (const graph::PacketId p : order) {
      const graph::Packet& pk = cdcg.packet(p);
      src_.push_back(pk.src);
      dst_.push_back(pk.dst);
      comp_ns_.push_back(static_cast<double>(pk.comp_time) *
                         tech.clock_period_ns);
      serial_ns_.push_back(energy::packet_delay_ns(tech, tech.flits(pk.bits)));
      for (const graph::PacketId q : cdcg.predecessors(p)) {
        pred_.push_back(pos[q]);
      }
      pred_off_.push_back(static_cast<std::uint32_t>(pred_.size()));
    }
    routing_ns_.resize(max_k + 1, 0.0);
    for (std::uint32_t k = 1; k <= max_k; ++k) {
      routing_ns_[k] = energy::routing_delay_ns(tech, k);
    }
    delivered_.resize(order.size(), 0.0);
    reach_out_.resize(num_tiles_, 0);
    reach_in_.resize(num_tiles_, 0);
  }

  std::size_t num_packets() const { return src_.size(); }

  /// Static energy of the contention-free critical path under the partial
  /// placement `placed` (tile per core, kUnplaced when free). `occupied`
  /// flags tiles, `free` lists the unoccupied ones.
  double static_j(const std::vector<noc::TileId>& placed,
                  const std::vector<char>& occupied,
                  const std::vector<noc::TileId>& free,
                  const noc::RouteTable& table) const {
    if (!free.empty()) {
      for (noc::TileId t = 0; t < num_tiles_; ++t) {
        if (!occupied[t]) continue;
        std::uint32_t out = std::numeric_limits<std::uint32_t>::max();
        std::uint32_t in = out;
        for (const noc::TileId u : free) {
          out = std::min(out, table.hops(t, u));
          in = std::min(in, table.hops(u, t));
        }
        reach_out_[t] = out;
        reach_in_[t] = in;
      }
    }
    double texec = 0.0;
    for (std::size_t i = 0; i < src_.size(); ++i) {
      double ready = 0.0;
      for (std::uint32_t j = pred_off_[i]; j < pred_off_[i + 1]; ++j) {
        ready = std::max(ready, delivered_[pred_[j]]);
      }
      const noc::TileId s = placed[src_[i]];
      const noc::TileId d = placed[dst_[i]];
      std::uint32_t k = min_pair_k_;
      if (s != kUnplaced && d != kUnplaced) {
        k = table.hops(s, d);
      } else if (s != kUnplaced) {
        k = reach_out_[s];
      } else if (d != kUnplaced) {
        k = reach_in_[d];
      }
      delivered_[i] = ready + comp_ns_[i] + (routing_ns_[k] + serial_ns_[i]);
      texec = std::max(texec, delivered_[i]);
    }
    return energy::static_noc_energy(tech_, num_tiles_, texec);
  }

 private:
  energy::Technology tech_;
  std::uint32_t num_tiles_;
  std::uint32_t min_pair_k_;
  std::vector<graph::CoreId> src_, dst_;  ///< Per packet, topological order.
  std::vector<double> comp_ns_;           ///< t_aq * lambda.
  std::vector<double> serial_ns_;         ///< Equation 7 (flit streaming).
  std::vector<double> routing_ns_;        ///< Equation 6 per router count.
  std::vector<std::uint32_t> pred_off_, pred_;
  mutable std::vector<double> delivered_;
  /// Per occupied tile: fewest routers to / from any free tile.
  mutable std::vector<std::uint32_t> reach_out_, reach_in_;
};

/// The hop lower bound shared by the CWM and CDCM objectives.
///
/// Invariant classification of every CWG edge against the current partial
/// placement:
///  * both endpoints placed  -> exact hop-table energy (the "prefix"),
///  * one endpoint placed    -> priced inside bound(): the unplaced core
///    must land on some currently free tile, so its edges to placed cores
///    cost at least their summed hop-table energy at a candidate tile; the
///    candidates are coupled across cores through a minimum-cost
///    assignment (unplaced cores x free tiles, Hungarian algorithm), which
///    respects that distinct cores take distinct tiles — the
///    Gilmore-Lawler-style relaxation from the exact-QAP literature,
///  * neither endpoint placed -> both cores end on distinct, currently
///    free tiles; from either endpoint's candidate tile u the edge costs
///    at least its volume priced at the minimal hop count from u to any
///    *other free* tile. Half of that is charged to each endpoint's
///    per-core minimum above (each side's charge is a lower bound on the
///    whole edge, so half from each is admissible), which makes candidate
///    tiles in sparse free regions expensive exactly when they should be.
///
/// The CDCM objective adds its CriticalPathFloor. The prefix is summed
/// fresh in edge order on every bound() call (O(|E|)), so nothing drifts
/// under place()/unplace() and the complete-placement CWM value is bitwise
/// CwmCost::cost().
///
/// Floating-point admissibility: every term is non-negative, so each
/// computed sum is within (terms x unit roundoff) of its exact value, and
/// so is the simulator's own energy. bound() therefore scales its result by
/// 1 - delta, with delta = 8 x (operation count) x DBL_EPSILON, which makes
/// "partial bound <= bound of any completion <= cost()" hold bitwise rather
/// than up to rounding: complete placements are scaled by 1 - delta (not at
/// all for CWM, whose value is the exact cost), partial ones by 1 - 2 delta
/// (1 - delta for CWM). docs/search.md spells the argument out.
class HopLowerBound final : public CostFunction::LowerBound {
 public:
  /// `cdcg`, when given, adds its CriticalPathFloor (the CDCM objective).
  HopLowerBound(std::vector<graph::CwgEdge> edges, std::size_t num_cores,
                const noc::Topology& topo, const energy::Technology& tech,
                noc::RoutingAlgorithm routing,
                const graph::Cdcg* cdcg = nullptr)
      : edges_(std::move(edges)),
        table_(topo, routing),
        num_cores_(num_cores),
        num_tiles_(topo.num_tiles()) {
    // Per-hop-count energy per bit, up to the topology's diameter.
    std::uint32_t max_k = 1;
    for (noc::TileId s = 0; s < num_tiles_; ++s) {
      for (noc::TileId d = 0; d < num_tiles_; ++d) {
        max_k = std::max(max_k, table_.hops(s, d));
      }
    }
    ebit_.resize(max_k + 1, 0.0);
    for (std::uint32_t k = 1; k <= max_k; ++k) {
      ebit_[k] = energy::dynamic_bit_energy(tech, k);
    }

    incident_.resize(num_cores_);
    traffic_.resize(num_cores_, 0);
    for (const graph::CwgEdge& e : edges_) {
      const double bits = static_cast<double>(e.bits);
      incident_[e.src].push_back(Incident{e.dst, bits, true});
      incident_[e.dst].push_back(Incident{e.src, bits, false});
      traffic_[e.src] += e.bits;
      traffic_[e.dst] += e.bits;
    }
    placed_.resize(num_cores_, kUnplaced);
    occupied_.resize(num_tiles_, 0);
    free_ebit_.resize(num_tiles_, 0.0);

    // The safety factor: an over-count of the rounded operations in one
    // bound() call (prefix, matrix rows, assignment, critical path) and in
    // the simulator's energy sum it is compared against.
    std::size_t max_deg = 0;
    for (const auto& inc : incident_) max_deg = std::max(max_deg, inc.size());
    std::size_t ops = edges_.size() + num_cores_ * (max_deg + 2) +
                      num_cores_ * num_tiles_ + 16;
    if (cdcg != nullptr) {
      floor_.emplace(*cdcg, topo, tech, max_k);
      ops += floor_->num_packets() * (2 * max_k + 8);
    }
    const double delta =
        8.0 * static_cast<double>(ops) * std::numeric_limits<double>::epsilon();
    complete_scale_ = floor_ ? 1.0 - delta : 1.0;
    partial_scale_ = complete_scale_ - delta;
    reset();
  }

  void reset() override {
    std::fill(placed_.begin(), placed_.end(), kUnplaced);
    std::fill(occupied_.begin(), occupied_.end(), 0);
    num_placed_ = 0;
  }

  void place(graph::CoreId core, noc::TileId tile) override {
    placed_[core] = tile;
    occupied_[tile] = 1;
    ++num_placed_;
  }

  void unplace(graph::CoreId core, noc::TileId tile) override {
    placed_[core] = kUnplaced;
    occupied_[tile] = 0;
    --num_placed_;
  }

  double bound(double prune_above) const override {
    // The prefix, in edge order — the exact CwmCost::cost() sum once every
    // core is placed.
    double prefix_j = 0.0;
    for (const graph::CwgEdge& e : edges_) {
      const noc::TileId s = placed_[e.src];
      const noc::TileId d = placed_[e.dst];
      if (s != kUnplaced && d != kUnplaced) {
        prefix_j += static_cast<double>(e.bits) * ebit_[table_.hops(s, d)];
      }
    }
    free_.clear();
    for (noc::TileId u = 0; u < num_tiles_; ++u) {
      if (!occupied_[u]) free_.push_back(u);
    }
    const double base =
        prefix_j +
        (floor_ ? floor_->static_j(placed_, occupied_, free_, table_) : 0.0);
    if (num_placed_ == num_cores_) return base * complete_scale_;

    const double scale = partial_scale_;
    if (base * scale > prune_above) return base * scale;

    // Per free tile, the energy-per-bit of one hop to the nearest *other*
    // free tile (either direction — admissible for both edge orientations).
    // O(free^2) hop-table lookups per call.
    for (const noc::TileId u : free_) {
      std::uint32_t dmin = std::numeric_limits<std::uint32_t>::max();
      for (const noc::TileId v : free_) {
        if (v == u) continue;
        dmin = std::min(dmin, std::min(table_.hops(u, v), table_.hops(v, u)));
      }
      // A lone free tile can only host the last unplaced core, which by
      // then has no unplaced partners, so the value is never read.
      free_ebit_[u] =
          dmin == std::numeric_limits<std::uint32_t>::max() ? 0.0 : ebit_[dmin];
    }

    // One matrix row per unplaced core with any traffic: entry (c, u) is a
    // lower bound on c's remainder contribution if it lands on free tile u
    // (its placed partners priced exactly, half of each unplaced-unplaced
    // edge priced at u's nearest-free-tile hop count). A complete mapping
    // assigns these cores *distinct* free tiles, so the minimum-cost
    // assignment over the matrix — not just the sum of row minima — is
    // still admissible, and substantially tighter when cores compete for
    // the same good tiles.
    matrix_.clear();
    std::size_t rows = 0;
    double cheap = base;  ///< base + sum of row minima: admissible itself.
    for (graph::CoreId c = 0; c < num_cores_; ++c) {
      if (placed_[c] != kUnplaced) continue;
      scratch_.clear();
      double unplaced_bits = 0.0;
      for (const Incident& e : incident_[c]) {
        if (placed_[e.other] != kUnplaced) {
          scratch_.push_back(Incident{placed_[e.other], e.bits, e.outgoing});
        } else {
          unplaced_bits += e.bits;
        }
      }
      if (scratch_.empty() && unplaced_bits == 0.0) continue;
      ++rows;
      double row_min = std::numeric_limits<double>::infinity();
      for (const noc::TileId u : free_) {
        double s = 0.5 * unplaced_bits * free_ebit_[u];
        for (const Incident& e : scratch_) {
          // `other` holds the placed partner's tile here.
          s += e.bits * ebit_[e.outgoing ? table_.hops(u, e.other)
                                         : table_.hops(e.other, u)];
        }
        matrix_.push_back(s);
        if (s < row_min) row_min = s;
      }
      cheap += row_min;
      // Cascade: a partial sum of row minima is already admissible, so the
      // moment it exceeds the caller's threshold the assignment solve (and
      // the remaining rows) is unnecessary.
      if (cheap * scale > prune_above) return cheap * scale;
    }
    if (rows == 0) return base * scale;
    return (base + min_cost_assignment(matrix_.data(), rows, free_.size(),
                                       hung_u_, hung_v_, hung_match_,
                                       hung_minv_, hung_way_, hung_used_)) *
           scale;
  }

  std::uint64_t core_traffic(graph::CoreId core) const override {
    return core < traffic_.size() ? traffic_[core] : 0;
  }

 private:
  /// One edge endpoint as seen from a core; in bound()'s scratch buffer
  /// `other` is reused to hold the placed partner's *tile*.
  struct Incident {
    std::uint32_t other = 0;
    double bits = 0.0;
    bool outgoing = false;
  };

  std::vector<graph::CwgEdge> edges_;
  std::vector<std::vector<Incident>> incident_;
  std::vector<std::uint64_t> traffic_;
  noc::RouteTable table_;
  std::size_t num_cores_;
  std::uint32_t num_tiles_;
  std::vector<double> ebit_;       ///< dynamic_bit_energy per hop count.
  std::optional<CriticalPathFloor> floor_;  ///< CDCM only.
  double complete_scale_ = 1.0;
  double partial_scale_ = 1.0;

  std::vector<noc::TileId> placed_;  ///< Per core; kUnplaced when free.
  std::vector<char> occupied_;       ///< Per tile.
  std::size_t num_placed_ = 0;
  mutable std::vector<Incident> scratch_;
  mutable std::vector<noc::TileId> free_;
  mutable std::vector<double> free_ebit_;  ///< Indexed by tile.
  // Assignment-relaxation scratch (bound() is const but reuses buffers).
  mutable std::vector<double> matrix_;
  mutable std::vector<double> hung_u_, hung_v_, hung_minv_;
  mutable std::vector<int> hung_match_, hung_way_;
  mutable std::vector<char> hung_used_;
};

}  // namespace

std::unique_ptr<CostFunction::LowerBound> CwmCost::make_lower_bound() const {
  return std::make_unique<HopLowerBound>(edges_, num_cores_, *topo_, tech_,
                                         routing_);
}

std::unique_ptr<CostFunction::LowerBound> CdcmCost::make_lower_bound() const {
  return std::make_unique<HopLowerBound>(cdcg_.to_cwg().edges(),
                                         cdcg_.num_cores(), topo_, tech_,
                                         routing_, &cdcg_);
}

double cwm_dynamic_energy(const graph::Cwg& cwg, const noc::Topology& topo,
                          const Mapping& m, const energy::Technology& tech,
                          noc::RoutingAlgorithm routing) {
  return CwmCost(cwg, topo, tech, routing).cost(m);
}

CdcmCost::CdcmCost(const graph::Cdcg& cdcg, const noc::Topology& topo,
                   const energy::Technology& tech,
                   noc::RoutingAlgorithm routing, sim::SimOptions sim_options)
    : cdcg_(cdcg), topo_(topo), tech_(tech), routing_(routing) {
  tech_.validate();
  cdcg_.validate(/*require_connected=*/false);
  sim_options.routing = routing_;
  sim_options.record_traces = true;  // Only honoured by the traced path.
  simulator_ =
      std::make_unique<sim::Simulator>(cdcg_, topo_, tech_, sim_options);
}

double CdcmCost::run_cost(const Mapping& m) const {
  // Scalar arena run: no traces, no allocations in the steady state.
  return simulator_->run(m).energy.total_j();
}

double CdcmCost::cost(const Mapping& m) const {
  // Cache hits return the value a fresh run would produce: the simulator is
  // deterministic and the cached cost came from a real run of this exact
  // mapping.
  if (cur_map_ && m == *cur_map_) return cur_cost_;
  if (probe_valid_ && probe_map_ && m == *probe_map_) return probe_cost_;
  cur_map_ = m;  // Copy-assign reuses the cached mapping's storage.
  cur_cost_ = run_cost(m);
  probe_valid_ = false;
  return cur_cost_;
}

double CdcmCost::swap_delta(const Mapping& m, noc::TileId a,
                            noc::TileId b) const {
  double base;
  if (cur_map_ && m == *cur_map_) {
    base = cur_cost_;
  } else {
    cur_map_ = m;
    base = cur_cost_ = run_cost(m);
  }
  if (!probe_map_) {
    probe_map_ = m;
  } else {
    *probe_map_ = m;
  }
  probe_map_->swap_tiles(a, b);
  // Full resimulation of the swapped mapping — the simulator rebinds only
  // the packets incident to the swapped cores, then replays the whole
  // schedule, so this is bitwise cost(m') - cost(m).
  probe_cost_ = run_cost(*probe_map_);
  probe_a_ = a;
  probe_b_ = b;
  probe_valid_ = true;
  return probe_cost_ - base;
}

void CdcmCost::apply_swap(Mapping& m, noc::TileId a, noc::TileId b) const {
  m.swap_tiles(a, b);
  if (probe_valid_ && probe_map_ &&
      ((probe_a_ == a && probe_b_ == b) || (probe_a_ == b && probe_b_ == a)) &&
      m == *probe_map_) {
    // The committed mapping is exactly the one just probed: promote the
    // probe cache so the next swap_delta()/resync cost() is free.
    cur_map_.swap(probe_map_);
    cur_cost_ = probe_cost_;
  } else {
    cur_map_.reset();
  }
  probe_valid_ = false;
}

double CdcmCost::move_delta(Mapping& m,
                            const std::pair<noc::TileId, noc::TileId>* swaps,
                            std::size_t count) const {
  if (count == 1) return swap_delta(m, swaps[0].first, swaps[0].second);
  double base;
  if (cur_map_ && m == *cur_map_) {
    base = cur_cost_;
  } else {
    cur_map_ = m;
    base = cur_cost_ = run_cost(m);
  }
  if (!probe_map_) {
    probe_map_ = m;
  } else {
    *probe_map_ = m;
  }
  for (std::size_t i = 0; i < count; ++i) {
    probe_map_->swap_tiles(swaps[i].first, swaps[i].second);
  }
  // One resimulation of the sequence's end state: bitwise
  // cost(m') - cost(m), independent of the sequence length.
  probe_cost_ = run_cost(*probe_map_);
  // Invalidate the (a, b) fast guard; apply_move promotes the probe by
  // mapping equality alone.
  probe_a_ = probe_b_ = 0;
  probe_valid_ = true;
  return probe_cost_ - base;
}

void CdcmCost::apply_move(Mapping& m,
                          const std::pair<noc::TileId, noc::TileId>* swaps,
                          std::size_t count) const {
  if (count == 1) {
    apply_swap(m, swaps[0].first, swaps[0].second);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    m.swap_tiles(swaps[i].first, swaps[i].second);
  }
  if (probe_valid_ && probe_map_ && m == *probe_map_) {
    // The committed mapping is the one just probed (the simulator is
    // deterministic, so the cached cost is its exact cost): promote it.
    cur_map_.swap(probe_map_);
    cur_cost_ = probe_cost_;
  } else {
    cur_map_.reset();
  }
  probe_valid_ = false;
}

sim::SimulationResult CdcmCost::evaluate(const Mapping& m) const {
  return simulator_->run_traced(m);
}

const sim::CheckpointStats& CdcmCost::checkpoint_stats() const {
  return simulator_->checkpoint_stats();
}

bool CdcmCost::checkpointing_active() const {
  return simulator_->checkpointing_active();
}

HybridCost::HybridCost(const graph::Cdcg& cdcg, const noc::Topology& topo,
                       const energy::Technology& tech,
                       noc::RoutingAlgorithm routing,
                       std::uint32_t cdcm_cadence,
                       sim::SimOptions sim_options)
    : cwg_(cdcg.to_cwg()),
      cwm_(cwg_, topo, tech, routing),
      cdcm_(cdcg, topo, tech, routing, sim_options),
      cadence_(cdcm_cadence) {}

double HybridCost::swap_delta(const Mapping& m, noc::TileId a,
                              noc::TileId b) const {
  ++probes_;
  if (cadence_ != 0 && probes_ % cadence_ == 0) {
    return cdcm_.swap_delta(m, a, b);
  }
  // The prefilter: the timing-blind CWM repricing of the two tiles, O(deg)
  // hop-table lookups. The running cost it feeds drifts from the true CDCM
  // objective until the next CDCM verification or per-step resync.
  return cwm_.swap_delta(m, a, b);
}

void HybridCost::apply_swap(Mapping& m, noc::TileId a, noc::TileId b) const {
  // CwmCost is stateless; CdcmCost keeps its probe/current caches in sync.
  cdcm_.apply_swap(m, a, b);
}

double HybridCost::move_delta(Mapping& m,
                              const std::pair<noc::TileId, noc::TileId>* swaps,
                              std::size_t count) const {
  ++probes_;
  if (cadence_ != 0 && probes_ % cadence_ == 0) {
    return cdcm_.move_delta(m, swaps, count);
  }
  return cwm_.move_delta(m, swaps, count);
}

void HybridCost::apply_move(Mapping& m,
                            const std::pair<noc::TileId, noc::TileId>* swaps,
                            std::size_t count) const {
  cdcm_.apply_move(m, swaps, count);
}

}  // namespace nocmap::mapping
