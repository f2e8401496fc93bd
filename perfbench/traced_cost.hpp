#pragma once
// A forwarding mapping::CostFunction decorator that counts and times every
// call into the wrapped objective. It changes nothing the search sees: every
// virtual is forwarded, so a search driven through it makes exactly the
// same decisions as one driven through the wrapped object.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "nocmap/mapping/cost.hpp"

namespace perfbench {

/// Calls and host seconds spent in one kind of cost-function call.
struct CallTally {
  std::uint64_t calls = 0;
  double seconds = 0.0;
};

/// Per-objective counters of the mapping layer.
struct CostTally {
  CallTally ctor;   ///< Cost-function construction (timed by the caller).
  CallTally full;   ///< cost(): full evaluations.
  CallTally delta;  ///< swap_delta / move_delta / swap_deltas: priced moves.
  CallTally apply;  ///< apply_swap / apply_move: committed moves.
  double seconds() const {
    return ctor.seconds + full.seconds + delta.seconds + apply.seconds;
  }
  double calls_seconds() const {
    return full.seconds + delta.seconds + apply.seconds;
  }
};

class TracedCost final : public nocmap::mapping::CostFunction {
 public:
  using Mapping = nocmap::mapping::Mapping;
  using TileId = nocmap::noc::TileId;
  using Swap = std::pair<TileId, TileId>;

  /// `walk`, when given, receives every priced move's delta in order — the
  /// fingerprint of the search walk the checkpoint shadow compares.
  TracedCost(const CostFunction& inner, CostTally& tally,
             std::vector<double>* walk = nullptr)
      : inner_(inner), tally_(tally), walk_(walk) {}

  double cost(const Mapping& m) const override {
    return timed(tally_.full, 1, [&] { return inner_.cost(m); });
  }
  std::string name() const override { return inner_.name(); }
  std::size_t num_cores() const override { return inner_.num_cores(); }
  void begin_search() const override { inner_.begin_search(); }

  bool has_swap_delta() const override { return inner_.has_swap_delta(); }
  double swap_delta(const Mapping& m, TileId a, TileId b) const override {
    return record(
        timed(tally_.delta, 1, [&] { return inner_.swap_delta(m, a, b); }));
  }
  void apply_swap(Mapping& m, TileId a, TileId b) const override {
    timed(tally_.apply, 1, [&] {
      inner_.apply_swap(m, a, b);
      return 0.0;
    });
  }
  double move_delta(Mapping& m, const Swap* swaps,
                    std::size_t count) const override {
    return record(timed(tally_.delta, 1, [&] {
      return inner_.move_delta(m, swaps, count);
    }));
  }
  void apply_move(Mapping& m, const Swap* swaps,
                  std::size_t count) const override {
    timed(tally_.apply, 1, [&] {
      inner_.apply_move(m, swaps, count);
      return 0.0;
    });
  }

  bool has_batched_deltas() const override {
    return inner_.has_batched_deltas();
  }
  void swap_deltas(const Mapping& m, const Swap* cands, std::size_t count,
                   double* out) const override {
    timed(tally_.delta, count, [&] {
      inner_.swap_deltas(m, cands, count, out);
      return 0.0;
    });
    for (std::size_t i = 0; i < count; ++i) record(out[i]);
  }

  bool has_lower_bound() const override { return inner_.has_lower_bound(); }
  std::unique_ptr<LowerBound> make_lower_bound() const override {
    return inner_.make_lower_bound();
  }
  bool symmetry_invariant() const override {
    return inner_.symmetry_invariant();
  }

 private:
  template <typename F>
  double timed(CallTally& t, std::size_t calls, F&& f) const {
    const Clock::time_point start = Clock::now();
    const double v = f();
    t.seconds += seconds_since(start);
    t.calls += calls;
    return v;
  }
  double record(double delta) const {
    if (walk_) walk_->push_back(delta);
    return delta;
  }

  const CostFunction& inner_;
  CostTally& tally_;
  std::vector<double>* walk_;
};

}  // namespace perfbench
