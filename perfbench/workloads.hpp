#pragma once
// The benchmark's workloads. Each runs single-threaded against the nocmap
// library's public API, checks every output it produces, and returns the
// metrics of the selected mode (end-to-end when untraced, per-layer when
// traced). perfbench/README.md documents the metrics and predictions.

#include "common.hpp"

namespace perfbench {

/// Table 2 of the paper: Explorer::compare() on every Table-1 application of
/// the small boards (3x2..3x4, exhaustive search) or of the large ones
/// (8x8..12x10, simulated annealing).
WorkloadResult run_table2(const RunConfig& config, bool large, Checks& checks);

/// A seeded closed-loop request stream through serve::ServeEngine.
WorkloadResult run_serve_stream(const RunConfig& config, Checks& checks);

}  // namespace perfbench
