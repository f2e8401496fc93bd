#pragma once
// Shared pieces of the benchmark program: timing, order statistics, the
// metric list printed as the result line, and the output checks.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nocmap/mapping/mapping.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Appends kSetupBatches set-up samples to `times`. A sample is the mean
/// seconds of one `build()`, which makes (and frees) a workload's inputs,
/// over a batch of builds that lasts at least kSetupBatchSeconds, because a
/// single millisecond-scale build is too short to time on its own. Untraced
/// runs take samples before the first pass and again after every pass and
/// report the median, so the samples span the run like the passes do.
constexpr int kSetupBatches = 3;
constexpr double kSetupBatchSeconds = 0.03;
template <typename Build>
void time_setup(const Build& build, std::vector<double>& times) {
  for (int b = 0; b < kSetupBatches; ++b) {
    const Clock::time_point start = Clock::now();
    std::size_t builds = 0;
    double elapsed = 0.0;
    do {
      { const auto inputs = build(); }
      ++builds;
      elapsed = seconds_since(start);
    } while (elapsed < kSetupBatchSeconds);
    times.push_back(elapsed / static_cast<double>(builds));
  }
}

/// Command-line settings shared by every workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Minimal inputs, for the smoke test only: fewer apps and requests and
  /// one timed pass. The measured numbers mean nothing at this size.
  bool smoke = false;
};

/// Median of a sample (mean of the two middle values for even sizes).
double median(std::vector<double> v);

/// (max - min) / median of a sample; 0 below 2 values.
double range_spread(const std::vector<double>& v);

/// Nearest-rank percentile and the number of samples strictly beyond it.
struct Percentile {
  double value = 0.0;
  std::size_t beyond = 0;
};
Percentile percentile(std::vector<double> v, double q);

double geomean(const std::vector<double>& v);

/// Counts operations and the ones whose output check failed. A failed check
/// prints a diagnostic on stderr naming the operation.
class Checks {
 public:
  void attempt() { ++attempted_; }
  /// Records one failed operation unless `ok`. Returns `ok`.
  bool expect(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// True when `assignment` places `cores` cores on distinct tiles below
/// `tiles` — checked directly, not through Mapping's own validity test.
bool injective(const std::vector<nocmap::noc::TileId>& assignment,
               std::size_t cores, std::uint32_t tiles);

std::vector<nocmap::noc::TileId> assignment_of(
    const nocmap::mapping::Mapping& m);

/// One named measurement of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): every metric it measured (main
/// prints the ones the trace mode selects) plus a free-form report object
/// (JSON members, without braces) printed on the line before the result.
struct WorkloadResult {
  std::vector<Metric> metrics;
  std::string report;
};

/// JSON-quoted string.
std::string quote(const std::string& s);
/// A double with all its digits.
std::string num(double v);

/// Peak resident set size of this process in MB.
double peak_rss_mb();

/// Host fingerprint as JSON members: CPU model, logical CPUs, compiler and
/// build flags.
std::string host_fingerprint();

}  // namespace perfbench
