#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <thread>

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double range_spread(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  const double med = median(v);
  return med == 0.0 ? 0.0 : (*hi - *lo) / med;
}

Percentile percentile(std::vector<double> v, double q) {
  Percentile p;
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::min(std::max<std::size_t>(rank, 1), v.size());
  p.value = v[rank - 1];
  p.beyond = v.size() - rank;
  return p;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

bool Checks::expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: check failed: " << what << '\n';
  }
  return ok;
}

bool injective(const std::vector<nocmap::noc::TileId>& assignment,
               std::size_t cores, std::uint32_t tiles) {
  if (assignment.size() != cores) return false;
  std::vector<bool> used(tiles, false);
  for (const nocmap::noc::TileId t : assignment) {
    if (t >= tiles || used[t]) return false;
    used[t] = true;
  }
  return true;
}

std::vector<nocmap::noc::TileId> assignment_of(
    const nocmap::mapping::Mapping& m) {
  std::vector<nocmap::noc::TileId> out(m.num_cores());
  for (std::size_t c = 0; c < out.size(); ++c) {
    out[c] = m.tile_of(static_cast<nocmap::graph::CoreId>(c));
  }
  return out;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB.
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

}  // namespace

std::string host_fingerprint() {
  return "\"cpu\": " + quote(cpu_model()) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + quote(PERFBENCH_COMPILER) +
         ", \"flags\": " + quote(PERFBENCH_FLAGS);
}

}  // namespace perfbench
