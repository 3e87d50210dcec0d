// Host record: what machine and build a result came from, plus per-run
// resource usage, so a run slowed by a neighbour can be told apart.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct HostInfo {
  unsigned hardware_concurrency = 0;
  std::string compiler;
  std::string build_type;
  std::string source_id;    ///< git sha, or a hash of the sources outside git
  std::string cpu_affinity; ///< CPUs this process may run on, e.g. "0-3"
};

HostInfo host_info(const std::string& source_id);

/// Process resource usage at one instant (getrusage RUSAGE_SELF).
struct Usage {
  double cpu_s = 0.0;             ///< user + system seconds
  std::int64_t invol_csw = 0;     ///< involuntary context switches
  double max_rss_mib = 0.0;       ///< peak resident set so far
};

Usage usage_now();

}  // namespace perfbench
