#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <thread>

namespace perfbench {

namespace {

std::string affinity_string() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string out;
  int run_start = -1;
  for (int cpu = 0; cpu <= CPU_SETSIZE; ++cpu) {
    const bool in = cpu < CPU_SETSIZE && CPU_ISSET(cpu, &set);
    if (in && run_start < 0) run_start = cpu;
    if (!in && run_start >= 0) {
      if (!out.empty()) out += ',';
      out += std::to_string(run_start);
      if (cpu - 1 > run_start) out += '-' + std::to_string(cpu - 1);
      run_start = -1;
    }
  }
  return out;
}

}  // namespace

HostInfo host_info(const std::string& source_id) {
  HostInfo h;
  h.hardware_concurrency = std::thread::hardware_concurrency();
#if defined(__clang__)
  h.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  h.compiler = "g++ " __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.source_id = source_id.empty() ? "unknown" : source_id;
  h.cpu_affinity = affinity_string();
  return h;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  Usage u;
  u.cpu_s = secs(ru.ru_utime) + secs(ru.ru_stime);
  u.invol_csw = ru.ru_nivcsw;
  u.max_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
  return u;
}

}  // namespace perfbench
