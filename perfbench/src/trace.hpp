// Tracing from outside the program: coarse spans around the calls the
// benchmark makes into each layer, plus aggregated per-packet hook timers
// on the receive side of ports. Spans are kept in memory and written as a
// Chrome trace when the run ends; hooks are never stored per packet.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/port.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One per-packet hook boundary: call count, total ns, and a log2
/// histogram of per-call ns (bucket b holds [2^b, 2^(b+1)) ns). Each hook
/// writes only to its own HookStats, on the thread of its port's shard;
/// readers look only after run_for has returned.
struct HookStats {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::array<std::uint64_t, 40> log2_ns{};

  void add(std::uint64_t ns);
  /// Upper edge (ns) of the bucket holding quantile `q`; 0 with no calls.
  std::uint64_t quantile_ns(double q) const;
  double seconds() const { return static_cast<double>(total_ns) / 1e9; }
  double ns_per_call() const {
    return calls == 0 ? 0.0 : static_cast<double>(total_ns) / static_cast<double>(calls);
  }
};

/// Time every packet `port` delivers to its owner into `acc`. The port's
/// existing receive handler still runs, inside the timer.
void time_receive(ht::sim::Port& port, HookStats& acc);

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;  ///< module the span's self time is charged to
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
  };
  /// Hook time spent inside `span`, charged to `layer`. An overlapped
  /// charge ran on another shard's thread in parallel with the span, so
  /// it is reported beside the wall-time split, not subtracted from it.
  struct Charge {
    int span = -1;
    std::string layer;
    double seconds = 0.0;
    bool overlapped = false;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Open a span under the innermost open one; -1 when disabled.
  int begin(std::string name, std::string layer);
  void end(int id);
  void charge(int span, std::string layer, double seconds, bool overlapped);
  const Span& span(int id) const { return spans_.at(static_cast<std::size_t>(id)); }
  double duration(int id) const { return span(id).end_s - span(id).start_s; }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, std::string name, std::string layer)
        : t_(t), id_(t.begin(std::move(name), std::move(layer))) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer& t_;
    int id_;
  };

  /// Self time of every span under `root` (root included), keyed
  /// "layer/name": its duration minus its child spans and its
  /// non-overlapped charges; each such charge counts as self time of its
  /// own key. The values sum to the root's duration.
  std::map<std::string, double> self_times(int root) const;
  /// Overlapped charges under `root`, keyed "layer/name".
  std::map<std::string, double> overlapped(int root) const;

  /// Chrome trace_event JSON (load in chrome://tracing or Perfetto).
  bool write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<Charge> charges_;
};

}  // namespace perfbench
