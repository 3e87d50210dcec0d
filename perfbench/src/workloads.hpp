// The benchmark's workloads. Each builds a testbed from a seed through the
// program's public API only, runs it in simulated-time slices, and checks
// its outputs: a pinned digest for the default seed, packet conservation
// on every link the benchmark wires, and the workload's expected shape.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/hypertester.hpp"
#include "sim/shard.hpp"
#include "trace.hpp"

namespace ht::dut::stateful {
class WorkloadServer;
}

namespace perfbench {

/// The seed runs use when none is given; its digests are pinned.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// A named measurement with its unit.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Construct the testbed, compile and load the task, start it. Records
  /// spans into `tracer`; with `hooks` the receive side of every port the
  /// benchmark can reach is timed (see Tracer, HookStats).
  virtual void build(std::uint64_t seed, Tracer& tracer, bool hooks) = 0;
  /// Advance the testbed's simulated clock by `ns`.
  virtual void run_for(ht::sim::TimeNs ns) = 0;
  /// Simulated length of one rep and of one timed slice of it. Every
  /// window has at least 100 slices, so p90 over slices has 10 beyond it.
  virtual ht::sim::TimeNs window_ns() const = 0;
  virtual ht::sim::TimeNs slice_ns() const = 0;
  /// Name of the workload's outcome rate: "responses_per_s", ...
  virtual const char* ops_name() const = 0;
  /// The workload's useful outcomes so far (responses, handshakes, ...).
  virtual std::uint64_t ops() = 0;
  /// Fold of every tester's state_digest() and the DUT's fingerprint.
  virtual std::uint64_t digest() = 0;
  /// Empty when the outputs have the workload's expected shape.
  virtual std::string check_shape() = 0;

  /// ASIC egress packets (wire + recirculation) summed over testers.
  std::uint64_t egress_packets() const;
  /// Empty when every wired link conserves packets: tx = peer rx +
  /// peer admin/FCS drops + in flight, with in flight no more than one
  /// link delay's worth (MAC queue wait plus propagation). Frames the
  /// sender's full MAC queue refused never count as tx.
  std::string check_conservation() const;
  /// Per-layer counters read from public program counters.
  std::vector<Metric> layer_counts() const;
  /// Hook timers, by layer key ("rmt/wire_ingress", "dut/server", ...).
  const std::map<std::string, HookStats>& hooks() const { return hooks_; }
  /// True when the testbed's shards run in parallel worker threads.
  bool parallel() const { return group_ != nullptr && group_->size() > 1; }

 protected:
  struct Link {
    std::string name;
    ht::sim::Port* tx = nullptr;
    ht::sim::Port* rx = nullptr;
    ht::sim::TimeNs propagation_ns = 0;
  };
  void add_link(std::string name, ht::sim::Port& a, ht::sim::Port& b, ht::sim::TimeNs prop);
  void hook(ht::sim::Port& port, const std::string& key);

  std::vector<ht::HyperTester*> testers_;
  ht::sim::ShardGroup* group_ = nullptr;
  const ht::dut::stateful::WorkloadServer* server_ = nullptr;
  std::vector<Link> links_;
  std::map<std::string, HookStats> hooks_;
};

std::vector<std::string> workload_names();
/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);
/// The digest the default seed must reproduce.
std::uint64_t pinned_digest(const std::string& name);

}  // namespace perfbench
