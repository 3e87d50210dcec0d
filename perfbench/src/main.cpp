// ht_perfbench: runs one benchmark workload for a wall-clock budget and
// prints its metrics. See perfbench/README.md for the metrics, their
// layers and the workloads; perfbench/run.py builds and invokes this.
//
//   ht_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--source-id <id>] [--out-dir <dir>]
//
// A run is a sequence of reps. Each rep builds the testbed from the seed
// (timed as set-up), advances it through a fixed simulated window in fixed
// slices (each slice timed), checks its outputs, and tears it down. With
// --trace 1, untraced and traced reps alternate: per-layer numbers come
// from the traced reps, and the tracing overhead is the ratio of the two.
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics of the selected mode.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "host.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string source_id;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "ht_perfbench: %s\n"
               "usage: ht_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "                    [--source-id <id>] [--out-dir <dir>]\nworkloads:",
               msg);
  for (const std::string& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0.0) || a.seconds > 3600.0) {
        usage("--seconds takes a number in (0, 3600]");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--source-id") {
      a.source_id = v;
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!make_workload(a.workload)) usage(("unknown workload " + a.workload).c_str());
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of an already sorted sample.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// Spare set-ups per rep: testbeds that are only built and torn down, back
/// to back with the measured one. At least kMinSpareSetups; more, up to
/// kMaxSpareSetups, while they have taken under kCheapSetupsS in all.
constexpr int kMinSpareSetups = 2;
constexpr int kMaxSpareSetups = 32;
constexpr double kCheapSetupsS = 0.01;

/// One rep's measurements.
struct Rep {
  bool traced = false;
  std::vector<double> setup_s;  ///< every set-up of the rep, the measured build last
  double window_s = 0.0;  ///< host seconds of the simulated window
  std::uint64_t egress_pkts = 0;
  std::uint64_t ops = 0;
  std::vector<double> slice_s;  ///< host seconds of each simulated slice
  std::uint64_t digest = 0;
  std::string failure;  ///< empty when every check passed
  double cpu_s = 0.0;
  std::int64_t invol_csw = 0;
  int root_span = -1;
  std::vector<Metric> counts;  ///< traced reps only
  std::map<std::string, HookStats> hooks;
};

Rep run_rep(const Args& args, Tracer& tracer) {
  Rep rep;
  rep.traced = tracer.enabled();
  const Usage u0 = usage_now();
  Tracer off(false);
  double spare_s = 0.0;
  for (int k = 0; k < kMinSpareSetups || (spare_s < kCheapSetupsS && k < kMaxSpareSetups); ++k) {
    std::unique_ptr<Workload> spare = make_workload(args.workload);
    const Clock::time_point t0 = Clock::now();
    spare->build(args.seed, off, false);
    rep.setup_s.push_back(seconds_between(t0, Clock::now()));
    spare_s += rep.setup_s.back();
  }
  std::unique_ptr<Workload> w = make_workload(args.workload);
  rep.root_span = tracer.begin("rep", "bench");
  const Clock::time_point t0 = Clock::now();
  w->build(args.seed, tracer, rep.traced);
  rep.setup_s.push_back(seconds_between(t0, Clock::now()));

  const ht::sim::TimeNs slice = w->slice_ns();
  std::map<std::string, std::uint64_t> hook_ns_before;
  for (ht::sim::TimeNs done = 0; done < w->window_ns(); done += slice) {
    for (const auto& [key, h] : w->hooks()) hook_ns_before[key] = h.total_ns;
    const Clock::time_point s0 = Clock::now();
    {
      Tracer::Scope span(tracer, "run_for", "core");
      w->run_for(slice);
      for (const auto& [key, h] : w->hooks()) {
        tracer.charge(span.id(), key, static_cast<double>(h.total_ns - hook_ns_before[key]) / 1e9,
                      w->parallel());
      }
    }
    rep.slice_s.push_back(seconds_between(s0, Clock::now()));
    rep.window_s += rep.slice_s.back();
  }
  rep.egress_pkts = w->egress_packets();
  rep.ops = w->ops();

  {
    Tracer::Scope span(tracer, "check", "bench");
    rep.digest = w->digest();
    std::string err = w->check_conservation();
    if (err.empty()) err = w->check_shape();
    rep.failure = err;
  }
  if (rep.traced) {
    rep.counts = w->layer_counts();
    rep.hooks = w->hooks();
  }
  {
    Tracer::Scope span(tracer, "teardown", "core");
    w.reset();
  }
  tracer.end(rep.root_span);
  const Usage u1 = usage_now();
  rep.cpu_s = u1.cpu_s - u0.cpu_s;
  rep.invol_csw = u1.invol_csw - u0.invol_csw;
  return rep;
}

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + fmt(ms[i].value) + ", \"unit\": \"" +
           ms[i].unit + "\"}";
  }
  return out + "}";
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Everything a run measured, also written to <out-dir>/<workload>-seed<n>-trace<t>.json.
std::string results_json(const Args& args, const HostInfo& host, const std::vector<Rep>& reps,
                         const std::vector<Metric>& e2e, const std::vector<Metric>& layers,
                         const std::map<std::string, double>& self_total) {
  std::string out = "{\"workload\": " + json_str(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"seconds\": " + fmt(args.seconds) +
                    ", \"trace\": " + (args.trace ? "1" : "0") + ",\n \"host\": {" +
                    "\"hardware_concurrency\": " + std::to_string(host.hardware_concurrency) +
                    ", \"compiler\": " + json_str(host.compiler) +
                    ", \"build_type\": " + json_str(host.build_type) +
                    ", \"source_id\": " + json_str(host.source_id) +
                    ", \"cpu_affinity\": " + json_str(host.cpu_affinity) + "},\n \"reps\": [";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    char digest[24];
    std::snprintf(digest, sizeof(digest), "%016" PRIx64, r.digest);
    out += std::string(i == 0 ? "\n  " : ",\n  ") + "{\"kind\": " +
           json_str(i == 0 ? "warmup" : (r.traced ? "traced" : "untraced")) +
           ", \"setup_s\": " + fmt(*std::min_element(r.setup_s.begin(), r.setup_s.end())) + ", \"window_s\": " + fmt(r.window_s) +
           ", \"egress_pkts\": " + std::to_string(r.egress_pkts) +
           ", \"ops\": " + std::to_string(r.ops) + ", \"cpu_s\": " + fmt(r.cpu_s) +
           ", \"invol_csw\": " + std::to_string(r.invol_csw) +
           ", \"digest\": " + json_str(digest) + ", \"failure\": " + json_str(r.failure) +
           ", \"slice_s\": [";
    for (std::size_t k = 0; k < r.slice_s.size(); ++k) {
      out += (k == 0 ? "" : ", ") + fmt(r.slice_s[k]);
    }
    out += "]}";
  }
  out += "],\n \"end_to_end\": " + metrics_json(e2e) + ",\n \"per_layer\": " +
         metrics_json(layers) + ",\n \"self_time_s\": {";
  bool first = true;
  for (const auto& [k, v] : self_total) {
    out += (first ? "" : ", ") + json_str(k) + ": " + fmt(v);
    first = false;
  }
  return out + "}}\n";
}

/// The fastest host time of each slice position over the measured reps
/// (warm-up excluded) that are traced or not, as asked. On a shared host,
/// contention from neighbours only ever slows a slice down, so this is the
/// window as it runs uncontended; it stays steady where means drift.
std::vector<double> fastest_slices(const std::vector<Rep>& reps, bool traced) {
  std::vector<double> fastest;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    if (reps[i].traced != traced) continue;
    if (fastest.empty()) fastest = reps[i].slice_s;
    for (std::size_t k = 0; k < fastest.size(); ++k) {
      fastest[k] = std::min(fastest[k], reps[i].slice_s[k]);
    }
  }
  return fastest;
}

bool write_file(const std::string& path, const std::string& body) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"), &std::fclose);
  return f && std::fputs(body.c_str(), f.get()) >= 0 && std::fflush(f.get()) == 0;
}

/// Per-layer numbers of a traced run.
struct LayerReport {
  std::vector<Metric> layers;      ///< the JSON line's per-layer metrics
  std::vector<Metric> hook_times;  ///< hook times that read 0 where a layer has no work
  std::map<std::string, double> self_total;  ///< self time by layer/span, all traced reps
};

/// Per-layer metrics from the traced reps. `window_plain` and
/// `window_traced` are the fastest-slice window times of the untraced and
/// traced reps, for the tracing overhead. Prints the self-time table.
LayerReport layer_report(const std::vector<Rep>& reps, const Tracer& tracer,
                         double window_plain, double window_traced) {
  LayerReport r;
  std::size_t traced_reps = 0;
  std::map<std::string, std::vector<double>> self, over;
  std::map<std::string, HookStats> hooks;
  std::vector<Metric> counts;
  double wall = 0.0;
  for (const Rep& rep : reps) {
    if (!rep.traced) continue;
    ++traced_reps;
    for (const auto& [k, v] : tracer.self_times(rep.root_span)) {
      self[k].push_back(v);
      r.self_total[k] += v;
    }
    for (const auto& [k, v] : tracer.overlapped(rep.root_span)) over[k].push_back(v);
    wall += tracer.duration(rep.root_span);
    hooks = rep.hooks;    // counts repeat exactly from rep to rep:
    counts = rep.counts;  // the digest check guarantees it
  }
  const auto med = [](const std::map<std::string, std::vector<double>>& m,
                      const std::string& k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : median(it->second);
  };
  // A hook's time is self time when its shard ran inline, overlapped
  // busy time when it ran on a worker thread beside other shards.
  const auto hook_s = [&](const std::string& k) { return med(self, k) + med(over, k); };
  const auto hook = [&](const std::string& k) {
    const auto it = hooks.find(k);
    return it == hooks.end() ? HookStats{} : it->second;
  };
  const HookStats wire = hook("rmt/wire_ingress");
  const HookStats server = hook("dut/server");
  const HookStats sink = hook("dut/sink");
  HookStats rx = server;
  rx.calls += sink.calls;
  rx.total_ns += sink.total_ns;

  std::printf("self time over %zu traced reps, keyed layer/span (wall %.4fs):\n",
              traced_reps, wall);
  double sum = 0.0;
  for (const auto& [k, v] : r.self_total) {
    std::printf("  %-28s %12.6fs %6.2f%%\n", k.c_str(), v, 100.0 * v / wall);
    sum += v;
  }
  std::printf("  %-28s %12.6fs %6.2f%% of traced wall\n", "sum", sum, 100.0 * sum / wall);
  for (const auto& [k, v] : over) {
    std::printf("  %-28s %12.6fs per rep, busy on a worker shard beside the others\n",
                k.c_str(), median(v));
  }
  for (const auto& [k, h] : hooks) {
    std::printf("  hook %-23s calls %" PRIu64 " total %.6fs %.1f ns/call p50<=%" PRIu64
                "ns p99<=%" PRIu64 "ns\n",
                k.c_str(), h.calls, h.seconds(), h.ns_per_call(), h.quantile_ns(0.5),
                h.quantile_ns(0.99));
  }

  r.layers = {
      {"trace.overhead", "ratio", window_traced / window_plain - 1.0},
      {"core.construct_s", "s", med(self, "core/construct")},
      {"ntapi.compile_s", "s", med(self, "ntapi/compile")},
      {"core.load_s", "s", med(self, "core/load")},
      {"core.start_s", "s", med(self, "core/start")},
      {"dut.construct_s", "s", med(self, "dut/construct")},
      {"core.run_self_s", "s", med(self, "core/run_for")},
      {"dut.rx_s", "s", hook_s("dut/server") + hook_s("dut/sink")},
      {"dut.rx_ns_per_pkt", "ns", rx.ns_per_call()},
      {"rmt.wire_ingress_calls", "count", static_cast<double>(wire.calls)},
      {"dut.server_calls", "count", static_cast<double>(server.calls)},
      {"dut.sink_calls", "count", static_cast<double>(sink.calls)},
  };
  r.layers.insert(r.layers.end(), counts.begin(), counts.end());
  // Hook times of a layer with no work on this workload read 0; they
  // are printed and kept in the results file but left out of the JSON
  // line, whose metric set is the same on every workload.
  double epochs = 0.0;
  for (const Metric& m : counts) {
    if (m.name == "sim.shard.epochs") epochs = m.value;
  }
  r.hook_times = {
      {"rmt.wire_ingress_s", "s", hook_s("rmt/wire_ingress")},
      {"rmt.wire_ingress_ns_per_pkt", "ns", wire.ns_per_call()},
      {"dut.server_s", "s", hook_s("dut/server")},
      {"dut.server_ns_per_pkt", "ns", server.ns_per_call()},
      {"dut.sink_s", "s", hook_s("dut/sink")},
      {"sim.shard.host_us_per_epoch", "us", epochs > 0 ? window_traced * 1e6 / epochs : 0.0},
  };
  print_metrics("per-layer (traced reps):", r.layers);
  print_metrics("per-layer hook times (0 where the layer has no work):", r.hook_times);
  return r;
}

int run(const Args& args) {
  const HostInfo host = host_info(args.source_id);
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("host: hardware_concurrency=%u cpu_affinity=%s compiler=\"%s\" build_type=%s "
              "source=%s\n",
              host.hardware_concurrency, host.cpu_affinity.c_str(), host.compiler.c_str(),
              host.build_type.c_str(), host.source_id.c_str());

  Tracer tracer(true);
  Tracer untraced(false);
  const std::uint64_t pin = pinned_digest(args.workload);
  // Rep 0 warms the allocator and is only checked, not measured. Then at
  // least 3 untraced reps (a median of set-up times) and, when tracing,
  // 2 traced ones alternating with them; reps continue until the budget
  // is spent.
  std::vector<Rep> reps;
  std::size_t plain = 0, traced = 0;
  const Clock::time_point start = Clock::now();
  while (reps.size() < 1 || plain < 3 || (args.trace && traced < 2) ||
         seconds_between(start, Clock::now()) < args.seconds) {
    const bool trace_this = args.trace && !reps.empty() && (plain > traced);
    Rep rep = run_rep(args, trace_this ? tracer : untraced);
    if (rep.failure.empty() && !reps.empty() && rep.digest != reps.front().digest) {
      rep.failure = "digest differs from the first rep of this run";
    }
    if (rep.failure.empty() && args.seed == kDefaultSeed && rep.digest != pin) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "digest %016" PRIx64 " != pinned %016" PRIx64, rep.digest,
                    pin);
      rep.failure = buf;
    }
    std::printf("rep %2zu %-8s setup %.4fs window %.4fs egress %" PRIu64 " ops %" PRIu64
                " cpu %.3fs invol_csw %" PRId64 " digest %016" PRIx64 " %s\n",
                reps.size(), reps.empty() ? "warmup" : (rep.traced ? "traced" : "untraced"),
                rep.setup_s.back(), rep.window_s, rep.egress_pkts, rep.ops, rep.cpu_s,
                rep.invol_csw, rep.digest, rep.failure.empty() ? "ok" : ("FAILED: " + rep.failure).c_str());
    if (!reps.empty()) (rep.traced ? traced : plain) += 1;
    reps.push_back(std::move(rep));
  }
  const double elapsed = seconds_between(start, Clock::now());

  std::vector<double> setup;  // the fastest set-up of each rep
  double window_total = 0.0;
  std::size_t plain_reps = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    if (!r.failure.empty()) ++failed;
    if (i == 0 || r.traced) continue;  // warm-up and traced reps are not measured
    setup.push_back(*std::min_element(r.setup_s.begin(), r.setup_s.end()));
    window_total += r.window_s;
    ++plain_reps;
  }
  // Every rep simulates the same thing (the digest check says so), so a
  // rep's packets and outcomes are the warm-up's.
  const auto egress = static_cast<double>(reps.front().egress_pkts);
  const auto ops = static_cast<double>(reps.front().ops);
  const std::vector<double> fastest = fastest_slices(reps, false);
  const double window_fast = std::accumulate(fastest.begin(), fastest.end(), 0.0);
  const std::unique_ptr<Workload> shape = make_workload(args.workload);
  const double slice_sim_s = static_cast<double>(shape->slice_ns()) / 1e9;
  std::vector<double> slowdown;
  for (const double t : fastest) slowdown.push_back(t / slice_sim_s);
  std::sort(slowdown.begin(), slowdown.end());

  const std::vector<Metric> e2e = {
      {"setup_s", "s", median(setup)},
      {"pkts_per_s", "1/s", egress / window_fast},
      {"ops_per_s", "1/s", ops / window_fast},
      {"slowdown_p50", "s/s", percentile(slowdown, 0.50)},
      {"slowdown_p90", "s/s", percentile(slowdown, 0.90)},
      {"peak_rss_mb", "MiB", usage_now().max_rss_mib},
  };
  std::printf("untraced reps %zu, set-ups per rep %zu, slices per rep %zu, elapsed %.2fs\n",
              plain_reps, reps.back().setup_s.size(), fastest.size(), elapsed);
  print_metrics("end-to-end (host time; each slice at its fastest over the untraced reps):", e2e);
  std::printf("  %-32s %16.6g 1/s (= ops_per_s on this workload)\n", shape->ops_name(),
              ops / window_fast);
  std::printf("  %-32s %16.6g 1/s (pooled over the untraced reps, contention included)\n",
              "pkts_per_s_pooled", egress * static_cast<double>(plain_reps) / window_total);

  LayerReport layers;
  if (args.trace) {
    const std::vector<double> fastest_traced = fastest_slices(reps, true);
    layers = layer_report(reps, tracer, window_fast,
                          std::accumulate(fastest_traced.begin(), fastest_traced.end(), 0.0));
  }

  std::filesystem::create_directories(args.out_dir);
  const std::string stem =
      args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed);
  if (args.trace) {
    if (!tracer.write_chrome(stem + ".trace.json")) {
      std::fprintf(stderr, "ht_perfbench: cannot write %s.trace.json\n", stem.c_str());
      return 1;
    }
    std::printf("chrome trace: %s.trace.json\n", stem.c_str());
  }
  std::vector<Metric> all_layers = layers.layers;
  all_layers.insert(all_layers.end(), layers.hook_times.begin(), layers.hook_times.end());
  const std::string path = stem + "-trace" + (args.trace ? "1" : "0") + ".json";
  if (!write_file(path, results_json(args, host, reps, e2e, all_layers, layers.self_total))) {
    std::fprintf(stderr, "ht_perfbench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("results: %s\n", path.c_str());

  std::printf("attempted %zu failed %" PRIu64 "\n", reps.size(), failed);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", reps.size(), failed,
              metrics_json(args.trace ? layers.layers : e2e).c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ht_perfbench: %s\n", e.what());
    return 1;
  }
}
