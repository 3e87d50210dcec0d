#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "apps/tasks.hpp"
#include "core/cluster.hpp"
#include "dut/capture.hpp"
#include "dut/stateful/workload_server.hpp"
#include "ntapi/compiler.hpp"

namespace perfbench {

namespace {

using ht::sim::TimeNs;

/// Propagation delay of every link the benchmark wires.
constexpr TimeNs kLinkPropagationNs = 500;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Independent input streams derived from the run seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return splitmix64(seed ^ splitmix64(stream));
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Sum of every registry counter named `base`, over all label sets.
std::uint64_t sum_counter(const ht::telemetry::MetricsRegistry& m, const std::string& base,
                          const std::string& label_filter = {}) {
  std::uint64_t total = 0;
  m.for_each([&](const ht::telemetry::MetricsRegistry::Entry& e) {
    if (e.kind != ht::telemetry::MetricsRegistry::Kind::kCounter || e.name != base) return;
    if (!label_filter.empty() && e.full_name.find(label_filter) == std::string::npos) return;
    total += e.counter_value();
  });
  return total;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

void Workload::add_link(std::string name, ht::sim::Port& a, ht::sim::Port& b, TimeNs prop) {
  links_.push_back({name + ".fwd", &a, &b, prop});
  links_.push_back({name + ".rev", &b, &a, prop});
}

void Workload::hook(ht::sim::Port& port, const std::string& key) {
  time_receive(port, hooks_[key]);
}

std::uint64_t Workload::egress_packets() const {
  std::uint64_t n = 0;
  for (ht::HyperTester* t : testers_) n += t->asic().egress_packets();
  return n;
}

std::string Workload::check_conservation() const {
  for (const Link& l : links_) {
    const std::uint64_t tx = l.tx->tx_packets();
    const std::uint64_t in_flight = l.tx->tx_queue_depth();
    const std::uint64_t rx_drops = l.rx->dropped_admin_down() + l.rx->rx_fcs_drops();
    // One link delay's worth: the link delay of the newest frame is its
    // wait in the MAC queue (busy_until - now) plus propagation; at most
    // one minimum-size frame per serialization time fits in it, plus the
    // frame on the line.
    const double min_ser = ht::sim::serialization_ns(64 + ht::net::Packet::kWireOverhead,
                                                     l.tx->rate_gbps());
    const double queued_ns =
        std::max(0.0, l.tx->busy_until() - static_cast<double>(l.tx->ev().now()));
    const auto max_in_flight = static_cast<std::uint64_t>(
        std::floor((queued_ns + static_cast<double>(l.propagation_ns)) / min_ser) + 2);
    if (tx != l.rx->rx_packets() + rx_drops + in_flight || in_flight > max_in_flight) {
      return l.name + ": tx " + std::to_string(tx) + " vs rx " +
             std::to_string(l.rx->rx_packets()) + " + rx drops " + std::to_string(rx_drops) +
             " + in flight " + std::to_string(in_flight) + " (max " +
             std::to_string(max_in_flight) + "; queue-full drops " +
             std::to_string(l.tx->dropped_queue_full()) + ")";
    }
  }
  return {};
}

std::vector<Metric> Workload::layer_counts() const {
  double ingress = 0, egress = 0, recirc = 0, replicas = 0, drops = 0, fused = 0;
  double evaluated = 0, matched = 0, fifo_overflows = 0, fallback_tasks = 0;
  for (ht::HyperTester* tester : testers_) {
    const ht::rmt::SwitchAsic& asic = tester->asic();
    ingress += static_cast<double>(asic.ingress_packets());
    egress += static_cast<double>(asic.egress_packets());
    recirc += static_cast<double>(asic.recirculations());
    replicas += static_cast<double>(asic.replicas_created());
    drops += static_cast<double>(asic.dropped_packets());
    const auto& m = tester->metrics();
    fused += static_cast<double>(sum_counter(m, "ht_fastpath_fused_pkts_total"));
    evaluated += static_cast<double>(sum_counter(m, "ht_htpr_query_evaluated_total"));
    matched += static_cast<double>(sum_counter(m, "ht_htpr_query_matched_total"));
    fifo_overflows += static_cast<double>(sum_counter(m, "ht_regfifo_overflows_total"));
    fallback_tasks += static_cast<double>(sum_counter(m, "ht_fastpath_fallback_tasks_total"));
  }
  double events = 0, max_events = 0;
  for (std::size_t s = 0; s < group_->size(); ++s) {
    const auto e = static_cast<double>(group_->shard(s).ev().executed());
    events += e;
    max_events = std::max(max_events, e);
  }
  const auto slab = group_->aggregate_slab_stats();
  const auto pool = group_->aggregate_pool_stats();
  const auto sync = group_->sync_stats();

  const ht::dut::stateful::TcbStats tcb =
      server_ != nullptr ? server_->tcb().stats() : ht::dut::stateful::TcbStats{};
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"sim.events", "count", events},
      {"sim.events_per_pkt", "ratio", ratio(events, ingress)},
      {"sim.slab_misses", "count", n(slab.misses)},
      {"sim.heap_closures", "count", n(slab.heap_closures)},
      {"sim.pool_hit_rate", "ratio", ratio(n(pool.hits), n(pool.hits + pool.misses))},
      {"sim.shard.epochs", "count", n(sync.epochs)},
      {"sim.shard.handoffs", "count", n(sync.handoffs)},
      {"sim.shard.steal_ratio", "ratio", ratio(n(sync.handoffs_stolen), n(sync.handoffs))},
      {"sim.shard.backpressure", "count", n(sync.backpressure)},
      {"sim.shard.event_imbalance", "ratio",
       ratio(max_events, events / static_cast<double>(group_->size()))},
      {"rmt.ingress_pkts", "count", ingress},
      {"rmt.egress_pkts", "count", egress},
      {"rmt.recirculations", "count", recirc},
      {"rmt.replicas", "count", replicas},
      {"rmt.pipeline_drops", "count", drops},
      {"rmt.fused_share", "ratio", ratio(fused, ingress + egress)},
      {"rmt.fallback_tasks", "count", fallback_tasks},
      {"htpr.evaluated", "count", evaluated},
      {"htpr.matched", "count", matched},
      {"htpr.match_ratio", "ratio", ratio(matched, evaluated)},
      {"stateless.fifo_overflows", "count", fifo_overflows},
      {"dut.tcb_inserted", "count", n(tcb.inserted)},
      {"dut.tcb_high_water", "count", n(tcb.high_water)},
      {"dut.tcb_backlog_drops", "count", n(tcb.backlog_drops)},
  };
}

namespace {

// ---------------------------------------------------------------------------
// fig9_fused_64b: the paper's headline (Fig. 9). One tester replicates a
// 64B template at 100G line rate on the fused fast path into a count-only
// sink. Recirculation, TM/multicast and egress do nearly all the work.
class Fig9Fused final : public Workload {
 public:
  void build(std::uint64_t seed, Tracer& tracer, bool hooks) override {
    ht::TesterConfig cfg;
    cfg.asic.num_ports = 2;
    cfg.asic.port_rate_gbps = 100.0;
    cfg.asic.seed = derive(seed, 1);
    cfg.seed = derive(seed, 2);
    {
      Tracer::Scope s(tracer, "construct", "core");
      tester_ = std::make_unique<ht::HyperTester>(cfg);
    }
    {
      Tracer::Scope s(tracer, "construct", "dut");
      sink_ = std::make_unique<ht::dut::Capture>(tester_->events(), 1000, 100.0);
      sink_->set_count_only(true);
      sink_->attach(tester_->asic().port(1), kLinkPropagationNs);
    }
    const std::uint64_t addr = derive(seed, 3);
    app_ = ht::apps::throughput_test(0x02000000U | static_cast<std::uint32_t>(addr & 0xFFFFFF),
                                     0x01000000U | static_cast<std::uint32_t>((addr >> 24) & 0xFFFFFF),
                                     {1}, 64, 0);
    if (tracer.enabled()) {
      Tracer::Scope s(tracer, "compile", "ntapi");
      (void)ht::ntapi::Compiler(cfg.asic).compile(app_->task);
    }
    {
      Tracer::Scope s(tracer, "load", "core");
      tester_->load(app_->task);
    }
    {
      Tracer::Scope s(tracer, "start", "core");
      tester_->start();
    }
    testers_ = {tester_.get()};
    group_ = &tester_->shard_group();
    add_link("tester.p1<->sink", tester_->asic().port(1), sink_->port(), kLinkPropagationNs);
    if (hooks) {
      for (std::uint16_t p = 0; p < 2; ++p) hook(tester_->asic().port(p), "rmt/wire_ingress");
      hook(sink_->port(), "dut/sink");
    }
  }
  void run_for(TimeNs ns) override { tester_->run_for(ns); }
  // The 2 ms window of bench/fig9_throughput_single_port. Short reps also
  // give each slice position many samples for its fastest time.
  TimeNs window_ns() const override { return ht::sim::ms(2); }
  TimeNs slice_ns() const override { return ht::sim::us(20); }
  const char* ops_name() const override { return "delivered_pkts_per_s"; }
  std::uint64_t ops() override { return sink_->counted(); }
  std::uint64_t digest() override {
    return fnv1a(fnv1a(0xcbf29ce484222325ULL, tester_->state_digest()), sink_->counted());
  }
  std::string check_shape() override {
    // 64B frames at 100G leave every 6.72 ns: the run must hold line rate.
    const double gbps = tester_->asic().port(1).tx_line_rate_gbps();
    if (gbps < 99.0) return "port 1 sent at " + std::to_string(gbps) + " Gbps, below line rate";
    if (sink_->counted() == 0) return "sink received nothing";
    return {};
  }

 private:
  std::unique_ptr<ht::HyperTester> tester_;
  std::unique_ptr<ht::dut::Capture> sink_;
  std::optional<ht::apps::ThroughputTest> app_;
};

// ---------------------------------------------------------------------------
// l7_rps_pool: HTTP requests over a 16,384-connection pool against the
// stateful server on a clean link. TCB reads over ~1 MiB (fits in L2),
// front-panel ingress, HTPR classification and latency, HTTP parsing.
class L7RpsPool final : public Workload {
 public:
  void build(std::uint64_t seed, Tracer& tracer, bool hooks) override {
    ht::TesterConfig cfg;
    cfg.asic.num_ports = 2;
    cfg.asic.port_rate_gbps = 100.0;
    cfg.asic.num_recirc_channels = 3;  // t_syn, t_ack, t_req
    cfg.asic.seed = derive(seed, 1);
    cfg.seed = derive(seed, 2);
    {
      Tracer::Scope s(tracer, "construct", "core");
      tester_ = std::make_unique<ht::HyperTester>(cfg);
    }
    {
      Tracer::Scope s(tracer, "construct", "dut");
      ht::dut::stateful::WorkloadConfig wcfg;
      wcfg.num_ports = 1;
      wcfg.server_error_every = 5;  // every 5th request on a connection: 503
      wcfg.not_found_every = 3;     // every 3rd: 404
      wcfg.tcb.seed = derive(seed, 4);
      server_obj_ = std::make_unique<ht::dut::stateful::WorkloadServer>(tester_->events(), wcfg);
      server_obj_->attach(0, tester_->asic().port(1), kLinkPropagationNs);
      server_obj_->start();
    }
    const auto client_base =
        0x0B000000U | (static_cast<std::uint32_t>(derive(seed, 3) & 0xFF) << 16);
    app_ = ht::apps::http_rps(0x0C0C0C0C, 80, client_base, 16'384, {1},
                              /*request_interval_ns=*/100, /*open_interval_ns=*/200);
    if (tracer.enabled()) {
      Tracer::Scope s(tracer, "compile", "ntapi");
      (void)ht::ntapi::Compiler(cfg.asic).compile(app_->task);
    }
    {
      Tracer::Scope s(tracer, "load", "core");
      tester_->load(app_->task);
    }
    {
      Tracer::Scope s(tracer, "start", "core");
      tester_->start();
    }
    testers_ = {tester_.get()};
    group_ = &tester_->shard_group();
    server_ = server_obj_.get();
    add_link("tester.p1<->server.p0", tester_->asic().port(1), server_obj_->port(0),
             kLinkPropagationNs);
    if (hooks) {
      for (std::uint16_t p = 0; p < 2; ++p) hook(tester_->asic().port(p), "rmt/wire_ingress");
      hook(server_obj_->port(0), "dut/server");
    }
  }
  void run_for(TimeNs ns) override { tester_->run_for(ns); }
  TimeNs window_ns() const override { return ht::sim::ms(12); }
  TimeNs slice_ns() const override { return ht::sim::us(100); }
  const char* ops_name() const override { return "responses_per_s"; }
  std::uint64_t ops() override { return tester_->query_matched(app_->q_resp); }
  std::uint64_t digest() override {
    return fnv1a(fnv1a(0xcbf29ce484222325ULL, tester_->state_digest()),
                 server_obj_->fingerprint());
  }
  std::string check_shape() override {
    const auto& m = tester_->metrics();
    for (const char* cls : {"2xx", "4xx", "5xx"}) {
      if (sum_counter(m, "ht_htpr_response_class_total",
                      std::string("class=\"") + cls + "\"") == 0) {
        return std::string("no ") + cls + " responses classified";
      }
    }
    if (server_obj_->handshakes_completed() != 16'384) {
      return "pool opened " + std::to_string(server_obj_->handshakes_completed()) +
             " of 16384 connections";
    }
    return {};
  }

 private:
  std::unique_ptr<ht::HyperTester> tester_;
  std::unique_ptr<ht::dut::stateful::WorkloadServer> server_obj_;
  std::optional<ht::apps::HttpRps> app_;
};

// ---------------------------------------------------------------------------
// l7_cps_linked: HTTP connection setup at up to 40M SYN/s with the tester
// on shard 0 and the server on shard 1, joined by four 100G links. TCB
// inserts over a >= 16 MiB live working set; the only workload on the
// lookahead barrier and the link mailboxes.
class L7CpsLinked final : public Workload {
 public:
  static constexpr std::uint32_t kClientsPerPort = 65'536;

  void build(std::uint64_t seed, Tracer& tracer, bool hooks) override {
    ht::TesterConfig cfg;
    cfg.asic.num_ports = 5;
    cfg.asic.port_rate_gbps = 100.0;
    // One recirculation channel per template: four SYN sweeps plus the
    // FIFO-triggered ACK template.
    cfg.asic.num_recirc_channels = 5;
    cfg.asic.seed = derive(seed, 1);
    {
      Tracer::Scope s(tracer, "construct", "core");
      cluster_ = std::make_unique<ht::TesterCluster>(
          ht::ClusterConfig{.shards = 2, .seed = derive(seed, 2)});
      tester_ = &cluster_->add_tester(cfg, 0);
    }
    {
      Tracer::Scope s(tracer, "construct", "dut");
      ht::dut::stateful::WorkloadConfig wcfg;
      wcfg.num_ports = 4;
      wcfg.tcb.listen_backlog = std::size_t{1} << 21;  // a CPS test, not a flood test
      wcfg.tcb.seed = derive(seed, 4);
      server_obj_ = std::make_unique<ht::dut::stateful::WorkloadServer>(
          cluster_->shards().shard(1).ev(), wcfg);
      for (std::size_t i = 0; i < 4; ++i) {
        cluster_->shards().connect(tester_->asic().port(static_cast<std::uint16_t>(1 + i)), 0,
                                   server_obj_->port(i), 1, kLinkPropagationNs);
      }
      server_obj_->start();
    }
    const auto client_base =
        0x0A000000U | (static_cast<std::uint32_t>(derive(seed, 3) & 0x0F) << 20);
    // Per-port SYN ramp 2.5M -> 5M -> 10M/s (40M/s aggregate at the top).
    app_ = ht::apps::http_cps(0x0C0C0C0C, 80, client_base, kClientsPerPort, {1, 2, 3, 4},
                              {{500'000, 400}, {500'000, 200}, {0, 100}});
    if (tracer.enabled()) {
      Tracer::Scope s(tracer, "compile", "ntapi");
      (void)ht::ntapi::Compiler(cfg.asic).compile(app_->task);
    }
    {
      Tracer::Scope s(tracer, "load", "core");
      tester_->load(app_->task);
    }
    {
      Tracer::Scope s(tracer, "start", "core");
      tester_->start();
    }
    testers_ = {tester_};
    group_ = &cluster_->shards();
    server_ = server_obj_.get();
    for (std::size_t i = 0; i < 4; ++i) {
      add_link("tester.p" + std::to_string(1 + i) + "<->server.p" + std::to_string(i),
               tester_->asic().port(static_cast<std::uint16_t>(1 + i)), server_obj_->port(i),
               kLinkPropagationNs);
    }
    if (hooks) {
      for (std::uint16_t p = 0; p < 5; ++p) hook(tester_->asic().port(p), "rmt/wire_ingress");
      for (std::size_t i = 0; i < 4; ++i) hook(server_obj_->port(i), "dut/server");
    }
  }
  void run_for(TimeNs ns) override { cluster_->run_for(ns); }
  TimeNs window_ns() const override { return ht::sim::ms(9); }
  TimeNs slice_ns() const override { return ht::sim::us(75); }
  const char* ops_name() const override { return "handshakes_per_s"; }
  std::uint64_t ops() override { return server_obj_->handshakes_completed(); }
  std::uint64_t digest() override {
    return fnv1a(fnv1a(0xcbf29ce484222325ULL, tester_->state_digest()),
                 server_obj_->fingerprint());
  }
  std::string check_shape() override {
    const std::uint64_t clients = 4ULL * kClientsPerPort;
    if (server_obj_->handshakes_completed() != clients) {
      return std::to_string(server_obj_->handshakes_completed()) + " of " +
             std::to_string(clients) + " clients completed the handshake";
    }
    if (server_obj_->tcb().stats().high_water < clients) return "TCB high water below client count";
    return {};
  }

 private:
  std::unique_ptr<ht::TesterCluster> cluster_;
  ht::HyperTester* tester_ = nullptr;
  std::unique_ptr<ht::dut::stateful::WorkloadServer> server_obj_;
  std::optional<ht::apps::HttpCps> app_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"fig9_fused_64b", "l7_rps_pool", "l7_cps_linked"};
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "fig9_fused_64b") return std::make_unique<Fig9Fused>();
  if (name == "l7_rps_pool") return std::make_unique<L7RpsPool>();
  if (name == "l7_cps_linked") return std::make_unique<L7CpsLinked>();
  return nullptr;
}

std::uint64_t pinned_digest(const std::string& name) {
  static const std::map<std::string, std::uint64_t> pins = {
      {"fig9_fused_64b", 0x43baf1596e1fdeb9ULL},
      {"l7_rps_pool", 0x6fa15a50ce9717a0ULL},
      {"l7_cps_linked", 0xe49c742534308ceaULL},
  };
  const auto it = pins.find(name);
  return it == pins.end() ? 0 : it->second;
}

}  // namespace perfbench
