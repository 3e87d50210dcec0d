#include "trace.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <functional>
#include <memory>

namespace perfbench {

void HookStats::add(std::uint64_t ns) {
  ++calls;
  total_ns += ns;
  const std::size_t b = ns == 0 ? 0 : static_cast<std::size_t>(std::bit_width(ns) - 1);
  ++log2_ns[std::min(b, log2_ns.size() - 1)];
}

std::uint64_t HookStats::quantile_ns(double q) const {
  if (calls == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(calls - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < log2_ns.size(); ++b) {
    seen += log2_ns[b];
    if (seen > rank) return std::uint64_t{2} << b;
  }
  return std::uint64_t{2} << (log2_ns.size() - 1);
}

void time_receive(ht::sim::Port& port, HookStats& acc) {
  port.on_receive = [inner = std::move(port.on_receive), &acc](ht::net::PacketPtr pkt) {
    const Clock::time_point t = Clock::now();
    inner(std::move(pkt));
    acc.add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t).count()));
  };
}

int Tracer::begin(std::string name, std::string layer) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = seconds_between(t0_, Clock::now());
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_.at(static_cast<std::size_t>(id)).end_s = seconds_between(t0_, Clock::now());
  // Spans close innermost first; tolerate an out-of-order close by
  // dropping everything opened after `id`.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void Tracer::charge(int span, std::string layer, double seconds, bool overlapped) {
  if (span < 0) return;
  charges_.push_back({span, std::move(layer), seconds, overlapped});
}

namespace {

bool under(const std::vector<Tracer::Span>& spans, int id, int root) {
  for (int s = id; s >= 0; s = spans[static_cast<std::size_t>(s)].parent) {
    if (s == root) return true;
  }
  return false;
}

std::string key_of(const Tracer::Span& s) { return s.layer + "/" + s.name; }

}  // namespace

std::map<std::string, double> Tracer::self_times(int root) const {
  std::map<std::string, double> out;
  if (root < 0) return out;
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!under(spans_, static_cast<int>(i), root)) continue;
    self[i] += spans_[i].end_s - spans_[i].start_s;
    if (static_cast<int>(i) != root && spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -= spans_[i].end_s - spans_[i].start_s;
    }
  }
  for (const Charge& c : charges_) {
    if (c.overlapped || !under(spans_, c.span, root)) continue;
    self[static_cast<std::size_t>(c.span)] -= c.seconds;
    out[c.layer] += c.seconds;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (under(spans_, static_cast<int>(i), root)) out[key_of(spans_[i])] += self[i];
  }
  return out;
}

std::map<std::string, double> Tracer::overlapped(int root) const {
  std::map<std::string, double> out;
  for (const Charge& c : charges_) {
    if (c.overlapped && under(spans_, c.span, root)) out[c.layer] += c.seconds;
  }
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

}  // namespace

bool Tracer::write_chrome(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::fprintf(f.get(), "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f.get(),
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d",
                 first ? "" : ",\n", json_escape(s.name).c_str(), json_escape(s.layer).c_str(),
                 s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, i, s.parent);
    for (const Charge& c : charges_) {
      if (c.span == static_cast<int>(i)) {
        std::fprintf(f.get(), ",\"%s%s_s\":%.9f", json_escape(c.layer).c_str(),
                     c.overlapped ? ".overlapped" : "", c.seconds);
      }
    }
    std::fprintf(f.get(), "}}");
    first = false;
  }
  std::fprintf(f.get(), "\n]}\n");
  return std::ferror(f.get()) == 0;
}

}  // namespace perfbench
