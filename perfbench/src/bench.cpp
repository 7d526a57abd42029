#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>

#include "common/trace_export.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace prof = fastpso::vgpu::prof;

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

void busy_wait(double seconds) {
  const double until = now_s() + seconds;
  while (now_s() < until) {
  }
}

// --- statistics ------------------------------------------------------------

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double iqr_share(const std::vector<double>& v) {
  const double m = median(v);
  return m > 0 ? (percentile(v, 75) - percentile(v, 25)) / m : 0.0;
}

double tail_rank(std::size_t samples) {
  for (const double q : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(samples) * (1.0 - q / 100.0) >= 10.0) {
      return q;
    }
  }
  return 0.0;
}

// --- self-check ------------------------------------------------------------

void SelfCheck::add(const std::string& name, double value) {
  if (inject_ != Inject::kNone) {
    (on_ ? delayed_ : plain_)[name].push_back(value);
  }
}

void SelfCheck::report(Report& report) const {
  for (const auto& [name, plain] : plain_) {
    const auto it = delayed_.find(name);
    if (it == delayed_.end()) {
      continue;
    }
    std::ostringstream s;
    s.precision(17);
    s << "selfcheck " << name << " plain=" << median(plain)
      << " delayed=" << median(it->second) << " rounds=" << plain.size()
      << "/" << it->second.size();
    report.line(s.str());
  }
}

// --- report ----------------------------------------------------------------

namespace {

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_metrics(const auto& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", " : "");
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

}  // namespace

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  e2e_.push_back({name, value, unit});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_.push_back({name, value, unit});
}

void Report::info(const std::string& name, double value,
                  const std::string& unit) {
  info_.push_back({name, value, unit});
}

void Report::line(const std::string& text) {
  lines_.push_back(text);
  std::cout << text << "\n";
}

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    line("FAILED op: " + what);
  }
}

void Report::fail(const std::string& what) {
  ++failed_;
  line("FAILED op: " + what);
}

int Report::finish() const {
  const std::string& w = options_.workload;
  for (const Metric& m : e2e_) {
    std::cout << "metric " << w << " " << m.name << " = " << fmt(m.value)
              << " " << m.unit << "\n";
  }
  for (const Metric& m : info_) {
    std::cout << "metric " << w << " " << m.name << " = " << fmt(m.value)
              << " " << m.unit << "\n";
  }
  for (const Metric& m : layer_) {
    std::cout << "layer " << w << " " << m.name << " = " << fmt(m.value)
              << " " << m.unit << "\n";
  }
  std::cout << "metric " << w << " ops_attempted = " << attempted_
            << " count\nmetric " << w << " ops_failed = " << failed_
            << " count\n";
  if (attempted_ == 0) {
    std::cerr << "perfbench: no op was attempted\n";
    return 1;
  }
  std::cout << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": "
            << failed_ << ", \"metrics\": "
            << json_metrics(options_.trace ? layer_ : e2e_) << "}"
            << std::endl;
  return 0;
}

bool Report::write_layers_file(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"workload\": \"" << options_.workload
      << "\", \"seed\": " << options_.seed
      << ", \"per_layer\": " << json_metrics(layer_)
      << ", \"workload_metrics\": " << json_metrics(info_)
      << ", \"lines\": [";
  for (std::size_t i = 0; i < lines_.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << fastpso::json_escape(lines_[i])
        << "\"";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// --- tracing ---------------------------------------------------------------

void set_traced(Tracer& tracer, bool on) {
  tracer.set_enabled(on);
  prof::set_enabled(on);
}

int Tracer::open(const std::string& name, int job) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.begin = now_s();
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.job = job;
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void Tracer::close(int span) {
  if (span < 0) {
    return;
  }
  spans_[static_cast<std::size_t>(span)].end = now_s();
  // Spans close innermost-first; tolerate a caller closing an outer span
  // early by unwinding to it.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == span) {
      break;
    }
  }
}

void Tracer::add_nested(int parent, const std::string& name,
                        double seconds) {
  if (parent < 0) {
    return;
  }
  const Span& p = spans_[static_cast<std::size_t>(parent)];
  Span span;
  span.name = name;
  span.begin = p.begin;
  span.end = p.begin + seconds;
  span.parent = parent;
  span.job = p.job;
  span.kind = Kind::kNested;
  spans_.push_back(std::move(span));
}

void Tracer::record(const std::string& name, double begin, double end,
                    int job) {
  if (!enabled_) {
    return;
  }
  Span span;
  span.name = name;
  span.begin = begin;
  span.end = end;
  span.job = job;
  span.kind = Kind::kAsync;
  spans_.push_back(std::move(span));
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(s.end - s.begin);
    }
  }
  return out;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end - s.begin;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.kind == Kind::kAsync) {
      continue;
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += std::max(0.0, (s.end - s.begin) - child[i]);
  }
  return self;
}

double Tracer::root_seconds() const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0 && s.kind == Kind::kSync) {
      total += s.end - s.begin;
    }
  }
  return total;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::vector<fastpso::TraceEvent> events;
  events.reserve(spans_.size());
  const double origin = spans_.empty() ? 0.0 : spans_.front().begin;
  for (const Span& s : spans_) {
    fastpso::TraceEvent e;
    e.name = s.name;
    e.cat = s.name.substr(0, s.name.find('.'));
    e.ts_us = (s.begin - origin) * 1e6;
    e.dur_us = (s.end - s.begin) * 1e6;
    // Served jobs overlap in time: give them their own lanes.
    e.tid = s.kind == Kind::kAsync ? 1 + s.job % 32 : 0;
    e.args.emplace_back("parent", std::to_string(s.parent));
    e.args.emplace_back("job", std::to_string(s.job));
    if (s.kind == Kind::kNested) {
      e.args.emplace_back("nested", "true");
    }
    events.push_back(std::move(e));
  }
  return fastpso::write_chrome_trace(path, events);
}

// --- checks and digests ----------------------------------------------------

namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ c[i]) * 0x100000001b3ull;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
};

std::string hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_floats(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

}  // namespace

std::uint64_t result_digest(const Result& result) {
  Fnv f;
  f.value(result.gbest_value);
  f.bytes(result.gbest_position.data(),
          result.gbest_position.size() * sizeof(float));
  f.bytes(result.gbest_history.data(),
          result.gbest_history.size() * sizeof(float));
  f.value(result.iterations);
  f.value(result.modeled_seconds);
  return f.h;
}

std::string check_solo(const Result& result,
                       const fastpso::problems::Problem& problem, int dim) {
  if (static_cast<int>(result.gbest_position.size()) != dim) {
    return "gbest_position has the wrong size";
  }
  const auto reeval =
      static_cast<float>(problem.eval_f32(result.gbest_position.data(), dim));
  if (!std::isfinite(result.gbest_value) ||
      reeval != static_cast<float>(result.gbest_value)) {
    return "objective at gbest_position " + fmt(reeval) +
           " != gbest_value " + fmt(result.gbest_value);
  }
  const auto& h = result.gbest_history;
  if (static_cast<int>(h.size()) != result.iterations || h.empty()) {
    return "gbest_history length != iterations";
  }
  for (std::size_t i = 1; i < h.size(); ++i) {
    if (h[i] > h[i - 1]) {
      return "gbest_history increases at iteration " + std::to_string(i);
    }
  }
  if (h.back() != static_cast<float>(result.gbest_value)) {
    return "last gbest_history entry != gbest_value";
  }
  return "";
}

std::string compare_bitwise(const Result& a, const Result& b) {
  if (!same_bits(a.gbest_value, b.gbest_value)) {
    return "gbest_value differs";
  }
  if (!same_floats(a.gbest_position, b.gbest_position)) {
    return "gbest_position differs";
  }
  if (!same_floats(a.gbest_history, b.gbest_history)) {
    return "gbest_history differs";
  }
  if (a.iterations != b.iterations) {
    return "iterations differ";
  }
  if (!same_bits(a.modeled_seconds, b.modeled_seconds)) {
    return "modeled_seconds differs";
  }
  const auto& x = a.counters;
  const auto& y = b.counters;
  if (x.launches != y.launches || x.transfers != y.transfers ||
      x.allocs != y.allocs || !same_bits(x.flops, y.flops) ||
      !same_bits(x.dram_read_fetched, y.dram_read_fetched) ||
      !same_bits(x.kernel_seconds, y.kernel_seconds)) {
    return "device counters differ";
  }
  return "";
}

Digests::Digests(const Options& options, Report& report)
    : options_(options), report_(report) {
  if (options_.digests.empty() || options_.seed != kDefaultSeed) {
    return;
  }
  std::ifstream in(options_.digests);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string workload, name, digest;
    if (line.rfind('#', 0) != 0 && fields >> workload >> name >> digest &&
        workload == options_.workload) {
      recorded_[name] = digest;
    }
  }
}

bool Digests::check(const std::string& name, const Result& result) {
  if (options_.seed != kDefaultSeed) {
    return true;
  }
  const std::string digest = hex(result_digest(result));
  report_.line("digest " + options_.workload + " " + name + " " + digest);
  const auto it = recorded_.find(name);
  if (it != recorded_.end() && it->second != digest) {
    report_.line("digest mismatch for " + name + ": recorded " + it->second);
    return false;
  }
  return true;
}

// --- layer accounting ------------------------------------------------------

void LayerTotals::add_counters(const fastpso::vgpu::DeviceCounters& c) {
  launches += static_cast<double>(c.launches);
  transfers += static_cast<double>(c.transfers);
  allocs += static_cast<double>(c.allocs);
  bytes_fetched += c.dram_read_fetched + c.dram_write_fetched;
  flops += c.flops;
}

void LayerTotals::add_profile(const prof::Profile& profile) {
  body_s += profile.kernel_wall_seconds();
  for (const prof::KernelRow& row : profile.kernels_by_label()) {
    auto [it, inserted] = kernels.emplace(row.label, prof::KernelRow{});
    if (inserted) {
      it->second.label = row.label;
      label_order.push_back(row.label);
    }
    it->second.launches += row.launches;
    it->second.modeled_seconds += row.modeled_seconds;
    it->second.wall_seconds += row.wall_seconds;
  }
}

void report_layers(Report& report, const LayerTotals& t,
                   double model_ns_per_launch, double eval_ns_per_elem,
                   double overhead_ratio, const std::string& workload) {
  const double r = std::max(1, t.rounds);
  for (const char* phase : {"init", "eval", "pbest", "gbest", "swarm"}) {
    const auto it = t.phase_wall.find(phase);
    report.layer(std::string("core.phase_") + phase + "_s",
                 (it == t.phase_wall.end() ? 0.0 : it->second) / r, "s");
  }
  report.layer("vgpu.launches", t.launches / r, "count");
  report.layer("vgpu.transfers", t.transfers / r, "count");
  report.layer("vgpu.allocs", t.allocs / r, "count");
  report.layer("vgpu.bytes_fetched", t.bytes_fetched / r, "B_computed");
  report.layer("vgpu.flops", t.flops / r, "flop");
  report.layer("vgpu.body_s", t.body_s / r, "s");
  report.layer("vgpu.dispatch_s", (t.engine_s - t.body_s) / r, "s");
  report.layer("vgpu.model_ns_per_launch", model_ns_per_launch, "ns");
  const double lookups = t.pool_hits + t.pool_misses;
  report.layer("vgpu.pool_hit_ratio", lookups > 0 ? t.pool_hits / lookups : 0,
               "ratio");
  report.layer("problems.eval_ns_per_elem", eval_ns_per_elem, "ns");
  report.layer("trace.overhead_ratio", overhead_ratio, "ratio");

  // Predicted (GpuPerfModel) beside measured (prof body wall) per kernel
  // label: the perf model's calibration loop.
  for (const std::string& label : t.label_order) {
    const prof::KernelRow& row = t.kernels.at(label);
    std::ostringstream s;
    s << "pvm " << workload << " " << label << " launches=" << row.launches
      << " modeled_s=" << fmt(row.modeled_seconds)
      << " body_wall_s=" << fmt(row.wall_seconds) << " wall_over_modeled="
      << fmt(row.modeled_seconds > 0 ? row.wall_seconds / row.modeled_seconds
                                     : 0.0);
    report.line(s.str());
  }
}

void SetupTimes::report(Report& report) const {
  report.e2e("setup_s", fastest(burst), "s");
  report.info("setup_s_median", median(burst), "s");
  report.info("setup_bursts", static_cast<double>(burst.size()), "count");
  report.layer("setup.device_s", median(device), "s");
  report.layer("setup.problem_s", median(problem), "s");
  report.layer("setup.engine_s", median(engine), "s");
}

double time_model_per_launch(const fastpso::vgpu::GpuPerfModel& model,
                             const prof::Profile& profile) {
  std::vector<std::pair<double, fastpso::vgpu::KernelCostSpec>> launches;
  for (const prof::Event& e : profile.events) {
    if (e.kind == prof::EventKind::kKernel) {
      launches.emplace_back(static_cast<double>(e.grid) * e.block, e.cost);
    }
  }
  if (launches.empty()) {
    return 0.0;
  }
  volatile double sink = 0;
  std::size_t calls = 0;
  const double t0 = now_s();
  do {
    for (const auto& [threads, cost] : launches) {
      sink = sink + model.kernel_seconds(threads, cost);
    }
    calls += launches.size();
  } while (now_s() - t0 < 0.02);
  return (now_s() - t0) / static_cast<double>(calls) * 1e9;
}

double time_eval_per_elem(const fastpso::problems::Problem& problem, int n,
                          int d, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> dist(problem.lower_bound(),
                                              problem.upper_bound());
  std::vector<float> x(static_cast<std::size_t>(n) * d);
  for (float& v : x) {
    v = static_cast<float>(dist(gen));
  }
  std::vector<float> out(static_cast<std::size_t>(n));
  std::vector<double> per_call;
  const double t0 = now_s();
  while (per_call.size() < 3 || now_s() - t0 < 0.02) {
    const double t = now_s();
    problem.eval_batch(x.data(), n, d, out.data());
    per_call.push_back(now_s() - t);
  }
  return median(per_call) / (static_cast<double>(n) * d) * 1e9;
}

void inject_eval_delay(fastpso::core::Objective& objective,
                       const SelfCheck& check) {
  auto inner = objective.batch_fn;
  objective.batch_fn = [inner, &check](const float* x, int n, int d,
                                       float* out) {
    if (!check.delay(Inject::kEval)) {
      inner(x, n, d, out);
      return;
    }
    const double t0 = now_s();
    inner(x, n, d, out);
    busy_wait(kInjectFrac * (now_s() - t0));
  };
}

void finish_trace(Report& report, const Tracer& tracer,
                  const Options& options) {
  fs::create_directories(".bench_out");
  // One file per workload, replaced by each traced run: traces of the
  // serve workload run to tens of megabytes.
  const std::string stem = ".bench_out/" + options.workload;
  const double root = tracer.root_seconds();
  for (const auto& [layer, seconds] : tracer.self_seconds()) {
    report.info("self." + layer + "_s", seconds, "s");
    report.info("self." + layer + "_share", root > 0 ? seconds / root : 0,
                "ratio");
  }
  if (tracer.write_chrome_trace(stem + ".trace.json")) {
    report.line("trace written: " + stem + ".trace.json");
  } else {
    report.line("trace write FAILED: " + stem + ".trace.json");
  }
  report.line("layers written: " + stem + ".layers.json");
  report.write_layers_file(stem + ".layers.json");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
