// serve_mixed: a seeded stream of small heterogeneous jobs through
// serve::Scheduler with default options, in two phases.
//
//   open loop  jobs are submitted when due on the host clock, at a fixed
//              offered rate below the scheduler's capacity, between pump()
//              calls; each job's latency runs from when it was due to when
//              its outcome appeared (so a stall also charges the jobs queued
//              behind it), and the generator's lateness is reported.
//   drain      a fixed backlog is submitted at once and pumped empty; the
//              fastest drain's wall time is the workload's wall_s. The
//              backlog is drawn once per seed and every drain submits the
//              same jobs, so every drain does the same work and must repeat
//              the first one's results and modeled makespan bit for bit.
//              The backlog's work is also the same for every seed (see
//              JobStream::backlog). Every drain starts on a fresh device
//              and scheduler: the scheduler keeps every outcome, and drains
//              on one long-lived scheduler slow down as they pile up, which
//              would tie wall_s to the run's length.
//
// Per-launch dispatch, swap accounting, graph-cache replay and scheduling
// take a far larger share here than on the solo workloads (kernel bodies
// are still about three quarters of drain wall). It is the workload that
// exercises scheduler, pack and replay changes.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/optimizer.h"
#include "problems/problem.h"
#include "rng/splitmix.h"
#include "serve/scheduler.h"
#include "vgpu/device.h"
#include "vgpu/memory_pool.h"

namespace perfbench {

namespace {

namespace core = fastpso::core;
namespace serve = fastpso::serve;
namespace vgpu = fastpso::vgpu;

/// Offered rate of the open-loop phase (jobs per host second): about half
/// the drain capacity measured on a 4-vCPU Xeon VM, so the queue stays
/// bounded (spec.json).
constexpr double kOfferedRate = 1500.0;
/// Latency limit on job_p99_ms (spec.json).
constexpr double kLatencyLimitMs = 50.0;
/// Iteration counts a job draws from: 5..24.
constexpr int kMinIter = 5;
constexpr int kIterChoices = 20;
/// Copies of every (shape, iteration count) pair in a backlog drain.
constexpr int kDrainCopies = 2;
/// Jobs re-run solo after timing and compared bit for bit.
constexpr int kVerifySample = 16;

struct ShapeRow {
  const char* problem;
  int particles;
  int dim;
  core::UpdateTechnique technique;
  core::Topology topology;
};

// The 8-shape mixed table of bench/serve_load: varied problems, swarm sizes
// and dims, one ring topology, one shared-memory shape.
constexpr ShapeRow kShapes[] = {
    {"sphere", 64, 16, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kGlobal},
    {"rastrigin", 32, 8, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kGlobal},
    {"rosenbrock", 64, 8, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kGlobal},
    {"ackley", 32, 8, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kRing},
    {"griewank", 64, 16, core::UpdateTechnique::kSharedMemory,
     core::Topology::kGlobal},
    {"zakharov", 16, 4, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kGlobal},
    {"levy", 32, 4, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kGlobal},
    {"schwefel", 16, 8, core::UpdateTechnique::kGlobalMemory,
     core::Topology::kGlobal},
};

/// Jobs per backlog drain.
constexpr int kDrainJobs =
    kDrainCopies * kIterChoices * static_cast<int>(std::size(kShapes));

class JobStream {
 public:
  JobStream(std::uint64_t seed, std::uint64_t salt)
      : gen_(fastpso::rng::SplitMix64::mix(seed, salt)) {}

  serve::JobSpec next() {
    const ShapeRow& row = kShapes[gen_.next() % std::size(kShapes)];
    return make(row, kMinIter + static_cast<int>(gen_.next() % kIterChoices));
  }

  /// A backlog holding every (shape, iteration count) pair kDrainCopies
  /// times in seeded order: its work is the same for every seed, so the
  /// seed moves job order, PSO seeds, priorities and tenants but not how
  /// much work a drain does.
  std::vector<serve::JobSpec> backlog() {
    std::vector<std::pair<const ShapeRow*, int>> pairs;
    for (int copy = 0; copy < kDrainCopies; ++copy) {
      for (const ShapeRow& row : kShapes) {
        for (int i = 0; i < kIterChoices; ++i) {
          pairs.emplace_back(&row, kMinIter + i);
        }
      }
    }
    for (std::size_t i = pairs.size() - 1; i > 0; --i) {
      std::swap(pairs[i], pairs[gen_.next() % (i + 1)]);
    }
    std::vector<serve::JobSpec> specs;
    for (const auto& [row, iters] : pairs) {
      specs.push_back(make(*row, iters));
    }
    return specs;
  }

 private:
  serve::JobSpec make(const ShapeRow& row, int max_iter) {
    serve::JobSpec spec;
    spec.problem = row.problem;
    spec.params.particles = row.particles;
    spec.params.dim = row.dim;
    spec.params.technique = row.technique;
    spec.params.topology = row.topology;
    spec.params.max_iter = max_iter;
    spec.params.seed = gen_.next();
    spec.priority = static_cast<int>(gen_.next() % 3);
    spec.tenant = static_cast<int>(gen_.next() % 4);
    return spec;
  }

  fastpso::rng::SplitMix64 gen_;
};

/// What the traced drains sample around submit() and pump().
struct ServeTrace {
  std::vector<double> pump_s;
  std::vector<double> submit_s;
  std::vector<double> active;
  std::vector<double> queue_modeled_s;
  double pending_max = 0;
  serve::ServeStats stats;  ///< summed over the traced drains
  LayerTotals totals;
  vgpu::prof::Profile sample;
};

using ProblemMap =
    std::map<std::string, std::unique_ptr<fastpso::problems::Problem>>;

class ServeRunner {
 public:
  ServeRunner(const Options& options, Report& report, Tracer& tracer,
              const SelfCheck& check)
      : options_(options),
        report_(report),
        tracer_(tracer),
        check_(check),
        stream_(options.seed, 0x5E11ED),
        backlog_(JobStream(options.seed, 0xD2A1).backlog()) {}

  /// Builds device, problems and scheduler, timing each. With `keep` false
  /// the new ones are dropped (a set-up sample taken mid-run).
  void setup(SetupTimes& times, bool keep) {
    double t = now_s();
    std::unique_ptr<vgpu::Device> device;
    {
      SpanScope span(tracer_, "setup.device");
      device = std::make_unique<vgpu::Device>();
    }
    times.device.push_back(now_s() - t);
    t = now_s();
    ProblemMap problems;
    {
      SpanScope span(tracer_, "setup.problem");
      for (const ShapeRow& row : kShapes) {
        problems[row.problem] = fastpso::problems::make_problem(row.problem);
      }
    }
    times.problem.push_back(now_s() - t);
    t = now_s();
    std::unique_ptr<serve::Scheduler> scheduler;
    {
      SpanScope span(tracer_, "setup.engine");
      scheduler = std::make_unique<serve::Scheduler>(*device);
    }
    times.engine.push_back(now_s() - t);
    if (keep) {
      scheduler_.reset();
      device_ = std::move(device);
      problems_ = std::move(problems);
      scheduler_ = std::move(scheduler);
      specs_.clear();
      due_.clear();
      seen_ = 0;
    }
  }

  /// Open-loop phase of `seconds`: returns per-job latencies (s) and fills
  /// `late` with how far behind schedule each submission ran.
  std::vector<double> open_loop(double seconds, std::vector<double>& late) {
    std::vector<double> latency;
    const double t0 = now_s();
    std::size_t next = 0;
    for (;;) {
      const double t = now_s();
      const double due = t0 + static_cast<double>(next) / kOfferedRate;
      const bool generating = due - t0 < seconds;
      if (generating && due <= t) {
        submit(stream_.next(), due);
        late.push_back(now_s() - due);
        ++next;
      } else if (busy()) {
        pump();
        collect(&latency);
      } else if (generating) {
        busy_wait(due - t);
      } else {
        return latency;
      }
    }
  }

  /// One backlog drain on a fresh device and scheduler; returns {wall
  /// seconds, modeled makespan seconds}. A drain whose results or makespan
  /// differ from the first drain's fails.
  std::pair<double, double> drain() {
    SetupTimes untimed;
    setup(untimed, true);
    const int span = tracer_.open("bench.drain");
    pump_s_ = 0;
    const double t0 = now_s();
    for (const serve::JobSpec& spec : backlog_) {
      submit(spec, t0);
    }
    while (busy()) {
      pump();
    }
    const double wall = now_s() - t0;
    tracer_.close(span);
    collect(nullptr);
    const std::uint64_t digest = drain_digest();
    if (drains_ == 0) {
      first_drain_ = {digest, device_->modeled_seconds()};
    } else if (digest != first_drain_.first ||
               device_->modeled_seconds() != first_drain_.second) {
      report_.fail("drain " + std::to_string(drains_) +
                   " differs from the first drain of the same backlog");
    }
    ++drains_;
    if (layers_) {
      add_stats(scheduler_->stats());
      trace_.totals.pool_hits +=
          static_cast<double>(device_->pool().cache_hits());
      trace_.totals.pool_misses +=
          static_cast<double>(device_->pool().cache_misses());
    }
    return {wall, device_->modeled_seconds()};
  }

  /// Re-runs a seeded sample of the last scheduler's jobs solo on fresh
  /// devices and compares each result bit for bit.
  void verify_sample() {
    const auto& outcomes = scheduler_->outcomes();
    fastpso::rng::SplitMix64 pick(options_.seed ^ 0x7E21F1ull);
    for (int k = 0; k < kVerifySample && !outcomes.empty(); ++k) {
      const serve::JobOutcome& out = outcomes[pick.next() % outcomes.size()];
      const serve::JobSpec& spec = specs_[static_cast<std::size_t>(out.id)];
      vgpu::Device device;
      core::Optimizer optimizer(device, spec.params);
      const Result solo = optimizer.optimize(core::objective_from_problem(
          *problems_.at(spec.problem), spec.params.dim));
      const std::string why = compare_bitwise(out.result, solo);
      if (!why.empty()) {
        report_.fail("served job " + std::to_string(out.id) + " (" +
                     out.shape.to_string() + ") vs solo: " + why);
      }
    }
  }

  /// Host seconds inside pump() during the last drain.
  [[nodiscard]] double pump_seconds() const { return pump_s_; }
  /// Accumulates per-layer samples while on (the traced drains).
  void collect_layers(bool on) { layers_ = on; }
  [[nodiscard]] bool refused() const { return refused_; }
  [[nodiscard]] ServeTrace& trace() { return trace_; }
  [[nodiscard]] const vgpu::GpuPerfModel& perf() const {
    return device_->perf();
  }
  [[nodiscard]] const fastpso::problems::Problem& problem(
      const std::string& name) const {
    return *problems_.at(name);
  }

 private:
  [[nodiscard]] bool busy() const {
    return scheduler_->active_jobs() + scheduler_->pending_jobs() > 0;
  }

  void submit(serve::JobSpec spec, double due) {
    spec.arrival_seconds = device_->modeled_seconds();
    try {
      SpanScope span(tracer_, "serve.submit",
                     static_cast<int>(specs_.size()));
      const double t = now_s();
      const auto id = static_cast<std::size_t>(scheduler_->submit(spec));
      if (layers_) {
        trace_.submit_s.push_back(now_s() - t);
      }
      if (id >= specs_.size()) {
        specs_.resize(id + 1);
        due_.resize(id + 1);
      }
      specs_[id] = std::move(spec);
      due_[id] = due;
    } catch (const std::exception& e) {
      // A refused job fails and misses the latency limit.
      report_.op(false, "submit refused: " + std::string(e.what()));
      refused_ = true;
    }
  }

  void pump() {
    const int span = tracer_.open("serve.pump");
    const double t = now_s();
    scheduler_->pump();
    const double wall = now_s() - t;
    tracer_.close(span);
    if (vgpu::prof::active()) {
      // The profile stays on the shared device; harvest it every pump.
      const vgpu::prof::Profile profile = device_->take_profile();
      tracer_.add_nested(span, "vgpu.body", profile.kernel_wall_seconds());
      if (layers_) {
        trace_.totals.add_profile(profile);
        if (trace_.sample.events.size() < 100000) {
          trace_.sample.events.insert(trace_.sample.events.end(),
                                      profile.events.begin(),
                                      profile.events.end());
        }
      }
    }
    if (layers_) {
      trace_.pump_s.push_back(wall);
      trace_.active.push_back(scheduler_->active_jobs());
      trace_.pending_max =
          std::max(trace_.pending_max,
                   static_cast<double>(scheduler_->pending_jobs()));
      trace_.totals.engine_s += wall;
    }
    pump_s_ += wall;
    if (check_.delay(Inject::kPump)) {
      busy_wait(kInjectFrac * wall);
    }
  }

  /// Checks every newly finished job; records latency when asked.
  void collect(std::vector<double>* latency) {
    const auto& outcomes = scheduler_->outcomes();
    const double t = now_s();
    for (; seen_ < outcomes.size(); ++seen_) {
      const serve::JobOutcome& out = outcomes[seen_];
      const auto id = static_cast<std::size_t>(out.id);
      if (latency != nullptr) {
        latency->push_back(t - due_[id]);
        tracer_.record("serve.job", due_[id], t, out.id);
      }
      if (layers_) {
        for (const auto& [phase, s] : out.result.wall_breakdown.buckets()) {
          trace_.totals.phase_wall[phase] += s;
        }
        trace_.totals.add_counters(out.result.counters);
        trace_.queue_modeled_s.push_back(out.queue_seconds());
      }
      const std::string why = check_solo(
          out.result, problem(specs_[id].problem), specs_[id].params.dim);
      report_.op(why.empty(), "job " + std::to_string(out.id) + ": " + why);
    }
  }

  /// Digest of the current scheduler's outcomes in completion order.
  [[nodiscard]] std::uint64_t drain_digest() const {
    std::uint64_t h = 0;
    for (const serve::JobOutcome& out : scheduler_->outcomes()) {
      h = fastpso::rng::SplitMix64::mix(
          h ^ result_digest(out.result), static_cast<std::uint64_t>(out.id));
    }
    return h;
  }

  void add_stats(const serve::ServeStats& s) {
    serve::ServeStats& sum = trace_.stats;
    sum.cache_lookups += s.cache_lookups;
    sum.cache_hits += s.cache_hits;
    sum.iterations += s.iterations;
    sum.replayed_iterations += s.replayed_iterations;
    sum.graphs_poisoned += s.graphs_poisoned;
    sum.launches_issued += s.launches_issued;
    sum.launches_real += s.launches_real;
  }

  const Options& options_;
  Report& report_;
  Tracer& tracer_;
  const SelfCheck& check_;
  JobStream stream_;  ///< open-loop jobs
  const std::vector<serve::JobSpec> backlog_;  ///< every drain's jobs
  int drains_ = 0;
  std::pair<std::uint64_t, double> first_drain_;
  double pump_s_ = 0;
  std::unique_ptr<vgpu::Device> device_;
  ProblemMap problems_;
  std::unique_ptr<serve::Scheduler> scheduler_;
  /// Indexed by the current scheduler's job ids.
  std::vector<serve::JobSpec> specs_;
  std::vector<double> due_;
  std::size_t seen_ = 0;
  bool layers_ = false;
  bool refused_ = false;
  ServeTrace trace_;
};

double ratio(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

void report_serve_layers(Report& report, const ServeTrace& tr,
                         const std::vector<double>& late) {
  report.info("serve.pump_ms_p50", median(tr.pump_s) * 1e3, "ms");
  report.info("serve.pump_ms_p99", percentile(tr.pump_s, 99) * 1e3, "ms");
  report.info("serve.pump_samples", static_cast<double>(tr.pump_s.size()),
              "count");
  report.info("serve.submit_us_p50", median(tr.submit_s) * 1e6, "us");
  report.info("serve.pending_max", tr.pending_max, "count");
  double active = 0;
  for (const double a : tr.active) {
    active += a;
  }
  report.info("serve.active_mean",
              tr.active.empty() ? 0 : active / tr.active.size(), "count");
  const serve::ServeStats& s = tr.stats;
  const double drains = std::max(1, tr.totals.rounds);
  report.info("serve.cache_hit_rate", ratio(s.cache_hits, s.cache_lookups),
              "ratio");
  report.info("serve.replay_share",
              ratio(s.replayed_iterations, s.iterations), "ratio");
  report.info("serve.graphs_poisoned",
              static_cast<double>(s.graphs_poisoned) / drains, "count");
  report.info("serve.launches_issued",
              static_cast<double>(s.launches_issued) / drains, "count");
  report.info("serve.launches_real",
              static_cast<double>(s.launches_real) / drains, "count");
  report.info("serve.queue_modeled_ms_p99",
              percentile(tr.queue_modeled_s, 99) * 1e3, "ms");
  report.info("serve.gen_late_ms_p50", median(late) * 1e3, "ms");
  report.info("serve.gen_late_ms_p99", percentile(late, 99) * 1e3, "ms");
}

}  // namespace

void run_serve_mixed(const Options& options, Report& report) {
  Tracer tracer(options.trace);
  SelfCheck check(options.inject);
  ServeRunner runner(options, report, tracer, check);
  SetupTimes times;
  runner.setup(times, true);
  const auto sample_setup = [&] {
    times.sample_burst([&] { runner.setup(times, false); });
  };

  // Untraced: 25% open loop, the rest drains. Traced: a traced open loop,
  // untraced drains (the overhead baseline), then traced drains.
  const double start = now_s();
  std::vector<double> late;
  set_traced(tracer, options.trace);
  const std::vector<double> latency =
      runner.open_loop(options.seconds * (options.trace ? 0.3 : 0.25), late);
  set_traced(tracer, false);

  const double plain_until = options.seconds * (options.trace ? 0.65 : 1.0);
  std::vector<double> wall, modeled;
  do {
    sample_setup();
    check.begin_round(static_cast<int>(wall.size()));
    const auto [w, m] = runner.drain();
    check.add("drain_jobs_per_s", kDrainJobs / w);
    check.add("serve.pump_s", runner.pump_seconds());
    wall.push_back(w);
    modeled.push_back(m);
  } while (now_s() - start < plain_until);
  check.end();
  check.report(report);

  times.report(report);
  report.e2e("wall_s", fastest(wall), "s");
  // Every drain repeats the first one's makespan (checked in drain()).
  report.e2e("modeled_s", modeled.front(), "s");
  report.info("drain_jobs_per_s", kDrainJobs / fastest(wall), "1/s");
  report.info("wall_s_median", median(wall), "s");
  report.info("drain_jobs", kDrainJobs, "count");
  report.info("drains", static_cast<double>(wall.size()), "count");
  report.info("wall_s_round_spread", iqr_share(wall), "ratio");
  if (!options.trace) {
    const auto over_limit = std::count_if(
        latency.begin(), latency.end(),
        [](double l) { return l * 1e3 > kLatencyLimitMs; });
    report.info("job_p50_ms", median(latency) * 1e3, "ms");
    report.info("job_p99_ms", percentile(latency, 99) * 1e3, "ms");
    report.info("job_samples", static_cast<double>(latency.size()), "count");
    report.info("offered_jobs_per_s", kOfferedRate, "1/s");
    report.info("latency_limit_ms", kLatencyLimitMs, "ms");
    report.info("jobs_over_limit",
                static_cast<double>(over_limit) + (runner.refused() ? 1 : 0),
                "count");
    report.info("gen_late_ms_p50", median(late) * 1e3, "ms");
  }

  if (options.trace) {
    set_traced(tracer, true);
    runner.collect_layers(true);
    std::vector<double> traced_wall;
    do {
      traced_wall.push_back(runner.drain().first);
      ++runner.trace().totals.rounds;
    } while (now_s() - start < options.seconds);
    vgpu::prof::set_enabled(false);
    runner.collect_layers(false);

    ServeTrace& tr = runner.trace();
    const double model_ns = time_model_per_launch(runner.perf(), tr.sample);
    double eval_ns = 0;
    double elems = 0;
    {
      SpanScope span(tracer, "problems.eval_batch");
      for (const ShapeRow& row : kShapes) {
        const double e = static_cast<double>(row.particles) * row.dim;
        eval_ns += e * time_eval_per_elem(runner.problem(row.problem),
                                          row.particles, row.dim,
                                          options.seed);
        elems += e;
      }
    }
    report_layers(report, tr.totals, model_ns, eval_ns / elems,
                  median(traced_wall) / median(wall), options.workload);
    report_serve_layers(report, tr, late);
  }

  runner.verify_sample();
  if (options.trace) {
    finish_trace(report, tracer, options);
  } else {
    report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  }
}

}  // namespace perfbench
