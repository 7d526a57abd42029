// Shared pieces of the repository benchmark: options, the metric report,
// the in-memory span tracer, small statistics helpers and the correctness
// checks every workload applies to its results.
//
// Every workload measures with tracing off for the end-to-end metrics
// (--trace 0). A traced run (--trace 1) records spans around the calls the
// benchmark makes into each layer (setup, core, vgpu, problems, serve, comm)
// and reports per-layer numbers; the program itself is not instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/objective.h"
#include "core/result.h"
#include "problems/problem.h"
#include "vgpu/prof/prof.h"

namespace perfbench {

using fastpso::core::Result;

/// The seed whose result digests are recorded in perfbench/digests.txt.
constexpr std::uint64_t kDefaultSeed = 1;

/// Benchmark-side delays for the layer-sensitivity self-check
/// (selfcheck.py). Neither touches the program: kEval busy-waits inside the
/// benchmark's wrapper around the workload Objective's batch_fn, kPump
/// busy-waits between serve::Scheduler::pump() calls.
enum class Inject { kNone, kEval, kPump };
/// Each injected busy-wait lasts this share of the call it follows.
constexpr double kInjectFrac = 0.2;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string digests;  ///< recorded digests file ("" = no digest check)
  Inject inject = Inject::kNone;
};

class Report;

/// The self-check's side of a run with --inject: the delay is on in odd
/// rounds only, and the samples the self-check reads are kept per side.
/// Adjacent rounds of one process see the same host speed; two processes,
/// even run back to back or side by side, differ by tens of percent on a
/// shared host, which would swamp a 20% delay in one layer.
class SelfCheck {
 public:
  explicit SelfCheck(Inject inject) : inject_(inject) {}

  /// Starts round `index` of the measured loop: the delay is on when it is
  /// odd.
  void begin_round(int index) {
    on_ = inject_ != Inject::kNone && index % 2 == 1;
  }
  /// Turns the delay off for the rest of the run.
  void end() { on_ = false; }
  /// Whether the `kind` delay applies to the current call.
  [[nodiscard]] bool delay(Inject kind) const {
    return on_ && inject_ == kind;
  }
  /// Records this round's sample of `name` on the current side.
  void add(const std::string& name, double value);
  /// Prints "selfcheck <name> plain=<median> delayed=<median> rounds=<n>/<n>"
  /// per sampled metric.
  void report(Report& report) const;

 private:
  Inject inject_;
  bool on_ = false;
  std::map<std::string, std::vector<double>> plain_, delayed_;
};

/// Monotonic seconds since an arbitrary process-wide origin.
double now_s();

/// Spins (no sleep: one thread, steady load) for `seconds`.
void busy_wait(double seconds);

// --- statistics ------------------------------------------------------------

double median(std::vector<double> v);
/// The fastest of repeated rounds that do the same work: wall_s and setup_s
/// of every workload. The host's slow spells only ever add time and last
/// seconds to minutes, so a run's median moves with how much of the run
/// they cover; the fastest round moves far less, and still moves with the
/// program.
double fastest(const std::vector<double>& v);
/// Nearest-rank percentile, q in [0, 100].
double percentile(std::vector<double> v, double q);
/// (q3 - q1) / median: the run-to-run spread of repeated rounds.
double iqr_share(const std::vector<double>& v);
/// The highest of p99.9/p99/p95/p90/p75/p50 that leaves at least ten
/// samples beyond it (0 when fewer than 20 samples exist).
double tail_rank(std::size_t samples);

// --- report ----------------------------------------------------------------

/// Collects metrics and op outcomes, prints them as text lines and, as the
/// last line, the JSON object the benchmark contract defines.
class Report {
 public:
  explicit Report(const Options& options) : options_(options) {}

  /// End-to-end metric, in the JSON of untraced runs.
  void e2e(const std::string& name, double value, const std::string& unit);
  /// Per-layer metric, in the JSON of traced runs.
  void layer(const std::string& name, double value, const std::string& unit);
  /// A workload-specific metric: printed, and written to the layers file of
  /// traced runs, but not part of the JSON (which must carry the same
  /// metric names on every workload).
  void info(const std::string& name, double value, const std::string& unit);
  /// A free-form text line (predicted-vs-measured rows, digests, notes).
  void line(const std::string& text);

  /// Counts one op (an optimizer run or a served job); a false `ok` counts
  /// it failed and prints `what`.
  void op(bool ok, const std::string& what);
  /// Counts an already-attempted op failed (a later check caught it).
  void fail(const std::string& what);

  /// Prints every metric as text, then the JSON last line. Returns the
  /// exit code (0 when the run is valid).
  int finish() const;
  /// Writes the traced run's metrics and text lines as JSON to `path`.
  bool write_layers_file(const std::string& path) const;

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };

  const Options& options_;
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<Metric> info_;
  std::vector<std::string> lines_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- tracing ---------------------------------------------------------------

/// In-memory spans: name ("layer.what"), start, end, parent, job id. When
/// disabled, open/close are a branch and nothing is recorded. A traced run
/// disables it around its untraced rounds so self times cover only the
/// traced ones.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span as a child of the innermost open span; -1 when disabled.
  int open(const std::string& name, int job = -1);
  void close(int span);
  /// Adds a closed span of `seconds` under `parent` standing for time the
  /// program reported for a nested layer (prof kernel-body wall), so the
  /// parent's self time excludes it. Placed at the parent's start.
  void add_nested(int parent, const std::string& name, double seconds);
  /// Records a span that may overlap others (a served job from when it was
  /// due to when its outcome appeared, one optimizer iteration). Excluded
  /// from self times; read back through durations().
  void record(const std::string& name, double begin, double end, int job);

  /// Durations (seconds) of every span named `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Self time per layer: each span's duration minus the part its children
  /// cover, summed by the layer prefix of its name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Total duration of root spans (the traced work the self times split).
  [[nodiscard]] double root_seconds() const;
  bool write_chrome_trace(const std::string& path) const;

 private:
  enum class Kind { kSync, kNested, kAsync };
  struct Span {
    std::string name;
    double begin = 0;
    double end = 0;
    int parent = -1;
    int job = -1;
    Kind kind = Kind::kSync;
  };

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Turns tracing on or off together: the benchmark's spans and the
/// program's prof layer (kernel-body wall, per-kernel aggregates).
void set_traced(Tracer& tracer, bool on);

/// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const std::string& name, int job = -1)
      : tracer_(tracer), id_(tracer.open(name, job)) {}
  ~SpanScope() { tracer_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// --- checks and digests ----------------------------------------------------

/// 64-bit FNV-1a over a Result's gbest value bits, position, history,
/// iteration count and modeled seconds.
std::uint64_t result_digest(const Result& result);

/// Solo-run checks: the objective re-evaluated at gbest_position gives
/// gbest_value, gbest_history has one non-increasing entry per iteration.
/// Returns "" when all hold, else what failed.
std::string check_solo(const Result& result, const fastpso::problems::Problem&
                                                 problem, int dim);
/// Bitwise equality of two results (value, position, history, iterations,
/// modeled seconds, device counters); "" when equal.
std::string compare_bitwise(const Result& a, const Result& b);

/// Recorded digests: lines "<workload> <case> <hex>". Missing file or
/// workload = nothing to compare.
class Digests {
 public:
  Digests(const Options& options, Report& report);
  /// Prints the digest of `result` for `name` on the default seed and
  /// compares it with the recorded one; false on mismatch.
  bool check(const std::string& name, const Result& result);

 private:
  const Options& options_;
  Report& report_;
  std::map<std::string, std::string> recorded_;
};

// --- layer accounting ------------------------------------------------------

/// Per-layer totals over the traced part of a run.
struct LayerTotals {
  int rounds = 0;  ///< traced rounds the totals cover
  std::map<std::string, double> phase_wall;  ///< core phases
  double launches = 0;
  double transfers = 0;
  double allocs = 0;
  double bytes_fetched = 0;
  double flops = 0;
  double body_s = 0;    ///< prof kernel-body host wall
  double engine_s = 0;  ///< wall of the calls into the engine
  double pool_hits = 0;
  double pool_misses = 0;
  /// Per-label modeled vs measured kernel time (prof aggregates).
  std::map<std::string, fastpso::vgpu::prof::KernelRow> kernels;
  std::vector<std::string> label_order;

  void add_counters(const fastpso::vgpu::DeviceCounters& c);
  void add_profile(const fastpso::vgpu::prof::Profile& profile);
};

/// Reports the per-layer metrics every workload carries (core phases,
/// vgpu, problems, trace overhead) and the predicted-vs-measured rows.
void report_layers(Report& report, const LayerTotals& totals,
                   double model_ns_per_launch, double eval_ns_per_elem,
                   double overhead_ratio, const std::string& workload);

/// Set-up takes microseconds, so it is sampled in bursts of this many
/// constructions, each burst timed as one sample: one burst before every
/// measured run (every drain on serve_mixed), so that the samples span the
/// run as the timed runs do.
constexpr int kSetupBurst = 200;

/// Setup timings: per construction for each part, per burst for the total.
struct SetupTimes {
  std::vector<double> device, problem, engine;
  /// Mean seconds per construction of each burst.
  std::vector<double> burst;

  /// Runs `setup_once` kSetupBurst times and records the burst's mean.
  template <typename F>
  void sample_burst(F&& setup_once) {
    const double t0 = now_s();
    for (int k = 0; k < kSetupBurst; ++k) {
      setup_once();
    }
    burst.push_back((now_s() - t0) / kSetupBurst);
  }
  /// setup_s (end to end) and setup.{device,problem,engine}_s (per layer).
  void report(Report& report) const;
};

/// Host ns per GpuPerfModel::kernel_seconds call over the kernel events of
/// `profile` (the workload's own launch shapes and costs).
double time_model_per_launch(const fastpso::vgpu::GpuPerfModel& model,
                             const fastpso::vgpu::prof::Profile& profile);
/// Host ns per element of Problem::eval_batch at (n, d), on positions drawn
/// from the problem's domain with `seed`.
double time_eval_per_elem(const fastpso::problems::Problem& problem, int n,
                          int d, std::uint64_t seed);

/// Wraps `objective.batch_fn` so each call is followed by a busy-wait of
/// kInjectFrac times its own duration while `check` has the kEval delay on.
void inject_eval_delay(fastpso::core::Objective& objective,
                       const SelfCheck& check);

/// Reports the self time per layer of a traced run and writes its Chrome
/// trace and layers file under .bench_out/ in the working directory.
void finish_trace(Report& report, const Tracer& tracer,
                  const Options& options);

/// Process peak resident set in MiB.
double peak_rss_mb();

// --- workloads -------------------------------------------------------------

void run_paper_scale(const Options& options, Report& report);
void run_converge(const Options& options, Report& report);
void run_serve_mixed(const Options& options, Report& report);
void run_multi_device(const Options& options, Report& report);

}  // namespace perfbench
