// multi_device: core::MultiDeviceOptimizer with kTileMatrix on rastrigin at
// fig4's weak-scaling shape (2048 particles per device, d=48): 8 devices
// plus the 1-device reference run. The only workload that drives vgpu/comm
// and core/multi_device.
#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench.h"
#include "core/multi_device.h"
#include "core/optimizer.h"
#include "problems/problem.h"
#include "rng/splitmix.h"
#include "vgpu/comm/comm.h"
#include "vgpu/memory_pool.h"

namespace perfbench {

namespace {

namespace core = fastpso::core;
namespace vgpu = fastpso::vgpu;
namespace comm = fastpso::vgpu::comm;

constexpr int kDevices = 8;
constexpr int kPerDevice = 2048;
constexpr int kDim = 48;
constexpr int kIters = 20;

core::MultiDeviceParams params_for(int devices, std::uint64_t seed) {
  core::MultiDeviceParams p;
  p.pso.particles = kPerDevice * devices;
  p.pso.dim = kDim;
  p.pso.max_iter = kIters;
  p.pso.seed = seed;
  p.devices = devices;
  p.strategy = core::MultiGpuStrategy::kTileMatrix;
  return p;
}

std::string case_name(int devices) {
  return "tile" + std::to_string(devices) + "_n" +
         std::to_string(kPerDevice * devices) + "_d" + std::to_string(kDim);
}

/// Host microseconds per Communicator::allreduce of `width` floats over a
/// `devices`-rank group.
double time_allreduce_us(int devices, int width) {
  comm::DeviceGroup group(devices);
  comm::Communicator communicator(group);
  std::vector<std::vector<float>> data(
      static_cast<std::size_t>(devices),
      std::vector<float>(static_cast<std::size_t>(width), 1.0f));
  std::vector<float*> buffers;
  for (auto& d : data) {
    buffers.push_back(d.data());
  }
  std::size_t calls = 0;
  const double t0 = now_s();
  do {
    communicator.allreduce(comm::ReduceOp::kMin, buffers, width);
    ++calls;
  } while (now_s() - t0 < 0.02);
  return (now_s() - t0) / static_cast<double>(calls) * 1e6;
}

/// What one set-up builds. The optimizers create their device group inside
/// optimize(), so setup.device times constructing an equal group.
struct MdSetup {
  std::unique_ptr<fastpso::problems::Problem> problem;
  core::Objective objective;
  std::unique_ptr<core::MultiDeviceOptimizer> md8;
  std::unique_ptr<core::MultiDeviceOptimizer> md1;
};

MdSetup setup(std::uint64_t seed, SetupTimes& times, Tracer& tracer) {
  MdSetup s;
  double t = now_s();
  {
    SpanScope span(tracer, "setup.device");
    comm::DeviceGroup group(kDevices);
  }
  times.device.push_back(now_s() - t);
  t = now_s();
  {
    SpanScope span(tracer, "setup.problem");
    s.problem = fastpso::problems::make_problem("rastrigin");
    s.objective = core::objective_from_problem(*s.problem, kDim);
  }
  times.problem.push_back(now_s() - t);
  t = now_s();
  {
    SpanScope span(tracer, "setup.engine");
    s.md8 = std::make_unique<core::MultiDeviceOptimizer>(
        params_for(kDevices, seed));
    s.md1 = std::make_unique<core::MultiDeviceOptimizer>(params_for(1, seed));
  }
  times.engine.push_back(now_s() - t);
  return s;
}

}  // namespace

void run_multi_device(const Options& options, Report& report) {
  Tracer tracer(options.trace);
  const std::uint64_t seed = fastpso::rng::SplitMix64::mix(options.seed, 0);

  SetupTimes times;
  MdSetup built = setup(seed, times, tracer);
  const auto& problem = built.problem;
  const core::Objective& objective = built.objective;
  const auto sample_setup = [&] {
    times.sample_burst([&] { (void)setup(seed, times, tracer); });
  };

  Digests digests(options, report);
  LayerTotals totals;
  std::vector<std::uint64_t> first_digest(2, 0);
  double comm_collectives = 0, comm_bytes = 0, comm_modeled = 0;
  std::vector<double> imbalance;
  vgpu::prof::Profile sample;

  // The first run of each case is compared with single-device FastPSO;
  // later ones must reproduce it.
  const auto check = [&](const Result& res, int devices, std::size_t slot) {
    std::string why = check_solo(res, *problem, kDim);
    const std::uint64_t digest = result_digest(res);
    if (!why.empty() || first_digest[slot] != 0) {
      return why.empty() && digest != first_digest[slot]
                 ? std::string("result differs from the first round's")
                 : why;
    }
    first_digest[slot] = digest;
    // kTileMatrix is bitwise-equal to single-device FastPSO on the same
    // spec (values, not device accounting: the device counts differ).
    vgpu::Device device;
    core::Optimizer solo(device, params_for(devices, seed).pso);
    Result ref = solo.optimize(objective);
    ref.modeled_seconds = res.modeled_seconds;
    ref.counters = res.counters;
    why = compare_bitwise(res, ref);
    if (!why.empty()) {
      return "differs from single-device FastPSO: " + why;
    }
    return digests.check(case_name(devices), res)
               ? std::string()
               : std::string("digest differs from the recorded one");
  };

  // Per-layer totals from the device group a traced run leaves behind.
  const auto harvest = [&](const core::MultiDeviceOptimizer& md, int span,
                           double wall) {
    totals.engine_s += wall;
    const comm::DeviceGroup& group = *md.group();
    double body = 0;
    for (int k = 0; k < group.size(); ++k) {
      const vgpu::Device& dev = group.device(k);
      totals.add_counters(dev.counters());
      comm_bytes += dev.counters().comm_bytes;
      if (const auto* profile = dev.profile()) {
        body += profile->kernel_wall_seconds();
        totals.add_profile(*profile);
        // The multi-device Result has no wall breakdown: split by the
        // phase tag of each profiled operation instead.
        for (const auto& e : profile->events) {
          totals.phase_wall[e.phase] += e.wall_seconds;
        }
        if (sample.events.size() < 100000) {
          sample.events.insert(sample.events.end(), profile->events.begin(),
                               profile->events.end());
        }
      }
      // The group is exposed const; its devices are not (pool() is a
      // non-const accessor).
      auto& pool = const_cast<vgpu::Device&>(dev).pool();
      totals.pool_hits += static_cast<double>(pool.cache_hits());
      totals.pool_misses += static_cast<double>(pool.cache_misses());
    }
    tracer.add_nested(span, "vgpu.body", body);
    if (group.size() > 1) {
      comm_collectives += static_cast<double>(md.collectives().size());
      comm_modeled += *std::max_element(md.comm_seconds().begin(),
                                        md.comm_seconds().end());
      const auto& ds = md.device_seconds();
      const double mean = std::accumulate(ds.begin(), ds.end(), 0.0) /
                          static_cast<double>(ds.size());
      imbalance.push_back(*std::max_element(ds.begin(), ds.end()) / mean);
    }
  };

  // One op: a run on `md`, checked, and harvested when traced.
  const auto run = [&](core::MultiDeviceOptimizer& md, int devices,
                       std::size_t slot, bool traced, double& wall) {
    Result res;
    const int span = tracer.open("core.multi_device_optimize");
    const double t0 = now_s();
    try {
      res = md.optimize(objective);
      wall = now_s() - t0;
      tracer.close(span);
    } catch (const std::exception& e) {
      wall = now_s() - t0;
      tracer.close(span);
      report.op(false, case_name(devices) + ": " + e.what());
      return res;
    }
    const std::string why = check(res, devices, slot);
    report.op(why.empty(), case_name(devices) + ": " + why);
    if (traced) {
      harvest(md, span, wall);
    }
    return res;
  };

  struct Round {
    double wall8 = 0, wall1 = 0, modeled = 0, eff = 0;
  };
  // Untraced rounds take a set-up burst before each run.
  const auto round = [&](bool traced) {
    Round r;
    if (!traced) {
      sample_setup();
    }
    const Result r8 = run(*built.md8, kDevices, 0, traced, r.wall8);
    if (!traced) {
      sample_setup();
    }
    const Result r1 = run(*built.md1, 1, 1, traced, r.wall1);
    r.modeled = r8.modeled_seconds + r1.modeled_seconds;
    r.eff = r8.modeled_seconds > 0 ? r1.modeled_seconds / r8.modeled_seconds
                                   : 0;
    return r;
  };

  tracer.set_enabled(false);
  const double start = now_s();
  const double plain_until =
      options.trace ? options.seconds / 2.0 : options.seconds;
  std::vector<double> wall, wall8, wall1, modeled, eff;
  do {
    const Round r = round(false);
    wall.push_back(r.wall8 + r.wall1);
    wall8.push_back(r.wall8);
    wall1.push_back(r.wall1);
    modeled.push_back(r.modeled);
    eff.push_back(r.eff);
  } while (now_s() - start < plain_until);

  times.report(report);
  // Each run's fastest, summed over the round (as in solo.cpp).
  report.e2e("wall_s", fastest(wall8) + fastest(wall1), "s");
  report.info("wall_s_median", median(wall8) + median(wall1), "s");
  report.e2e("modeled_s", median(modeled), "s");
  report.info("weak_eff_8dev", median(eff), "ratio");
  report.info("rounds", static_cast<double>(wall.size()), "count");
  report.info("wall_s_round_spread", iqr_share(wall), "ratio");

  if (!options.trace) {
    report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  set_traced(tracer, true);
  std::vector<double> traced_wall;
  do {
    const int span = tracer.open("bench.round");
    const Round r = round(true);
    traced_wall.push_back(r.wall8 + r.wall1);
    tracer.close(span);
    ++totals.rounds;
  } while (now_s() - start < options.seconds);
  vgpu::prof::set_enabled(false);

  double allreduce_us = 0;
  {
    SpanScope span(tracer, "comm.allreduce");
    allreduce_us = time_allreduce_us(kDevices, kDim);
  }
  double eval_ns = 0;
  {
    SpanScope span(tracer, "problems.eval_batch");
    eval_ns = time_eval_per_elem(*problem, kPerDevice, kDim, options.seed);
  }
  const double model_ns =
      time_model_per_launch(vgpu::Device().perf(), sample);
  report_layers(report, totals, model_ns, eval_ns,
                median(traced_wall) / median(wall), options.workload);

  const double r = std::max(1, totals.rounds);
  report.info("comm.collectives", comm_collectives / r, "count");
  report.info("comm.bytes", comm_bytes / r, "B");
  report.info("comm.modeled_s", comm_modeled / r, "s");
  report.info("comm.allreduce_us", allreduce_us, "us");
  report.info("md.imbalance", median(imbalance), "ratio");
  finish_trace(report, tracer, options);
}

}  // namespace perfbench
