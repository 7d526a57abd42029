// Tests for the offline autotuner (src/tune, DESIGN.md §12): validity
// predicates, shape grouping, table round-trips, and the bitwise-safety
// contract of tuned launch geometry under FASTPSO_TUNED.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "benchkit/runner.h"
#include "core/objective.h"
#include "core/optimizer.h"
#include "core/params.h"
#include "tgbm/dataset.h"
#include "tgbm/kernels.h"
#include "tune/kernels.h"
#include "tune/shapes.h"
#include "tune/space.h"
#include "tune/table.h"
#include "tune/tuner.h"
#include "vgpu/buffer.h"
#include "vgpu/device.h"
#include "vgpu/device_spec.h"
#include "vgpu/reduce.h"
#include "vgpu/tuned.h"

namespace fastpso {
namespace {

using tune::JoinedSpace;
using tune::Point;
using tune::WorkloadShape;

// ---------------------------------------------------------------------------
// JoinedSpace / validity predicates

TEST(TuneSpace, EnumerateNeverViolatesPredicates) {
  for (const tune::KernelFamily& family :
       tune::engine_families(vgpu::tesla_v100())) {
    const std::vector<Point> valid = family.space.enumerate_valid();
    EXPECT_FALSE(valid.empty()) << family.name;
    for (const Point& point : valid) {
      EXPECT_TRUE(family.space.valid(point))
          << family.name << ": " << family.point_string(point);
      EXPECT_TRUE(family.space.first_violation(point).empty());
    }
    // The default configuration must itself be a valid member.
    EXPECT_TRUE(family.space.valid(family.default_point))
        << family.name << " default "
        << family.point_string(family.default_point);
  }
}

TEST(TuneSpace, TgbmFamiliesNeverAdmitSharedSpill) {
  // The histogram-class sites carry a shared-memory fit predicate; no
  // enumerated point may spill (tgbm::kernels rejects such configs at
  // launch planning, so an emitted one would silently fall back).
  const tgbm::GbmParams params;
  const auto spec = tgbm::covtype_spec();
  const auto sites = tgbm::kernel_sites(spec, params);
  const vgpu::GpuSpec gpu = vgpu::tesla_v100();
  for (const tune::KernelFamily& family :
       tune::tgbm_site_families(spec, params, gpu)) {
    for (const Point& point : family.space.enumerate_valid()) {
      const std::string site_name =
          family.name.substr(std::string("tgbm/").size());
      for (const auto& site : sites) {
        if (site.name != site_name || site.shared_bytes_per_item <= 0) {
          continue;
        }
        // point = {block, items_per_thread}; plan_launch spills when
        // per_item * items * block exceeds the device's shared memory.
        EXPECT_LE(site.shared_bytes_per_item * point[1] * point[0],
                  static_cast<double>(gpu.shared_mem_per_block))
            << family.name;
      }
    }
  }
}

TEST(TuneSpace, DecodeClampsAndNeighborsStayValid) {
  const auto families = tune::engine_families(vgpu::tesla_v100());
  for (const tune::KernelFamily& family : families) {
    // Out-of-range coordinates clamp into the axis domains.
    const std::vector<float> lo(8, -3.0f);
    const std::vector<float> hi(8, 7.5f);
    for (const auto& x : {lo, hi}) {
      const Point point = family.space.decode(
          std::span<const float>(x.data(), x.size()));
      ASSERT_EQ(point.size(),
                static_cast<std::size_t>(family.space.axis_count()));
      // Decoded coordinates are literal axis values drawn from the domain.
      for (std::size_t i = 0; i < point.size(); ++i) {
        const auto& values = family.space.axes()[i].values;
        EXPECT_NE(std::find(values.begin(), values.end(), point[i]),
                  values.end())
            << family.name << " axis " << family.space.axes()[i].name;
      }
    }
    for (const Point& neighbor :
         family.space.neighbors(family.default_point)) {
      EXPECT_TRUE(family.space.valid(neighbor)) << family.name;
    }
  }
}

TEST(TuneTuner, NeverEmitsInvalidConfiguration) {
  tune::TunerOptions options;
  options.particles = 12;
  options.iterations = 6;
  const tune::Tuner tuner(vgpu::tesla_v100(), options);
  const auto families = tune::engine_families(vgpu::tesla_v100());
  const tune::TuneReport report = tuner.tune(families, tune::smoke_shapes());
  EXPECT_FALSE(report.outcomes.empty());
  for (const tune::GroupOutcome& outcome : report.outcomes) {
    const std::string kernel = outcome.key.substr(0, outcome.key.find('/'));
    const tune::KernelFamily* family = tune::find_family(families, kernel);
    ASSERT_NE(family, nullptr) << outcome.key;
    EXPECT_TRUE(family->space.valid(outcome.tuned_point)) << outcome.key;
    // The default is always in the candidate slate, so tuned can never be
    // predicted (or executed) slower.
    EXPECT_LE(outcome.tuned_us, outcome.default_us) << outcome.key;
    EXPECT_LE(outcome.executed_tuned_us, outcome.executed_default_us)
        << outcome.key;
  }
}

// ---------------------------------------------------------------------------
// Shape grouping

TEST(TuneShapes, GroupingIsOrderIndependent) {
  std::vector<WorkloadShape> shapes = tune::smoke_shapes();
  // Duplicates must collapse, order must not matter.
  shapes.push_back(shapes.front());
  std::vector<WorkloadShape> shuffled = shapes;
  std::mt19937 rng(7);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);

  const auto a = tune::group_shapes(shapes);
  const auto b = tune::group_shapes(shuffled);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key(), b[i].key());
    EXPECT_EQ(a[i].representative, b[i].representative);
    EXPECT_EQ(a[i].shapes, b[i].shapes);
  }
}

TEST(TuneShapes, GroupKeyMatchesStorePrefix) {
  for (const tune::ShapeGroup& group :
       tune::group_shapes(tune::smoke_shapes())) {
    EXPECT_EQ(group.key(),
              vgpu::tuned::shape_key(group.kernel,
                                     group.representative.elements));
    for (const WorkloadShape& shape : group.shapes) {
      EXPECT_EQ(vgpu::tuned::elements_bucket(shape.elements), group.bucket);
    }
  }
}

// ---------------------------------------------------------------------------
// Table serialization

tune::TunedTable sample_table() {
  tune::TunedTable table;
  table.set("reduce/b8/block", 32);
  table.set("reduce/b8/max_blocks", 64);
  table.set("launch_policy/b12/block", 128);
  table.set("swarm_tile/b12/tile", 32);
  tune::GroupResult group;
  group.key = "reduce/b8";
  group.point = "block=32;max_blocks=64";
  group.default_us = 10.440931054046635;
  group.tuned_us = 9.567664190742189;
  group.executed_default_us = 10.440931054046636;
  group.executed_tuned_us = 9.567664190742189;
  table.add_group(group);
  tune::GroupResult tie;
  tie.key = "launch_policy/b12";
  tie.point = "block=128;ipt=1";
  tie.default_us = 5.5;
  tie.tuned_us = 5.5;
  table.add_group(tie);
  return table;
}

TEST(TuneTable, JsonRoundTripIsByteIdentical) {
  const tune::TunedTable table = sample_table();
  const std::string json = table.to_json();
  const auto parsed = tune::TunedTable::parse(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->to_json(), json);
  EXPECT_EQ(parsed->store(), table.store());
  EXPECT_EQ(parsed->to_csv(), table.to_csv());
  ASSERT_EQ(parsed->groups().size(), table.groups().size());
}

TEST(TuneTable, SaveLoadRoundTrip) {
  const tune::TunedTable table = sample_table();
  const std::string path = testing::TempDir() + "fastpso_tuned_table.json";
  ASSERT_TRUE(table.save_json(path));
  const auto loaded = tune::TunedTable::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->to_json(), table.to_json());
}

TEST(TuneTable, InstallFeedsRuntimeLookups) {
  vgpu::tuned::ScopedTuning guard;
  vgpu::tuned::clear_values();
  sample_table().install();
  vgpu::tuned::set_enabled(true);
  EXPECT_EQ(vgpu::tuned::lookup("reduce/b8/block", 256), 32);
  EXPECT_EQ(vgpu::tuned::lookup("swarm_tile/b12/tile", 16), 32);
  EXPECT_EQ(vgpu::tuned::lookup("absent/b1/key", 99), 99);
  vgpu::tuned::set_enabled(false);
  EXPECT_EQ(vgpu::tuned::lookup("reduce/b8/block", 256), 256);
}

// ---------------------------------------------------------------------------
// Bitwise safety of tuned launch geometry

core::Result run_pso(const std::string& problem_name, int n, int d,
                     int iters, core::UpdateTechnique technique) {
  const auto problem = benchkit::make_any_problem(problem_name);
  core::PsoParams params;
  params.particles = n;
  params.dim = d;
  params.max_iter = iters;
  params.technique = technique;
  vgpu::Device device;
  core::Optimizer optimizer(device, params);
  return optimizer.optimize(core::objective_from_problem(*problem, d));
}

TEST(TuneBitwise, EnabledEmptyStoreMatchesDefault) {
  // FASTPSO_TUNED=1 with no table loaded must reproduce the default
  // geometry (every lookup falls back to the default value).
  const core::Result base =
      run_pso("sphere", 64, 8, 10, core::UpdateTechnique::kGlobalMemory);
  vgpu::tuned::ScopedTuning guard;
  vgpu::tuned::clear_values();
  vgpu::tuned::set_enabled(true);
  const core::Result tuned =
      run_pso("sphere", 64, 8, 10, core::UpdateTechnique::kGlobalMemory);
  EXPECT_EQ(base.gbest_value, tuned.gbest_value);
  EXPECT_EQ(base.gbest_position, tuned.gbest_position);
  EXPECT_EQ(base.gbest_history, tuned.gbest_history);
}

TEST(TuneBitwise, ElementKernelGeometryChangesAreBitwiseSafe) {
  // Element kernels compute each element independently of launch geometry,
  // so retuning block / items-per-thread / tile must be bitwise invisible.
  constexpr int kN = 64;
  constexpr int kD = 8;
  const std::int64_t elements = static_cast<std::int64_t>(kN) * kD;
  for (const auto technique : {core::UpdateTechnique::kGlobalMemory,
                               core::UpdateTechnique::kSharedMemory}) {
    const core::Result base = run_pso("griewank", kN, kD, 10, technique);
    vgpu::tuned::ScopedTuning guard;
    vgpu::tuned::clear_values();
    vgpu::tuned::set_value(
        vgpu::tuned::shape_key("launch_policy", elements) + "/block", 128);
    vgpu::tuned::set_value(
        vgpu::tuned::shape_key("launch_policy", elements) + "/ipt", 2);
    vgpu::tuned::set_value(
        vgpu::tuned::shape_key("swarm_tile", elements) + "/tile", 8);
    vgpu::tuned::set_enabled(true);
    const core::Result tuned = run_pso("griewank", kN, kD, 10, technique);
    EXPECT_EQ(base.gbest_value, tuned.gbest_value)
        << core::to_string(technique);
    EXPECT_EQ(base.gbest_position, tuned.gbest_position);
    EXPECT_EQ(base.gbest_history, tuned.gbest_history);
  }
}

TEST(TuneBitwise, ReduceWidthPreservesGbestOnTable1Problems) {
  // The argmin reduction resolves ties to the lowest index at every tree
  // width, so gbest selection is width-invariant on the full Table 1 set.
  constexpr int kN = 64;
  constexpr int kD = 8;
  for (const std::string problem :
       {"sphere", "griewank", "easom", "threadconf"}) {
    const core::Result base =
        run_pso(problem, kN, kD, 8, core::UpdateTechnique::kGlobalMemory);
    for (const int block : {32, 64, 512}) {
      vgpu::tuned::ScopedTuning guard;
      vgpu::tuned::clear_values();
      vgpu::tuned::set_value(
          vgpu::tuned::shape_key("reduce", kN) + "/block", block);
      vgpu::tuned::set_value(
          vgpu::tuned::shape_key("reduce", kN) + "/max_blocks", 64);
      vgpu::tuned::set_enabled(true);
      const core::Result tuned =
          run_pso(problem, kN, kD, 8, core::UpdateTechnique::kGlobalMemory);
      EXPECT_EQ(base.gbest_value, tuned.gbest_value)
          << problem << " block=" << block;
      EXPECT_EQ(base.gbest_position, tuned.gbest_position)
          << problem << " block=" << block;
      EXPECT_EQ(base.gbest_history, tuned.gbest_history)
          << problem << " block=" << block;
    }
  }
}

TEST(TuneBitwise, ReduceArgminMatchesScalarScanAtAllWidths) {
  // Direct differential on the reduction itself: tuned widths against a
  // first-strict-minimum scalar scan.
  vgpu::Device device;
  constexpr int kCount = 1000;
  vgpu::DeviceArray<float> values(device, kCount);
  for (int i = 0; i < kCount; ++i) {
    values[static_cast<std::size_t>(i)] =
        static_cast<float>((i * 2654435761ull) % 997) * 0.25f;
  }
  int expect_idx = 0;
  for (int i = 1; i < kCount; ++i) {
    if (values[static_cast<std::size_t>(i)] <
        values[static_cast<std::size_t>(expect_idx)]) {
      expect_idx = i;
    }
  }
  for (const int block : {32, 64, 256, 1024}) {
    vgpu::tuned::ScopedTuning guard;
    vgpu::tuned::clear_values();
    vgpu::tuned::set_value(
        vgpu::tuned::shape_key("reduce", kCount) + "/block", block);
    vgpu::tuned::set_enabled(true);
    const auto result = vgpu::reduce_argmin(device, values.data(), kCount);
    EXPECT_EQ(result.index, expect_idx) << "block=" << block;
    EXPECT_EQ(result.value, values[static_cast<std::size_t>(expect_idx)]);
  }
}

}  // namespace
}  // namespace fastpso
