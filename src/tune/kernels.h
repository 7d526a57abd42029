// The tunable kernel families of the engine (DESIGN.md §12).
//
// A KernelFamily bundles everything the tuner needs to search one kernel's
// configuration space for one workload shape:
//   * its JoinedSpace (axes + validity predicates) and default point;
//   * predicted_us — the modeled-cost oracle: the family mirrors the exact
//     launch geometry its runtime consumer derives from a tuned point and
//     prices it with vgpu::GpuPerfModel, so predicted ordering matches what
//     the engine will report;
//   * entries — the vgpu::tuned store keys a point pins for a shape's
//     bucket (the producer half of the key schema the consumers look up);
//   * executed_us — the executed-replay probe: runs the real kernel on a
//     vgpu::Device with the entries installed (ScopedTuning-bracketed) and
//     returns the modeled time actually accrued, validating predictions
//     against the engine rather than the mirror.
//
// Families: "launch_policy" (element-wise block size + items-per-thread,
// consumer core::LaunchPolicy), "reduce" (tree width + partial-grid cap,
// consumer vgpu::reduce), "swarm_tile" (shared-memory tile edge, consumer
// core::swarm_update), "serve_pack" (cross-job packing warp-utilization
// threshold + cohort width, consumer serve::PackOptions::resolve), and one
// "tgbm/<site>" family per MiniGBM kernel site (consumer
// tgbm::tuned_configs / plan_launch).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "tgbm/dataset.h"
#include "tgbm/kernels.h"
#include "tune/shapes.h"
#include "tune/space.h"
#include "vgpu/device_spec.h"

namespace fastpso::tune {

/// Store entries one configuration point pins for one shape's bucket.
using StoreEntries = std::map<std::string, int>;

struct KernelFamily {
  std::string name;  ///< family label == WorkloadShape::kernel
  JoinedSpace space;
  Point default_point;
  /// Modeled cost (microseconds) of one launch of this family's kernel
  /// over `shape` under `point`. Pure function of (point, shape).
  std::function<double(const Point&, const WorkloadShape&)> predicted_us;
  /// vgpu::tuned store entries `point` pins for `shape`'s bucket.
  std::function<StoreEntries(const Point&, const WorkloadShape&)> entries;
  /// Executed-replay probe: modeled microseconds the real kernel accrues
  /// on a fresh Device with `entries` installed (empty = default
  /// geometry). Null when the family has no cheap executed form.
  std::function<double(const StoreEntries&, const WorkloadShape&)>
      executed_us;

  /// "axis=value;axis=value" rendering of a point (table provenance).
  [[nodiscard]] std::string point_string(const Point& point) const;
};

/// The engine's three launch-geometry families on `gpu`.
std::vector<KernelFamily> engine_families(const vgpu::GpuSpec& gpu);

/// One family per MiniGBM kernel site for (spec, params) on `gpu`, named
/// "tgbm/<site>"; includes the shared-memory fit predicate for
/// histogram-class sites so no spilling configuration is ever emitted.
std::vector<KernelFamily> tgbm_site_families(const tgbm::DatasetSpec& spec,
                                             const tgbm::GbmParams& params,
                                             const vgpu::GpuSpec& gpu);

/// Workload shapes matching tgbm_site_families (one per site, elements =
/// the site's per-launch work items).
std::vector<WorkloadShape> tgbm_site_shapes(const tgbm::DatasetSpec& spec,
                                            const tgbm::GbmParams& params);

/// Family with the given name, or nullptr.
const KernelFamily* find_family(const std::vector<KernelFamily>& families,
                                std::string_view name);

}  // namespace fastpso::tune
