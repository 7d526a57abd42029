// Workload shapes and shape grouping (DESIGN.md §12).
//
// A WorkloadShape is one concrete launch the engine performs: a kernel
// family label plus the problem geometry (swarm size n, problem dim d, and
// the derived element count the kernel iterates over). Tuning every exact
// shape would overfit and bloat the tables, so shapes cluster into
// ShapeGroups keyed on (kernel, power-of-two element bucket) — the same
// bucketing vgpu::tuned uses at lookup time, so one searched group covers
// every shape that will consult its entry. Grouping is deterministic:
// sorted by key, representative = the group's largest shape (ties to the
// smaller dim), independent of input order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fastpso::tune {

/// One concrete workload: kernel family label x problem geometry.
struct WorkloadShape {
  std::string kernel;        ///< family label ("reduce", "launch_policy", ...)
  std::int64_t elements = 1; ///< items the kernel iterates over
  int dim = 1;               ///< problem dimensionality d
  int swarm = 1;             ///< swarm size n

  [[nodiscard]] bool operator==(const WorkloadShape&) const = default;
};

/// A cluster of shapes sharing one tuned-table entry.
struct ShapeGroup {
  std::string kernel;
  int bucket = 0;  ///< vgpu::tuned::elements_bucket of every member
  WorkloadShape representative;
  std::vector<WorkloadShape> shapes;

  /// Canonical group key, equal to the tuned-store key prefix this group's
  /// winning configuration is emitted under: "<kernel>/b<bucket>".
  [[nodiscard]] std::string key() const;
};

/// Clusters shapes into groups. Deterministic: output sorted by key, group
/// members sorted by (elements, dim, swarm), duplicates removed.
std::vector<ShapeGroup> group_shapes(std::vector<WorkloadShape> shapes);

/// The engine's smoke shapes: the four Table 1 problem geometries (plus the
/// paper-scale 5000 x 200 run) expanded over the engine kernel families —
/// the standard input of the tuner smoke search (bench/tune_search, CI).
std::vector<WorkloadShape> smoke_shapes();

}  // namespace fastpso::tune
