// Tuned-config tables: the deterministic artifact the tuner emits and the
// runtime loads (DESIGN.md §12).
//
// A TunedTable carries two things:
//   * the flat key -> int store the runtime consumes (vgpu::tuned keys:
//     "launch_policy/b9/block", "reduce/b12/max_blocks", ...), and
//   * per-group provenance: which point won each shape group and its
//     predicted / executed-replay costs against the defaults — the
//     predicted-vs-executed record bench/tune_search reports.
//
// Serialization is deterministic: keys in sorted order, groups in emission
// order, doubles via shortest-round-trip formatting. load() parses exactly
// the format save() writes, so save -> load -> save is byte-identical
// (pinned by test_tune.cpp); the "store" section is also what
// vgpu::tuned::load_file scans at startup under FASTPSO_TUNED=1.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fastpso::tune {

/// Outcome of tuning one shape group.
struct GroupResult {
  std::string key;          ///< ShapeGroup::key(), also the store prefix
  std::string point;        ///< winning point, "axis=value;..." form
  double default_us = 0;    ///< predicted cost of the default config
  double tuned_us = 0;      ///< predicted cost of the winning config
  double executed_default_us = 0;  ///< executed-replay probe (0: not probed)
  double executed_tuned_us = 0;
};

class TunedTable {
 public:
  void set(const std::string& key, int value) { store_[key] = value; }
  void add_group(GroupResult result) {
    groups_.push_back(std::move(result));
  }

  [[nodiscard]] const std::map<std::string, int>& store() const {
    return store_;
  }
  [[nodiscard]] const std::vector<GroupResult>& groups() const {
    return groups_;
  }

  /// Installs the store into the vgpu::tuned runtime (does not flip the
  /// master toggle).
  void install() const;

  /// Deterministic JSON / CSV renderings.
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] std::string to_csv() const;

  bool save_json(const std::string& path) const;
  bool save_csv(const std::string& path) const;

  /// Parses a table previously produced by to_json()/save_json().
  static std::optional<TunedTable> load(const std::string& path);
  static std::optional<TunedTable> parse(const std::string& json);

 private:
  std::map<std::string, int> store_;
  std::vector<GroupResult> groups_;
};

}  // namespace fastpso::tune
