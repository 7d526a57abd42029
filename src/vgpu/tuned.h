// Runtime tuned-configuration store (consumer half of the autotuner).
//
// The offline tuner (src/tune/, DESIGN.md §12) searches kernel
// configuration spaces and emits a tuned-config table. This header is the
// *runtime* side: a process-wide key -> integer store that the launch-shape
// decision points consult — core::LaunchPolicy (element block size,
// items-per-thread cap), vgpu::reduce (tree width, partial-grid cap),
// core::swarm_update (shared-memory tile edge) and tgbm (per-site kernel
// configs). It lives in vgpu, below every consumer, so src/tune can depend
// on the whole engine without a cycle.
//
// Off by default: every lookup returns its fallback unless the master
// toggle is on (FASTPSO_TUNED=1 or set_enabled(true)) AND the key is
// present, so default behavior — results, counters, modeled seconds,
// golden traces — is untouched byte for byte. When FASTPSO_TUNED=1 is set
// at startup, the table named by FASTPSO_TUNED_TABLE (the JSON emitted by
// tune::TunedTable::save) is loaded before the first lookup resolves.
//
// Tuned entries change launch *geometry* only (grid/block/tile/tree
// width), never kernel arithmetic, so results stay bitwise-identical to
// default for the element kernels and the argmin reduction
// (tests/test_tune.cpp pins both). Modeled time and traces do change —
// that is the point.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace fastpso::vgpu::tuned {

/// Master toggle. Initialized from FASTPSO_TUNED=1; flip at runtime with
/// set_enabled (tests/probes use ScopedTuning instead).
[[nodiscard]] bool enabled();
void set_enabled(bool enable);

/// Consumer-side lookup: `fallback` unless enabled() and `key` is present.
/// The first lookup (or enabled() query) after startup loads the table
/// named by FASTPSO_TUNED_TABLE when FASTPSO_TUNED=1.
[[nodiscard]] int lookup(std::string_view key, int fallback);

/// Raw store access (independent of the master toggle).
void set_value(const std::string& key, int value);
void clear_values();
/// Replaces the whole store (the tuner's table installation primitive).
void install(std::map<std::string, int> values);
[[nodiscard]] const std::map<std::string, int>& values();

/// Parses the `"store"` section of a tuned-config table JSON (the format
/// tune::TunedTable::save emits) into the store, merging over existing
/// keys. Returns false when the file cannot be read or has no store.
bool load_file(const std::string& path);

/// Shape bucketing shared by the tuner (producer) and the launch-shape
/// consumers: workloads whose element counts share a power-of-two bucket
/// are covered by one tuned entry. floor(log2(elements)), clamped to
/// [0, 62]; elements <= 0 maps to bucket 0.
[[nodiscard]] int elements_bucket(std::int64_t elements);

/// Canonical key prefix for one kernel family at one shape bucket:
/// "<kernel>/b<bucket>". Axis keys append "/<axis>".
[[nodiscard]] std::string shape_key(std::string_view kernel,
                                    std::int64_t elements);

/// RAII snapshot of the store and the master toggle; restores both on
/// destruction. The tuner brackets every executed-replay probe with one of
/// these so probe overrides never leak into the search (or the caller).
class ScopedTuning {
 public:
  ScopedTuning();
  ~ScopedTuning();
  ScopedTuning(const ScopedTuning&) = delete;
  ScopedTuning& operator=(const ScopedTuning&) = delete;

 private:
  std::map<std::string, int> saved_values_;
  bool saved_enabled_;
};

}  // namespace fastpso::vgpu::tuned
