// vgpu::comm — an NCCL-style modeled collective layer over a group of
// virtual devices (DESIGN.md §11).
//
// The paper's Section 3.5 exchanges the global best through the host; real
// multi-GPU stacks move it device-to-device over the interconnect with
// collectives (ring allreduce / broadcast / allgather) overlapped with
// compute on streams. This layer reproduces that shape on the virtual GPU,
// with the same split the rest of the repository uses everywhere:
//
//   data plane   executes for real, deterministically. Every reduction runs
//                in canonical rank order 0..N-1 (the order a well-formed
//                ring allreduce reproduces exactly: reduce-scatter
//                accumulates each chunk around the ring starting from a
//                fixed rank), so results are bitwise-reproducible and
//                independent of any modeled timing.
//   time plane   modeled from the ring algorithm's cost over the link
//                constants in GpuSpec (link_bw_gbps / link_latency_us):
//                per-rank wire bytes at link bandwidth plus one link
//                latency per ring step. Each participating device accounts
//                its share on its dedicated comm stream
//                (Device::account_comm), so collectives overlap compute
//                issued on other streams and show up as "comm" lanes in
//                per-device profiles.
//
// Collectives are never captured into execution graphs — they are
// cross-device operations a per-device node list cannot represent — so a
// captured iteration replays its kernels while the Communicator re-accounts
// the exchange eagerly, exactly as issued.
//
// One-device groups degenerate cleanly: every collective is a free no-op
// (no cost, no counters, no events) apart from its data-plane writes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vgpu/device.h"
#include "vgpu/device_spec.h"

namespace fastpso::vgpu::comm {

/// Reduction operators over float payloads. Reductions run in canonical
/// rank order, so kSum is deterministic despite FP non-associativity.
enum class ReduceOp : std::uint8_t { kMin, kMax, kSum };

[[nodiscard]] const char* to_string(ReduceOp op);

/// Modeled cost of one collective, KernelCostSpec-style: the declared
/// quantities a test can audit, separated from the seconds they imply.
struct CollectiveCostSpec {
  int devices = 1;
  double payload_bytes = 0;  ///< logical payload per rank (B)
  double wire_bytes = 0;     ///< bytes each rank's link carries
  int latency_hops = 0;      ///< ring steps, each paying link_latency_us

  /// wire_bytes / link_bw + latency_hops * link_latency.
  [[nodiscard]] double seconds(const GpuSpec& spec) const;
};

/// Ring allreduce: reduce-scatter + allgather. Each rank's link carries
/// 2*(N-1)/N * B over 2*(N-1) steps.
[[nodiscard]] CollectiveCostSpec allreduce_cost(int devices,
                                                double payload_bytes);
/// Pipelined ring broadcast: B over the ring in N-1 steps.
[[nodiscard]] CollectiveCostSpec broadcast_cost(int devices,
                                                double payload_bytes);
/// Ring allgather of B per rank: each link carries (N-1)*B in N-1 steps.
[[nodiscard]] CollectiveCostSpec allgather_cost(int devices,
                                                double payload_bytes);

/// N virtual devices of one spec — per-device memory, pool, counters,
/// profile — plus the spec the group was built from.
class DeviceGroup {
 public:
  explicit DeviceGroup(int devices, GpuSpec spec = tesla_v100());

  DeviceGroup(const DeviceGroup&) = delete;
  DeviceGroup& operator=(const DeviceGroup&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(devices_.size()); }
  [[nodiscard]] Device& device(int i) { return *devices_[checked(i)]; }
  [[nodiscard]] const Device& device(int i) const {
    return *devices_[checked(i)];
  }
  [[nodiscard]] const GpuSpec& spec() const { return spec_; }

 private:
  [[nodiscard]] std::size_t checked(int i) const;

  GpuSpec spec_;
  std::vector<std::unique_ptr<Device>> devices_;
};

/// One issued collective — the auditable record the tests and the scaling
/// benches consume. `start_seconds` is the group-wide ready time the
/// operation was modeled from (max over participants' stream clocks).
struct CollectiveRecord {
  std::string label;
  CollectiveCostSpec cost;
  double start_seconds = 0;
  double seconds = 0;  ///< == cost.seconds(spec); 0 for 1-device groups
};

/// The collective engine over a DeviceGroup. Creates one dedicated comm
/// stream per device at construction; every collective starts at the
/// group-wide ready time (max over all participants' stream clocks) and
/// advances each device's comm stream by the modeled cost, attributed to
/// phase "comm".
class Communicator {
 public:
  explicit Communicator(DeviceGroup& group);

  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  [[nodiscard]] DeviceGroup& group() { return group_; }
  /// The dedicated comm stream of device `i`.
  [[nodiscard]] Device::StreamId comm_stream(int i) const;

  /// Element-wise allreduce over per-rank buffers of `width` floats:
  /// result[e] = op(buffers[0][e], ..., buffers[N-1][e]) in rank order,
  /// written back to every rank. Buffers must be the group's size.
  void allreduce(ReduceOp op, const std::vector<float*>& buffers, int width);

  /// Argmin across one value per rank: returns the winning rank (ties go
  /// to the lowest rank), modeled as an 8-byte (value, rank) allreduce.
  [[nodiscard]] int allreduce_minloc(const std::vector<float>& values);

  /// Copies root's `width` floats into every other rank's buffer.
  void broadcast(int root, const std::vector<float*>& buffers, int width);

  /// Gathers each rank's `width` floats into every rank's recv buffer
  /// (devices * width floats, rank order).
  void allgather(const std::vector<const float*>& send,
                 const std::vector<float*>& recv, int width);

  /// Accounts a collective whose data plane the caller executed itself —
  /// particle-split's guarded gbest adopt only overwrites improving ranks,
  /// which a plain broadcast cannot express. Same timing, counters and
  /// record as the matching data+time call.
  void account_collective(const char* label, const CollectiveCostSpec& cost) {
    account(label, cost);
  }

  /// Every collective issued through this communicator, in issue order.
  [[nodiscard]] const std::vector<CollectiveRecord>& records() const {
    return records_;
  }
  /// Modeled comm seconds accounted on device `i` by this communicator
  /// (== the device counter delta; every rank pays the same per op).
  [[nodiscard]] double comm_seconds(int i) const;
  /// Sum of per-collective modeled seconds (the serial-exchange view; the
  /// per-device comm streams pay this once each, concurrently).
  [[nodiscard]] double total_seconds() const;

 private:
  /// Models one collective: group-wide start, per-device comm-stream
  /// accounting under phase "comm", record. No-op (and no record cost) for
  /// 1-device groups.
  void account(const char* label, const CollectiveCostSpec& cost);

  DeviceGroup& group_;
  std::vector<Device::StreamId> comm_stream_;
  std::vector<double> comm_seconds_;
  std::vector<CollectiveRecord> records_;
};

}  // namespace fastpso::vgpu::comm
