// Tests for the modeled collective layer (src/vgpu/comm/, DESIGN.md §11).
//
// The comm contract under test: the data plane is a canonical rank-order
// reduction — bitwise-reproducible, independent of timing — while the time
// plane charges every participant's dedicated comm stream the ring
// algorithm's modeled cost from the GpuSpec link constants. One-device
// groups degenerate to free no-ops.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "vgpu/comm/comm.h"
#include "vgpu/device.h"
#include "vgpu/device_spec.h"

namespace fastpso::vgpu::comm {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D49B129649CA1Dull;
  return z ^ (z >> 31);
}

/// Deterministic per-rank payloads in [-4, 4), distinct across ranks and
/// elements (so a wrong reduction order or a dropped rank changes bits).
std::vector<std::vector<float>> rank_payloads(int devices, int width,
                                              std::uint64_t seed) {
  std::vector<std::vector<float>> buffers(
      static_cast<std::size_t>(devices));
  std::uint64_t state = seed;
  for (auto& buffer : buffers) {
    buffer.resize(static_cast<std::size_t>(width));
    for (float& value : buffer) {
      value = static_cast<float>(splitmix64(state) % 8192u) / 1024.0f - 4.0f;
    }
  }
  return buffers;
}

std::vector<float*> pointers(std::vector<std::vector<float>>& buffers) {
  std::vector<float*> out;
  out.reserve(buffers.size());
  for (auto& buffer : buffers) {
    out.push_back(buffer.data());
  }
  return out;
}

float apply(ReduceOp op, float a, float b) {
  switch (op) {
    case ReduceOp::kMin:
      return std::min(a, b);
    case ReduceOp::kMax:
      return std::max(a, b);
    case ReduceOp::kSum:
      return a + b;
  }
  return a;
}

// ---- data plane ----------------------------------------------------------

TEST(Comm, AllreduceMatchesSequentialRankOrderReductionBitwise) {
  for (ReduceOp op : {ReduceOp::kMin, ReduceOp::kMax, ReduceOp::kSum}) {
    for (int width : {1, 3, 4, 17, 64}) {
      DeviceGroup group(4, test_gpu_small());
      Communicator comm(group);
      auto buffers = rank_payloads(group.size(), width, 77);
      // Expected: strict rank order 0..N-1 — the order the modeled ring
      // reproduces — never a tree or a pairwise order (kSum would differ
      // in bits).
      std::vector<float> expected(buffers[0]);
      for (int rank = 1; rank < group.size(); ++rank) {
        for (int e = 0; e < width; ++e) {
          expected[static_cast<std::size_t>(e)] =
              apply(op, expected[static_cast<std::size_t>(e)],
                    buffers[static_cast<std::size_t>(rank)]
                           [static_cast<std::size_t>(e)]);
        }
      }
      comm.allreduce(op, pointers(buffers), width);
      for (int rank = 0; rank < group.size(); ++rank) {
        for (int e = 0; e < width; ++e) {
          SCOPED_TRACE(std::string(to_string(op)) + " width " +
                       std::to_string(width) + " rank " +
                       std::to_string(rank) + " elem " + std::to_string(e));
          EXPECT_EQ(buffers[static_cast<std::size_t>(rank)]
                           [static_cast<std::size_t>(e)],
                    expected[static_cast<std::size_t>(e)]);
        }
      }
    }
  }
}

TEST(Comm, AllreduceMinlocTiesGoToTheLowestRank) {
  DeviceGroup group(4, test_gpu_small());
  Communicator comm(group);
  EXPECT_EQ(comm.allreduce_minloc({3.0f, 1.0f, 2.0f, 1.5f}), 1);
  // A tie between ranks 1 and 3 must pick rank 1 — the collective
  // reduction reproduces the global argmin's lowest-index tie-break.
  EXPECT_EQ(comm.allreduce_minloc({3.0f, 1.0f, 2.0f, 1.0f}), 1);
  EXPECT_EQ(comm.allreduce_minloc({0.5f, 0.5f, 0.5f, 0.5f}), 0);
}

TEST(Comm, BroadcastIsIdempotent) {
  DeviceGroup group(3, test_gpu_small());
  Communicator comm(group);
  const int width = 9;
  auto buffers = rank_payloads(group.size(), width, 11);
  const std::vector<float> root_copy = buffers[2];
  comm.broadcast(2, pointers(buffers), width);
  for (const auto& buffer : buffers) {
    EXPECT_EQ(buffer, root_copy);
  }
  // Broadcasting again moves no data (all ranks already hold the row);
  // only the modeled cost accrues.
  comm.broadcast(2, pointers(buffers), width);
  for (const auto& buffer : buffers) {
    EXPECT_EQ(buffer, root_copy);
  }
}

TEST(Comm, AllgatherConcatenatesInRankOrder) {
  DeviceGroup group(3, test_gpu_small());
  Communicator comm(group);
  const int width = 5;
  auto send = rank_payloads(group.size(), width, 23);
  std::vector<std::vector<float>> recv(
      3, std::vector<float>(static_cast<std::size_t>(3 * width), 0.0f));
  std::vector<const float*> send_ptrs;
  for (const auto& buffer : send) {
    send_ptrs.push_back(buffer.data());
  }
  comm.allgather(send_ptrs, pointers(recv), width);
  for (int rank = 0; rank < 3; ++rank) {
    for (int src = 0; src < 3; ++src) {
      for (int e = 0; e < width; ++e) {
        EXPECT_EQ(recv[static_cast<std::size_t>(rank)]
                      [static_cast<std::size_t>(src * width + e)],
                  send[static_cast<std::size_t>(src)]
                      [static_cast<std::size_t>(e)]);
      }
    }
  }
}

// ---- time plane ----------------------------------------------------------

TEST(Comm, ModeledCostIsMonotoneInPayloadAndDevices) {
  const GpuSpec spec = test_gpu_small();
  using CostFn = CollectiveCostSpec (*)(int, double);
  for (CostFn cost_fn : {static_cast<CostFn>(allreduce_cost),
                         static_cast<CostFn>(broadcast_cost),
                         static_cast<CostFn>(allgather_cost)}) {
    // Strictly increasing in payload at a fixed device count.
    double previous = cost_fn(4, 64.0).seconds(spec);
    for (double bytes : {256.0, 4096.0, 1048576.0}) {
      const double seconds = cost_fn(4, bytes).seconds(spec);
      EXPECT_GT(seconds, previous) << "payload " << bytes;
      previous = seconds;
    }
    // Strictly increasing in device count at a fixed payload (more ring
    // steps, more per-link wire traffic).
    previous = cost_fn(2, 4096.0).seconds(spec);
    for (int devices : {3, 4, 8, 16}) {
      const double seconds = cost_fn(devices, 4096.0).seconds(spec);
      EXPECT_GT(seconds, previous) << "devices " << devices;
      previous = seconds;
    }
  }
}

TEST(Comm, SingleDeviceCollectivesAreFreeNoOps) {
  DeviceGroup group(1, test_gpu_small());
  Communicator comm(group);
  auto buffers = rank_payloads(1, 6, 5);
  const std::vector<float> original = buffers[0];
  comm.allreduce(ReduceOp::kSum, pointers(buffers), 6);
  EXPECT_EQ(buffers[0], original);  // a 1-rank reduction is its input
  comm.broadcast(0, pointers(buffers), 6);
  EXPECT_EQ(comm.allreduce_minloc({2.5f}), 0);
  std::vector<float> recv(6, 0.0f);
  comm.allgather({buffers[0].data()}, {recv.data()}, 6);
  EXPECT_EQ(recv, original);  // allgather still copies the one rank

  EXPECT_TRUE(comm.records().empty());
  EXPECT_EQ(comm.comm_seconds(0), 0.0);
  EXPECT_EQ(comm.total_seconds(), 0.0);
  EXPECT_EQ(group.device(0).counters().collectives, 0u);
  EXPECT_EQ(group.device(0).counters().comm_seconds, 0.0);
  EXPECT_EQ(group.device(0).modeled_seconds(), 0.0);
}

TEST(Comm, CollectivesChargeEveryDeviceCommStreamIdentically) {
  DeviceGroup group(3, test_gpu_small());
  Communicator comm(group);
  auto buffers = rank_payloads(group.size(), 16, 3);
  comm.allreduce(ReduceOp::kMin, pointers(buffers), 16);
  comm.broadcast(0, pointers(buffers), 16);

  ASSERT_EQ(comm.records().size(), 2u);
  const double expected =
      allreduce_cost(3, 16 * 4.0).seconds(group.spec()) +
      broadcast_cost(3, 16 * 4.0).seconds(group.spec());
  EXPECT_EQ(comm.total_seconds(), expected);
  for (int i = 0; i < group.size(); ++i) {
    SCOPED_TRACE("device " + std::to_string(i));
    EXPECT_EQ(comm.comm_seconds(i), expected);
    EXPECT_EQ(group.device(i).counters().comm_seconds, expected);
    EXPECT_EQ(group.device(i).counters().collectives, 2u);
    // The cost lands on the dedicated comm stream, so it is the device's
    // modeled frontier (no other work was issued).
    EXPECT_EQ(group.device(i).modeled_seconds(), expected);
    EXPECT_EQ(group.device(i).stream_clock(comm.comm_stream(i)), expected);
  }
  // Records carry the declared cost quantities for auditing.
  EXPECT_EQ(comm.records()[0].label, "allreduce_min");
  EXPECT_EQ(comm.records()[0].cost.payload_bytes, 64.0);
  EXPECT_EQ(comm.records()[0].cost.devices, 3);
  EXPECT_EQ(comm.records()[0].start_seconds, 0.0);
  EXPECT_EQ(comm.records()[1].start_seconds, comm.records()[0].seconds);
}

TEST(Comm, RingCostShapesMatchTheAlgorithm) {
  // The modeled quantities are the textbook ring numbers, not tuned knobs:
  // allreduce moves 2(N-1)/N * B per link in 2(N-1) steps; broadcast moves
  // B in N-1 steps; allgather moves (N-1)*B in N-1 steps.
  const CollectiveCostSpec ar = allreduce_cost(4, 1024.0);
  EXPECT_EQ(ar.wire_bytes, 2.0 * 3.0 / 4.0 * 1024.0);
  EXPECT_EQ(ar.latency_hops, 6);
  const CollectiveCostSpec bc = broadcast_cost(4, 1024.0);
  EXPECT_EQ(bc.wire_bytes, 1024.0);
  EXPECT_EQ(bc.latency_hops, 3);
  const CollectiveCostSpec ag = allgather_cost(4, 1024.0);
  EXPECT_EQ(ag.wire_bytes, 3.0 * 1024.0);
  EXPECT_EQ(ag.latency_hops, 3);
}

TEST(Comm, InvalidGroupSizesThrow) {
  EXPECT_THROW(DeviceGroup(0, test_gpu_small()), fastpso::CheckError);
  EXPECT_THROW(DeviceGroup(-2, test_gpu_small()), fastpso::CheckError);
}

}  // namespace
}  // namespace fastpso::vgpu::comm
