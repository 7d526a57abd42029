// Host fan-out for element-wise kernel bodies (DESIGN.md §1, "Host
// parallelism").
//
// The virtual GPU runs a launch's bodies on the host. An element kernel owns
// its outputs per index — the sanitizer proves every element kernel writes
// each output exactly once — so the element range may be split across host
// workers without changing a bit. parallel_chunks is the one place that
// does so: it cuts [0, n) into one contiguous static chunk per worker and
// runs the range callback on each. Worker count is the OpenMP runtime
// default (nproc, or OMP_NUM_THREADS); the pool starts at the first call.
//
// Only bodies fan out. Callers keep accounting, stream clocks, graph
// capture, pack offers and profiling on the calling thread, before or after
// the call. OpenMP stays private to parallel.cpp, so no header that
// includes this one is compiled with -fopenmp.
#pragma once

#include <cstdint>

namespace fastpso::vgpu {

/// Element count from which a launch fans out. Below it the fork/join costs
/// more than the loop. Shared with the OpenMP CPU baselines (fastpso-omp,
/// hgpu-pso), whose parallel regions make the same decision.
inline constexpr std::int64_t kParallelMinElements = std::int64_t{1} << 15;

/// Range callback: runs elements [begin, end) of the launch bound to `ctx`.
using ChunkFn = void (*)(const void* ctx, std::int64_t begin,
                         std::int64_t end);

/// Splits [0, n) into one contiguous static chunk per host worker and calls
/// `fn(ctx, begin, end)` once per non-empty chunk, concurrently. Returns
/// when every chunk is done. If chunks throw, the exception of the lowest
/// chunk is rethrown on the calling thread — the one a serial loop over
/// [0, n) would have raised first. Allocates nothing unless a chunk
/// throws.
void parallel_chunks(std::int64_t n, const void* ctx, ChunkFn fn);

/// Runs `fn(begin, end)` over [0, n): split by parallel_chunks when the
/// launch covers at least kParallelMinElements `elements` (its element
/// count — n itself for element kernels, rows x dim for a batched eval over
/// n rows), otherwise as one call on the calling thread.
template <typename Fn>
void parallel_ranges(std::int64_t n, std::int64_t elements, const Fn& fn) {
  if (elements < kParallelMinElements) {
    fn(std::int64_t{0}, n);
    return;
  }
  parallel_chunks(n, &fn,
                  [](const void* ctx, std::int64_t begin, std::int64_t end) {
                    (*static_cast<const Fn*>(ctx))(begin, end);
                  });
}

}  // namespace fastpso::vgpu
