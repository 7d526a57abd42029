#include "vgpu/parallel.h"

#include <exception>
#include <limits>

#include <omp.h>

namespace fastpso::vgpu {

void parallel_chunks(std::int64_t n, const void* ctx, ChunkFn fn) {
  // The lowest throwing chunk wins, so the rethrown exception does not
  // depend on which worker finished first.
  std::exception_ptr error;
  int error_chunk = std::numeric_limits<int>::max();
#pragma omp parallel
  {
    const std::int64_t workers = omp_get_num_threads();
    const int chunk = omp_get_thread_num();
    const std::int64_t begin = n * chunk / workers;
    const std::int64_t end = n * (chunk + 1) / workers;
    if (begin < end) {
      try {
        fn(ctx, begin, end);
      } catch (...) {
#pragma omp critical(fastpso_parallel_chunks_error)
        if (chunk < error_chunk) {
          error_chunk = chunk;
          error = std::current_exception();
        }
      }
    }
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

}  // namespace fastpso::vgpu
