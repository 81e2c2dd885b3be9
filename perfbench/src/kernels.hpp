/**
 * @file
 * Kernel passes: host nanoseconds per call of one layer's public
 * function, on inputs shaped like the workload's.  The traced run
 * multiplies them by the layer's counts to estimate each layer's
 * share of run_s until in-program spans exist.
 */
#ifndef PERFBENCH_KERNELS_HPP
#define PERFBENCH_KERNELS_HPP

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

/**
 * Median ns per call over a few batches of kernel @p name (a per-layer
 * metric name such as "util.kernel.crc32_4k_ns"); -1 if unknown.
 */
double runKernel(std::string_view name, uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_KERNELS_HPP
