#include "nn/kernels.hpp"

#include <atomic>

#include "common/knobs.hpp"

namespace dmis::nn {
namespace {

std::atomic<KernelBackend>& backend_slot() {
  static std::atomic<KernelBackend> slot{
      knobs::get<KernelBackend>(Knob::kKernel)};
  return slot;
}

}  // namespace

KernelBackend default_kernel_backend() {
  return backend_slot().load(std::memory_order_relaxed);
}

KernelBackend set_default_kernel_backend(KernelBackend backend) {
  return backend_slot().exchange(backend, std::memory_order_relaxed);
}

const char* kernel_backend_name(KernelBackend backend) {
  return backend == KernelBackend::kNaive ? "naive" : "gemm";
}

}  // namespace dmis::nn
