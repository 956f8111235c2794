#pragma once

/// \file config.h
/// \brief Process-wide FeatAug runtime configuration.
///
/// The first knob is the candidate-evaluation thread count. Resolution
/// order: the FEATLIB_NUM_THREADS environment variable (operators override
/// deployments without a rebuild), then FeatAugConfig::num_threads (embedders
/// set it programmatically before the first use of GlobalThreadPool()), then
/// the hardware concurrency. The shared pool is sized exactly once at first
/// use; later changes only affect pools the caller constructs explicitly.

#include <cstddef>

namespace featlib {

/// Which kernel implementation set the query layer dispatches to (see
/// query/kernel_dispatch.h). Every backend is bit-identical to the scalar
/// oracle — the choice is purely a performance knob.
enum class KernelBackend {
  kScalar,  ///< the reference kernels in query/kernels.cc
  kSimd,    ///< the vectorized set (AVX2 / NEON when detected, else scalar code)
  kAuto,    ///< kSimd when the CPU has a vector ISA, kScalar otherwise
};

/// Canonical lowercase name ("scalar" / "simd" / "auto").
const char* KernelBackendName(KernelBackend backend);

struct FeatAugConfig {
  /// Threads for QueryPlanner::EvaluateMany prepare/fan-out. 0 = auto (hardware
  /// concurrency); 1 = serial (the exact single-threaded code path).
  int num_threads = 0;

  /// Kernel backend for the candidate-evaluation fan-out, predicate-mask
  /// builds, and serving-plan compiles. Resolution order mirrors num_threads:
  /// the FEATLIB_KERNEL_BACKEND environment variable (scalar|simd|auto),
  /// then this field, then auto. Per-planner overrides
  /// (QueryPlanner::set_kernel_backend) beat both.
  KernelBackend kernel_backend = KernelBackend::kAuto;

  /// Relevant-table rows per morsel for the out-of-core streaming executor
  /// (see query/morsel.h). 0 = whole table in one pass (the legacy in-RAM
  /// path, byte-for-byte). Resolution order mirrors the other knobs: the
  /// FEATLIB_MORSEL_ROWS environment variable, then this field; a
  /// per-planner override (QueryPlanner::set_morsel_rows) beats both.
  size_t morsel_rows = 0;

  /// The mutable process-wide instance.
  static FeatAugConfig& Global();

  /// Applies the FEATLIB_NUM_THREADS override and the auto default; always
  /// returns >= 1.
  int ResolvedNumThreads() const;

  /// Applies the FEATLIB_KERNEL_BACKEND override (malformed values fall
  /// through to the config field). May return kAuto — the dispatch layer
  /// maps kAuto to the detected ISA.
  KernelBackend ResolvedKernelBackend() const;

  /// Applies the FEATLIB_MORSEL_ROWS override (malformed values fall through
  /// to the config field). 0 means single-pass whole-table execution.
  size_t ResolvedMorselRows() const;
};

}  // namespace featlib
