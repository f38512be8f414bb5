// Runtime CPU feature detection for the SIMD kernel dispatch
// (interval/kernel_simd.h).
//
// Detection runs once per process (CpuInfo caches it) and answers only the
// question the kernels ask: "may I execute AVX2 instructions?" on x86-64.
// Whether the AVX2 body was compiled in is layered on top by the interval
// layer; this header is pure hardware capability.

#ifndef CONSERVATION_UTIL_CPU_H_
#define CONSERVATION_UTIL_CPU_H_

namespace conservation::util {

struct CpuFeatures {
  // x86-64: AVX2 (256-bit integer + double lanes, vector gathers).
  bool avx2 = false;
};

inline CpuFeatures DetectCpuFeatures() {
  CpuFeatures features;
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  features.avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
  return features;
}

// Cached process-wide view; the detection itself is cheap but callers treat
// this as a constant, so compute it exactly once.
inline const CpuFeatures& CpuInfo() {
  static const CpuFeatures features = DetectCpuFeatures();
  return features;
}

}  // namespace conservation::util

#endif  // CONSERVATION_UTIL_CPU_H_
