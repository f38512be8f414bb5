// Batched confidence-kernel forms, with one hand-written AVX2 body.
//
// The generator inner sweeps (interval/kernel.h) are scan-shaped: evaluate
// one arithmetic expression over a run of endpoints (or an index list of
// endpoints) against flat cumulative arrays. This header implements those
// sweeps as batch routines. Each form has one portable scalar loop, the
// reference semantics. The right-anchored NAB probe (ConfidenceFromBatch)
// also has an AVX2 body (4 lanes), the only vector path that moves an
// end-to-end ledger row (DESIGN.md §4d). The CPU alone picks it: the
// backend is resolved once per process from util::CpuInfo().
//
// Bit-identity contract: the AVX2 body reproduces the scalar loop's
// arithmetic lane by lane — the same operand values, the same operation
// order, only IEEE-exact lanewise add/sub/mul/div. No FMA (the build pins
// -ffp-contract=off and the body enables no FMA ISA), no reassociation, no
// approximate reciprocals. Clamp-to-zero is a compare mask + select
// replicating `raw < 0.0 ? 0.0 : raw` exactly (a plain vector max would
// rewrite -0.0 to +0.0 and disagree with the scalar ternary in the last
// bit); validity is a `den > 0.0` compare mask. Consequently the candidate
// stream of every generator is byte-identical on every CPU and thread
// count — enforced by tests/kernel_batch_test.cc.
//
// Batch output contract:
//   * Lane k of a batch holds endpoint j0 + k (contiguous forms) or
//     index_list[k] (index-list forms) — ascending, no permutation.
//   * out_valid[k] is 1 iff the confidence denominator is > 0 (the paper
//     leaves conf undefined otherwise); out_conf[k] is the confidence when
//     valid and exactly 0.0 when invalid, on both backends, so whole
//     output arrays can be compared bytewise in tests.
//   * AVX2 tails shorter than the vector width run the scalar loop —
//     batches never load past the requested range (the ASan configuration
//     of kernel_batch_test guards this).
//   * Exact int64 -> double lane conversion assumes indices < 2^52, far
//     above any representable tick count.

#ifndef CONSERVATION_INTERVAL_KERNEL_SIMD_H_
#define CONSERVATION_INTERVAL_KERNEL_SIMD_H_

#include <atomic>
#include <cstdint>

#include "core/model.h"
#include "obs/metrics.h"
#include "util/cpu.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CONSERVATION_KERNEL_HAVE_AVX2 1
#include <immintrin.h>
#else
#define CONSERVATION_KERNEL_HAVE_AVX2 0
#endif

namespace conservation::interval::internal {

// Numeric codes are stable and published as the `kernel.backend` gauge
// (docs/OBSERVABILITY.md): 0 = scalar, 1 = avx2.
enum class SimdBackend : int { kScalar = 0, kAvx2 = 1 };

inline const char* SimdBackendName(SimdBackend backend) {
  return backend == SimdBackend::kAvx2 ? "avx2" : "scalar";
}

// --- Backend selection -----------------------------------------------------

namespace simd_detail {

// -1 = not yet selected; >= 0 holds the SimdBackend code.
inline std::atomic<int>& BackendStorage() {
  static std::atomic<int> storage{-1};
  return storage;
}

inline void PublishBackendGauge(SimdBackend backend) {
  obs::Registry::Global().Gauge("kernel.backend").Set(
      static_cast<double>(static_cast<int>(backend)));
}

}  // namespace simd_detail

// The backend every ConfidenceKernel constructed afterwards will use: AVX2
// when compiled in and the CPU supports it, scalar otherwise. Selected once
// (first caller wins; concurrent first calls agree because the choice is a
// hardware fact) and published to the `kernel.backend` gauge.
inline SimdBackend ActiveSimdBackend() {
  std::atomic<int>& storage = simd_detail::BackendStorage();
  int current = storage.load(std::memory_order_relaxed);
  if (current < 0) {
    const SimdBackend selected =
        (CONSERVATION_KERNEL_HAVE_AVX2 && util::CpuInfo().avx2)
            ? SimdBackend::kAvx2
            : SimdBackend::kScalar;
    int expected = -1;
    if (storage.compare_exchange_strong(expected,
                                        static_cast<int>(selected),
                                        std::memory_order_relaxed)) {
      simd_detail::PublishBackendGauge(selected);
    }
    current = storage.load(std::memory_order_relaxed);
  }
  return static_cast<SimdBackend>(current);
}

// Test/bench override: forces the backend used by subsequently constructed
// kernels (kAvx2 on a build without it behaves as scalar at dispatch). Only
// ConfidenceFromBatch has two bodies to choose between. Not for concurrent
// use with in-flight generation.
inline void SetSimdBackendForTest(SimdBackend backend) {
  simd_detail::BackendStorage().store(static_cast<int>(backend),
                                      std::memory_order_relaxed);
  simd_detail::PublishBackendGauge(backend);
}

// --- Batch argument blocks -------------------------------------------------
// Snapshots of the per-anchor state the scalar kernel hoists
// (interval/kernel.h); built by ConfidenceKernel, consumed by the loops.

// Left-anchored confidence sweep: anchor i fixed, endpoint j varies.
struct LeftAnchorBatchArgs {
  const double* sa;
  const double* sb;
  double sa_prev;
  double sb_prev;
  double h_a;
  double h_b;
  int64_t i;
};

// Left-anchored sparsification-area sweep.
struct SparseBatchArgs {
  const double* sp;
  double sp_prev;
  double h_sp;
  int64_t i;
};

// Right-anchored confidence sweep (NAB): endpoint j fixed, anchor i varies.
struct RightAnchorBatchArgs {
  const double* a;
  const double* s;
  const double* sa;
  const double* sb;
  double sa_end;
  double sb_end;
  int64_t j;
  core::ConfidenceModel model;
};

// --- Portable scalar loops -------------------------------------------------
// The reference semantics: expression-for-expression the scalar kernel
// (and therefore core::ConfidenceEvaluator). The AVX2 body must match these
// bytes.

inline void SparseAreaBatchScalar(const SparseBatchArgs& args, int64_t j0,
                                  int64_t j1, double* out) {
  const double* __restrict sp = args.sp;
  for (int64_t j = j0; j <= j1; ++j) {
    const double raw = (sp[j] - args.sp_prev) -
                       static_cast<double>(j - args.i + 1) * args.h_sp;
    out[j - j0] = raw < 0.0 ? 0.0 : raw;
  }
}

inline void ConfidenceBatchScalar(const LeftAnchorBatchArgs& args, int64_t j0,
                                  int64_t j1, double* out_conf,
                                  uint8_t* out_valid) {
  const double* __restrict sa = args.sa;
  const double* __restrict sb = args.sb;
  for (int64_t j = j0; j <= j1; ++j) {
    const int64_t k = j - j0;
    const double len = static_cast<double>(j - args.i + 1);
    const double den_raw = (sb[j] - args.sb_prev) - len * args.h_b;
    const double den = den_raw < 0.0 ? 0.0 : den_raw;
    const double num_raw = (sa[j] - args.sa_prev) - len * args.h_a;
    const double num = num_raw < 0.0 ? 0.0 : num_raw;
    const bool valid = den > 0.0;
    out_conf[k] = valid ? num / den : 0.0;
    out_valid[k] = valid ? 1 : 0;
  }
}

inline void ConfidenceIndexBatchScalar(const LeftAnchorBatchArgs& args,
                                       const int64_t* js, int64_t count,
                                       double* out_conf, uint8_t* out_valid) {
  const double* __restrict sa = args.sa;
  const double* __restrict sb = args.sb;
  for (int64_t k = 0; k < count; ++k) {
    const int64_t j = js[k];
    const double len = static_cast<double>(j - args.i + 1);
    const double den_raw = (sb[j] - args.sb_prev) - len * args.h_b;
    const double den = den_raw < 0.0 ? 0.0 : den_raw;
    const double num_raw = (sa[j] - args.sa_prev) - len * args.h_a;
    const double num = num_raw < 0.0 ? 0.0 : num_raw;
    const bool valid = den > 0.0;
    out_conf[k] = valid ? num / den : 0.0;
    out_valid[k] = valid ? 1 : 0;
  }
}

inline void ConfidenceFromBatchScalar(const RightAnchorBatchArgs& args,
                                      const int64_t* is, int64_t count,
                                      double* out_conf, uint8_t* out_valid) {
  const double* __restrict a = args.a;
  const double* __restrict s = args.s;
  const double* __restrict sa = args.sa;
  const double* __restrict sb = args.sb;
  for (int64_t k = 0; k < count; ++k) {
    const int64_t i = is[k];
    const double prev = a[i - 1];
    const double gap = s[i];
    const double h_a =
        args.model == core::ConfidenceModel::kCredit ? prev - gap : prev;
    const double h_b =
        args.model == core::ConfidenceModel::kDebit ? prev + gap : prev;
    const double len = static_cast<double>(args.j - i + 1);
    const double den_raw = (args.sb_end - sb[i - 1]) - len * h_b;
    const double den = den_raw < 0.0 ? 0.0 : den_raw;
    const double num_raw = (args.sa_end - sa[i - 1]) - len * h_a;
    const double num = num_raw < 0.0 ? 0.0 : num_raw;
    const bool valid = den > 0.0;
    out_conf[k] = valid ? num / den : 0.0;
    out_valid[k] = valid ? 1 : 0;
  }
}

// --- AVX2 right-anchored probe ---------------------------------------------

#if CONSERVATION_KERNEL_HAVE_AVX2

namespace avx2 {

// `raw < 0.0 ? 0.0 : raw`, lanewise, with the scalar ternary's exact
// semantics: -0.0 and NaN pass through (an ordered < compare is false for
// both), which _mm256_max_pd would not guarantee for -0.0.
__attribute__((target("avx2"))) inline __m256d ClampZero(__m256d raw) {
  const __m256d zero = _mm256_setzero_pd();
  return _mm256_blendv_pd(raw, zero,
                          _mm256_cmp_pd(raw, zero, _CMP_LT_OQ));
}

// Exact int64 -> double for 0 <= v < 2^52: OR the value into the mantissa
// of 2^52 and subtract 2^52 back out (AVX2 has no direct epi64 -> pd
// conversion; this classic trick is bit-exact in the supported range).
__attribute__((target("avx2"))) inline __m256d SmallInt64ToDouble(__m256i v) {
  const __m256i magic = _mm256_set1_epi64x(0x4330000000000000LL);
  return _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(v, magic)),
                       _mm256_set1_pd(4503599627370496.0));  // 2^52
}

// Four scalar loads assembled into one vector. Deliberately not
// _mm256_i64gather_pd: hardware gathers are microcoded on most cores and
// lose to plain loads when the indices already sit in memory. `offset` is
// applied to every index (for the idx-1 prefix reads).
__attribute__((target("avx2"))) inline __m256d GatherLanes(
    const double* base, const int64_t* idx, int64_t offset = 0) {
  return _mm256_setr_pd(base[idx[0] + offset], base[idx[1] + offset],
                        base[idx[2] + offset], base[idx[3] + offset]);
}

__attribute__((target("avx2"))) inline void StoreValid(uint8_t* out,
                                                       __m256d mask) {
  const int bits = _mm256_movemask_pd(mask);
  out[0] = static_cast<uint8_t>(bits & 1);
  out[1] = static_cast<uint8_t>((bits >> 1) & 1);
  out[2] = static_cast<uint8_t>((bits >> 2) & 1);
  out[3] = static_cast<uint8_t>((bits >> 3) & 1);
}

// Clamp, validity mask, guarded divide (invalid lanes are masked to
// exactly 0.0 so output arrays are deterministic across backends).
__attribute__((target("avx2"))) inline void EmitConfidence(
    __m256d den_raw, __m256d num_raw, double* out_conf, uint8_t* out_valid) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d den = ClampZero(den_raw);
  const __m256d num = ClampZero(num_raw);
  const __m256d valid = _mm256_cmp_pd(den, zero, _CMP_GT_OQ);
  const __m256d conf = _mm256_and_pd(_mm256_div_pd(num, den), valid);
  _mm256_storeu_pd(out_conf, conf);
  StoreValid(out_valid, valid);
}

__attribute__((target("avx2"))) inline void ConfidenceFromBatch(
    const RightAnchorBatchArgs& args, const int64_t* is, int64_t count,
    double* out_conf, uint8_t* out_valid) {
  const __m256d sa_end = _mm256_set1_pd(args.sa_end);
  const __m256d sb_end = _mm256_set1_pd(args.sb_end);
  const __m256i j_plus_1 = _mm256_set1_epi64x(args.j + 1);
  const bool credit = args.model == core::ConfidenceModel::kCredit;
  const bool debit = args.model == core::ConfidenceModel::kDebit;
  int64_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(is + k));
    const __m256d prev = GatherLanes(args.a, is + k, -1);
    // The model is uniform across lanes, so the baseline branch runs once
    // per vector — the lanes themselves stay branchless. Balance skips the
    // gap load entirely (the scalar kernel loads but never uses it).
    __m256d h_a = prev;
    __m256d h_b = prev;
    if (credit || debit) {
      const __m256d gap = GatherLanes(args.s, is + k);
      if (credit) h_a = _mm256_sub_pd(prev, gap);
      if (debit) h_b = _mm256_add_pd(prev, gap);
    }
    const __m256d sa_im1 = GatherLanes(args.sa, is + k, -1);
    const __m256d sb_im1 = GatherLanes(args.sb, is + k, -1);
    const __m256d len = SmallInt64ToDouble(_mm256_sub_epi64(j_plus_1, idx));
    const __m256d den_raw = _mm256_sub_pd(_mm256_sub_pd(sb_end, sb_im1),
                                          _mm256_mul_pd(len, h_b));
    const __m256d num_raw = _mm256_sub_pd(_mm256_sub_pd(sa_end, sa_im1),
                                          _mm256_mul_pd(len, h_a));
    EmitConfidence(den_raw, num_raw, out_conf + k, out_valid + k);
  }
  if (k < count) {
    ConfidenceFromBatchScalar(args, is + k, count - k, out_conf + k,
                              out_valid + k);
  }
}

}  // namespace avx2

#endif  // CONSERVATION_KERNEL_HAVE_AVX2

}  // namespace conservation::interval::internal

#endif  // CONSERVATION_INTERVAL_KERNEL_SIMD_H_
