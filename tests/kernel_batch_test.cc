// Differential tests for the batch confidence kernels
// (interval/kernel_simd.h): every batch form, on both backends (the AVX2
// ConfidenceFromBatch body where the CPU has it), must reproduce the scalar
// kernel — and therefore core::ConfidenceEvaluator — bit for bit, on
// every model × tableau-type × series-shape combination, including the
// ragged tails shorter than a vector width (this suite also runs in the
// ASan ctest configuration to catch out-of-bounds lane reads there) and
// whole-generator runs across backends. The endpoint search
// (ConfidenceKernel::LargestEndpointWithin) is checked against a linear
// scan for every range and starting guess, with a bound on its probes.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/confidence.h"
#include "core/model.h"
#include "interval/exhaustive.h"
#include "interval/generator.h"
#include "interval/kernel.h"
#include "interval/kernel_simd.h"
#include "test_data.h"
#include "util/random.h"

namespace conservation {
namespace {

using core::ConfidenceEvaluator;
using core::ConfidenceModel;
using core::TableauType;
using interval::AlgorithmKind;
using interval::Candidate;
using interval::GeneratorOptions;
using interval::GeneratorStats;
using interval::internal::ActiveSimdBackend;
using interval::internal::ConfidenceKernel;
using interval::internal::ScanLastQualifying;
using interval::internal::SetSimdBackendForTest;
using interval::internal::SimdBackend;
using interval::internal::SimdBackendName;

// Restores the process-wide backend selection on scope exit, so tests can
// force backends without leaking the override into later tests.
class BackendGuard {
 public:
  BackendGuard() : saved_(ActiveSimdBackend()) {}
  ~BackendGuard() { SetSimdBackendForTest(saved_); }
  SimdBackend saved() const { return saved_; }

 private:
  const SimdBackend saved_;
};

// Backends exercised on this machine: the portable scalar reference plus
// whatever the runtime dispatch selected (avx2 / scalar). Forcing a
// backend the CPU cannot execute would fault, so only the dispatched one
// is added.
std::vector<SimdBackend> TestableBackends() {
  std::vector<SimdBackend> backends{SimdBackend::kScalar};
  const SimdBackend active = ActiveSimdBackend();
  if (active != SimdBackend::kScalar) backends.push_back(active);
  return backends;
}

// Edge-shape series families alongside the random dominated generator:
//   near_zero_a  - outbound all zero except a single trailing 1 (the
//                  closest CountSequence admits to an all-zero a): numerator
//                  areas clamp to 0 almost everywhere.
//   zero_gap     - a == b everywhere, so every suffix min gap is 0 and
//                  credit/debit baselines coincide with balance.
//   saturated    - outbound spikes above the inbound baseline: raw areas go
//                  negative and the clamp saturates on both numerator and
//                  denominator.
series::CountSequence MakeFamily(const std::string& family, int64_t n) {
  if (family == "random") return testing_util::RandomDominatedCounts(7, n);
  std::vector<double> a(static_cast<size_t>(n), 0.0);
  std::vector<double> b(static_cast<size_t>(n), 0.0);
  util::Rng rng(13);
  if (family == "near_zero_a") {
    for (int64_t t = 0; t < n; ++t) {
      b[static_cast<size_t>(t)] = static_cast<double>(rng.Poisson(4.0));
    }
    b[0] += 1.0;  // ensure b is not identically zero
    a[static_cast<size_t>(n - 1)] = 1.0;
  } else if (family == "zero_gap") {
    for (int64_t t = 0; t < n; ++t) {
      const double v = static_cast<double>(rng.Poisson(3.0));
      a[static_cast<size_t>(t)] = v;
      b[static_cast<size_t>(t)] = v;
    }
    a[0] += 1.0;
    b[0] += 1.0;
  } else if (family == "saturated") {
    for (int64_t t = 0; t < n; ++t) {
      b[static_cast<size_t>(t)] = 1.0;
      a[static_cast<size_t>(t)] =
          rng.Bernoulli(0.2) ? static_cast<double>(rng.UniformInt(5, 20))
                             : 0.0;
    }
  } else {
    CR_UNREACHABLE();
  }
  auto counts = series::CountSequence::Create(std::move(a), std::move(b));
  CR_CHECK(counts.ok());
  return std::move(counts).value();
}

const std::string kFamilies[] = {"random", "near_zero_a", "zero_gap",
                                 "saturated"};
const ConfidenceModel kModels[] = {ConfidenceModel::kBalance,
                                   ConfidenceModel::kCredit,
                                   ConfidenceModel::kDebit};
const TableauType kTypes[] = {TableauType::kHold, TableauType::kFail};

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// --- Kernel-level: batch outputs vs a loop over the scalar calls ----------

class KernelBatchBitIdentity
    : public ::testing::TestWithParam<
          std::tuple<std::string, ConfidenceModel, TableauType>> {};

TEST_P(KernelBatchBitIdentity, AllBatchFormsMatchScalarCalls) {
  const auto& [family, model, type] = GetParam();
  // 97 and 41 are deliberately not multiples of any vector width, so every
  // sweep ends in a ragged tail.
  const int64_t n = 97;
  const series::CountSequence counts = MakeFamily(family, n);
  const series::CumulativeSeries cumulative(counts);
  const ConfidenceEvaluator eval(&cumulative, model);

  BackendGuard guard;
  for (const SimdBackend backend : TestableBackends()) {
    SetSimdBackendForTest(backend);
    const ConfidenceKernel kernel(eval, type);
    SCOPED_TRACE(std::string("backend=") + SimdBackendName(backend));

    std::vector<double> batch_conf(static_cast<size_t>(n) + 1);
    std::vector<uint8_t> batch_valid(static_cast<size_t>(n) + 1);
    std::vector<double> batch_area(static_cast<size_t>(n) + 1);

    for (const int64_t i : {int64_t{1}, int64_t{2}, n / 3, n - 2, n}) {
      ConfidenceKernel scalar_kernel(eval, type);
      scalar_kernel.BeginAnchor(i);
      ConfidenceKernel batch_kernel(eval, type);
      batch_kernel.BeginAnchor(i);
      SCOPED_TRACE("anchor i=" + std::to_string(i));

      // Contiguous sweeps [i, n], including a short tail-only range.
      for (const int64_t j1 : {std::min(n, i + 2), n}) {
        batch_kernel.ConfidenceBatch(i, j1, batch_conf.data(),
                                     batch_valid.data());
        batch_kernel.SparseAreaBatch(i, j1, batch_area.data());
        for (int64_t j = i; j <= j1; ++j) {
          const size_t k = static_cast<size_t>(j - i);
          double conf = 0.0;
          const bool valid = scalar_kernel.Confidence(j, &conf);
          ASSERT_EQ(batch_valid[k], valid ? 1 : 0) << "j=" << j;
          ASSERT_EQ(Bits(batch_conf[k]), Bits(valid ? conf : 0.0))
              << "j=" << j;
          ASSERT_EQ(Bits(batch_area[k]), Bits(scalar_kernel.SparseArea(j)))
              << "j=" << j;
          // The kernel itself must agree with the evaluator's closed form.
          const std::optional<double> reference = eval.Confidence(i, j);
          ASSERT_EQ(valid, reference.has_value()) << "j=" << j;
          if (valid) {
            ASSERT_EQ(Bits(conf), Bits(*reference)) << "j=" << j;
          }
        }
      }

      // Index-list sweep over a strided, ascending endpoint list.
      std::vector<int64_t> js;
      for (int64_t j = i; j <= n; j += 1 + (j % 5)) js.push_back(j);
      batch_kernel.ConfidenceIndexBatch(js.data(),
                                        static_cast<int64_t>(js.size()),
                                        batch_conf.data(),
                                        batch_valid.data());
      for (size_t k = 0; k < js.size(); ++k) {
        double conf = 0.0;
        const bool valid = scalar_kernel.Confidence(js[k], &conf);
        ASSERT_EQ(batch_valid[k], valid ? 1 : 0) << "j=" << js[k];
        ASSERT_EQ(Bits(batch_conf[k]), Bits(valid ? conf : 0.0))
            << "j=" << js[k];
      }
    }

    // Right-anchored sweeps, short and long anchor lists.
    for (const int64_t j : {int64_t{41}, n}) {
      ConfidenceKernel scalar_kernel(eval, type);
      scalar_kernel.BeginRightAnchor(j);
      ConfidenceKernel batch_kernel(eval, type);
      batch_kernel.BeginRightAnchor(j);
      std::vector<int64_t> is;
      for (int64_t i = 1; i <= j; i += 1 + (i % 3)) is.push_back(i);
      batch_kernel.ConfidenceFromBatch(is.data(),
                                       static_cast<int64_t>(is.size()),
                                       batch_conf.data(),
                                       batch_valid.data());
      for (size_t k = 0; k < is.size(); ++k) {
        double conf = 0.0;
        const bool valid = scalar_kernel.ConfidenceFrom(is[k], &conf);
        ASSERT_EQ(batch_valid[k], valid ? 1 : 0)
            << "j=" << j << " i=" << is[k];
        ASSERT_EQ(Bits(batch_conf[k]), Bits(valid ? conf : 0.0))
            << "j=" << j << " i=" << is[k];
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelBatchBitIdentity,
    ::testing::Combine(::testing::ValuesIn(kFamilies),
                       ::testing::ValuesIn(kModels),
                       ::testing::ValuesIn(kTypes)));

// --- Generator-level: whole runs across backends --------------------------

class GeneratorBackendBitIdentity
    : public ::testing::TestWithParam<
          std::tuple<std::string, ConfidenceModel, TableauType>> {};

TEST_P(GeneratorBackendBitIdentity, CandidatesAndCountersMatchScalar) {
  const auto& [family, model, type] = GetParam();
  const int64_t n = 97;
  const series::CountSequence counts = MakeFamily(family, n);
  const series::CumulativeSeries cumulative(counts);
  const ConfidenceEvaluator eval(&cumulative, model);

  const AlgorithmKind kinds[] = {
      AlgorithmKind::kExhaustive, AlgorithmKind::kAreaBased,
      AlgorithmKind::kAreaBasedOpt, AlgorithmKind::kNonAreaBased,
      AlgorithmKind::kNonAreaBasedOpt};

  BackendGuard guard;
  for (const AlgorithmKind kind : kinds) {
    // The §V NAB algorithms are balance-model only.
    if (model != ConfidenceModel::kBalance &&
        (kind == AlgorithmKind::kNonAreaBased ||
         kind == AlgorithmKind::kNonAreaBasedOpt)) {
      continue;
    }
    const auto generator = interval::MakeGenerator(kind);
    for (const double epsilon : {0.05, 0.5}) {
      for (const bool early_exit : {false, true}) {
        GeneratorOptions options;
        options.type = type;
        options.c_hat = type == TableauType::kHold ? 0.7 : 0.3;
        options.epsilon = epsilon;
        options.largest_first_early_exit = early_exit;
        SCOPED_TRACE(std::string(AlgorithmKindName(kind)) +
                     " eps=" + std::to_string(epsilon) +
                     " early_exit=" + std::to_string(early_exit));

        SetSimdBackendForTest(SimdBackend::kScalar);
        GeneratorStats scalar_stats;
        const std::vector<Candidate> scalar_out =
            generator->GenerateCandidates(eval, options, &scalar_stats);

        for (const SimdBackend backend : TestableBackends()) {
          SetSimdBackendForTest(backend);
          GeneratorStats stats;
          const std::vector<Candidate> out =
              generator->GenerateCandidates(eval, options, &stats);
          SCOPED_TRACE(std::string("backend=") + SimdBackendName(backend));
          ASSERT_EQ(out.size(), scalar_out.size());
          for (size_t k = 0; k < out.size(); ++k) {
            EXPECT_EQ(out[k].interval, scalar_out[k].interval);
            EXPECT_EQ(Bits(out[k].confidence),
                      Bits(scalar_out[k].confidence));
          }
          // Logical work counters feed crdiscover diagnostics and bench
          // records; they must not depend on the backend (speculative
          // batch lanes are uncounted by design).
          EXPECT_EQ(stats.intervals_tested, scalar_stats.intervals_tested);
          EXPECT_EQ(stats.endpoint_steps, scalar_stats.endpoint_steps);
          EXPECT_EQ(stats.candidates, scalar_stats.candidates);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeneratorBackendBitIdentity,
    ::testing::Combine(::testing::ValuesIn(kFamilies),
                       ::testing::ValuesIn(kModels),
                       ::testing::ValuesIn(kTypes)));

// --- Endpoint search: every (lo, hi, guess) against a linear scan ---------

// The largest j in [lo, hi] with area[j] <= threshold, or lo - 1.
int64_t LinearLargestWithin(const std::vector<double>& area, int64_t lo,
                            int64_t hi, double threshold) {
  int64_t result = lo - 1;
  for (int64_t j = lo; j <= hi && area[static_cast<size_t>(j)] <= threshold;
       ++j) {
    result = j;
  }
  return result;
}

// ceil(log2(x)) for x >= 1.
uint64_t CeilLog2(uint64_t x) { return std::bit_width(x - 1); }

// Runs the search over area[lo..hi] from every guess in [-1, hi - lo + 3]
// (below 1, inside the range and past hi) and checks the result against
// the linear scan and the probe count against 2 ceil(log2(d + 2)) + 2,
// where d is the distance from the guess to the answer in steps past lo.
void ExpectSearchMatchesScan(const std::vector<double>& area, int64_t lo,
                             int64_t hi, double threshold) {
  const int64_t want = LinearLargestWithin(area, lo, hi, threshold);
  for (int64_t guess = -1; guess <= hi - lo + 3; ++guess) {
    uint64_t probes = 0;
    const int64_t got = ConfidenceKernel::LargestEndpointWithin(
        lo, hi, guess, threshold, &probes,
        [&](int64_t j) { return area[static_cast<size_t>(j)]; });
    ASSERT_EQ(got, want) << "lo=" << lo << " hi=" << hi
                         << " guess=" << guess << " threshold=" << threshold;
    const int64_t answer_step = want - lo + 1;
    const uint64_t distance =
        static_cast<uint64_t>(std::abs(answer_step - guess));
    ASSERT_LE(probes, 2 * CeilLog2(distance + 2) + 2)
        << "lo=" << lo << " hi=" << hi << " guess=" << guess
        << " threshold=" << threshold << " answer=" << want;
  }
}

TEST(EndpointSearch, MatchesLinearScanOnMonotoneArrays) {
  // Index 0 is never searched (anchors and endpoints start at 1). Each
  // array is nondecreasing: zero plateaus, equal-value runs, a long flat
  // tail, steady growth.
  std::vector<std::vector<double>> arrays = {
      {-1, 0, 0, 0, 0, 1, 1, 1, 2, 3, 3, 5, 8, 8, 8, 8, 13, 21, 21, 34, 55,
       55, 55, 55, 55, 55, 89, 144, 144, 233, 377, 377},
      {-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
      {-1, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 9},
      {-1, 0, 0, 0, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50,
       50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50},
  };
  std::vector<double>& quadratic = arrays.emplace_back(1, -1.0);
  for (int64_t j = 1; j <= 48; ++j) {
    quadratic.push_back(static_cast<double>(j * j) / 2.0);
  }

  for (const std::vector<double>& area : arrays) {
    const int64_t n = static_cast<int64_t>(area.size()) - 1;
    // Every value in the array (ties at the threshold), the midpoints
    // between consecutive values, and values below and above them all.
    std::vector<double> thresholds{-0.5, 1e9};
    for (int64_t j = 1; j <= n; ++j) {
      thresholds.push_back(area[static_cast<size_t>(j)]);
      if (j < n) {
        thresholds.push_back((area[static_cast<size_t>(j)] +
                              area[static_cast<size_t>(j + 1)]) /
                             2.0);
      }
    }
    for (int64_t lo = 1; lo <= n; ++lo) {
      for (int64_t hi = lo - 1; hi <= n; ++hi) {
        for (const double threshold : thresholds) {
          ExpectSearchMatchesScan(area, lo, hi, threshold);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(EndpointSearch, ProbesGrowWithDistanceNotRange) {
  // One long array, so a gallop that grows slower than doubling or a
  // bisection of the whole range overshoots the bound: guesses at the
  // answer, at powers of two away on either side, at 1 and past hi.
  const int64_t n = 1 << 14;
  std::vector<double> area{-1};
  for (int64_t j = 1; j <= n; ++j) area.push_back(static_cast<double>(j / 3));
  for (int64_t answer = 1; answer <= n; answer += 997) {
    const double threshold = area[static_cast<size_t>(answer)];
    const int64_t want = LinearLargestWithin(area, 1, n, threshold);
    std::vector<int64_t> guesses{1, want, n + 5};
    for (int64_t d = 1; d < n; d *= 2) {
      guesses.push_back(want + d);
      guesses.push_back(want - d);
    }
    for (const int64_t guess : guesses) {
      uint64_t probes = 0;
      ASSERT_EQ(ConfidenceKernel::LargestEndpointWithin(
                    1, n, guess, threshold, &probes,
                    [&](int64_t j) { return area[static_cast<size_t>(j)]; }),
                want)
          << "guess=" << guess;
      const uint64_t distance = static_cast<uint64_t>(std::abs(want - guess));
      ASSERT_LE(probes, 2 * CeilLog2(distance + 2) + 2)
          << "guess=" << guess << " answer=" << want;
    }
  }
}

TEST(EndpointSearch, KernelSearchMatchesLinearScanOverSparseArea) {
  // The kernel overload on real series: every anchor, thresholds at and
  // between its areas, guesses 1, a mid-range step and one past n.
  const int64_t n = 97;
  for (const std::string family : {"random", "near_zero_a", "zero_gap"}) {
    const series::CountSequence counts = MakeFamily(family, n);
    const series::CumulativeSeries cumulative(counts);
    for (const ConfidenceModel model : kModels) {
      const ConfidenceEvaluator eval(&cumulative, model);
      for (const TableauType type : kTypes) {
        ConfidenceKernel kernel(eval, type);
        SCOPED_TRACE(family + " " + core::ConfidenceModelName(model) + " " +
                     core::TableauTypeName(type));
        for (int64_t i = 1; i <= n; ++i) {
          kernel.BeginAnchor(i);
          std::vector<double> area(static_cast<size_t>(n) + 1, 0.0);
          for (int64_t j = i; j <= n; ++j) {
            area[static_cast<size_t>(j)] = kernel.SparseArea(j);
          }
          for (int64_t j = i; j <= n; j += 7) {
            const double threshold = area[static_cast<size_t>(j)];
            const int64_t want = LinearLargestWithin(area, i, n, threshold);
            for (const int64_t guess : {int64_t{1}, int64_t{13}, n + 1}) {
              uint64_t probes = 0;
              ASSERT_EQ(kernel.LargestEndpointWithin(i, n, guess, threshold,
                                                     &probes),
                        want)
                  << "i=" << i << " guess=" << guess;
            }
          }
        }
      }
    }
  }
}

// --- The shared exhaustive scan: ScanLastQualifying vs a scalar scan -----

// Largest j in [from, n] whose scalar confidence passes the exact threshold,
// or 0 when none does.
int64_t ScalarLastQualifying(const ConfidenceEvaluator& eval,
                             const GeneratorOptions& options, int64_t i,
                             int64_t from, int64_t n, double* conf) {
  for (int64_t j = n; j >= from; --j) {
    const std::optional<double> c = eval.Confidence(i, j);
    if (c.has_value() && interval::PassesExactThreshold(*c, options)) {
      *conf = *c;
      return j;
    }
  }
  return 0;
}

TEST(ExhaustiveScan, MatchesScalarLastQualifyingFromAnyStart) {
  // n spans three 512-wide blocks, so hits in an earlier block are
  // overwritten by later ones and a start just before or on a block
  // boundary shifts every block.
  const int64_t n = 1100;
  for (const std::string& family : kFamilies) {
    const series::CountSequence counts = MakeFamily(family, n);
    const series::CumulativeSeries cumulative(counts);
    for (const ConfidenceModel model : kModels) {
      const ConfidenceEvaluator eval(&cumulative, model);
      for (const TableauType type : kTypes) {
        for (const double c_hat : {0.3, 0.7, 0.95}) {
          GeneratorOptions options;
          options.type = type;
          options.c_hat = c_hat;
          ConfidenceKernel kernel(eval, type);
          SCOPED_TRACE(family + " " + core::ConfidenceModelName(model) + " " +
                       core::TableauTypeName(type) +
                       " c_hat=" + std::to_string(c_hat));
          for (int64_t i = 1; i <= n; i += 37) {
            kernel.BeginAnchor(i);
            for (const int64_t from :
                 {i, i + 1, i + 511, i + 512, (i + n) / 2, n}) {
              if (from > n) continue;
              double want_conf = 0.0;
              const int64_t want_j =
                  ScalarLastQualifying(eval, options, i, from, n, &want_conf);
              int64_t best_j = 0;
              double best_conf = 0.0;
              const uint64_t batches = ScanLastQualifying(
                  kernel, options, from, n, &best_j, &best_conf);
              ASSERT_EQ(best_j, want_j) << "i=" << i << " from=" << from;
              if (want_j != 0) {
                ASSERT_EQ(Bits(best_conf), Bits(want_conf))
                    << "i=" << i << " from=" << from;
              }
              EXPECT_EQ(batches, static_cast<uint64_t>((n - from) / 512 + 1))
                  << "i=" << i << " from=" << from;
            }
          }
        }
      }
    }
  }
}

TEST(ExhaustiveScan, LeavesBestUntouchedWhenNothingQualifies) {
  const int64_t n = 600;
  const series::CountSequence counts = MakeFamily("random", n);
  const series::CumulativeSeries cumulative(counts);
  const ConfidenceEvaluator eval(&cumulative, ConfidenceModel::kBalance);
  GeneratorOptions options;
  options.type = TableauType::kHold;
  // No confidence exceeds 1, so a threshold above it admits nothing.
  options.c_hat = 1.5;
  ConfidenceKernel kernel(eval, options.type);
  kernel.BeginAnchor(3);
  int64_t best_j = -7;
  double best_conf = 42.0;
  EXPECT_EQ(ScanLastQualifying(kernel, options, 3, n, &best_j, &best_conf),
            2u);
  EXPECT_EQ(best_j, -7);
  EXPECT_EQ(best_conf, 42.0);

  // A start past n (an anchor resumed with no new endpoints) makes no
  // ConfidenceBatch call.
  options.c_hat = 0.0;
  EXPECT_EQ(ScanLastQualifying(kernel, options, n + 1, n, &best_j, &best_conf),
            0u);
  EXPECT_EQ(best_j, -7);
  EXPECT_EQ(best_conf, 42.0);
}

}  // namespace
}  // namespace conservation
