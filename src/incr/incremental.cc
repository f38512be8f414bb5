#include "incr/incremental.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "cover/partial_set_cover.h"
#include "interval/area_based.h"
#include "interval/kernel.h"
#include "interval/non_area_based.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace conservation::incr {

namespace {

using interval::internal::ConfidenceKernel;

// Registry mirror of IncrStats (which stays the API-stable per-discoverer
// view); these counters accumulate across discoverers. Batch-published at
// the end of every ProcessBatch.
struct IncrMetrics {
  obs::Counter& batches;
  obs::Counter& candidates_extended;
  obs::Counter& cover_warm_pops;
  obs::Counter& full_rebuilds;
  obs::Counter& dirty_anchors;
  // Per-AppendBatch wall time; the source of the windowed p50/p99 tick
  // latency quantiles on the scrape endpoint.
  obs::Histogram& batch_seconds;

  static IncrMetrics& Get() {
    static IncrMetrics* metrics = [] {
      obs::Registry& registry = obs::Registry::Global();
      return new IncrMetrics{registry.Counter("incr.batches"),
                             registry.Counter("incr.candidates_extended"),
                             registry.Counter("incr.cover_warm_pops"),
                             registry.Counter("incr.full_rebuilds"),
                             registry.Counter("incr.dirty_anchors"),
                             registry.Histogram(
                                 "incr.batch_seconds",
                                 {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0})};
    }();
    return *metrics;
  }
};

// One relaxed-threshold confidence test folded into a (best_j, best_conf)
// accumulator — the generators' exact guard (valid + qualifying + longer
// than the incumbent). kernel.Confidence is bit-identical to the batch
// kernels the fresh sweeps use (kernel.h contract), so folding tests one
// at a time across batches reproduces their single-pass folds.
void FoldRelaxedTest(const ConfidenceKernel& kernel,
                     const interval::GeneratorOptions& options, int64_t j,
                     int64_t* best_j, double* best_conf) {
  double conf;
  if (kernel.Confidence(j, &conf) &&
      interval::PassesRelaxedThreshold(conf, options) && j > *best_j) {
    *best_j = j;
    *best_conf = conf;
  }
}

// Credit-fail zero-prefix probes strictly below `zae`, over the generators'
// length list (interval::internal::ZeroPrefixLengths) for the current n;
// duplicates cannot displace themselves under the j > best_j guard, exactly
// as in the fresh sweep. The probed set is n-independent once zae is
// settled: every consumed entry is an uncapped floor power < zae <= n, and
// the list's final capped entry `n` maps to j = i + n - 1 >= zae, past the
// break.
void FoldZeroPrefix(const ConfidenceKernel& kernel,
                    const interval::GeneratorOptions& options,
                    const std::vector<int64_t>& lengths, int64_t i,
                    int64_t zae, int64_t* best_j, double* best_conf) {
  for (const int64_t len : lengths) {
    const int64_t j = i + len - 1;
    if (j >= zae) return;
    FoldRelaxedTest(kernel, options, j, best_j, best_conf);
  }
}

// "Worse-than" order for the warm heap. Matches GreedyPartialSetCover's
// deterministic WorseThan on every pair the selection can actually compare:
// gain descending, then ByPosition ascending. Live entries' intervals are
// pairwise position-distinct (one candidate per anchor, distinct anchors),
// so the fresh comparator's input-index component is unreachable for them;
// the seq tie-break only orders stale duplicates, which selection skips
// without side effects. Templated because HeapEntry is a private nested
// type of the discoverer.
template <typename Entry>
bool EntryWorse(const Entry& a, const Entry& b) {
  if (a.gain != b.gain) return a.gain < b.gain;
  if (a.iv.begin != b.iv.begin || a.iv.end != b.iv.end) {
    return interval::ByPosition(b.iv, a.iv);
  }
  return a.seq > b.seq;
}

}  // namespace

util::Result<IncrementalDiscoverer> IncrementalDiscoverer::Create(
    const series::CountSequence& initial, const core::TableauRequest& request) {
  if (util::Status status = core::ValidateTableauRequest(request);
      !status.ok()) {
    return status;
  }
  if (request.stop_on_full_cover) {
    return util::Status::InvalidArgument(
        "incremental maintenance does not support stop_on_full_cover (its "
        "emitted candidate set depends on sweep order, which maintenance "
        "cannot reproduce)");
  }
  IncrementalDiscoverer discoverer(initial, request);
  // The initial series is the first batch: every anchor is new.
  discoverer.ProcessBatch(series::CumulativeSeries::AppendResult{0, 1, false});
  return std::move(discoverer);
}

IncrementalDiscoverer::IncrementalDiscoverer(
    const series::CountSequence& initial, const core::TableauRequest& request)
    : request_(request),
      series_(std::make_unique<series::CumulativeSeries>(initial)),
      eval_(std::make_unique<core::ConfidenceEvaluator>(series_.get(),
                                                        request.model)) {
  // Sequential mirror of DiscoverTableau's options copy: the delta paths
  // run per-anchor O(1) resumes, which do not shard.
  gen_options_.type = request.type;
  gen_options_.c_hat = request.c_hat;
  gen_options_.epsilon = request.epsilon;
  gen_options_.delta_mode = request.delta_mode;
  gen_options_.stop_on_full_cover = false;
  gen_options_.largest_first_early_exit = request.largest_first_early_exit;
  gen_options_.num_threads = 1;
  credit_fail_ = request.type == core::TableauType::kFail &&
                 request.model == core::ConfidenceModel::kCredit;
  fail_type_ = request.type == core::TableauType::kFail;
  tableau_.type = request.type;
  tableau_.model = request.model;
}

const core::Tableau& IncrementalDiscoverer::AppendBatch(const double* a,
                                                        const double* b,
                                                        int64_t m) {
  CR_CHECK(m > 0);
  obs::ScopedDeadline deadline("incr.append_batch");
  util::Stopwatch batch_timer;
  const series::CumulativeSeries::AppendResult delta =
      series_->Append(a, b, m);
  ProcessBatch(delta);
  IncrMetrics::Get().batch_seconds.Record(batch_timer.ElapsedSeconds());
  return tableau_;
}

const core::Tableau& IncrementalDiscoverer::AppendBatch(
    const std::vector<double>& a, const std::vector<double>& b) {
  CR_CHECK(a.size() == b.size());
  return AppendBatch(a.data(), b.data(), static_cast<int64_t>(a.size()));
}

void IncrementalDiscoverer::ProcessBatch(
    const series::CumulativeSeries::AppendResult& delta) {
  const IncrStats before = stats_;
  const int64_t old_n = delta.old_n;
  const double cur_delta = interval::ResolveDelta(*series_, gen_options_);
  const bool uses_delta =
      request_.algorithm == interval::AlgorithmKind::kAreaBased ||
      request_.algorithm == interval::AlgorithmKind::kAreaBasedOpt;
  // Delta changing (a new tick introduced a smaller minimum positive count)
  // re-levels every AB/AB-opt threshold ladder: no settled level or chain
  // position survives, so reset and re-walk everything. Exhaustive and NAB
  // never consult Delta.
  bool full_rebuild = false;
  if (stats_.batches > 0 && uses_delta && cur_delta != prev_delta_) {
    full_rebuild = true;
    ++stats_.full_rebuilds;
  }
  prev_delta_ = cur_delta;
  GrowStateArrays(series_->n());

  int64_t dirty_begin = old_n + 1;
  if (full_rebuild) {
    ResetAllAnchorStates();
    dirty_begin = 1;
  } else if (request_.model != core::ConfidenceModel::kBalance &&
             delta.first_changed_s <= old_n) {
    // Credit/debit baselines read SuffixMinGap(i): anchors whose gap the
    // append lowered have moved baselines and must re-walk from scratch.
    dirty_begin = delta.first_changed_s;
    stats_.dirty_anchors += old_n - dirty_begin + 1;
  }

  switch (request_.algorithm) {
    case interval::AlgorithmKind::kAreaBased:
      ProcessAreaBased(delta, dirty_begin);
      break;
    case interval::AlgorithmKind::kAreaBasedOpt:
      ProcessAreaBasedOpt(delta, dirty_begin);
      break;
    case interval::AlgorithmKind::kExhaustive:
      ProcessExhaustive(delta, dirty_begin);
      break;
    case interval::AlgorithmKind::kNonAreaBased:
    case interval::AlgorithmKind::kNonAreaBasedOpt:
      ProcessNonAreaBased(delta);
      break;
  }

  ++stats_.batches;
  if (append_only_) {
    // Deferred-cover mode: the candidate store and pending heap entries now
    // carry this batch's full delta, so MaintainHeap + RunWarmCover at any
    // later RefreshCover() produce the same tableau a per-batch refresh
    // would have — deferral reorders no heap pushes (pending_entries_ keeps
    // arrival order) and selection state never persists across batches.
    cover_stale_ = true;
  } else {
    MaintainHeap();
    RunWarmCover();
    // If append-only mode was toggled off while stale, this eager pass
    // just absorbed the backlog too.
    cover_stale_ = false;
  }

  IncrMetrics& metrics = IncrMetrics::Get();
  metrics.batches.Increment();
  metrics.candidates_extended.Add(static_cast<uint64_t>(
      stats_.candidates_extended - before.candidates_extended));
  metrics.cover_warm_pops.Add(
      static_cast<uint64_t>(stats_.cover_warm_pops - before.cover_warm_pops));
  metrics.full_rebuilds.Add(
      static_cast<uint64_t>(stats_.full_rebuilds - before.full_rebuilds));
  metrics.dirty_anchors.Add(
      static_cast<uint64_t>(stats_.dirty_anchors - before.dirty_anchors));
}

const core::Tableau& IncrementalDiscoverer::RefreshCover() {
  if (cover_stale_) {
    MaintainHeap();
    RunWarmCover();
    cover_stale_ = false;
  }
  return tableau_;
}

void IncrementalDiscoverer::ResetAllAnchorStates() {
  std::fill(ab_.begin(), ab_.end(), AbState{});
  std::fill(abopt_.begin(), abopt_.end(), AbOptState{});
  std::fill(exh_.begin(), exh_.end(), ExhState{});
}

void IncrementalDiscoverer::GrowStateArrays(int64_t n) {
  const size_t size = static_cast<size_t>(n) + 1;
  switch (request_.algorithm) {
    case interval::AlgorithmKind::kAreaBased:
      ab_.resize(size);
      break;
    case interval::AlgorithmKind::kAreaBasedOpt:
      abopt_.resize(size);
      break;
    case interval::AlgorithmKind::kExhaustive:
      exh_.resize(size);
      break;
    default:
      break;  // NAB keeps no per-anchor resume state
  }
  cand_valid_.resize(size, 0);
  cand_begin_.resize(size, 0);
  cand_end_.resize(size, 0);
  cand_conf_.resize(size, 0.0);
  cand_version_.resize(size, 0);
}

// ---------------------------------------------------------------------------
// Area-based (AB): per-anchor level ladder with a resumable frontier.
//
// Follows the generator's per-anchor level sweep (area_based.cc) level for
// level, on the same ladder, first-level skip and endpoint search
// (interval::internal::AbThresholds / AbFirstLevel,
// ConfidenceKernel::LargestEndpointWithin). A level's breakpoint t
// (largest j in [i, n] with area <= T) SETTLES when t < n — the area is
// nondecreasing in j, so area(t + 1) > T persists under every append — and
// its confidence test folds into the persistent (best_j, best_conf) once.
// A walk that stopped at t == n holds an O(1) frontier: while
// area(i, n') <= T it stays stopped (the breakpoint rides the frontier and
// is evaluated tentatively each batch), and the first batch where the area
// crosses T settles the level by binary search and resumes the ladder.
// ---------------------------------------------------------------------------
void IncrementalDiscoverer::ProcessAreaBased(
    const series::CumulativeSeries::AppendResult& delta, int64_t dirty_begin) {
  const int64_t n = series_->n();
  const int64_t old_n = delta.old_n;
  const double growth = 1.0 + gen_options_.epsilon;
  const double dlt = prev_delta_;

  // The generator's threshold ladder, rebuilt per batch. Prefix-stable and
  // size-nondecreasing across appends: Delta is fixed (a decrease forced a
  // full rebuild upstream) and max_area only grows, so settled levels keep
  // their thresholds.
  const std::vector<double> thresholds = interval::internal::AbThresholds(
      *series_, gen_options_.type, dlt, growth);
  const size_t num_thresholds = thresholds.size();
  const std::vector<int64_t> zero_prefix_lengths =
      credit_fail_ ? interval::internal::ZeroPrefixLengths(n, growth)
                   : std::vector<int64_t>{};
  uint64_t probes = 0;  // the generator's endpoint_steps; unreported here

  ConfidenceKernel kernel(*eval_, gen_options_.type);
  for (int64_t i = 1; i <= n; ++i) {
    AbState& st = ab_[static_cast<size_t>(i)];
    if (i > old_n || i >= dirty_begin) st = AbState{};
    kernel.BeginAnchor(i);

    if (st.stage == AbState::kExhausted && st.level >= num_thresholds) {
      // Ladder fully consumed and no new levels appeared: the candidate is
      // exactly the settled fold. No version bump happens below.
      UpdateCandidate(i, st.best_j >= i, i, st.best_j, st.best_conf);
      continue;
    }

    // For a clean anchor first_level is batch-invariant: area(i, i), Delta
    // and growth do not move (credit/debit anchors whose SuffixMinGap
    // changed were reset above).
    const size_t first_level = interval::internal::AbFirstLevel(
        kernel.SparseArea(i), dlt, growth, fail_type_);

    size_t level;
    bool stopped = false;
    bool tent_at_n = false;  // frontier breakpoint at n, evaluated per batch
    bool tent_zp = false;    // zae would settle at n: tentative zero prefix
    if (st.stage == AbState::kFresh) {
      level = fail_type_ ? 0 : first_level;
    } else if (st.stage == AbState::kStopped) {
      const double threshold = thresholds[st.level];
      if (kernel.SparseArea(n) <= threshold) {
        // Still stopped: the breakpoint extended to the new n.
        stopped = true;
        tent_at_n = true;
        tent_zp = threshold == 0.0 && !st.zae_settled;
      } else {
        level = st.level;  // the stopped level settles in the loop below
      }
    } else {
      level = st.level;  // kExhausted: only the newly appeared levels run
    }

    if (!stopped) {
      while (level < num_thresholds) {
        const double threshold = thresholds[level];
        int64_t t;
        bool exists;
        if (kernel.SparseArea(n) <= threshold) {
          // Frontier shortcut: the fresh search would return n with a
          // within-threshold area. Value-identical to the walk's
          // breakpoint, found in O(1) instead of O(log n).
          t = n;
          exists = true;
        } else {
          // The generator's first-touch search: t == i with exists == false
          // when even [i, i] exceeds T.
          t = std::max(i, kernel.LargestEndpointWithin(i, n, threshold,
                                                       &probes));
          exists = kernel.SparseArea(t) <= threshold;
        }
        if (exists && t == n) {
          st.stage = AbState::kStopped;
          st.level = static_cast<uint32_t>(level);
          stopped = true;
          tent_at_n = true;
          tent_zp = threshold == 0.0 && !st.zae_settled;
          break;
        }
        if (exists) {
          if (threshold == 0.0 && !st.zae_settled) {
            // Zero level settled below n: area(t + 1) > 0 persists, so the
            // zero-area end and its prefix probes are final.
            st.zae = t;
            st.zae_settled = true;
            if (credit_fail_ && st.zae > i) {
              FoldZeroPrefix(kernel, gen_options_, zero_prefix_lengths, i,
                             st.zae, &st.best_j, &st.best_conf);
            }
          }
          FoldRelaxedTest(kernel, gen_options_, t, &st.best_j, &st.best_conf);
        } else if (threshold == 0.0 && !st.zae_settled) {
          // area(i, i) > 0 persists: no zero-area prefix, ever.
          st.zae = 0;
          st.zae_settled = true;
        }
        ++level;
        if (level == 1 && first_level > 1) level = first_level;
      }
      if (!stopped) {
        st.stage = AbState::kExhausted;
        st.level = static_cast<uint32_t>(level);
      }
    }

    // Candidate = settled fold + this batch's tentative frontier tests.
    // Tentative results never enter st: they are recomputed (at the moved
    // frontier) next batch. The fold is argmax-j over qualifying tests, so
    // combining order does not matter.
    int64_t cj = st.best_j;
    double cc = st.best_conf;
    if (tent_zp && n > i) {
      FoldZeroPrefix(kernel, gen_options_, zero_prefix_lengths, i, /*zae=*/n,
                     &cj, &cc);
    }
    if (tent_at_n) {
      FoldRelaxedTest(kernel, gen_options_, n, &cj, &cc);
    }
    UpdateCandidate(i, cj >= i, i, cj, cc);
  }
}

// ---------------------------------------------------------------------------
// AB-opt: per-anchor breakpoint chain with a resumable frontier.
//
// Follows the per-anchor path of area_based_opt.cc on the same endpoint
// search and zero-prefix list. A breakpoint
// found strictly below n settles forever (same monotone-area argument as
// AB); a search whose result would sit at n — detected by the O(1) frontier
// probe area(i, n) <= threshold BEFORE any binary search — parks the anchor
// in a pending stage and is evaluated tentatively. Storing only the last
// settled chain position `cur` (the pending search re-derives its
// parameters from it) keeps the state O(1) per anchor; persisting the
// breakpoint list itself would be O(n) per anchor — ~12 GB at n = 1M.
// ---------------------------------------------------------------------------
void IncrementalDiscoverer::ProcessAreaBasedOpt(
    const series::CumulativeSeries::AppendResult& delta, int64_t dirty_begin) {
  const int64_t n = series_->n();
  const int64_t old_n = delta.old_n;
  const double growth = 1.0 + gen_options_.epsilon;
  const double dlt = prev_delta_;
  const std::vector<int64_t> zero_prefix_lengths =
      credit_fail_ ? interval::internal::ZeroPrefixLengths(n, growth)
                   : std::vector<int64_t>{};
  uint64_t probes = 0;  // the generator's endpoint_steps; unreported here

  ConfidenceKernel kernel(*eval_, gen_options_.type);
  for (int64_t i = 1; i <= n; ++i) {
    AbOptState& st = abopt_[static_cast<size_t>(i)];
    if (i > old_n || i >= dirty_begin) st = AbOptState{};
    kernel.BeginAnchor(i);

    enum { kStepZero, kStepInit, kStepChain } step;
    int64_t cur = 0;
    switch (st.stage) {
      case AbOptState::kFresh:
        step = credit_fail_ ? kStepZero : kStepInit;
        break;
      case AbOptState::kPendingInit:
        step = kStepInit;
        break;
      default:  // kPendingChain, kChainEnd
        step = kStepChain;
        cur = st.cur;
        break;
    }

    bool parked = false;      // pending this batch: frontier test below
    bool tent_zp = false;     // sticky zero suffix: tentative zero prefix
    if (step == kStepZero) {
      if (kernel.SparseArea(n) <= 0.0) {
        // Sticky: the whole of [i, n] is zero-area. The fresh walk's
        // zae, init and chain breakpoints all collapse onto n; everything
        // is tentative and the stage stays kFresh for the next batch.
        tent_zp = true;
        parked = true;
      } else {
        const int64_t zae = kernel.LargestEndpointWithin(i, n, 0.0, &probes);
        // Settled: area(zae + 1) > 0 persists.
        st.zae = zae;
        st.zae_settled = true;
        if (zae >= i) {
          FoldZeroPrefix(kernel, gen_options_, zero_prefix_lengths, i, zae,
                         &st.best_j, &st.best_conf);
          FoldRelaxedTest(kernel, gen_options_, zae, &st.best_j,
                          &st.best_conf);
        }
        step = kStepInit;
      }
    }

    if (!parked && step == kStepInit) {
      if (kernel.SparseArea(n) <= dlt) {
        // The init breakpoint sits at n: evaluate tentatively, settle when
        // the area crosses Delta.
        st.stage = AbOptState::kPendingInit;
        parked = true;
      } else {
        const int64_t r = kernel.LargestEndpointWithin(i, n, dlt, &probes);
        cur = r >= i ? r : i;  // forced start when even [i, i] exceeds Delta
        // Dedup mirror of the fresh push guard (breakpoints.back() < cur):
        // the only possible back entry is a pushed zae, and cur >= zae
        // always, so the test is skipped exactly when cur == zae (already
        // folded above). A forced start implies zae < i (zero area is
        // within Delta), so it always tests.
        const bool zae_is_back =
            credit_fail_ && st.zae_settled && st.zae >= i && st.zae == cur;
        if (!zae_is_back) {
          FoldRelaxedTest(kernel, gen_options_, cur, &st.best_j,
                          &st.best_conf);
        }
        step = kStepChain;
      }
    }

    if (!parked) {
      // Chain from the last settled position. Each iteration probes the
      // frontier FIRST, so a binary search only ever runs (and settles)
      // when its result is provably below n; the loop exits at cur == n
      // only through a forced advance, which is settled too (the forcing
      // area(cur + 1) > target persists), so kChainEnd resumes exactly.
      while (cur < n) {
        const double target =
            std::max(kernel.SparseArea(cur), dlt) * growth;
        if (kernel.SparseArea(n) <= target) {
          st.stage = AbOptState::kPendingChain;
          st.cur = cur;
          parked = true;
          break;
        }
        int64_t next =
            kernel.LargestEndpointWithin(cur + 1, n, target, &probes);
        if (next < cur + 1) next = cur + 1;  // forced advance
        FoldRelaxedTest(kernel, gen_options_, next, &st.best_j,
                        &st.best_conf);
        cur = next;
      }
      if (!parked) {
        st.stage = AbOptState::kChainEnd;
        st.cur = n;
      }
    }

    int64_t cj = st.best_j;
    double cc = st.best_conf;
    if (tent_zp && n > i) {
      FoldZeroPrefix(kernel, gen_options_, zero_prefix_lengths, i, /*zae=*/n,
                     &cj, &cc);
    }
    if (parked) {
      FoldRelaxedTest(kernel, gen_options_, n, &cj, &cc);
    }
    UpdateCandidate(i, cj >= i, i, cj, cc);
  }
}

// ---------------------------------------------------------------------------
// Exhaustive: every confidence test settles the batch it runs in, so old
// clean anchors scan only the appended suffix (old_n, n]. The fresh
// generator's per-block reverse scan + cross-block overwrite computes the
// largest qualifying j regardless of block boundaries, so resuming at
// old_n + 1 with re-based blocks folds identically.
// ---------------------------------------------------------------------------
void IncrementalDiscoverer::ProcessExhaustive(
    const series::CumulativeSeries::AppendResult& delta, int64_t dirty_begin) {
  const int64_t n = series_->n();
  const int64_t old_n = delta.old_n;
  ConfidenceKernel kernel(*eval_, gen_options_.type);
  constexpr int64_t kBatch = 512;
  double conf[kBatch];
  uint8_t valid[kBatch];
  for (int64_t i = 1; i <= n; ++i) {
    ExhState& st = exh_[static_cast<size_t>(i)];
    int64_t scan_from;
    if (i > old_n || i >= dirty_begin) {
      st = ExhState{};
      scan_from = i;
    } else {
      scan_from = old_n + 1;
    }
    kernel.BeginAnchor(i);
    for (int64_t j0 = scan_from; j0 <= n; j0 += kBatch) {
      const int64_t j1 = std::min<int64_t>(n, j0 + kBatch - 1);
      kernel.ConfidenceBatch(j0, j1, conf, valid);
      for (int64_t k = j1 - j0; k >= 0; --k) {
        if (valid[k] &&
            interval::PassesExactThreshold(conf[k], gen_options_)) {
          st.best_j = j0 + k;
          st.best_conf = conf[k];
          break;
        }
      }
    }
    UpdateCandidate(i, st.best_j >= i, i, st.best_j, st.best_conf);
  }
}

// ---------------------------------------------------------------------------
// NAB / NAB-opt: purely additive. An old right anchor's candidate is
// exactly unchanged under appends — its applicable schedule prefix and
// probe anchors are n-independent (entries below the first covering length
// are uncapped; the covering entry clamps to i = 1 under both the old and
// new cap) — so only the m new anchors walk. Balance-only (enforced at
// Create), hence never dirty; Delta is never consulted.
// ---------------------------------------------------------------------------
void IncrementalDiscoverer::ProcessNonAreaBased(
    const series::CumulativeSeries::AppendResult& delta) {
  const int64_t n = series_->n();
  const int64_t old_n = delta.old_n;
  const auto schedule =
      request_.algorithm == interval::AlgorithmKind::kNonAreaBased
          ? interval::NonAreaBasedGenerator::LengthSchedule::kGeometric
          : interval::NonAreaBasedGenerator::LengthSchedule::kRecursive;
  const std::vector<int64_t> lengths =
      interval::NonAreaBasedGenerator::MakeLengthSchedule(
          schedule, gen_options_.epsilon, n);

  ConfidenceKernel kernel(*eval_, gen_options_.type);
  interval::internal::NabProbeScratch scratch;
  uint64_t tested = 0;   // the generator's counters; unreported here
  uint64_t batches = 0;
  for (int64_t j = old_n + 1; j <= n; ++j) {
    const auto [best_i, best_conf] = interval::internal::ProbeRightAnchor(
        j, lengths, gen_options_, &kernel, &scratch, &tested, &batches);
    UpdateCandidate(j, best_i >= 1, best_i, j, best_conf);
  }
}

void IncrementalDiscoverer::UpdateCandidate(int64_t anchor, bool valid,
                                            int64_t begin, int64_t end,
                                            double conf) {
  const size_t a = static_cast<size_t>(anchor);
  const bool was_valid = cand_valid_[a] != 0;
  if (valid == was_valid &&
      (!valid || (cand_begin_[a] == begin && cand_end_[a] == end))) {
    // Same interval — but a dirty re-walk can recompute the same (i, j)
    // under moved credit/debit baselines, so the confidence still tracks.
    if (valid) cand_conf_[a] = conf;
    return;
  }
  if (was_valid) ++stale_entries_;  // the anchor's live heap entry goes stale
  live_candidates_ += (valid ? 1 : 0) - (was_valid ? 1 : 0);
  cand_valid_[a] = valid ? 1 : 0;
  cand_begin_[a] = begin;
  cand_end_[a] = end;
  cand_conf_[a] = conf;
  ++cand_version_[a];
  ++stats_.candidates_extended;
  if (valid) {
    const interval::Interval iv{begin, end};
    pending_entries_.push_back(
        HeapEntry{iv.length(), iv, anchor, cand_version_[a], next_seq_++});
  }
}

void IncrementalDiscoverer::MaintainHeap() {
  // Persistent gains are interval lengths — exactly the seed gains of a
  // fresh cover against an empty Fenwick, and a valid upper bound for the
  // per-batch selection's stale-refresh invariant. Compact when stale
  // entries dominate; otherwise an O(log k) push per changed candidate.
  if (stale_entries_ * 2 > static_cast<int64_t>(heap_.size())) {
    std::vector<HeapEntry> live;
    live.reserve(heap_.size() + pending_entries_.size());
    for (const HeapEntry& e : heap_) {
      const size_t a = static_cast<size_t>(e.anchor);
      if (cand_valid_[a] != 0 && cand_version_[a] == e.version) {
        live.push_back(e);
      }
    }
    live.insert(live.end(), pending_entries_.begin(), pending_entries_.end());
    heap_ = std::move(live);
    std::make_heap(heap_.begin(), heap_.end(), EntryWorse<HeapEntry>);
    stale_entries_ = 0;
  } else {
    for (const HeapEntry& e : pending_entries_) {
      heap_.push_back(e);
      std::push_heap(heap_.begin(), heap_.end(), EntryWorse<HeapEntry>);
    }
  }
  pending_entries_.clear();
}

void IncrementalDiscoverer::RunWarmCover() {
  const int64_t n = series_->n();
  tableau_.rows.clear();
  tableau_.num_candidates = static_cast<uint64_t>(live_candidates_);
  tableau_.required = static_cast<int64_t>(
      std::ceil(request_.s_hat * static_cast<double>(n)));
  tableau_.covered = 0;
  if (tableau_.required <= 0 || live_candidates_ == 0) {
    // Fresh cover's early return (no selection, possibly satisfied by an
    // empty tableau when nothing is required).
    tableau_.support_satisfied = tableau_.covered >= tableau_.required;
    return;
  }

  cover::CoverageTracker coverage(n);

  // Selection runs on a COPY of the persistent heap: refreshed (coverage-
  // decayed) gains are valid only against this batch's Fenwick and must
  // not survive into the next batch, where coverage starts empty again.
  // Popping live entries in (gain desc, ByPosition asc) order with the
  // fresh loop's retire/refresh/pick logic reproduces
  // GreedyPartialSetCover's pick sequence; stale-version pops are skipped
  // before any side effect.
  std::vector<HeapEntry> heap = heap_;
  std::vector<int64_t> picked;
  while (tableau_.covered < tableau_.required && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), EntryWorse<HeapEntry>);
    HeapEntry top = heap.back();
    heap.pop_back();
    ++stats_.cover_warm_pops;
    const size_t a = static_cast<size_t>(top.anchor);
    if (cand_valid_[a] == 0 || cand_version_[a] != top.version) continue;

    const int64_t gain = coverage.Gain(top.iv);
    CR_CHECK(gain <= top.gain);  // gains are monotone non-increasing
    if (gain <= 0) continue;     // fully covered by earlier picks; retire
    if (gain < top.gain) {
      top.gain = gain;
      heap.push_back(top);
      std::push_heap(heap.begin(), heap.end(), EntryWorse<HeapEntry>);
      continue;
    }

    picked.push_back(top.anchor);
    tableau_.covered += coverage.Mark(top.iv);
  }
  tableau_.support_satisfied = tableau_.covered >= tableau_.required;

  // Chosen intervals are pairwise distinct; ByPosition totally orders them
  // exactly as the fresh cover's result assembly does.
  std::sort(picked.begin(), picked.end(), [this](int64_t a, int64_t b) {
    const interval::Interval ia{cand_begin_[static_cast<size_t>(a)],
                                cand_end_[static_cast<size_t>(a)]};
    const interval::Interval ib{cand_begin_[static_cast<size_t>(b)],
                                cand_end_[static_cast<size_t>(b)]};
    return interval::ByPosition(ia, ib);
  });
  tableau_.rows.reserve(picked.size());
  for (const int64_t anchor : picked) {
    const size_t a = static_cast<size_t>(anchor);
    tableau_.rows.push_back(core::TableauRow{
        interval::Interval{cand_begin_[a], cand_end_[a]}, cand_conf_[a]});
  }
}

}  // namespace conservation::incr
