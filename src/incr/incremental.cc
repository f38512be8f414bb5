#include "incr/incremental.h"

#include <algorithm>

#include "cover/partial_set_cover.h"
#include "interval/area_based.h"
#include "interval/exhaustive.h"
#include "interval/kernel.h"
#include "interval/non_area_based.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace conservation::incr {

namespace {

using interval::internal::AbOptState;
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
  discoverer.ProcessBatch(series::CumulativeSeries::AppendResult{0, 1});
  return discoverer;
}

IncrementalDiscoverer::IncrementalDiscoverer(
    const series::CountSequence& initial, const core::TableauRequest& request)
    : request_(request),
      gen_options_(core::ToGeneratorOptions(request)),
      series_(std::make_unique<series::CumulativeSeries>(initial)),
      eval_(std::make_unique<core::ConfidenceEvaluator>(series_.get(),
                                                        request.model)) {
  // The delta paths run per-anchor O(1) resumes, which do not shard, and
  // Create rejects stop_on_full_cover.
  gen_options_.num_threads = 1;
  gen_options_.stop_on_full_cover = false;
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
  RunCover();

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

void IncrementalDiscoverer::ResetAllAnchorStates() {
  std::fill(ab_.begin(), ab_.end(), AbState{});
  std::fill(abopt_.begin(), abopt_.end(), AbOptState{});
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
    default:
      break;  // exhaustive and NAB resume from the candidate store
  }
  cand_other_.resize(size, 0);
  cand_conf_.resize(size, 0.0);
}

// ---------------------------------------------------------------------------
// Area-based (AB): the generator's per-anchor level ladder (area_based.cc)
// on its thresholds, first-level skip and endpoint search, kept on AB-opt's
// rule. A level's breakpoint t (largest j in [i, n] with area <= T) SETTLES
// when t < n: the area is nondecreasing in j, so area(t + 1) > T persists
// under every append. A breakpoint at n PARKS the anchor on its level,
// which the next batch re-runs first. The ladder fills AB-opt's breakpoint
// list and folds it exactly as ProcessAreaBasedOpt does.
// ---------------------------------------------------------------------------
void IncrementalDiscoverer::ProcessAreaBased(
    const series::CumulativeSeries::AppendResult& delta, int64_t dirty_begin) {
  const int64_t n = series_->n();
  const double growth = 1.0 + gen_options_.epsilon;
  // Rebuilt per batch. Prefix-stable and size-nondecreasing across
  // appends: Delta is fixed (a decrease forced a full rebuild upstream) and
  // max_area only grows, so settled levels keep their thresholds.
  const std::vector<double> thresholds = interval::internal::AbThresholds(
      *series_, gen_options_.type, prev_delta_, growth);
  interval::internal::AbOptWalk walk(*eval_, gen_options_, prev_delta_,
                                     &abopt_scratch_);
  ConfidenceKernel& kernel = walk.kernel;
  std::vector<int64_t>& breakpoints = abopt_scratch_.breakpoints;
  for (int64_t i = 1; i <= n; ++i) {
    AbState& st = ab_[static_cast<size_t>(i)];
    if (i > delta.old_n || i >= dirty_begin) st = AbState{};
    if (st.level >= thresholds.size()) {
      // Every level settled and no new one appeared: the candidate is
      // exactly the settled fold.
      UpdateCandidate(i, st.best_j, st.best_conf);
      continue;
    }

    kernel.BeginAnchor(i);
    breakpoints.clear();
    // Batch-invariant for a clean anchor: area(i, i), Delta and growth do
    // not move (credit/debit anchors whose SuffixMinGap changed were reset
    // above).
    const size_t first_level = interval::internal::AbFirstLevel(
        kernel.SparseArea(i), prev_delta_, growth, fail_type_);
    size_t level = std::max<size_t>(st.level, fail_type_ ? 0 : first_level);
    size_t tentative = 0;
    while (level < thresholds.size()) {
      const double threshold = thresholds[level];
      // area(n) <= T answers the search in one probe; otherwise t == i
      // with area(i, i) > T means the level has no breakpoint.
      const int64_t t =
          kernel.SparseArea(n) <= threshold
              ? n
              : std::max(i, kernel.LargestEndpointWithin(i, n, 1, threshold,
                                                         &walk.probes));
      if (kernel.SparseArea(t) <= threshold) {
        const size_t first = breakpoints.size();
        if (threshold == 0.0) {
          // Credit-fail zero-prefix probes (empty list otherwise).
          for (const int64_t len : walk.zero_prefix_lengths) {
            const int64_t j = i + len - 1;
            if (j >= t) break;
            breakpoints.push_back(j);
          }
        }
        breakpoints.push_back(t);
        if (t == n) {  // park on this level
          tentative = first;
          break;
        }
      }
      ++level;
      if (level == 1 && first_level > 1) level = first_level;  // after zero
    }
    if (level >= thresholds.size()) tentative = breakpoints.size();
    st.level = static_cast<uint32_t>(level);

    walk.FoldLongestQualifying(0, tentative, &st.best_j, &st.best_conf);
    int64_t cj = st.best_j;
    double cc = st.best_conf;
    walk.FoldLongestQualifying(tentative, breakpoints.size(), &cj, &cc);
    UpdateCandidate(i, cj, cc);
  }
}

// ---------------------------------------------------------------------------
// AB-opt: the generator's own walk (interval::internal::AbOptWalk), resumed
// from each anchor's O(1) state. Settled breakpoints fold into the state
// once; tentative ones lie past them and are tested every batch, so the
// longest qualifying breakpoint is the fresh run's pick. Persisting each
// anchor's breakpoint list instead would cost ~12 GB at n = 1M.
// ---------------------------------------------------------------------------
void IncrementalDiscoverer::ProcessAreaBasedOpt(
    const series::CumulativeSeries::AppendResult& delta, int64_t dirty_begin) {
  const int64_t n = series_->n();
  interval::internal::AbOptWalk walk(*eval_, gen_options_, prev_delta_,
                                     &abopt_scratch_);
  for (int64_t i = 1; i <= n; ++i) {
    AbOptState& st = abopt_[static_cast<size_t>(i)];
    if (i > delta.old_n || i >= dirty_begin) st = AbOptState{};
    const size_t tentative = walk.Advance(i, &st);
    walk.FoldLongestQualifying(0, tentative, &st.best_j, &st.best_conf);
    int64_t cj = st.best_j;
    double cc = st.best_conf;
    walk.FoldLongestQualifying(tentative, abopt_scratch_.breakpoints.size(),
                               &cj, &cc);
    UpdateCandidate(i, cj, cc);
  }
}

// ---------------------------------------------------------------------------
// Exhaustive: every confidence test settles the batch it runs in, so an old
// clean anchor's fold is its stored candidate and it scans only the
// appended suffix (old_n, n]. The generator's scan
// (interval::internal::ScanLastQualifying) finds the largest qualifying j
// regardless of block boundaries, so resuming it at old_n + 1 with re-based
// blocks folds identically.
// ---------------------------------------------------------------------------
void IncrementalDiscoverer::ProcessExhaustive(
    const series::CumulativeSeries::AppendResult& delta, int64_t dirty_begin) {
  const int64_t n = series_->n();
  const int64_t old_n = delta.old_n;
  ConfidenceKernel kernel(*eval_, gen_options_.type);
  for (int64_t i = 1; i <= n; ++i) {
    int64_t best_j = 0;
    double best_conf = 0.0;
    int64_t scan_from = i;
    if (i <= old_n && i < dirty_begin) {
      best_j = cand_other_[static_cast<size_t>(i)];
      best_conf = cand_conf_[static_cast<size_t>(i)];
      scan_from = old_n + 1;
    }
    kernel.BeginAnchor(i);
    interval::internal::ScanLastQualifying(kernel, gen_options_, scan_from, n,
                                           &best_j, &best_conf);
    UpdateCandidate(i, best_j, best_conf);
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
    UpdateCandidate(j, best_i, best_conf);
  }
}

void IncrementalDiscoverer::UpdateCandidate(int64_t anchor, int64_t other,
                                            double conf) {
  const size_t a = static_cast<size_t>(anchor);
  // On the same interval a dirty re-walk can still recompute the confidence
  // under moved credit/debit baselines, so it is stored either way.
  if (cand_other_[a] != other) {
    cand_other_[a] = other;
    ++stats_.candidates_extended;
  }
  cand_conf_[a] = conf;
}

void IncrementalDiscoverer::RunCover() {
  util::Stopwatch cover_timer;
  const int64_t n = series_->n();
  const bool right_anchored =
      request_.algorithm == interval::AlgorithmKind::kNonAreaBased ||
      request_.algorithm == interval::AlgorithmKind::kNonAreaBasedOpt;
  // Store order is anchor order: ByPosition for the left-anchored
  // generators, end order for NAB. The cover's picks are the same for
  // either, since the candidates are pairwise distinct.
  // Sized up front: growing it by doubling on every batch can leave the
  // allocator returning and re-faulting its pages each time.
  std::vector<interval::Interval> intervals;
  intervals.reserve(static_cast<size_t>(
      n - std::count(cand_other_.begin() + 1, cand_other_.end(), 0)));
  for (int64_t anchor = 1; anchor <= n; ++anchor) {
    const int64_t other = cand_other_[static_cast<size_t>(anchor)];
    if (other == 0) continue;
    intervals.push_back(right_anchored ? interval::Interval{other, anchor}
                                       : interval::Interval{anchor, other});
  }
  cover::CoverOptions options;
  options.s_hat = request_.s_hat;
  const cover::CoverResult cover =
      cover::GreedyPartialSetCover(intervals, n, options);
  tableau_.cover_seconds = cover_timer.ElapsedSeconds();
  tableau_.cover_stats = cover.stats;
  stats_.cover_warm_pops += cover.stats.heap_pops;

  tableau_.num_candidates = intervals.size();
  tableau_.covered = cover.covered;
  tableau_.required = cover.required;
  tableau_.support_satisfied = cover.satisfied;
  tableau_.rows.clear();
  tableau_.rows.reserve(cover.chosen.size());
  for (const interval::Interval& iv : cover.chosen) {
    const int64_t anchor = right_anchored ? iv.end : iv.begin;
    tableau_.rows.push_back(
        core::TableauRow{iv, cand_conf_[static_cast<size_t>(anchor)]});
  }
}

}  // namespace conservation::incr
