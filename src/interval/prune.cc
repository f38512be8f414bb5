#include "interval/prune.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace conservation::interval::internal {

namespace {

// Left-anchored sketch screen: bit m of the result is 1 when endpoint block
// b0 + m may hold a passing (i, j) pair for the anchor range in `args`.
// `count` <= 64. The bound construction: den <= den_ub because
// SB[j] <= sb_blk_hi, SB[i-1] >= sb_prev_lo, and len * h_b >= hb_min_term
// (the sign-aware min product over [len_min, len_max] x [h_b_lo, h_b_hi]);
// mirrored for den_lb / num_ub / num_lb. Each bound is the same single
// rounding shape as the exact kernel expression it brackets, so per-op
// round-to-nearest monotonicity keeps the bracketing bitwise sound.
uint64_t SketchMaybeMask(const SketchScanArgs& args, int64_t b0,
                         int64_t count) {
  const double block = static_cast<double>(args.block);
  const double n = static_cast<double>(args.n);
  const double i_lo = static_cast<double>(args.i_lo);
  const double i_hi = static_cast<double>(args.i_hi);
  const double t = args.threshold;
  uint64_t maybe = 0;
  for (int64_t m = 0; m < count; ++m) {
    const int64_t b = b0 + m;
    const double j_lo = static_cast<double>(b) * block;
    const double j_hi = std::min(n, j_lo + (block - 1.0));
    // Interval length range over the covered (i, j) pairs, clamped to >= 1
    // so products with infinite h bounds stay +/-inf rather than NaN.
    const double len_min = std::max(1.0, (j_lo - i_hi) + 1.0);
    const double len_max = std::max(len_min, (j_hi - i_lo) + 1.0);
    const double hb_min_term =
        args.h_b_lo >= 0.0 ? len_min * args.h_b_lo : len_max * args.h_b_lo;
    const double den_ub = (args.sb_blk_hi[b] - args.sb_prev_lo) - hb_min_term;
    bool lane;
    if (args.hold) {
      const double hb_max_term =
          args.h_b_hi >= 0.0 ? len_max * args.h_b_hi : len_min * args.h_b_hi;
      const double ha_min_term =
          args.h_a_lo >= 0.0 ? len_min * args.h_a_lo : len_max * args.h_a_lo;
      const double den_lb_raw =
          (args.sb_blk_lo[b] - args.sb_prev_hi) - hb_max_term;
      const double den_lb = den_lb_raw < 0.0 ? 0.0 : den_lb_raw;
      const double num_ub_raw =
          (args.sa_blk_hi[b] - args.sa_prev_lo) - ha_min_term;
      const double num_ub = num_ub_raw < 0.0 ? 0.0 : num_ub_raw;
      // conf <= num_ub / den_lb when den_lb > 0; when den could be 0 the
      // pair is only a candidate if it can be valid (den_ub > 0) and either
      // the numerator can be positive or the threshold accepts conf == 0.
      lane = den_ub > 0.0 && (den_lb > 0.0 ? num_ub / den_lb >= t
                                           : (num_ub > 0.0 || t <= 0.0));
    } else {
      const double ha_max_term =
          args.h_a_hi >= 0.0 ? len_max * args.h_a_hi : len_min * args.h_a_hi;
      const double num_lb_raw =
          (args.sa_blk_lo[b] - args.sa_prev_hi) - ha_max_term;
      const double num_lb = num_lb_raw < 0.0 ? 0.0 : num_lb_raw;
      lane = den_ub > 0.0 && num_lb / den_ub <= t;
    }
    maybe |= static_cast<uint64_t>(lane) << m;
  }
  return maybe;
}

}  // namespace

int64_t ResolveSketchBlock(const GeneratorOptions& options) {
  return options.sketch_block > 0 ? options.sketch_block
                                  : series::SeriesSketch::kDefaultBlock;
}

bool SketchScreenEnabled(const GeneratorOptions& options, int64_t n) {
  if (options.sketch == SketchMode::kOff) return false;
  return n >= kSketchAutoGateBlocks * ResolveSketchBlock(options);
}

SketchScreen::SketchScreen(const core::ConfidenceEvaluator& eval,
                           const series::SeriesSketch& sketch,
                           const GeneratorOptions& options, bool relaxed)
    : sketch_(sketch),
      a_(eval.series().a_data()),
      s_(eval.series().suffix_min_gap_data()),
      sa_(eval.series().sa_data()),
      sb_(eval.series().sb_data()),
      model_(eval.model()),
      hold_(options.type == core::TableauType::kHold),
      n_(eval.series().n()),
      block_(sketch.block()) {
  CR_CHECK(sketch.n() == n_);
  CR_CHECK(block_ > 0);
  // Same rounding as PassesRelaxedThreshold / PassesExactThreshold: the
  // screen compares its conservative confidence bound against the exact
  // constant the generator compares the exact confidence against.
  if (relaxed) {
    threshold_ = hold_ ? options.c_hat / (1.0 + options.epsilon)
                       : options.c_hat * (1.0 + options.epsilon);
  } else {
    threshold_ = options.c_hat;
  }

  using series::SeriesSketch;
  const int64_t num_groups = n_ / block_ + 1;
  group_mixed_.assign(static_cast<size_t>(num_groups), 1);

  const int64_t b_end = n_ / block_;
  for (int64_t g = 0; g < num_groups; ++g) {
    const int64_t i_lo = std::max<int64_t>(1, g * block_);
    const int64_t i_hi = std::min<int64_t>(n_, g * block_ + block_ - 1);
    SketchScanArgs args;
    args.sa_blk_lo = sketch_.BlockLoData(SeriesSketch::kSA);
    args.sa_blk_hi = sketch_.BlockHiData(SeriesSketch::kSA);
    args.sb_blk_lo = sketch_.BlockLoData(SeriesSketch::kSB);
    args.sb_blk_hi = sketch_.BlockHiData(SeriesSketch::kSB);
    double prev_lo, prev_hi;
    sketch_.RangeBounds(SeriesSketch::kA, i_lo - 1, i_hi - 1, &prev_lo,
                        &prev_hi);
    sketch_.RangeBounds(SeriesSketch::kSA, i_lo - 1, i_hi - 1,
                        &args.sa_prev_lo, &args.sa_prev_hi);
    sketch_.RangeBounds(SeriesSketch::kSB, i_lo - 1, i_hi - 1,
                        &args.sb_prev_lo, &args.sb_prev_hi);
    args.h_a_lo = prev_lo;
    args.h_a_hi = prev_hi;
    args.h_b_lo = prev_lo;
    args.h_b_hi = prev_hi;
    if (model_ == core::ConfidenceModel::kCredit ||
        model_ == core::ConfidenceModel::kDebit) {
      double gap_lo, gap_hi;
      sketch_.RangeBounds(SeriesSketch::kS, i_lo, i_hi, &gap_lo, &gap_hi);
      // gap_hi may be +infinity when the covering blocks reach the
      // suffix sentinel; the resulting infinite h bound only widens the
      // screen (SketchMaybeMask keeps the arithmetic NaN-free).
      if (model_ == core::ConfidenceModel::kCredit) {
        args.h_a_lo = prev_lo - gap_hi;
        args.h_a_hi = prev_hi - gap_lo;
      } else {
        args.h_b_lo = prev_lo + gap_lo;
        args.h_b_hi = prev_hi + gap_hi;
      }
    }
    args.i_lo = i_lo;
    args.i_hi = i_hi;
    args.block = block_;
    args.n = n_;
    args.threshold = threshold_;
    args.hold = hold_;
    bool mixed = false;
    for (int64_t b = i_lo / block_; b <= b_end && !mixed; b += 64) {
      const int64_t count = std::min<int64_t>(64, b_end - b + 1);
      construction_blocks_ += static_cast<uint64_t>(count);
      mixed = SketchMaybeMask(args, b, count) != 0;
    }
    group_mixed_[static_cast<size_t>(g)] = mixed ? 1 : 0;
  }
}

bool SketchScreen::RefineLeftBlock(const SketchScanArgs& args,
                                   int64_t b) const {
  using series::SeriesSketch;
  const int64_t j_begin = std::max<int64_t>(args.i_lo, b * block_);
  const int64_t j_end = std::min<int64_t>(n_, b * block_ + block_ - 1);
  const double t = threshold_;
  for (int64_t j = j_begin; j <= j_end; ++j) {
    // Exact anchor scalars (args ranges are collapsed, lo == hi), exact
    // length: only the SA/SB endpoint reads are bracketed, by the decoded
    // per-tick codes instead of the whole-block maps.
    const double len = static_cast<double>(j - args.i_lo + 1);
    const double hb_term = len * args.h_b_lo;
    const double den_ub =
        (sketch_.CodeUpper(SeriesSketch::kSB, j) - args.sb_prev_lo) - hb_term;
    if (!(den_ub > 0.0)) continue;  // den_ub >= den: no valid pair here
    if (hold_) {
      const double den_lb_raw =
          (sketch_.CodeLower(SeriesSketch::kSB, j) - args.sb_prev_lo) -
          hb_term;
      const double den_lb = den_lb_raw < 0.0 ? 0.0 : den_lb_raw;
      const double ha_term = len * args.h_a_lo;
      const double num_ub_raw =
          (sketch_.CodeUpper(SeriesSketch::kSA, j) - args.sa_prev_lo) -
          ha_term;
      const double num_ub = num_ub_raw < 0.0 ? 0.0 : num_ub_raw;
      if (den_lb > 0.0 ? num_ub / den_lb >= t : (num_ub > 0.0 || t <= 0.0)) {
        return true;
      }
    } else {
      const double ha_term = len * args.h_a_lo;
      const double num_lb_raw =
          (sketch_.CodeLower(SeriesSketch::kSA, j) - args.sa_prev_lo) -
          ha_term;
      const double num_lb = num_lb_raw < 0.0 ? 0.0 : num_lb_raw;
      if (num_lb / den_ub <= t) return true;
    }
  }
  return false;
}

bool SketchScreen::MayEmit(int64_t i, uint64_t* scan_blocks) const {
  CR_CHECK(i >= 1 && i <= n_);
  if (group_mixed_[static_cast<size_t>(i / block_)] == 0) return false;
  const double prev = a_[i - 1];
  const double gap = s_[i];
  SketchScanArgs args;
  args.sa_blk_lo = sketch_.BlockLoData(series::SeriesSketch::kSA);
  args.sa_blk_hi = sketch_.BlockHiData(series::SeriesSketch::kSA);
  args.sb_blk_lo = sketch_.BlockLoData(series::SeriesSketch::kSB);
  args.sb_blk_hi = sketch_.BlockHiData(series::SeriesSketch::kSB);
  args.sa_prev_lo = args.sa_prev_hi = sa_[i - 1];
  args.sb_prev_lo = args.sb_prev_hi = sb_[i - 1];
  // Same expressions as ConfidenceKernel::BeginAnchor: the collapsed h
  // ranges are bitwise the exact per-anchor baselines.
  const double h_a =
      model_ == core::ConfidenceModel::kCredit ? prev - gap : prev;
  const double h_b =
      model_ == core::ConfidenceModel::kDebit ? prev + gap : prev;
  args.h_a_lo = args.h_a_hi = h_a;
  args.h_b_lo = args.h_b_hi = h_b;
  args.i_lo = args.i_hi = i;
  args.block = block_;
  args.n = n_;
  args.threshold = threshold_;
  args.hold = hold_;

  const int64_t b_end = n_ / block_;
  int refine_budget = kRefineBudget;
  int64_t scanned = 0;
  int64_t b = i / block_;
  while (b <= b_end) {
    if (scanned >= kAnchorScanCap) return true;  // deterministic give-up
    const int64_t count = std::min<int64_t>(64, b_end - b + 1);
    const uint64_t mask = SketchMaybeMask(args, b, count);
    scanned += count;
    *scan_blocks += static_cast<uint64_t>(count);
    if (mask == 0) {
      b += count;
      continue;
    }
    const int64_t maybe_block = b + std::countr_zero(mask);
    if (refine_budget == 0) return true;
    --refine_budget;
    *scan_blocks += 1;
    if (RefineLeftBlock(args, maybe_block)) return true;
    // The maybe block was refuted tick by tick; resume the map-level scan
    // just past it (later bits of this chunk get rescanned — harmless and
    // deterministic).
    b = maybe_block + 1;
  }
  return false;
}

ScopedSketchScreen::ScopedSketchScreen(const core::ConfidenceEvaluator& eval,
                                       const GeneratorOptions& options,
                                       bool relaxed) {
  const int64_t n = eval.n();
  if (!SketchScreenEnabled(options, n)) return;
  const int64_t block = ResolveSketchBlock(options);
  const series::SeriesSketch* sketch = options.sketch_ptr;
  if (sketch == nullptr || sketch->n() != n || sketch->block() != block) {
    sketch_ = series::SeriesSketch::Build(eval.series(), block);
    sketch = &sketch_;
  }
  screen_.emplace(eval, *sketch, options, relaxed);
}

}  // namespace conservation::interval::internal
