// Tableau discovery: the paper's headline operation (§I.B, §III).
//
// A hold tableau is a smallest-possible collection of intervals, each of
// confidence >= c_hat, whose union covers at least s_hat * n ticks; a fail
// tableau uses confidence <= c_hat. Discovery runs in two phases:
//   1. candidate interval generation (interval/ generators), and
//   2. greedy PARTIAL SET COVER over the candidates (cover/).

#ifndef CONSERVATION_CORE_TABLEAU_H_
#define CONSERVATION_CORE_TABLEAU_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/confidence.h"
#include "core/model.h"
#include "cover/partial_set_cover.h"
#include "interval/generator.h"
#include "interval/interval.h"
#include "util/status.h"

namespace conservation::core {

struct TableauRequest {
  TableauType type = TableauType::kHold;
  ConfidenceModel model = ConfidenceModel::kBalance;
  // Confidence threshold in [0, 1].
  double c_hat = 0.9;
  // Support: fraction of ticks the tableau must cover, in [0, 1].
  double s_hat = 0.5;
  // Candidate generation algorithm and its knobs.
  interval::AlgorithmKind algorithm = interval::AlgorithmKind::kAreaBased;
  double epsilon = 0.01;  // ignored by the exhaustive algorithm
  interval::DeltaMode delta_mode = interval::DeltaMode::kMinPositiveCount;
  bool stop_on_full_cover = false;
  bool largest_first_early_exit = false;
  // Threads for anchor-sharded candidate generation (and for the analysis
  // layers that fan out whole requests): 1 = sequential, 0 = hardware
  // concurrency. Candidate output is identical for every setting.
  int num_threads = 1;
};

struct TableauRow {
  interval::Interval interval;
  // conf(interval) under the request's model.
  double confidence = 0.0;
};

struct Tableau {
  TableauType type = TableauType::kHold;
  ConfidenceModel model = ConfidenceModel::kBalance;
  std::vector<TableauRow> rows;

  // Coverage accounting from the set-cover phase.
  int64_t covered = 0;
  int64_t required = 0;
  // False when the candidates cannot reach the requested support; `rows`
  // then covers as much as possible.
  bool support_satisfied = false;

  // Phase diagnostics.
  uint64_t num_candidates = 0;
  interval::GeneratorStats generation_stats;
  double cover_seconds = 0.0;
  // Lazy-greedy cover-phase counters (rounds, heap pops, stale
  // re-evaluations, tick visits, seed/select split); see cover/.
  cover::CoverStats cover_stats;

  bool empty() const { return rows.empty(); }
  size_t size() const { return rows.size(); }

  // Multi-line human-readable rendering ("[12, 24]  conf=0.8312" per row).
  std::string ToString() const;
};

// Request validation (finite thresholds in range, finite epsilon > 0 for
// approximate algorithms, NAB/NAB-opt only with the balance model). Shared by
// DiscoverTableau and the incremental engine (incr/incremental.h), so the
// two front doors cannot drift on what a well-formed request is.
util::Status ValidateTableauRequest(const TableauRequest& request);

// The generator options a request asks for; shared with the incremental
// engine for the same reason.
interval::GeneratorOptions ToGeneratorOptions(const TableauRequest& request);

// Validates the request and runs both phases.
util::Result<Tableau> DiscoverTableau(const ConfidenceEvaluator& eval,
                                      const TableauRequest& request);

}  // namespace conservation::core

#endif  // CONSERVATION_CORE_TABLEAU_H_
