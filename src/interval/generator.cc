#include "interval/generator.h"

#include <algorithm>
#include <thread>

#include "interval/exhaustive.h"
#include "interval/area_based.h"
#include "interval/area_based_opt.h"
#include "interval/non_area_based.h"

namespace conservation::interval {

const char* AlgorithmKindName(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kExhaustive:
      return "exhaustive";
    case AlgorithmKind::kAreaBased:
      return "area_based";
    case AlgorithmKind::kAreaBasedOpt:
      return "area_based_opt";
    case AlgorithmKind::kNonAreaBased:
      return "non_area_based";
    case AlgorithmKind::kNonAreaBasedOpt:
      return "non_area_based_opt";
  }
  return "unknown";
}

std::vector<Interval> CandidateGenerator::Generate(
    const core::ConfidenceEvaluator& eval, const GeneratorOptions& options,
    GeneratorStats* stats) const {
  const std::vector<Candidate> candidates =
      GenerateCandidates(eval, options, stats);
  std::vector<Interval> out;
  out.reserve(candidates.size());
  for (const Candidate& candidate : candidates) {
    out.push_back(candidate.interval);
  }
  return out;
}

std::unique_ptr<CandidateGenerator> MakeGenerator(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kExhaustive:
      return std::make_unique<ExhaustiveGenerator>();
    case AlgorithmKind::kAreaBased:
      return std::make_unique<AreaBasedGenerator>();
    case AlgorithmKind::kAreaBasedOpt:
      return std::make_unique<AreaBasedOptGenerator>();
    case AlgorithmKind::kNonAreaBased:
      return std::make_unique<NonAreaBasedGenerator>(
          NonAreaBasedGenerator::LengthSchedule::kGeometric);
    case AlgorithmKind::kNonAreaBasedOpt:
      return std::make_unique<NonAreaBasedGenerator>(
          NonAreaBasedGenerator::LengthSchedule::kRecursive);
  }
  CR_UNREACHABLE();
}

int ResolveNumShards(int64_t n, const GeneratorOptions& options) {
  if (n <= 0) return 1;
  int shards = options.num_threads > 0
                   ? options.num_threads
                   : static_cast<int>(std::thread::hardware_concurrency());
  shards = std::max(1, shards);
  return static_cast<int>(std::min<int64_t>(shards, n));
}

namespace {

// Work seconds of workers that claimed at least one chunk, ascending.
std::vector<double> ParticipatingSeconds(const GeneratorStats& stats) {
  std::vector<double> seconds;
  seconds.reserve(stats.shard_work.size());
  for (const ShardWork& work : stats.shard_work) {
    if (work.chunks_claimed > 0) seconds.push_back(work.seconds);
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds;
}

}  // namespace

double GeneratorStats::MinShardSeconds() const {
  const std::vector<double> s = ParticipatingSeconds(*this);
  return s.empty() ? 0.0 : s.front();
}

double GeneratorStats::MaxShardSeconds() const {
  const std::vector<double> s = ParticipatingSeconds(*this);
  return s.empty() ? 0.0 : s.back();
}

double GeneratorStats::MedianShardSeconds() const {
  const std::vector<double> s = ParticipatingSeconds(*this);
  if (s.empty()) return 0.0;
  const size_t mid = s.size() / 2;
  return s.size() % 2 == 1 ? s[mid] : (s[mid - 1] + s[mid]) / 2.0;
}

double GeneratorStats::ImbalanceRatio() const {
  const std::vector<double> s = ParticipatingSeconds(*this);
  if (s.size() < 2) return 1.0;
  double sum = 0.0;
  for (const double v : s) sum += v;
  const double mean = sum / static_cast<double>(s.size());
  return mean > 0.0 ? s.back() / mean : 1.0;
}

uint64_t GeneratorStats::TotalSteals() const {
  uint64_t total = 0;
  for (const ShardWork& work : shard_work) total += work.steals;
  return total;
}

double ResolveDelta(const series::CumulativeSeries& series,
                    const GeneratorOptions& options) {
  switch (options.delta_mode) {
    case DeltaMode::kMinPositiveCount:
      return series.delta();
    case DeltaMode::kOne:
      return 1.0;
  }
  CR_UNREACHABLE();
}

bool PassesRelaxedThreshold(double conf, const GeneratorOptions& options) {
  if (options.type == core::TableauType::kHold) {
    return conf >= options.c_hat / (1.0 + options.epsilon);
  }
  return conf <= options.c_hat * (1.0 + options.epsilon);
}

bool PassesExactThreshold(double conf, const GeneratorOptions& options) {
  if (options.type == core::TableauType::kHold) {
    return conf >= options.c_hat;
  }
  return conf <= options.c_hat;
}

}  // namespace conservation::interval
