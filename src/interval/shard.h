// Chunked, dynamically balanced execution driver for the candidate
// generators.
//
// Every generator's outer loop visits anchors whose outputs are mutually
// independent; the only cross-anchor state (AB's level pointers, NAB's
// schedule cursor) is an amortization device, not a correctness carrier.
// Cutting the anchor range into contiguous chunks and giving each chunk
// private amortization state initialized at its chunk start therefore
// reproduces the sequential output exactly (DESIGN.md "Parallel execution").
//
// Why many fine chunks instead of one contiguous block per worker: the
// per-anchor cost of the O(n·δ⁻¹·ε⁻¹) generators is triangular — anchor i
// sweeps right endpoints up to n — so equal-width per-worker blocks leave
// the first block owning most of the work while the rest idle (PR 1's
// measured flat-to-negative scaling). The driver instead cuts [1, n] into
// ≈ kChunksPerThread × workers chunks and lets workers claim them off an
// atomic cursor; whichever worker finishes early claims more, bounding the
// finish-time spread by one chunk's work regardless of the skew shape.
//
// Determinism: chunk boundaries are a pure function of (n, workers);
// outputs land in a per-chunk slot and are concatenated in chunk (= anchor)
// order, so the candidate list is bit-identical to the sequential run for
// every thread count — only the stats' timing fields vary run to run.
//
// stop_on_full_cover: a generator's early exit fires only at the anchor the
// sequential run visits first (i = 1 for left-anchored sweeps, j = n for
// right-anchored ones) and emits exactly the full-span interval [1, n], so
// the sequential output is exactly {[1, n]}. The chunked driver reproduces
// it: the signaling chunk's output replaces everything, outstanding chunks
// are cancelled at claim granularity, and already-running chunks complete
// but are discarded. ChunkOrder lets right-anchored generators claim the
// chunk containing anchor n first so the cancellation actually saves work.

#ifndef CONSERVATION_INTERVAL_SHARD_H_
#define CONSERVATION_INTERVAL_SHARD_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "interval/generator.h"
#include "interval/interval.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace conservation::interval::internal {

// Registry counters mirroring the per-run GeneratorStats/ShardWork structs
// (which remain the API-stable per-call view; these accumulate across the
// process). Kernel work (confidence evaluations, endpoint steps) is
// published per chunk from the chunk's merged counters, so the flat-array
// kernels stay uninstrumented on their inner loops.
struct GenerationMetrics {
  obs::Counter& chunks_claimed;
  obs::Counter& steals;
  obs::Counter& candidates;
  obs::Counter& confidence_evals;
  obs::Counter& endpoint_steps;
  obs::Counter& batches;
  obs::Histogram& chunk_seconds;

  static GenerationMetrics& Get() {
    static GenerationMetrics* metrics = [] {
      obs::Registry& registry = obs::Registry::Global();
      return new GenerationMetrics{
          registry.Counter("generation.chunks_claimed"),
          registry.Counter("generation.steals"),
          registry.Counter("generation.candidates"),
          registry.Counter("kernel.confidence_evals"),
          registry.Counter("kernel.endpoint_steps"),
          registry.Counter("kernel.batches"),
          registry.Histogram("generation.chunk_seconds",
                             {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0})};
    }();
    return *metrics;
  }
};

// Chunks dispatched per worker: enough that dynamic claiming bounds the
// imbalance of the triangular per-anchor cost by one chunk's work, few
// enough that the per-chunk pointer re-base stays cheap. It never changes
// the output, so it is a constant rather than an option.
inline constexpr int64_t kChunksPerThread = 12;

// Number of scheduler chunks for n anchors and `workers` workers:
// min(n, workers * kChunksPerThread), and 1 when workers == 1 (a sequential
// run needs no chunking).
inline int64_t ResolveNumChunks(int64_t n, int workers) {
  if (workers <= 1 || n <= 1) return 1;
  return std::min<int64_t>(n, static_cast<int64_t>(workers) * kChunksPerThread);
}

// Blocks may emit bare Intervals or Candidates (interval + confidence);
// the driver's full-cover detection only needs the interval view.
inline const Interval& ElementInterval(const Interval& element) {
  return element;
}
inline const Interval& ElementInterval(const Candidate& element) {
  return element.interval;
}

// Claim order of chunks: the direction the sequential run visits anchors.
// Output is identical either way; the order only determines which chunk the
// stop_on_full_cover cancellation can short-circuit behind.
enum class ChunkOrder { kAscending, kDescending };

// Runs block(begin, end, &chunk_stats) over contiguous anchor chunks
// covering [1, n] (inclusive bounds), claimed dynamically by
// ResolveNumShards workers, and returns the concatenation of the chunk
// outputs in anchor order. `stats` (may be null) receives the merged
// counters plus the scheduler observability fields (shards, chunks,
// shard_work); its wall_seconds is the driver's end-to-end elapsed time and
// its seconds the summed per-worker work time.
//
// BlockFn: std::vector<Interval> or std::vector<Candidate>
//          (int64_t begin, int64_t end, GeneratorStats* chunk_stats).
// Blocks fill only the work counters of chunk_stats; timing and scheduling
// fields are owned by this driver.
template <typename BlockFn>
auto RunSharded(int64_t n, const GeneratorOptions& options,
                GeneratorStats* stats, BlockFn&& block,
                ChunkOrder order = ChunkOrder::kAscending) {
  using OutVec = std::invoke_result_t<BlockFn&, int64_t, int64_t,
                                      GeneratorStats*>;
  util::Stopwatch timer;
  const int workers = ResolveNumShards(n, options);
  GenerationMetrics& metrics = GenerationMetrics::Get();
  CR_TRACE_SPAN_ARGS("generate.sharded", "n", n, "workers", workers);

  OutVec out;
  GeneratorStats merged;
  merged.shards = workers;
  merged.chunks = 1;
  merged.shard_work.resize(static_cast<size_t>(workers));

  if (workers <= 1) {
    GeneratorStats counters;
    util::Stopwatch work_timer;
    {
      CR_TRACE_SPAN_ARGS("generate.chunk", "begin", 1, "end", n);
      out = block(1, n, &counters);
    }
    merged.Merge(counters);
    merged.seconds = work_timer.ElapsedSeconds();
    merged.shard_work[0] =
        ShardWork{merged.seconds, /*chunks_claimed=*/1, /*steals=*/0};
    metrics.chunks_claimed.Increment();
    metrics.chunk_seconds.Record(merged.seconds);
  } else {
    const int64_t requested = ResolveNumChunks(n, workers);
    const int64_t width = (n + requested - 1) / requested;
    const int64_t chunks = (n + width - 1) / width;
    merged.chunks = chunks;
    const uint64_t fair_share = static_cast<uint64_t>(
        (chunks + workers - 1) / static_cast<int64_t>(workers));

    std::vector<OutVec> chunk_out(static_cast<size_t>(chunks));
    std::vector<GeneratorStats> worker_counters(
        static_cast<size_t>(workers));
    std::atomic<int64_t> cursor{0};
    std::atomic<bool> full_cover{false};
    std::atomic<int64_t> signal_chunk{-1};
    GeneratorStats signal_counters;  // written by the unique signaling
                                     // worker, read only after the join

    util::PoolParallelFor(
        util::ThreadPool::Shared(), workers, workers, [&](int64_t w) {
          ShardWork work;
          GeneratorStats local;
          for (;;) {
            if (options.stop_on_full_cover &&
                full_cover.load(std::memory_order_acquire)) {
              break;
            }
            const int64_t claim =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (claim >= chunks) break;
            const int64_t k =
                order == ChunkOrder::kDescending ? chunks - 1 - claim : claim;
            const int64_t begin = 1 + k * width;
            const int64_t end = std::min<int64_t>(n, begin + width - 1);
            GeneratorStats chunk_counters;
            util::Stopwatch chunk_timer;
            {
              CR_TRACE_SPAN_ARGS("generate.chunk", "begin", begin, "end",
                                 end);
              chunk_out[static_cast<size_t>(k)] =
                  block(begin, end, &chunk_counters);
            }
            const double chunk_elapsed = chunk_timer.ElapsedSeconds();
            work.seconds += chunk_elapsed;
            ++work.chunks_claimed;
            metrics.chunk_seconds.Record(chunk_elapsed);
            if (work.chunks_claimed > fair_share) {
              // Chunk claimed beyond the static fair share: this worker
              // out-ran the others and took over a chunk a slower worker
              // would have owned (mirrors ShardWork::steals).
              CR_TRACE_INSTANT("generate.steal");
            }
            local.Merge(chunk_counters);
            if (options.stop_on_full_cover) {
              const OutVec& part = chunk_out[static_cast<size_t>(k)];
              const bool spans_all = std::any_of(
                  part.begin(), part.end(), [n](const auto& v) {
                    const Interval& iv = ElementInterval(v);
                    return iv.begin == 1 && iv.end == n;
                  });
              if (spans_all) {
                signal_counters = chunk_counters;
                signal_chunk.store(k, std::memory_order_relaxed);
                full_cover.store(true, std::memory_order_release);
                break;
              }
            }
          }
          work.steals = work.chunks_claimed > fair_share
                            ? work.chunks_claimed - fair_share
                            : 0;
          merged.shard_work[static_cast<size_t>(w)] = work;
          worker_counters[static_cast<size_t>(w)] = local;
        });

    const int64_t signal = signal_chunk.load(std::memory_order_relaxed);
    if (signal >= 0) {
      // Sequential equivalence: the sequential run stops at its first
      // anchor, so chunks other than the signaling one contribute neither
      // output nor counters (their work still shows in shard_work.seconds).
      out = std::move(chunk_out[static_cast<size_t>(signal)]);
      merged.Merge(signal_counters);
    } else {
      size_t total = 0;
      for (const auto& part : chunk_out) total += part.size();
      out.reserve(total);
      for (auto& part : chunk_out) {
        out.insert(out.end(), part.begin(), part.end());
      }
      for (const GeneratorStats& local : worker_counters) merged.Merge(local);
    }
    for (const ShardWork& work : merged.shard_work) {
      merged.seconds += work.seconds;
      metrics.chunks_claimed.Add(work.chunks_claimed);
      metrics.steals.Add(work.steals);
    }
  }

  merged.candidates = out.size();
  merged.wall_seconds = timer.ElapsedSeconds();
  // Batch-published per run: the kernels' confidence-evaluation and
  // endpoint-step work reaches the registry without touching the hot
  // sweeps themselves.
  metrics.candidates.Add(merged.candidates);
  metrics.confidence_evals.Add(merged.intervals_tested);
  metrics.endpoint_steps.Add(merged.endpoint_steps);
  metrics.batches.Add(merged.batches);
  if (stats != nullptr) *stats = std::move(merged);
  return out;
}

}  // namespace conservation::interval::internal

#endif  // CONSERVATION_INTERVAL_SHARD_H_
