#!/usr/bin/env bash
# Builds the suite under ThreadSanitizer and runs the tests that exercise
# the parallel paths (thread pool, sharded generators, batched streaming).
#
# Usage: tools/check_tsan.sh [extra ctest args...]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-tsan"

cmake -B "${build_dir}" -S "${repo_root}" -DCONSERVATION_SANITIZE=thread
cmake --build "${build_dir}" -j \
  --target parallel_test interval_test shard_scheduler_test network_test

# gtest_discover_tests registers ctest entries per gtest suite.case, so
# filter on the suites that stress the concurrent code.
ctest --test-dir "${build_dir}" --output-on-failure \
  -R 'ParallelFor|ThreadPool|ShardInvariance|ShardScheduler|FleetTest' \
  "$@"
