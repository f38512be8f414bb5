#!/usr/bin/env bash
# Builds a binary in a sanitized build tree and runs it. Used by ctest to
# enforce sanitizer coverage on every full test run, not just when someone
# remembers check_tsan.sh:
#   - ThreadSanitizer over the parallel paths (shard_smoke, obs_smoke) and
#     the batch-kernel differential suite;
#   - AddressSanitizer over the batch-kernel differential suite, which is
#     what catches an out-of-bounds vector lane read at a batch tail.
#
# Usage: tools/sanitizer_smoke.sh [build-dir] [target] [sanitizer] [subdir]
#                                [gtest-filter]
#   build-dir     default: <repo>/build-tsan
#   target        default: shard_smoke
#   sanitizer     'thread' (default) or 'address' (CONSERVATION_SANITIZE)
#   subdir        build-tree subdirectory holding the binary; default: tools
#   gtest-filter  run only the matching gtest cases, e.g. 'CsvFuzzTest.*';
#                 default: all
set -euo pipefail
source "$(dirname "$0")/smoke_lib.sh"

build_dir="${1:-$(smoke_repo_root)/build-tsan}"
target="${2:-shard_smoke}"
sanitizer="${3:-thread}"
subdir="${4:-tools}"
filter="${5:-}"

smoke_build_variant "${build_dir}" "${target}" \
  -DCONSERVATION_SANITIZE="${sanitizer}"

# halt_on_error: make the first report fail the run instead of scrolling by.
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
  "${build_dir}/${subdir}/${target}" ${filter:+"--gtest_filter=${filter}"}
