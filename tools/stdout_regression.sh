#!/usr/bin/env bash
# Stdout bit-identity regression for crdiscover across thread counts.
#
# The discovery pipeline guarantees thread-count-independent results
# (DESIGN.md "Parallel execution"), and the obs::Sink routing guarantees
# deterministic output ordering — so crdiscover's stdout must be
# byte-for-byte identical at every --threads value. Diagnostics on stderr
# (wall times, shard counts) legitimately vary and are not compared; the
# *_seconds timing fields inside the --cover_stats JSON line vary between
# any two runs (even at the same thread count) and are zeroed before the
# comparison — every counter field stays under the bit-identity contract.
#
# Extra arguments (e.g. --algorithm=nab_opt) are appended to every run.
#
# Usage: tools/stdout_regression.sh CRDISCOVER_BINARY INPUT_CSV [ARG...]
set -euo pipefail
source "$(dirname "$0")/smoke_lib.sh"

if [[ $# -lt 2 ]]; then
  echo "usage: stdout_regression.sh CRDISCOVER_BINARY INPUT_CSV [ARG...]" >&2
  exit 2
fi
crdiscover="$1"
input="$2"
shift 2
extra_args=("$@")

smoke_tmp_workdir
workdir="${SMOKE_WORKDIR}"

common_args=(--input="${input}" --type=fail --c_hat=0.3 --s_hat=0.02
             --cover_stats --severity "${extra_args[@]}")

zero_timings() {
  sed -E 's/"(seed_seconds|select_seconds|seconds)":[0-9.eE+-]+/"\1":0/g'
}

for threads in 1 2 4; do
  "${crdiscover}" "${common_args[@]}" --threads="${threads}" \
    2> "${workdir}/stderr_t${threads}.txt" \
    | zero_timings > "${workdir}/stdout_t${threads}.txt"
done

status=0
for threads in 2 4; do
  if ! cmp -s "${workdir}/stdout_t1.txt" "${workdir}/stdout_t${threads}.txt"; then
    echo "FAIL: stdout differs between --threads=1 and --threads=${threads}:" >&2
    diff "${workdir}/stdout_t1.txt" "${workdir}/stdout_t${threads}.txt" >&2 || true
    status=1
  fi
done

[[ ${status} -eq 0 ]] && echo "OK: stdout bit-identical across --threads=1,2,4"
exit ${status}
