#!/usr/bin/env bash
# Stdout bit-identity regression for crdiscover across thread counts and,
# optionally, with the sketch screen on and off.
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
# Extra arguments (e.g. --sketch_block=8 or --algorithm=nab_opt) are
# appended to every run. With --sketch_check first, one more run adds
# --sketch=off and is diffed against the others: the sketch screen only
# skips anchors that cannot emit, so stdout must not change. Its
# `generation: ... tested=` count on stderr must also be strictly higher
# than the screened run's, which proves the screen ran.
#
# Usage: tools/stdout_regression.sh [--sketch_check] CRDISCOVER_BINARY
#            INPUT_CSV [ARG...]
set -euo pipefail
source "$(dirname "$0")/smoke_lib.sh"

sketch_check=0
if [[ $# -ge 1 && "$1" == "--sketch_check" ]]; then
  sketch_check=1
  shift
fi
if [[ $# -lt 2 ]]; then
  echo "usage: stdout_regression.sh [--sketch_check] CRDISCOVER_BINARY" \
       "INPUT_CSV [ARG...]" >&2
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

tested_count() {
  sed -nE 's/^generation: .* tested=([0-9]+) .*/\1/p' "$1"
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

if [[ ${sketch_check} -eq 0 ]]; then
  [[ ${status} -eq 0 ]] && echo "OK: stdout bit-identical across --threads=1,2,4"
  exit ${status}
fi

"${crdiscover}" "${common_args[@]}" --sketch=off --threads=1 \
  2> "${workdir}/stderr_off.txt" \
  | zero_timings > "${workdir}/stdout_off.txt"
if ! cmp -s "${workdir}/stdout_t1.txt" "${workdir}/stdout_off.txt"; then
  echo "FAIL: stdout differs between the screened and --sketch=off runs:" >&2
  diff "${workdir}/stdout_t1.txt" "${workdir}/stdout_off.txt" >&2 || true
  status=1
fi
screened="$(tested_count "${workdir}/stderr_t1.txt")"
unscreened="$(tested_count "${workdir}/stderr_off.txt")"
if [[ -z "${screened}" || -z "${unscreened}" ]]; then
  echo "FAIL: no 'generation: ... tested=' line on stderr" >&2
  status=1
elif (( screened >= unscreened )); then
  echo "FAIL: the screen did not run: tested=${screened} with" \
       "${extra_args[*]}, tested=${unscreened} with --sketch=off" >&2
  status=1
fi

if [[ ${status} -eq 0 ]]; then
  echo "OK: stdout bit-identical across --threads=1,2,4 and --sketch=off" \
       "(tested=${screened} screened vs ${unscreened} unscreened)"
fi
exit ${status}
