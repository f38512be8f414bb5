# Shared helpers for the smoke / regression shell wrappers
# (sanitizer_smoke.sh, stdout_regression.sh). Sourced, not executed — each
# function is a small, composable step so the wrappers stay single-screen
# descriptions of *what* they check rather than how a variant build tree is
# produced.
#
# Usage (from a script in tools/):
#   source "$(dirname "$0")/smoke_lib.sh"

# Absolute path of the repository root (the parent of tools/), independent
# of the caller's working directory.
smoke_repo_root() {
  cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd
}

# Configures a variant build tree and builds one target in it:
#   smoke_build_variant BUILD_DIR TARGET [CMAKE_ARG...]
# Extra arguments are passed to the configure step (e.g.
# -DCONSERVATION_SANITIZE=thread). Incremental: re-running against a warm
# tree only rebuilds what changed.
smoke_build_variant() {
  local build_dir="$1" target="$2"
  shift 2
  cmake -B "${build_dir}" -S "$(smoke_repo_root)" "$@"
  cmake --build "${build_dir}" -j --target "${target}"
}

# Creates a temporary scratch directory that is removed when the calling
# script exits (any path), and exposes it as SMOKE_WORKDIR. Must be called
# directly, not via command substitution: a $(...) subshell would take the
# EXIT trap with it and delete the directory before the caller uses it.
smoke_tmp_workdir() {
  SMOKE_WORKDIR="$(mktemp -d)"
  # shellcheck disable=SC2064  # expand now: simpler than quoting for later
  trap "rm -rf '${SMOKE_WORKDIR}'" EXIT
}
