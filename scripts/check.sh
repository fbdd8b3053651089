#!/usr/bin/env bash
# Pre-merge check: configure with AddressSanitizer + UndefinedBehaviorSanitizer,
# build everything, and run the full test suite, then rerun the concurrency
# tests under ThreadSanitizer. Separate build trees (build-asan/, build-tsan/)
# keep the sanitized artifacts out of the regular build/.
#
# Usage: scripts/check.sh [--quick] [extra ctest args...]
#   --quick   sanitized build + full suite only: skips the clang-tidy gate,
#             the fault-matrix rerun, and the ThreadSanitizer pass.
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
  QUICK=1
  shift
fi

BUILD_DIR=build-asan

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
  -DSNAPDIFF_SANITIZE=address,undefined
cmake --build "${BUILD_DIR}" -j "$(nproc)"

# Static analysis (.clang-tidy: performance-* + bugprone-dangling-handle,
# guarding the string_view-based row pipeline). Warnings are promoted to
# errors so a finding fails the check instead of scrolling by. Skipped when
# clang-tidy is not installed.
if [[ "${QUICK}" -eq 0 ]]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    if command -v run-clang-tidy >/dev/null 2>&1; then
      run-clang-tidy -p "${BUILD_DIR}" -quiet \
        -warnings-as-errors='*' "src/.*\.cc$"
    else
      find src -name '*.cc' -print0 |
        xargs -0 -P "$(nproc)" -n 4 clang-tidy -p "${BUILD_DIR}" --quiet \
          --warnings-as-errors='*'
    fi
  else
    echo "clang-tidy not found; skipping static-analysis phase"
  fi
fi

# halt_on_error makes UBSan findings fail the run instead of just logging.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"

ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)" "$@"

if [[ "${QUICK}" -eq 1 ]]; then
  echo "--quick: skipping fault-matrix rerun and TSan pass"
  exit 0
fi

# Fault matrix: rerun the fault-injection surface (channel fault plans,
# mid-stream failures, per-site partitions, resumable sessions) on its own
# so a flake here is attributable immediately. Still under ASan/UBSan.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)" -L fault

# Crash-recovery matrix: the randomized crash-point fuzzer and deterministic
# crash-point tests, under the same sanitizers.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)" -L crash

# ThreadSanitizer pass, the same three runs as the CI tsan job: the thread
# pool and the parallel refresh pipeline (plus the observability integration
# tests that drive a multi-worker refresh end to end), the fault matrix
# (whose mvcc suite races real writer threads against epoch scans), and the
# socket server surface. The whole tree is built: the `fault` and `server`
# labels span many test binaries and the shell smoke test.
TSAN_BUILD_DIR=build-tsan

cmake -B "${TSAN_BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSNAPDIFF_TSAN=ON
cmake --build "${TSAN_BUILD_DIR}" -j "$(nproc)"

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

ctest --test-dir "${TSAN_BUILD_DIR}" --output-on-failure -j "$(nproc)" \
  -R 'ThreadPool|ParallelRefresh|Observability|GroupRefresh|DeltaCache'

ctest --test-dir "${TSAN_BUILD_DIR}" --output-on-failure -j "$(nproc)" \
  -L fault

# Socket server surface: accept loop, per-connection handler threads, and
# the client's reconnect/RESUME path all race-checked over real loopback
# sockets.
ctest --test-dir "${TSAN_BUILD_DIR}" --output-on-failure -j "$(nproc)" \
  -L server
