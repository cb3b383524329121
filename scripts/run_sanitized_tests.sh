#!/usr/bin/env bash
# Build the tree with sanitizers and run the test suite. Usage:
#
#   scripts/run_sanitized_tests.sh [build-dir] [sanitizers] [ctest-regex]
#
#   build-dir    sanitized build tree (default: build-asan)
#   sanitizers   comma list for PIMSIM_SANITIZE
#                (default: address,undefined; use "thread" for TSan)
#   ctest-regex  optional -R filter (default: whole suite)
#
# Examples:
#   scripts/run_sanitized_tests.sh                       # ASan+UBSan, all
#   scripts/run_sanitized_tests.sh build-ubsan undefined \
#       'parallel_test|system_test'                      # UBSan subset
#
# Each sanitized build lives in its own directory so it never disturbs
# the regular build tree.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-asan}"
sanitizers="${2:-address,undefined}"
test_regex="${3:-}"

cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPIMSIM_SANITIZE="${sanitizers}"
cmake --build "${build_dir}" -j "$(nproc)"

export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

ctest_args=(--test-dir "${build_dir}" --output-on-failure -j "$(nproc)")
if [[ -n "${test_regex}" ]]; then
    ctest_args+=(-R "${test_regex}")
fi
ctest "${ctest_args[@]}"
