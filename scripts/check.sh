#!/bin/sh
# Build and run the full test suite in three configurations:
#
#   1. the default (plain) config, the same one CI and developers use;
#   2. RelWithDebInfo + -DCLAP_SANITIZE=address,undefined;
#   3. RelWithDebInfo + -DCLAP_SANITIZE=thread.
#
# The robustness contract is that every corruption path (bad traces,
# bad configs, injected faults) returns a typed error or degrades
# gracefully -- never trips UB -- and that the concurrent paths
# (service shards, gateway connections, replicas, supervisor) are
# free of data races; this is the script that proves both. Every
# config runs even if an earlier one fails; the script exits non-zero
# if any build or ctest run failed. Any sanitizer report fails its
# test (halt_on_error); there are no suppressions.
#
# Usage: scripts/check.sh [plain-build-dir] [asan-build-dir]
#                         [tsan-build-dir]
#        (defaults: build, build-asan, build-tsan)
set -u

cd "$(dirname "$0")/.."
PLAIN_DIR=${1:-build}
ASAN_DIR=${2:-build-asan}
TSAN_DIR=${3:-build-tsan}
STATUS=0

run_config() {
    # $1 = build dir, $2 = extra cmake args (may be empty), $3 = label
    _dir=$1
    _args=$2
    _label=$3
    # shellcheck disable=SC2086  # _args is intentionally word-split
    if ! cmake -B "$_dir" -S . $_args; then
        echo "check.sh: [$_label] configure FAILED" >&2
        STATUS=1
        return
    fi
    if ! cmake --build "$_dir" -j "$(nproc)"; then
        echo "check.sh: [$_label] build FAILED" >&2
        STATUS=1
        return
    fi
    # halt_on_error makes any UBSan or TSan diagnostic fail the test
    # run instead of scrolling past in the log.
    if ! UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
         ASAN_OPTIONS=strict_string_checks=1:detect_stack_use_after_return=1 \
         TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
         ctest --test-dir "$_dir" --output-on-failure -j "$(nproc)"; then
        echo "check.sh: [$_label] ctest FAILED" >&2
        STATUS=1
        return
    fi
    echo "check.sh: [$_label] clean"
}

run_config "$PLAIN_DIR" "" "default"
run_config "$ASAN_DIR" \
    "-DCMAKE_BUILD_TYPE=RelWithDebInfo -DCLAP_SANITIZE=address,undefined" \
    "asan"
run_config "$TSAN_DIR" \
    "-DCMAKE_BUILD_TYPE=RelWithDebInfo -DCLAP_SANITIZE=thread" \
    "tsan"

if [ "$STATUS" -ne 0 ]; then
    echo "check.sh: FAILURES (see above)" >&2
    exit "$STATUS"
fi
echo "check.sh: all tests clean in all three configurations"
