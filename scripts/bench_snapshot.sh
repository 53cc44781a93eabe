#!/usr/bin/env bash
# Records a google-benchmark JSON snapshot of bench_perf_micro for the
# current revision:
#   scripts/bench_snapshot.sh              # all benchmarks
#   scripts/bench_snapshot.sh BM_Spice     # filtered
#   MSS_NATIVE=ON scripts/bench_snapshot.sh  # -march=native build
# Writes BENCH_<shortrev>.json in the repo root (gitignored scratch; copy a
# snapshot into bench/baselines/ to commit it as the revision's baseline)
# and prints the path. Diff real_time across revisions to track the perf
# trajectory.
#
# The snapshot context embeds the compiler version and the effective
# CMAKE_CXX_FLAGS (plus the MSS_NATIVE setting), so baselines recorded on
# different toolchains or ISA settings are distinguishable instead of
# silently comparable.
set -euo pipefail
cd "$(dirname "$0")/.."

FILTER="${1:-}"
JOBS="$(nproc 2>/dev/null || echo 2)"

# MSS_NATIVE is always passed (default OFF): a stale ON in the CMake cache
# must never silently turn a "portable" snapshot into a -march=native one.
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release \
      "-DMSS_NATIVE=${MSS_NATIVE:-OFF}" >/dev/null
cmake --build build -j"${JOBS}" --target bench_perf_micro >/dev/null

cache_var() {
  sed -n "s/^$1:[A-Z]*=//p" build/CMakeCache.txt | head -n1
}
CXX_BIN="$(cache_var CMAKE_CXX_COMPILER)"
COMPILER="$("${CXX_BIN}" --version 2>/dev/null | head -n1 || echo unknown)"
BUILD_TYPE="$(cache_var CMAKE_BUILD_TYPE)"
# Effective flags = user CMAKE_CXX_FLAGS + build-type flags + the directory
# compile options CMake cached for us (add_compile_options is invisible in
# CMAKE_CXX_FLAGS, and it carries the SIMD-relevant -ffp-contract=off /
# -fno-math-errno / -march=native).
FLAGS="$(cache_var CMAKE_CXX_FLAGS)"
FLAGS_BT="$(cache_var "CMAKE_CXX_FLAGS_$(echo "${BUILD_TYPE}" | tr '[:lower:]' '[:upper:]')")"
FLAGS_DIR="$(cache_var MSS_EFFECTIVE_CXX_OPTIONS)"
NATIVE="$(cache_var MSS_NATIVE)"

# google-benchmark's --benchmark_context parser rejects values containing
# '=' (e.g. -ffp-contract=off), so flag values spell it ':'; also squeeze
# the whitespace the empty CMAKE_CXX_FLAGS slot leaves behind.
FLAGS_ALL="$(echo "${FLAGS} ${FLAGS_BT} ${FLAGS_DIR}" | xargs)"
FLAGS_ALL="${FLAGS_ALL//=/:}"

REV="$(git rev-parse --short HEAD)"
OUT="BENCH_${REV}.json"
# Three repetitions per benchmark: bench_diff.py compares their median,
# which single runs on a shared host cannot give.
ARGS=(--benchmark_format=json
      --benchmark_repetitions=3
      "--benchmark_context=compiler=${COMPILER//=/:}"
      "--benchmark_context=cxx_flags=${FLAGS_ALL}"
      "--benchmark_context=mss_native=${NATIVE:-OFF}")
if [[ -n "${FILTER}" ]]; then
  ARGS+=("--benchmark_filter=${FILTER}")
fi
# Write to a temp file and rename only on success: a benchmark run that
# dies mid-way (OOM, ^C, bad filter) must not leave a truncated — or
# worse, stale-looking — BENCH_<rev>.json behind for bench_diff.py to
# compare against.
TMP="${OUT}.tmp"
trap 'rm -f "${TMP}"' EXIT
./build/bench_perf_micro "${ARGS[@]}" > "${TMP}"
mv "${TMP}" "${OUT}"
trap - EXIT
echo "${OUT}"
