#!/usr/bin/env bash
# Full local verification: plain build + tests, ASan tests, TSan tests on
# the std::atomic-only modules (TSan cannot see through the cmpxchg16b
# inline asm in the CRQ fast path, so CRQ/LCRQ suites are exercised under
# ASan and the checker-based tests instead).
set -euo pipefail
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

cmake -B build-asan -G Ninja -DLCRQ_ENABLE_ASAN=ON -DLCRQ_ENABLE_BENCH=OFF -DLCRQ_ENABLE_EXAMPLES=OFF
cmake --build build-asan
ctest --test-dir build-asan --output-on-failure

cmake -B build-tsan -G Ninja -DLCRQ_ENABLE_TSAN=ON -DLCRQ_ENABLE_BENCH=OFF -DLCRQ_ENABLE_EXAMPLES=OFF
cmake --build build-tsan
# The TSan-eligible suites carry the `tsan` label (tests/CMakeLists.txt).
ctest --test-dir build-tsan --output-on-failure -L tsan

# Schedule-injection build (docs/TESTING.md §5): the forced-window, kill,
# and seeded-sweep suites need the instrumented hot paths.
cmake -B build-inject -G Ninja -DLCRQ_INJECT=ON -DLCRQ_ENABLE_BENCH=OFF -DLCRQ_ENABLE_EXAMPLES=OFF
cmake --build build-inject
ctest --test-dir build-inject --output-on-failure -L inject

# Injection under TSan: the `tsan`-labelled injection suites (cmpxchg16b
# keeps the CRQ/LCRQ binaries out).
cmake -B build-tsan-inject -G Ninja -DLCRQ_INJECT=ON -DLCRQ_ENABLE_TSAN=ON -DLCRQ_ENABLE_BENCH=OFF -DLCRQ_ENABLE_EXAMPLES=OFF
cmake --build build-tsan-inject
ctest --test-dir build-tsan-inject --output-on-failure -L tsan -L inject

# Hugepage fallback: force the THP-unavailable path (LCRQ_FORCE_NO_THP)
# and re-run the suites that exercise -huge variants and the slab layer,
# proving opt-in hugepages degrade to plain pages with full correctness.
LCRQ_FORCE_NO_THP=1 ctest --test-dir build --output-on-failure -R \
  "test_segment_pool|test_registry"

# Perf smoke (EXPERIMENTS.md "Machine-readable pipeline"): generate the
# BENCH_*.json artifacts at CI scale, prove the comparator's fixture suite
# passes, and gate that each artifact self-compares clean.  To gate a perf
# change, stash a baseline copy of the artifacts from the parent commit and
# run bench_compare.py baseline new.  The repo benchmark (perfbench/,
# declared by BENCHMARK.json) builds its own measurement program outside
# the root build, so it is built and smoked here too.  These are the same
# commands the CI perf-smoke job runs.
if command -v python3 >/dev/null 2>&1; then
  mkdir -p bench_artifacts
  ./build/bench/regress --smoke --out-dir bench_artifacts
  python3 scripts/bench_compare.py --self-check
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --smoke
  for f in bench_artifacts/BENCH_*.json; do
    python3 scripts/bench_compare.py "$f" "$f"
  done
fi
